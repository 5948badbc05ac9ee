#pragma once
/// \file server.hpp
/// Virtual-time FFT service engine.
///
/// The server multiplexes many client jobs over ONE simulated machine:
/// a single executor runs one (possibly batched) transform at a time,
/// because every transform already spans all GPUs of the machine (the
/// paper's one-rank-per-GPU placement). The event loop advances virtual
/// time between its event sources -- workload arrivals, the batcher's
/// max-delay deadline, the executor finishing, retry timers and the
/// fault schedule -- and is fully deterministic for a given workload
/// seed and FaultPlan.
///
/// Per-request costs come from the same models the rest of the repo
/// validates against the paper: batched execution reuses core's batch +
/// overlap pipeline (Fig. 13) through core::Simulator, and a plan-cache
/// miss charges gpusim's first-call plan-setup spike (Fig. 10).
///
/// Failure semantics (see fault.hpp and docs/serving.md):
///  - an executor crash aborts the in-flight batch (sub-chunks already
///    delivered per the Fig. 13 pipeline profile still complete), loses
///    the batcher queue, and invalidates every resident plan; recovery
///    re-pays plan setup on the next dispatches;
///  - link-degradation windows reprice in-flight and subsequent
///    exchanges through FlowSim's mutated link state;
///  - blackouts drop admissions on arrival;
///  - failed submissions retry per RetryPolicy (capped exponential
///    backoff with decorrelated jitter) until attempts or the deadline
///    run out; deadline-aware shedding drops expired requests at
///    dispatch so retry storms cannot collapse goodput.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "serve/batcher.hpp"
#include "serve/fault.hpp"
#include "serve/plan_cache.hpp"
#include "serve/workload.hpp"

namespace parfft::obs {
class RunTrace;
}  // namespace parfft::obs

namespace parfft::serve {

struct ServerConfig {
  ClusterConfig cluster;
  /// Shape catalog; Request::shape_id indexes into this. Workloads must
  /// be built from the same catalog order.
  std::vector<JobShape> shapes;
  BatchPolicy batching;
  std::size_t cache_capacity = 16;
  std::size_t cache_eviction_window = 4;
  /// Admission control: reject arrivals when this many requests are
  /// already queued (0 = unbounded, never reject).
  std::size_t queue_limit = 0;
  /// Injected fault schedule; default-constructed = no faults, which
  /// reproduces the fault-free engine exactly.
  FaultPlan faults;
  /// Client-side recovery; default is fail-fast (no retries).
  RetryPolicy retry;
  /// Deadline-aware shedding: at dispatch, requests whose deadline has
  /// already passed are dropped instead of consuming executor time --
  /// graceful degradation under overload and retry storms.
  bool shed_expired = false;
  obs::TraceConfig trace;
  /// Live telemetry: windowed series, per-tenant SLO monitors and the
  /// flight recorder (obs/telemetry.hpp). Always-on by default; set
  /// `telemetry.enabled = false` to strip every observation. Tenant SLO
  /// targets come from telemetry.tenant_slo / telemetry.default_slo and
  /// also drive the per-tenant attainment figures of ServeReport (those
  /// are computed from the report's own counters, so the report is
  /// identical whether telemetry is on or off).
  obs::TelemetryConfig telemetry;
  std::string label = "serve";
};

/// Summary of one latency population (virtual seconds). min, mean and
/// max are exact; the quantiles carry obs::LogLinearHistogram's error
/// and are clamped to [min, max].
struct LatencySummary {
  double min = 0, p50 = 0, p95 = 0, p99 = 0, p999 = 0;
  double mean = 0, max = 0;

  /// Throws parfft::Error unless min <= p50 <= p95 <= p99 <= p999 <= max.
  /// `what` names the population in the message.
  void verify(const std::string& what) const;
};

/// The summary of everything `h` observed (all zero when empty). The one
/// way every serve and cluster report derives its latency figures.
LatencySummary summarize(const obs::LogLinearHistogram& h);

/// Writes `"key":{"min":...,"max":...}`: the JSON shape of a
/// LatencySummary in every report.
void write_latency_json(std::ostream& os, const char* key,
                        const LatencySummary& l);

/// One tenant's section of a ServeReport. Counters obey the same
/// conservation identity as the run totals (completed + failed ==
/// offered, per tenant); `latency` summarizes the tenant's completed
/// requests exactly as ServeReport::latency does the run's. SLO fields
/// are filled when the tenant has a target configured
/// (ServerConfig::telemetry): attainment always (from the report's own
/// counters), burn rates and the final alert state only when the
/// telemetry monitors actually ran.
struct TenantReport {
  int tenant = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Withdrawn while queued (Server::cancel_queued); neither a success
  /// nor a failure, and never charged to the SLO.
  std::uint64_t cancelled = 0;
  std::uint64_t shed = 0;
  LatencySummary latency;    ///< completed requests only
  double slo_latency = 0;    ///< configured target (0 = unmonitored)
  double slo_objective = 0;
  /// In-SLO terminal outcomes / all terminal outcomes (1.0 before any
  /// traffic; 1.0 when unmonitored).
  double attainment = 1.0;
  double burn_short = 0, burn_long = 0;  ///< at the last evaluation
  std::string state;         ///< final alert state ("" when unmonitored)
  std::uint64_t alerts = 0;  ///< alert transitions this tenant fired
};

/// What one Server::run() produced.
///
/// Terminal accounting: every offered request ends exactly once --
/// `completed`, `failed`, or `cancelled` (completed + failed + cancelled
/// == offered; cancelled stays 0 until Server::cancel_queued is
/// called). The attempt-level counters (rejected, dropped, aborted,
/// shed, retries) describe the intermediate outcomes that led there.
///
/// The report is also the one source of the run's serve/* trace
/// metrics: the engine publishes them from it when the run finishes.
struct ServeReport {
  std::uint64_t offered = 0;    ///< requests the workload generated
  std::uint64_t admitted = 0;   ///< submissions accepted past admission
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< permanently failed (attempts/deadline out)
  /// Withdrawn while queued via Server::cancel_queued. Terminal (the id
  /// never dispatches here) but neither success nor failure.
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;   ///< submissions bounced by the queue limit
  std::uint64_t dropped = 0;    ///< submissions lost to arrival blackouts
  std::uint64_t aborted = 0;    ///< requests lost to crashes (in flight or queued)
  std::uint64_t shed = 0;       ///< deadline-expired requests shed at dispatch
  std::uint64_t retries = 0;    ///< resubmissions scheduled by the retry policy
  std::uint64_t crashes = 0;    ///< executor crashes during the run
  std::uint64_t batches = 0;    ///< batched executions dispatched

  double makespan = 0;     ///< virtual time of the last completion
  double busy_time = 0;    ///< virtual time the executor was executing
  double downtime = 0;     ///< virtual time the executor was crashed
  double throughput = 0;   ///< completed transforms per virtual second
  /// In-deadline completions per virtual second (== throughput when no
  /// deadline is configured): the service's useful work under faults.
  double goodput = 0;
  std::uint64_t deadline_met = 0;  ///< completions within their deadline
  double utilization = 0;  ///< busy_time / makespan
  double mean_batch = 0;   ///< completed / batches
  /// (first attempts + retries) / offered: how much extra
  /// submission traffic the fault/recovery behaviour generated.
  double retry_amplification = 0;

  LatencySummary latency;     ///< first submission -> completion
  LatencySummary queue_wait;  ///< last admission -> dispatch
  std::vector<double> latencies;  ///< per-request, completion order

  /// Per crash recovered from: virtual seconds from the crash instant to
  /// the first completion after the executor restarted.
  std::vector<double> recovery_times;
  double mean_recovery = 0;

  /// Plan-cache totals at the end of the run (the cache persists across
  /// runs of one Server, so warm runs show hits against earlier misses).
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t cache_invalidations = 0;  ///< crash-forced removals
  double setup_charged = 0;  ///< virtual seconds of plan setup paid

  /// Per-tenant sections, sorted by tenant id; every tenant that offered
  /// at least one request appears.
  std::vector<TenantReport> tenants;
  /// SLO alert transitions, in virtual-time order (telemetry on only).
  std::vector<obs::AlertTransition> alert_log;
  /// Flight-recorder dump files written during the run (crash, blackout
  /// or page triggers; telemetry on with a dump path configured only).
  std::vector<std::string> flight_dumps;

  /// Throws parfft::Error if the report's conservation identities are
  /// broken: completed + failed + cancelled == offered (every request
  /// terminal exactly once), attempt traffic >= terminals, deadline_met
  /// <= completed, latency samples match completions, the time
  /// aggregates are sane (0 <= busy_time <= makespan), and every latency
  /// summary is ordered (LatencySummary::verify) with no tenant's max
  /// above the run's. Server::run() calls this before returning under
  /// PARFFT_PARANOID; callable directly from tests in any build.
  void verify() const;

  /// Machine-readable JSON object of the report (one flat object; the
  /// latency/queue-wait summaries nest). Feeds bench/perf_baseline's
  /// BENCH_parfft.json and any external dashboard. Per-request latency
  /// vectors are summarized, not dumped.
  void write_json(std::ostream& os) const;
};

/// The service engine. One instance owns one plan cache; run() may be
/// called repeatedly and later runs reuse plans cached by earlier ones.
/// FaultPlan times are relative to each run's start.
class Server {
 public:
  /// The cache borrows pricing handles from `catalog` (null: its own),
  /// which must key every catalog shape as `cfg.cluster` does; checked.
  explicit Server(ServerConfig cfg,
                  std::shared_ptr<PlanCatalog> catalog = nullptr);
  ~Server();

  /// Drives `workload` to completion in virtual time. Exactly
  /// begin() + advance_to(next_event_time()) until drained + finish().
  ServeReport run(Workload& workload);

  /// Incremental driving for external schedulers (the cluster router in
  /// src/cluster): begin() arms the event loop on `workload` and
  /// services virtual time 0, advance_to(t) moves the shard's clock to
  /// `t` (>= now()) and services every event at or before it (t ==
  /// now() re-services the current instant, e.g. after the driver
  /// injected an arrival), next_event_time() is the next internal event
  /// (infinity when drained), and finish() finalizes and returns the
  /// report. The driver must deliver arrivals before advancing past
  /// them; the engine itself never peeks beyond the workload it is
  /// given.
  void begin(Workload& workload);
  double next_event_time() const;
  void advance_to(double t);
  /// Virtual clock of the engine (0 before begin()).
  double now() const;
  /// Whether the executor will be serving at time `t` (>= now()): up
  /// already, or crashed with the restart due by `t`. The cluster
  /// router's health probe -- a crashed shard with no queued work never
  /// advances its own clock, so asking whether it is up now would look
  /// down forever and the machine could never rejoin placement.
  bool executor_up_at(double t) const;
  /// Submissions waiting in the batcher (the shard's queue depth).
  std::size_t queue_depth() const;
  /// Requests in the currently executing batch (0 when idle).
  std::size_t in_flight() const;
  /// True while request `id` sits in the queue (admitted, not yet
  /// dispatched): the window in which a hedged duplicate elsewhere can
  /// still save it, and the window in which cancel_queued() works.
  bool queued(std::uint64_t id) const;
  /// Withdraws a queued request: removed from the batcher, terminal as
  /// `cancelled` (not failed -- no SLO charge, no retry). The cluster
  /// router calls this on the losing copy of a cross-shard hedge the
  /// instant the winning copy completes. Returns false (and does
  /// nothing) unless the id is currently queued.
  bool cancel_queued(std::uint64_t id, double t);
  /// Live batching-policy adjustment during a run: brownout admission
  /// shrinks the coalescing window under burn-rate pressure and restores
  /// it when the pressure clears. Only valid between begin() and
  /// finish(); the next begin() resets to the configured policy.
  void set_batch_max_delay(double max_delay);
  ServeReport finish();

  const ServerConfig& config() const { return cfg_; }
  const PlanCache& plan_cache() const { return cache_; }
  /// Mutable cache access for the cluster router's drain handover
  /// (PlanCache::preload of a draining shard's warm list).
  PlanCache& plan_cache_mut() { return cache_; }

  /// The telemetry of the most recent run (null before the first run
  /// or when telemetry is disabled). Valid until the next begin() call.
  const obs::Telemetry* telemetry() const { return tel_.get(); }
  /// Mutable telemetry access for the cluster survival layer, which
  /// records breaker/brownout/drain transitions as Alert flight events
  /// on the affected machine's recorder.
  obs::Telemetry* telemetry_mut() { return tel_.get(); }

 private:
  /// One dispatched batch. Execution progress is tracked as a fraction of
  /// the current pricing's exec time so link-degradation boundaries can
  /// reprice the remainder mid-flight (fluid model).
  struct InFlight {
    Batch batch;
    double start = 0;      ///< dispatch time
    double setup = 0;      ///< plan-rebuild spike charged to this dispatch
    double setup_end = 0;  ///< start + setup (setup does not scale with links)
    double exec = 0;       ///< exec time at the current pricing scale
    double scale = 1.0;    ///< nic scale the remainder is priced at
    double work = 0;       ///< fraction of the execution completed
    double mark = 0;       ///< virtual time `work` was last advanced to
    double done = 0;       ///< projected completion
    /// The catalog's handle: valid across evictions and crashes.
    ServedPlan* plan = nullptr;
  };

  /// Resumable event-loop state (server.cpp): everything run() used to
  /// keep in locals, so an external driver can interleave many engines
  /// on one virtual clock.
  struct Engine;

  ServerConfig cfg_;
  PlanCache cache_;
  std::unique_ptr<obs::Telemetry> tel_;
  std::unique_ptr<Engine> eng_;
};

}  // namespace parfft::serve
