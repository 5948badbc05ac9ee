#pragma once
/// \file cluster.hpp
/// Multi-machine sharded serving tier.
///
/// One serve::Server multiplexes jobs over ONE simulated machine; large
/// deployments of the paper's systems (Summit, Spock) run many such
/// machines behind a routing front end. This module simulates that tier:
/// a Cluster owns N machine shards -- each a full serve::Server with its
/// own plan cache, batcher, executor and fault domain -- and a Router
/// that places every global arrival on a shard, all advanced on one
/// deterministic virtual clock (seeded runs are byte-identical, and a
/// one-machine cluster reproduces the standalone serve::Server report
/// exactly).
///
/// Placement policies (Placement):
///  - Hash: stateless spray by request id -- perfect load spreading,
///    cache-blind (every shard re-pays plan setup for every shape);
///  - Load: least-loaded shard (queued + unrouted + in flight);
///  - Affinity: sticky shape -> shard map (first placement by load), so
///    repeated shapes land on the shard whose plan cache is already warm.
///
/// Failure domains (serve::ClusterFaultPlan): each machine runs its own
/// crash/degrade/blackout schedule -- crash machine 0 while machine 1
/// degrades -- and the router fails over new placements around machines
/// that are down (crashed or in a machine blackout). Requests already on
/// a crashed shard follow that shard's retry semantics; failover is a
/// placement decision, never a cross-shard migration, so each shard's
/// conservation identity (completed + failed == offered) stays local.
///
/// The front end is itself a fault domain: during a frontend() blackout
/// arrivals never reach any shard, and AdmissionConfig::frontend_down
/// picks between shedding them (terminal failure at the router) and
/// spooling them until the blackout lifts. A global admission limit
/// bounds the aggregate queue depth across all shards.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cluster/survival.hpp"
#include "serve/server.hpp"

namespace parfft::cluster {

/// How the router picks a shard for each arrival.
enum class Placement {
  Hash,      ///< SplitMix-mixed request id modulo machine count
  Load,      ///< least (queued + unrouted + in flight), lowest id wins ties
  Affinity,  ///< sticky shape -> shard; first placement by load
};

const char* placement_name(Placement p);

/// Router-level admission control.
struct AdmissionConfig {
  /// Shed arrivals once the aggregate queue depth across all shards
  /// (batcher backlogs plus routed-but-unadmitted requests) reaches this
  /// many (0 = unbounded).
  std::size_t global_queue_limit = 0;

  /// What happens to arrivals while the front end itself is blacked out
  /// (ClusterFaultPlan::frontend() blackout windows).
  enum class FrontendDown {
    Shed,   ///< terminal failure at the router; clients see a lost request
    Spool,  ///< hold at the router, re-admit when the blackout lifts
  };
  FrontendDown frontend_down = FrontendDown::Shed;

  /// Paced spool re-admission at blackout end. 0 = legacy behavior: the
  /// whole spool re-admits in one burst at the blackout's end instant
  /// (which can blow straight through global_queue_limit's intent by
  /// arriving as one spike). > 0: spooled arrivals release in batches of
  /// this size, `spool_drain_interval` apart, in arrival order.
  std::size_t spool_drain_batch = 0;
  double spool_drain_interval = 0;
};

struct ClusterOptions {
  /// Template for every machine shard. Per shard the cluster overrides
  /// label ("<label>/m<id>"), faults (ClusterFaultPlan::machine(id)) and
  /// telemetry.machine; telemetry.snapshot_path is cleared (shards would
  /// clobber one file -- the combined document goes to `snapshot_path`
  /// below) and a set flight_path gets an "m<id>_" suffix.
  serve::ServerConfig shard;
  int machines = 1;
  Placement placement = Placement::Hash;
  AdmissionConfig admission;
  /// Machine-scoped fault schedules plus the front end's own. Empty =
  /// fault-free everywhere.
  serve::ClusterFaultPlan faults;
  /// Circuit breakers, hedged failover, brownout admission and rolling
  /// drains. Default-off: with `survival.any()` false the router takes
  /// the exact pre-survival code paths (byte-identical seeded runs).
  SurvivalConfig survival;
  std::string label = "cluster";
  /// Combined parfft-telemetry-v1 snapshot of all shards, written after
  /// each run ("" = none; see obs::write_cluster_snapshot).
  std::string snapshot_path;
};

/// One machine's slice of a cluster run.
struct MachineSlice {
  int machine = 0;
  std::uint64_t routed = 0;       ///< arrivals the router placed here
  std::uint64_t warm_routed = 0;  ///< placements onto an already-warm cache
  serve::ServeReport report;      ///< the shard's own full report
};

/// What one Cluster::run() produced: per-machine ServeReports plus the
/// router's own accounting, under the same conservation discipline as a
/// single server -- globally and per shard, every request ends exactly
/// once.
struct ClusterReport {
  int machines = 0;
  Placement placement = Placement::Hash;

  std::uint64_t offered = 0;   ///< requests the workload generated
  std::uint64_t routed = 0;    ///< placed on some shard (== sum of slices)
  /// Arrivals terminally shed at the router: front-end blackout in Shed
  /// mode, or the global admission limit. Counted in `failed`, never in
  /// any shard's report.
  std::uint64_t frontend_shed = 0;
  std::uint64_t spooled = 0;    ///< arrivals held through a front-end blackout
  std::uint64_t failovers = 0;  ///< placements diverted off a down shard

  std::uint64_t completed = 0;     ///< distinct requests completed
  std::uint64_t failed = 0;        ///< distinct requests failed (+ shed)
  std::uint64_t deadline_met = 0;  ///< completions within deadline
  std::uint64_t crashes = 0;       ///< executor crashes across all shards

  // --- Survival-layer accounting (all 0 with SurvivalConfig off). A
  // hedged request has TWO shard-level placements but still exactly ONE
  // cluster-level outcome; the router suppresses the loser:
  //   hedges_placed == hedge_wasted + hedge_cancelled + hedge_dup_failed.
  std::uint64_t hedges_placed = 0;  ///< speculative copies placed
  std::uint64_t hedge_wins = 0;     ///< copy finished before the primary
  /// Loser completed anyway (both copies ran to completion; the second
  /// result was discarded at the router).
  std::uint64_t hedge_wasted = 0;
  /// Loser was still queued when the winner finished and was withdrawn
  /// from its shard (terminal `cancelled` there).
  std::uint64_t hedge_cancelled = 0;
  /// Loser failed on its shard while the other copy survived (or had
  /// already won): the failure is not a cluster-level failure.
  std::uint64_t hedge_dup_failed = 0;

  std::uint64_t brownout_shed = 0;  ///< frontend_shed due to brownout stages
  int brownout_peak_stage = 0;      ///< worst stage reached (0..3)
  std::uint64_t breaker_trips = 0;  ///< transitions into Open
  std::uint64_t breaker_probes = 0; ///< half-open probe placements
  std::uint64_t drains = 0;           ///< drain events executed
  std::uint64_t drain_handovers = 0;  ///< shape pins moved to successors
  std::uint64_t cache_preloads = 0;   ///< successor plans preloaded
  std::uint64_t affinity_repins = 0;  ///< pins returned to their home shard

  /// Every survival-layer state transition in order (breaker, brownout,
  /// drain, hedge, affinity re-pin) -- the audit trail the lint rule's
  /// "no silent transitions" contract feeds.
  std::vector<SurvivalEvent> survival_log;

  double makespan = 0;    ///< router clock at the last event
  double throughput = 0;  ///< completed / makespan
  double goodput = 0;     ///< deadline_met / makespan
  /// warm_routed / routed: how often placement landed a request on a
  /// shard that already held its plan (the figure shape-affinity routing
  /// exists to maximize).
  double affinity_hit_rate = 0;

  serve::LatencySummary latency;  ///< merged over all shards
  /// Merged per-request latencies: shard-major in machine order (each
  /// shard's slice in its own completion order) without hedging; global
  /// completion order with hedging (the router counts outcomes as the
  /// winning copies finish, measured from the ORIGINAL routed arrival).
  std::vector<double> latencies;

  std::vector<MachineSlice> per_machine;  ///< ascending machine id

  /// Throws parfft::Error if the cluster conservation identities are
  /// broken: offered == routed + frontend_shed, routed + hedges_placed
  /// == sum of slice routed == sum of shard offered, completed + failed
  /// == offered globally with every hedged duplicate's second outcome
  /// suppressed exactly once (hedges_placed == hedge_wasted +
  /// hedge_cancelled + hedge_dup_failed), every shard report passes its
  /// own verify(), the derived figures are consistent and the latency
  /// summary is ordered (LatencySummary::verify). With the
  /// survival layer off every hedge/breaker/drain counter is zero and
  /// the identities reduce to the pre-survival ones. Cluster::run()
  /// calls this before returning under PARFFT_PARANOID; callable from
  /// tests in any build.
  void verify() const;

  /// Machine-readable JSON: the cluster totals flat, one nested
  /// ServeReport per machine. Feeds bench/cluster_sweep and
  /// bench/perf_baseline.
  void write_json(std::ostream& os) const;
};

/// The sharded serving tier. Shards (and their plan caches, all over one
/// PlanCatalog) persist across run() calls, mirroring serve::Server;
/// ClusterFaultPlan times are relative to each run's start.
class Cluster {
 public:
  explicit Cluster(ClusterOptions opt);
  ~Cluster();

  /// Drives `workload` to completion across all shards on one virtual
  /// clock and returns the aggregated report.
  ClusterReport run(serve::Workload& workload);

  const ClusterOptions& options() const { return opt_; }
  const serve::PlanCatalog& plan_catalog() const { return *catalog_; }

  /// Combined parfft-telemetry-v1 document over every shard's most
  /// recent run (valid after run(); see obs::write_cluster_snapshot).
  void write_snapshot(std::ostream& os) const;

 private:
  struct Shard;

  ClusterOptions opt_;
  std::shared_ptr<serve::PlanCatalog> catalog_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace parfft::cluster
