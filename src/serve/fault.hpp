#pragma once
/// \file fault.hpp
/// Deterministic fault injection and client-side recovery policy for the
/// serving stack.
///
/// The paper's contention results come from real, failure-prone
/// interconnects (Summit's dual-rail EDR, Spock's Slingshot); a production
/// FFT service on such machines must survive executor crashes, degraded
/// links and overload. This module describes those hazards as data -- a
/// FaultPlan scheduled up front from a seed, so two runs with equal
/// workload and fault seeds are bit-identical -- and the client-side
/// RetryPolicy that decides how failed submissions come back.
///
/// Fault taxonomy:
///  - CrashEvent: the executor process dies, aborting any in-flight batch
///    mid-transform and losing its queue and all resident device plans
///    (the serve::PlanCache is invalidated; recovery re-pays Fig. 10's
///    plan-setup spikes). The executor is back `restart_delay` later.
///  - DegradeWindow: the inter-node fabric runs at `nic_scale` of its
///    healthy NIC/core bandwidth (rail-down on dual-rail EDR = 0.5, a
///    flapping link less). FlowSim reprices every exchange inside the
///    window, including the remainder of an in-flight batch.
///  - BlackoutWindow: admissions are dropped on arrival (a partitioned
///    front-end); clients see a lost request and retry per policy.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/random.hpp"

namespace parfft::serve {

/// Executor crash at `at`; the executor is serving again at
/// `at + restart_delay`.
struct CrashEvent {
  double at = 0;
  double restart_delay = 0;
};

/// Inter-node links at `nic_scale` of healthy bandwidth in [begin, end).
struct DegradeWindow {
  double begin = 0;
  double end = 0;
  double nic_scale = 1.0;
};

/// Arrivals (first attempts and retries alike) dropped in [begin, end).
struct BlackoutWindow {
  double begin = 0;
  double end = 0;
};

/// Knobs for FaultPlan::generate(): each fault class is an independent
/// renewal process (exponential gaps, exponential durations) on its own
/// Rng::split stream, scheduled over [0, horizon). A rate of 0 disables
/// the class.
struct FaultSpec {
  std::uint64_t seed = 0;
  double horizon = 0;  ///< schedule events in [0, horizon)

  double crash_mtbf = 0;      ///< mean virtual seconds between crashes
  double crash_mttr = 0;      ///< mean restart delay

  double degrade_mtbf = 0;    ///< mean gap between degradation windows
  double degrade_mttr = 0;    ///< mean window duration
  double degrade_scale = 0.5; ///< nic_scale inside a window (rail-down)

  double blackout_mtbf = 0;   ///< mean gap between arrival blackouts
  double blackout_mttr = 0;   ///< mean blackout duration
};

/// An immutable schedule of fault events, queried by the server's event
/// loop. Within each class events are time-ordered and non-overlapping
/// (enforced on insertion). Default-constructed = no faults: a server
/// run with an empty plan is byte-identical to a run without the fault
/// layer.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Seeded schedule over [0, spec.horizon): crashes, degradation windows
  /// and blackouts drawn from independent Rng::split streams of
  /// `spec.seed`, so the three processes are decorrelated but jointly
  /// reproducible.
  static FaultPlan generate(const FaultSpec& spec);

  /// Manual construction (tests, targeted experiments). Events must be
  /// appended in time order; windows of one class must not overlap.
  void add_crash(double at, double restart_delay);
  void add_degrade(double begin, double end, double nic_scale);
  void add_blackout(double begin, double end);

  bool empty() const {
    return crashes_.empty() && degrades_.empty() && blackouts_.empty();
  }
  const std::vector<CrashEvent>& crashes() const { return crashes_; }
  const std::vector<DegradeWindow>& degrades() const { return degrades_; }
  const std::vector<BlackoutWindow>& blackouts() const { return blackouts_; }

  /// First crash strictly after `t`, if any.
  std::optional<double> next_crash_after(double t) const;
  /// The crash event at exactly time `at` (server-side dispatch helper).
  const CrashEvent* crash_at(double at) const;

  /// Fabric health at time `t`: 1 when healthy, the window's nic_scale
  /// inside a degradation window.
  double nic_scale_at(double t) const;
  /// Next instant strictly after `t` where nic_scale_at changes (a window
  /// opening or closing), if any: the event the server must wake at to
  /// reprice an in-flight batch.
  std::optional<double> next_degrade_boundary_after(double t) const;

  bool in_blackout(double t) const;

 private:
  std::vector<CrashEvent> crashes_;
  std::vector<DegradeWindow> degrades_;
  std::vector<BlackoutWindow> blackouts_;
};

/// Machine-scoped fault schedules for the multi-machine cluster tier
/// (src/cluster): each machine shard owns an independent FaultPlan, so
/// correlated/partial failures are expressible -- crash machine 0 while
/// machine 1 runs degraded -- instead of the single-machine plan's
/// all-or-nothing semantics. A separate front-end plan scopes blackouts
/// to the router itself (front-end-down admission: arrivals never reach
/// any shard). Default-constructed = no faults anywhere: a cluster run
/// with an empty plan is byte-identical to one without the fault layer.
class ClusterFaultPlan {
 public:
  ClusterFaultPlan() = default;

  /// Seeded schedule for `machines` shards plus the front end: machine
  /// `m` draws its plan from stream m of `spec.seed` (Rng::split), the
  /// front end from stream `machines`, so per-machine schedules are
  /// decorrelated but jointly reproducible and adding a machine never
  /// perturbs the others' schedules.
  static ClusterFaultPlan generate(int machines, const FaultSpec& spec);

  /// Mutable per-machine plan, created empty on first use.
  FaultPlan& machine(int m);
  /// The machine's plan; a shared empty plan when none was configured.
  const FaultPlan& machine(int m) const;
  void set_machine(int m, FaultPlan plan);

  /// The router's own fault schedule. Only its blackout windows are
  /// meaningful today (a partitioned front end); crash/degrade entries
  /// are ignored by the router.
  FaultPlan& frontend() { return frontend_; }
  const FaultPlan& frontend() const { return frontend_; }

  bool empty() const;
  /// Machine ids with a configured (possibly empty) plan, ascending.
  std::vector<int> machines() const;

 private:
  std::map<int, FaultPlan> machines_;
  FaultPlan frontend_;
  FaultPlan none_;  ///< returned for unconfigured machines
};

/// Client-side recovery: how a failed submission (rejected, dropped in a
/// blackout, aborted by a crash) comes back. Defaults are fail-fast
/// (max_attempts 1): the pre-fault serving semantics.
struct RetryPolicy {
  /// Total submission attempts per request (1 = no retries).
  int max_attempts = 1;
  /// First backoff interval; attempt k waits ~ base * 2^(k-1) without
  /// jitter.
  double backoff_base = 1e-3;
  /// Cap on any single backoff interval.
  double backoff_cap = 1.0;
  /// Decorrelated jitter (AWS style): sleep_k = min(cap,
  /// uniform(base, 3 * sleep_{k-1})), one Rng::split stream per request
  /// id -- retry storms from a shared fault decorrelate instead of
  /// re-arriving in lockstep.
  bool jitter = true;
  std::uint64_t jitter_seed = 0;

  /// Relative completion deadline stamped on every request at first
  /// admission (0 = none). Retries stop once the deadline cannot be met,
  /// and deadline-aware shedding (ServerConfig::shed_expired) uses it.
  double deadline = 0;
};

/// Backoff interval before attempt `next_attempt` (>= 2) of request `id`.
/// Deterministic: the jitter stream is Rng(policy.jitter_seed).split(id),
/// advanced once per prior retry, so a request's backoff sequence depends
/// only on (seed, id, attempt).
double retry_backoff(const RetryPolicy& policy, std::uint64_t id,
                     int next_attempt);

}  // namespace parfft::serve
