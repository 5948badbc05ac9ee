/// \file test_cluster.cpp
/// Multi-machine sharded serving tier (src/cluster): deterministic
/// routing, the single-machine == standalone-server equivalence, shape
/// affinity beating hash placement on skewed traces, machine-scoped
/// fault domains, front-end-down admission and the global conservation
/// identities.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"

namespace parfft::cluster {
namespace {

using serve::ClusterFaultPlan;
using serve::FaultPlan;
using serve::FaultSpec;
using serve::JobShape;
using serve::OpenLoopWorkload;
using serve::ServeReport;
using serve::ServerConfig;
using serve::ShapeMix;

serve::ClusterConfig test_machine() {
  serve::ClusterConfig c;
  c.machine = net::summit();
  c.device = gpu::v100();
  c.nranks = 12;
  return c;
}

JobShape cube(int n) {
  JobShape s;
  s.n = {n, n, n};
  s.options.decomp = core::Decomposition::Pencil;
  s.options.overlap_batches = true;
  return s;
}

ServerConfig shard_config(std::vector<JobShape> shapes) {
  ServerConfig cfg;
  cfg.cluster = test_machine();
  cfg.shapes = std::move(shapes);
  return cfg;
}

double unit_time(const JobShape& shape) {
  core::Simulator sim(serve::to_sim_config(test_machine(), shape));
  return sim.transform_time(1);
}

std::string report_json(const ClusterReport& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

std::string report_json(const ServeReport& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

// ------------------------------------------------------------ determinism

/// Acceptance: a seeded >= 3 machine cluster run -- workload, faults,
/// placement and all -- is byte-identical across repeated runs, report
/// and combined telemetry snapshot alike.
TEST(Cluster, SeededRunsAreByteIdentical) {
  const std::vector<ShapeMix> mix = {{cube(32), 3.0}, {cube(64), 1.0}};
  auto once = [&] {
    ClusterOptions opt;
    opt.shard = shard_config({cube(32), cube(64)});
    opt.machines = 3;
    opt.placement = Placement::Affinity;
    FaultSpec spec;
    spec.seed = 7;
    spec.horizon = 1.0;
    spec.crash_mtbf = 0.2;
    spec.crash_mttr = 0.05;
    spec.degrade_mtbf = 0.3;
    spec.degrade_mttr = 0.1;
    opt.faults = ClusterFaultPlan::generate(3, spec);
    opt.shard.retry.max_attempts = 3;
    opt.shard.retry.jitter_seed = 5;
    Cluster cluster(opt);
    OpenLoopWorkload load(mix, /*rate=*/3000, /*count=*/150, /*tenants=*/2,
                          42);
    const ClusterReport rep = cluster.run(load);
    std::ostringstream snap;
    cluster.write_snapshot(snap);
    return std::make_pair(report_json(rep), snap.str());
  };
  const auto [rep_a, snap_a] = once();
  const auto [rep_b, snap_b] = once();
  EXPECT_EQ(rep_a, rep_b) << "same seeds -> byte-identical cluster report";
  EXPECT_EQ(snap_a, snap_b) << "same seeds -> byte-identical snapshot";
}

/// Every shard borrows its pricing handles from the cluster's one
/// PlanCatalog: under crashes (cache invalidations), link degradation and
/// capacity evictions the shards miss far more often than there are
/// shapes, yet each shape is priced on exactly one handle.
TEST(Cluster, ShardsShareOnePlanCatalog) {
  const std::vector<JobShape> shapes = {cube(32), cube(48), cube(64),
                                        cube(96)};
  const std::vector<ShapeMix> mix = {
      {shapes[0], 3.0}, {shapes[1], 2.0}, {shapes[2], 2.0}, {shapes[3], 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config(shapes);
  opt.shard.cache_capacity = 2;
  opt.shard.retry.max_attempts = 3;
  opt.shard.retry.jitter_seed = 5;
  opt.machines = 4;
  opt.placement = Placement::Load;
  FaultSpec spec;
  spec.seed = 11;
  spec.horizon = 1.0;
  spec.crash_mtbf = 0.2;
  spec.crash_mttr = 0.05;
  spec.degrade_mtbf = 0.3;
  spec.degrade_mttr = 0.1;
  opt.faults = ClusterFaultPlan::generate(4, spec);
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/3000, /*count=*/300, /*tenants=*/2, 9);
  const ClusterReport rep = cluster.run(load);

  OpenLoopWorkload replay(mix, 3000, 300, 2, 9);
  std::set<int> routed;
  while (!replay.done()) routed.insert(replay.pop().shape_id);
  std::uint64_t misses = 0, invalidations = 0;
  for (const auto& slice : rep.per_machine) {
    misses += slice.report.cache_misses;
    invalidations += slice.report.cache_invalidations;
  }
  EXPECT_GT(rep.crashes, 0u);
  EXPECT_GT(invalidations, 0u);
  EXPECT_GT(misses, routed.size());
  EXPECT_EQ(cluster.plan_catalog().size(), routed.size())
      << "one pricing handle per distinct shape across all shards";
}

// ------------------------------------------- single-machine equivalence

/// Acceptance: a one-machine cluster is the standalone server. Same
/// workload seed, same fault plan (crash + degrade + blackout to
/// exercise every event source): the shard's ServeReport must be
/// byte-identical to serve::Server::run()'s.
TEST(Cluster, SingleMachineMatchesStandaloneServerExactly) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 2.0}, {cube(64), 1.0}};
  auto load = [&] {
    return OpenLoopWorkload(mix, /*rate=*/2.0 / t1, /*count=*/80,
                            /*tenants=*/2, 11);
  };
  FaultPlan faults;
  faults.add_degrade(2.0 * t1, 6.0 * t1, 0.5);
  faults.add_crash(10.5 * t1, 4.0 * t1);
  faults.add_blackout(20.0 * t1, 22.0 * t1);

  ServerConfig cfg = shard_config({cube(32), cube(64)});
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_base = 0.5 * t1;
  cfg.retry.jitter_seed = 9;

  ServerConfig standalone_cfg = cfg;
  standalone_cfg.faults = faults;
  serve::Server standalone(standalone_cfg);
  OpenLoopWorkload standalone_load = load();
  const ServeReport expect = standalone.run(standalone_load);

  ClusterOptions opt;
  opt.shard = cfg;
  opt.machines = 1;
  opt.placement = Placement::Load;
  opt.faults.set_machine(0, faults);
  Cluster cluster(opt);
  OpenLoopWorkload cluster_load = load();
  const ClusterReport rep = cluster.run(cluster_load);

  ASSERT_EQ(rep.per_machine.size(), 1u);
  EXPECT_EQ(report_json(rep.per_machine[0].report), report_json(expect))
      << "one-machine cluster must replay the standalone event order";
  EXPECT_EQ(rep.offered, expect.offered);
  EXPECT_EQ(rep.completed, expect.completed);
  EXPECT_EQ(rep.failed, expect.failed);
  EXPECT_EQ(rep.frontend_shed, 0u);
  rep.verify();
}

// -------------------------------------------------------- placement

/// Shape-affinity routing on a skewed trace lands requests on warm
/// caches strictly more often than hash spraying, and pays fewer plan
/// setups overall.
TEST(Cluster, AffinityBeatsHashPlacementOnSkewedTrace) {
  const std::vector<ShapeMix> mix = {{cube(32), 6.0}, {cube(64), 2.0},
                                     {cube(48), 1.0}};
  auto run_with = [&](Placement placement) {
    ClusterOptions opt;
    opt.shard = shard_config({cube(32), cube(64), cube(48)});
    opt.machines = 3;
    opt.placement = placement;
    Cluster cluster(opt);
    OpenLoopWorkload load(mix, /*rate=*/4000, /*count=*/120, /*tenants=*/2,
                          21);
    return cluster.run(load);
  };
  const ClusterReport affinity = run_with(Placement::Affinity);
  const ClusterReport hash = run_with(Placement::Hash);
  affinity.verify();
  hash.verify();
  EXPECT_GT(affinity.affinity_hit_rate, hash.affinity_hit_rate)
      << "sticky shape routing must beat cache-blind spraying";
  auto setups = [](const ClusterReport& r) {
    std::uint64_t misses = 0;
    for (const MachineSlice& s : r.per_machine)
      misses += s.report.cache_misses;
    return misses;
  };
  EXPECT_LT(setups(affinity), setups(hash))
      << "affinity pays plan setup once per shape, not once per shard";
}

// ------------------------------------------------------- fault domains

/// Acceptance: a machine-scoped crash schedule produces per-shard (not
/// all-or-nothing) downtime -- the crashed shard reports the outage and
/// its own failures, the survivors' goodput is untouched, and the
/// global conservation identities still hold.
TEST(Cluster, MachineCrashLeavesSurvivorsGoodputIntact) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32)});
  opt.shard.batching.enabled = false;  // keep every shard provably busy
  opt.machines = 3;
  opt.placement = Placement::Load;
  // Crash machine 0 mid-run while the cluster is overloaded; machines 1
  // and 2 stay healthy.
  opt.faults.machine(0).add_crash(5.5 * t1, 6.0 * t1);
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/6.0 / t1, /*count=*/120, /*tenants=*/2,
                        33);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  ASSERT_EQ(rep.per_machine.size(), 3u);
  const ServeReport& crashed = rep.per_machine[0].report;
  EXPECT_EQ(crashed.crashes, 1u);
  EXPECT_GT(crashed.downtime, 0.0);
  EXPECT_EQ(rep.crashes, 1u);
  for (int m = 1; m < 3; ++m) {
    const MachineSlice& s = rep.per_machine[m];
    EXPECT_EQ(s.report.crashes, 0u) << "machine " << m;
    EXPECT_EQ(s.report.downtime, 0.0) << "machine " << m;
    EXPECT_EQ(s.report.failed, 0u) << "machine " << m;
    EXPECT_EQ(s.report.completed, s.routed)
        << "survivor " << m << " must complete everything routed to it";
  }
}

/// Hash placement fails over around a blacked-out machine: the router
/// diverts new placements, so the down machine's shard never sees (and
/// never drops) an arrival, and nothing is lost cluster-wide.
TEST(Cluster, HashFailoverRoutesAroundDownMachine) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32)});
  opt.machines = 3;
  opt.placement = Placement::Hash;
  // Machine 0 unreachable for the whole arrival window.
  opt.faults.machine(0).add_blackout(0.0, 1000.0 * t1);
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/2.0 / t1, /*count=*/60, /*tenants=*/2,
                        44);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  EXPECT_GT(rep.failovers, 0u);
  EXPECT_EQ(rep.per_machine[0].routed, 0u);
  EXPECT_EQ(rep.per_machine[0].report.dropped, 0u)
      << "failover happens at placement, not by bouncing off the blackout";
  EXPECT_EQ(rep.completed, rep.offered);
}

// --------------------------------------------------- front-end admission

/// Front-end blackout, Shed mode: arrivals inside the window are
/// terminal at the router, counted in frontend_shed and failed, never
/// in any shard.
TEST(Cluster, FrontendBlackoutShedsWhenConfiguredTo) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32)});
  opt.machines = 2;
  opt.placement = Placement::Load;
  opt.admission.frontend_down = AdmissionConfig::FrontendDown::Shed;
  opt.faults.frontend().add_blackout(0.0, 3.0 * t1);
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/2.0 / t1, /*count=*/40, /*tenants=*/2,
                        55);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  EXPECT_GT(rep.frontend_shed, 0u);
  EXPECT_EQ(rep.spooled, 0u);
  EXPECT_EQ(rep.offered, rep.routed + rep.frontend_shed);
  EXPECT_GE(rep.failed, rep.frontend_shed);
  for (const MachineSlice& s : rep.per_machine)
    EXPECT_EQ(s.report.dropped, 0u) << "shed at the router, not the shard";
}

/// Front-end blackout, Spool mode: the same arrivals are held at the
/// router and re-admitted when the blackout lifts -- nothing is lost.
TEST(Cluster, FrontendBlackoutSpoolsWhenConfiguredTo) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32)});
  opt.machines = 2;
  opt.placement = Placement::Load;
  opt.admission.frontend_down = AdmissionConfig::FrontendDown::Spool;
  opt.faults.frontend().add_blackout(0.0, 3.0 * t1);
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/2.0 / t1, /*count=*/40, /*tenants=*/2,
                        55);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  EXPECT_GT(rep.spooled, 0u);
  EXPECT_EQ(rep.frontend_shed, 0u);
  EXPECT_EQ(rep.routed, rep.offered);
  EXPECT_EQ(rep.completed, rep.offered)
      << "spooled arrivals are served after the blackout lifts";
}

/// The global admission limit bounds the aggregate queue depth across
/// shards: overload sheds at the router while per-shard queues stay
/// unbounded (no shard-level rejects).
TEST(Cluster, GlobalAdmissionLimitShedsAcrossShards) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32)});
  opt.shard.batching.enabled = false;
  opt.machines = 2;
  opt.placement = Placement::Load;
  opt.admission.global_queue_limit = 4;
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/20.0 / t1, /*count=*/100, /*tenants=*/2,
                        66);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  EXPECT_GT(rep.frontend_shed, 0u) << "overload must trip the global limit";
  for (const MachineSlice& s : rep.per_machine)
    EXPECT_EQ(s.report.rejected, 0u)
        << "admission control is global, not per shard";
  EXPECT_EQ(rep.completed + rep.failed, rep.offered);
}

// -------------------------------------------------------- survival layer

bool has_transition(const ClusterReport& r, const std::string& kind,
                    const std::string& detail_substr) {
  for (const SurvivalEvent& e : r.survival_log)
    if (e.kind == kind && e.detail.find(detail_substr) != std::string::npos)
      return true;
  return false;
}

/// ShardBreaker unit: closed -> open after failure_threshold consecutive
/// failures (successes reset the count), lazily half-open once
/// open_duration elapses, probe_count successes re-close, and a single
/// failed probe re-opens.
TEST(Survival, BreakerStateMachine) {
  BreakerConfig cfg;
  cfg.enabled = true;
  cfg.failure_threshold = 3;
  cfg.open_duration = 1.0;
  cfg.probe_count = 2;
  ShardBreaker b(cfg, 0);
  EXPECT_EQ(b.state(), BreakerState::Closed);
  b.on_failure(0.1);
  b.on_failure(0.2);
  b.on_success(0.25);  // a success resets the consecutive-failure count
  b.on_failure(0.3);
  b.on_failure(0.4);
  EXPECT_EQ(b.state(), BreakerState::Closed);
  b.on_failure(0.5);
  EXPECT_EQ(b.state(), BreakerState::Open);
  EXPECT_FALSE(b.allows(1.0, 1)) << "open blocks placement";
  // open_duration elapsed: lazily half-open, admits up to probe_count.
  EXPECT_TRUE(b.allows(1.6, 2));
  b.record_probe();
  EXPECT_TRUE(b.allows(1.7, 3));
  b.record_probe();
  EXPECT_FALSE(b.allows(1.8, 4)) << "probe budget exhausted";
  b.on_success(1.9);
  b.on_success(2.0);
  EXPECT_EQ(b.state(), BreakerState::Closed) << "probe successes re-close";
  b.on_failure(2.1);
  b.on_failure(2.2);
  b.on_failure(2.3);
  ASSERT_EQ(b.state(), BreakerState::Open);
  EXPECT_TRUE(b.allows(3.4, 5));
  b.record_probe();
  b.on_failure(3.5);
  EXPECT_EQ(b.state(), BreakerState::Open)
      << "one failed probe is proof enough";
}

/// BrownoutController unit: entry jumps straight to the worst qualifying
/// stage, exit steps down one stage at a time and only once the burn has
/// fallen below threshold(stage) * clear_ratio (no flapping around the
/// entry threshold).
TEST(Survival, BrownoutHysteresis) {
  BrownoutConfig cfg;  // thresholds 1.5 / 3.0 / 6.0, clear_ratio 0.5
  cfg.enabled = true;
  BrownoutController c(cfg);
  EXPECT_EQ(c.evaluate(0.0, 1.0), 0);
  EXPECT_EQ(c.evaluate(0.1, 2.0), 1);
  EXPECT_EQ(c.evaluate(0.2, 7.0), 3) << "entry jumps straight to the top";
  EXPECT_EQ(c.evaluate(0.3, 5.0), 3) << "below entry, above clear: hold";
  EXPECT_EQ(c.evaluate(0.4, 2.9), 2) << "one step down, then 2.9 >= 1.5 holds";
  EXPECT_EQ(c.evaluate(0.5, 1.4), 1);
  EXPECT_EQ(c.evaluate(0.6, 0.5), 0);
  EXPECT_EQ(c.evaluate(0.7, 3.5), 2) << "re-entry is immediate";
}

/// Acceptance: with the WHOLE survival layer on -- breakers, hedging,
/// brownout, drains, paced spooling -- plus generated crash / degrade /
/// blackout schedules, a seeded run is still byte-identical, report and
/// combined snapshot alike.
TEST(Survival, SeededSurvivalRunsAreByteIdentical) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 3.0}, {cube(64), 1.0}};
  auto once = [&] {
    ClusterOptions opt;
    opt.shard = shard_config({cube(32), cube(64)});
    opt.machines = 3;
    opt.placement = Placement::Affinity;
    opt.shard.retry.max_attempts = 3;
    opt.shard.retry.backoff_base = 0.25 * t1;
    opt.shard.retry.jitter_seed = 5;
    opt.shard.retry.deadline = 12.0 * t1;
    opt.shard.telemetry.window = 2.0 * t1;
    opt.shard.telemetry.default_slo.latency = 3.0 * t1;
    FaultSpec spec;
    spec.seed = 7;
    spec.horizon = 30.0 * t1;
    spec.crash_mtbf = 10.0 * t1;
    spec.crash_mttr = 2.0 * t1;
    spec.degrade_mtbf = 12.0 * t1;
    spec.degrade_mttr = 3.0 * t1;
    spec.blackout_mtbf = 15.0 * t1;
    spec.blackout_mttr = 2.0 * t1;
    opt.faults = ClusterFaultPlan::generate(3, spec);
    opt.admission.frontend_down = AdmissionConfig::FrontendDown::Spool;
    opt.admission.spool_drain_batch = 2;
    opt.admission.spool_drain_interval = 0.5 * t1;
    opt.survival.breaker.enabled = true;
    opt.survival.breaker.failure_threshold = 2;
    opt.survival.breaker.open_duration = 2.0 * t1;
    opt.survival.hedge.enabled = true;
    opt.survival.hedge.hedge_after = 2.0 * t1;
    opt.survival.brownout.enabled = true;
    opt.survival.brownout.low_priority_from = 1;
    opt.survival.drains = {{0, 6.0 * t1, 1.5 * t1, -1},
                           {1, 14.0 * t1, 1.5 * t1, -1}};
    Cluster cluster(opt);
    OpenLoopWorkload load(mix, /*rate=*/3.0 / t1, /*count=*/140,
                          /*tenants=*/2, 42);
    const ClusterReport rep = cluster.run(load);
    rep.verify();
    std::ostringstream snap;
    cluster.write_snapshot(snap);
    return std::make_pair(report_json(rep), snap.str());
  };
  const auto [rep_a, snap_a] = once();
  const auto [rep_b, snap_b] = once();
  EXPECT_EQ(rep_a, rep_b) << "survival features must stay deterministic";
  EXPECT_EQ(snap_a, snap_b);
}

/// Acceptance: hedged cross-shard failover. A NIC-degraded shard strands
/// requests in its queue; the router re-places copies elsewhere, the
/// first result wins, and every duplicate outcome is suppressed exactly
/// once -- then break one count and verify() must throw.
TEST(Survival, HedgedFailoverSuppressesDuplicates) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32)});
  opt.shard.batching.enabled = false;
  opt.machines = 3;
  opt.placement = Placement::Hash;
  // Machine 0's NIC loses 95% of its bandwidth for the whole run: its
  // queue crawls while machines 1 and 2 stay fast -- the classic
  // tail-latency hedging case.
  opt.faults.machine(0).add_degrade(0.0, 1000.0 * t1, 0.05);
  opt.survival.hedge.enabled = true;
  opt.survival.hedge.hedge_after = 1.5 * t1;
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/2.0 / t1, /*count=*/60, /*tenants=*/2,
                        77);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  EXPECT_GT(rep.hedges_placed, 0u);
  EXPECT_GT(rep.hedge_wins, 0u) << "copies on fast shards must win";
  EXPECT_EQ(rep.hedges_placed,
            rep.hedge_wasted + rep.hedge_cancelled + rep.hedge_dup_failed)
      << "every hedged pair's surplus outcome suppressed exactly once";
  EXPECT_EQ(rep.completed, rep.offered) << "no duplicate ever double-counts";
  EXPECT_EQ(rep.failed, 0u);
  std::uint64_t placed = 0;
  for (const MachineSlice& s : rep.per_machine) placed += s.routed;
  EXPECT_EQ(placed, rep.routed + rep.hedges_placed);

  // The extended identity is load-bearing: cook one count and the
  // conservation check must catch it.
  ClusterReport bad = rep;
  ++bad.completed;
  EXPECT_THROW(bad.verify(), Error);
}

/// Acceptance: breaker lifecycle on a real shard. A crash burst trips
/// the breaker (consecutive terminal failures), the open window blocks
/// placement, half-open admits seeded probes against the restarted
/// machine, and their successes re-close it -- all on the audit log.
TEST(Survival, BreakerTripsThenHalfOpenProbesReclose) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32)});
  opt.shard.batching.enabled = false;  // fail-fast: aborts are terminal
  opt.machines = 3;
  opt.placement = Placement::Hash;
  opt.faults.machine(0).add_crash(4.0 * t1, 3.0 * t1);
  opt.survival.breaker.enabled = true;
  opt.survival.breaker.failure_threshold = 3;
  opt.survival.breaker.open_duration = 3.5 * t1;
  opt.survival.breaker.probe_count = 2;
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/6.0 / t1, /*count=*/120, /*tenants=*/2,
                        88);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  EXPECT_GE(rep.breaker_trips, 1u);
  EXPECT_GE(rep.breaker_probes, 2u);
  EXPECT_TRUE(has_transition(rep, "breaker", "closed -> open"));
  EXPECT_TRUE(has_transition(rep, "breaker", "open -> half_open"));
  EXPECT_TRUE(has_transition(rep, "breaker", "half_open -> closed"))
      << "probe successes must re-admit the recovered machine";
  EXPECT_GT(rep.per_machine[0].routed, 0u)
      << "machine 0 must win traffic back after re-closing";
}

/// Acceptance: a seeded rolling restart of EVERY shard -- drain, hand
/// pins and warm plans to a successor, hold out, rejoin -- completes
/// with zero failed requests.
TEST(Survival, RollingRestartFinishesEveryRequest) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 3.0}, {cube(64), 2.0},
                                     {cube(48), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32), cube(64), cube(48)});
  opt.machines = 3;
  opt.placement = Placement::Affinity;
  opt.survival.drains = {{0, 8.0 * t1, 2.0 * t1, -1},
                         {1, 16.0 * t1, 2.0 * t1, -1},
                         {2, 24.0 * t1, 2.0 * t1, -1}};
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/0.5 / t1, /*count=*/45, /*tenants=*/2,
                        99);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  EXPECT_EQ(rep.drains, 3u) << "every machine must take its restart";
  EXPECT_EQ(rep.failed, 0u) << "a rolling restart must lose nothing";
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_GT(rep.drain_handovers, 0u);
  EXPECT_GT(rep.cache_preloads, 0u)
      << "successors must inherit the drained machine's warm plans";
  EXPECT_GE(rep.affinity_repins, 1u)
      << "pins must come home once the restarted machine rejoins";
  EXPECT_TRUE(has_transition(rep, "drain", "placement stopped"));
  EXPECT_TRUE(has_transition(rep, "drain", "rejoined placement"));
}

/// Satellite: paced spool re-admission. A burst release at blackout end
/// blows straight through the global queue limit; the same spool paced
/// out in small batches is absorbed without shedding a thing.
TEST(Survival, PacedSpoolReadmissionAvoidsShedSpike) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  auto run_with = [&](std::size_t batch, double interval) {
    ClusterOptions opt;
    opt.shard = shard_config({cube(32)});
    opt.shard.batching.enabled = false;
    opt.machines = 2;
    opt.placement = Placement::Load;
    opt.admission.frontend_down = AdmissionConfig::FrontendDown::Spool;
    opt.admission.global_queue_limit = 6;
    opt.admission.spool_drain_batch = batch;
    opt.admission.spool_drain_interval = interval;
    opt.faults.frontend().add_blackout(0.0, 3.0 * t1);
    Cluster cluster(opt);
    OpenLoopWorkload load(mix, /*rate=*/6.0 / t1, /*count=*/12, /*tenants=*/2,
                          55);
    const ClusterReport rep = cluster.run(load);
    rep.verify();
    EXPECT_GT(rep.spooled, 6u);
    return rep;
  };
  const ClusterReport burst = run_with(0, 0.0);
  const ClusterReport paced = run_with(2, 1.2 * t1);
  EXPECT_GT(burst.frontend_shed, 0u)
      << "one-shot re-admission must blow the global queue limit";
  EXPECT_EQ(paced.frontend_shed, 0u)
      << "paced re-admission stays inside the limit";
  EXPECT_EQ(paced.completed, paced.offered);
}

/// Satellite: affinity re-pin. A blackout drives a pin off its home
/// shard; with re-pin on the recovered home wins its warm traffic back
/// (hit rate stays high -- the cache survived the blackout), without it
/// the home shard idles forever.
TEST(Survival, AffinityRepinRestoresHomeShardAfterBlackout) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  auto run_with = [&](bool repin) {
    ClusterOptions opt;
    opt.shard = shard_config({cube(32)});
    opt.shard.batching.enabled = false;
    opt.machines = 3;
    opt.placement = Placement::Affinity;
    opt.faults.machine(0).add_blackout(2.0 * t1, 12.0 * t1);
    // An inert breaker switches the survival layer on without changing
    // any placement decision, isolating the re-pin effect.
    opt.survival.breaker.enabled = true;
    opt.survival.breaker.failure_threshold = 1 << 30;
    opt.survival.breaker.trip_on_page = false;
    opt.survival.affinity_repin = repin;
    Cluster cluster(opt);
    OpenLoopWorkload load(mix, /*rate=*/1.0 / t1, /*count=*/60, /*tenants=*/2,
                          31);
    const ClusterReport rep = cluster.run(load);
    rep.verify();
    return rep;
  };
  const ClusterReport with = run_with(true);
  const ClusterReport without = run_with(false);
  EXPECT_GT(with.affinity_repins, 0u);
  EXPECT_TRUE(has_transition(with, "affinity", "re-pinned"));
  EXPECT_EQ(without.affinity_repins, 0u);
  EXPECT_GT(with.per_machine[0].routed, without.per_machine[0].routed)
      << "the recovered home shard must win its warm traffic back";
  EXPECT_GT(with.affinity_hit_rate, 0.9)
      << "the home cache survived the blackout: re-pinned traffic is warm";
}

/// Brownout integration: sustained overload against a tight latency SLO
/// drives the burn-rate monitors up; the controller sheds the
/// best-effort tenant at the router, on the audit log, and the shed is
/// attributed (brownout_shed counts inside frontend_shed).
TEST(Survival, BrownoutShedsLowPriorityTenantsUnderBurn) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  ClusterOptions opt;
  opt.shard = shard_config({cube(32)});
  opt.shard.batching.enabled = false;
  opt.machines = 2;
  opt.placement = Placement::Load;
  // A latency SLO every completion under overload will blow, with
  // windows short enough for the burn monitors to react mid-run.
  opt.shard.telemetry.window = 1.0 * t1;
  opt.shard.telemetry.default_slo.latency = 1.5 * t1;
  opt.survival.brownout.enabled = true;
  opt.survival.brownout.low_priority_from = 1;  // tenant 1 is best-effort
  Cluster cluster(opt);
  OpenLoopWorkload load(mix, /*rate=*/5.0 / t1, /*count=*/120, /*tenants=*/2,
                        13);
  const ClusterReport rep = cluster.run(load);
  rep.verify();

  EXPECT_GT(rep.brownout_shed, 0u);
  EXPECT_GE(rep.brownout_peak_stage, 1);
  EXPECT_TRUE(has_transition(rep, "brownout", "stage 0 -> "));
  EXPECT_EQ(rep.brownout_shed, rep.frontend_shed)
      << "every shed here is brownout's doing";
}

/// Acceptance: under a fixed-seed chaos grid cell (degraded NIC on one
/// machine, a crash on another, deadlines in force) the survival layer
/// strictly beats survival-off goodput.
TEST(Survival, ChaosGoodputSurvivalOnBeatsOff) {
  const double t1 = unit_time(cube(32));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}};
  auto run_with = [&](bool survival) {
    ClusterOptions opt;
    opt.shard = shard_config({cube(32)});
    opt.shard.batching.enabled = false;
    opt.machines = 3;
    opt.placement = Placement::Hash;
    opt.shard.retry.max_attempts = 2;
    opt.shard.retry.backoff_base = 0.5 * t1;
    opt.shard.retry.jitter_seed = 3;
    opt.shard.retry.deadline = 6.0 * t1;
    // Correlated trouble: machine 0's NIC is degraded the whole run
    // while machine 1 crashes mid-run.
    opt.faults.machine(0).add_degrade(0.0, 1000.0 * t1, 0.05);
    opt.faults.machine(1).add_crash(10.0 * t1, 3.0 * t1);
    if (survival) {
      opt.survival.breaker.enabled = true;
      opt.survival.breaker.failure_threshold = 2;
      opt.survival.breaker.open_duration = 2.0 * t1;
      opt.survival.hedge.enabled = true;
      opt.survival.hedge.hedge_after = 1.0 * t1;
    }
    Cluster cluster(opt);
    OpenLoopWorkload load(mix, /*rate=*/1.5 / t1, /*count=*/90, /*tenants=*/2,
                          61);
    const ClusterReport rep = cluster.run(load);
    rep.verify();
    return rep;
  };
  const ClusterReport on = run_with(true);
  const ClusterReport off = run_with(false);
  EXPECT_GT(on.goodput, off.goodput)
      << "breakers + hedging must buy goodput under correlated faults";
  EXPECT_GT(on.deadline_met, off.deadline_met);
}

}  // namespace
}  // namespace parfft::cluster
