/// \file test_invariants.cpp
/// Paranoid mode and the runtime invariant checkers: a full pipeline run
/// (workload + faults + retries through the serving stack) produces
/// byte-identical results with checking on and off, the report and
/// plan-cache verifiers accept real runs and reject corrupted state, the
/// flow simulator never over-allocates a link, and -- in PARFFT_PARANOID
/// builds -- violations (a mis-nested span, a negative collective exit
/// cost) actually throw.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/paranoid.hpp"
#include "core/spectral.hpp"
#include "netsim/flowsim.hpp"
#include "obs/tracer.hpp"
#include "serve/server.hpp"
#include "simmpi/runtime.hpp"

namespace parfft::serve {
namespace {

ClusterConfig test_cluster() {
  ClusterConfig c;
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

/// The full pipeline: faults, retries, batching, shedding and a
/// capacity-bounded plan cache all active at once.
ServerConfig pipeline_config() {
  ServerConfig cfg;
  cfg.cluster = test_cluster();
  cfg.shapes = {cube(32), cube(48), cube(64)};
  cfg.batching.max_batch = 4;
  cfg.batching.max_delay = 0.05;
  cfg.cache_capacity = 2;
  cfg.queue_limit = 64;
  cfg.shed_expired = true;
  cfg.retry.max_attempts = 3;
  cfg.retry.deadline = 60.0;

  FaultSpec spec;
  spec.seed = 7;
  spec.horizon = 200.0;
  spec.crash_mtbf = 40.0;
  spec.crash_mttr = 2.0;
  spec.degrade_mtbf = 25.0;
  spec.degrade_mttr = 5.0;
  spec.degrade_scale = 0.5;
  spec.blackout_mtbf = 80.0;
  spec.blackout_mttr = 1.0;
  cfg.faults = FaultPlan::generate(spec);
  return cfg;
}

std::vector<ShapeMix> pipeline_mix() {
  return {{cube(32), 3.0}, {cube(48), 2.0}, {cube(64), 1.0}};
}

ServeReport run_pipeline(bool paranoid) {
  const bool prev = set_paranoid(paranoid);
  Server server(pipeline_config());
  OpenLoopWorkload load(pipeline_mix(), /*rate=*/2.0, /*count=*/120,
                        /*tenants=*/3, /*seed=*/99);
  ServeReport rep = server.run(load);
  set_paranoid(prev);
  return rep;
}

// -------------------------------------------------- checking is inert

TEST(Paranoid, CompileStateIsReported) {
  // paranoid_enabled() can never be true in a build without the checks.
  if (!paranoid_compiled()) {
    EXPECT_FALSE(paranoid_enabled());
  }
}

TEST(Paranoid, CheckedRunIsByteIdenticalToUncheckedRun) {
  const ServeReport on = run_pipeline(true);
  const ServeReport off = run_pipeline(false);

  EXPECT_EQ(on.offered, off.offered);
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_EQ(on.failed, off.failed);
  EXPECT_EQ(on.rejected, off.rejected);
  EXPECT_EQ(on.dropped, off.dropped);
  EXPECT_EQ(on.aborted, off.aborted);
  EXPECT_EQ(on.shed, off.shed);
  EXPECT_EQ(on.retries, off.retries);
  EXPECT_EQ(on.crashes, off.crashes);
  EXPECT_EQ(on.batches, off.batches);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.busy_time, off.busy_time);
  EXPECT_EQ(on.downtime, off.downtime);
  EXPECT_EQ(on.cache_hits, off.cache_hits);
  EXPECT_EQ(on.cache_misses, off.cache_misses);
  EXPECT_EQ(on.cache_evictions, off.cache_evictions);
  EXPECT_EQ(on.cache_invalidations, off.cache_invalidations);
  EXPECT_EQ(on.setup_charged, off.setup_charged);
  // Bitwise equality of the whole latency population, completion order
  // included: checking must not perturb a single event.
  ASSERT_EQ(on.latencies.size(), off.latencies.size());
  for (std::size_t i = 0; i < on.latencies.size(); ++i)
    EXPECT_EQ(on.latencies[i], off.latencies[i]) << "sample " << i;
  ASSERT_EQ(on.recovery_times.size(), off.recovery_times.size());
  for (std::size_t i = 0; i < on.recovery_times.size(); ++i)
    EXPECT_EQ(on.recovery_times[i], off.recovery_times[i]);
}

// -------------------------------------------------- report verification

TEST(ServeReportVerify, AcceptsRealRuns) {
  const ServeReport rep = run_pipeline(true);
  EXPECT_GT(rep.completed, 0u);
  EXPECT_NO_THROW(rep.verify());
}

TEST(ServeReportVerify, RejectsBrokenConservation) {
  ServeReport rep = run_pipeline(false);
  ++rep.completed;  // one request now terminates twice
  EXPECT_THROW(rep.verify(), Error);
}

TEST(ServeReportVerify, RejectsImpossibleAggregates) {
  ServeReport rep = run_pipeline(false);
  rep.deadline_met = rep.completed + 1;
  EXPECT_THROW(rep.verify(), Error);

  ServeReport rep2 = run_pipeline(false);
  rep2.busy_time = rep2.makespan + 1.0;
  EXPECT_THROW(rep2.verify(), Error);

  ServeReport rep3 = run_pipeline(false);
  rep3.latencies.pop_back();
  EXPECT_THROW(rep3.verify(), Error);
}

TEST(ServeReportVerify, RejectsQuantilesAboveTheMax) {
  // A tenant p99 above that tenant's own max.
  ServeReport rep = run_pipeline(false);
  ASSERT_FALSE(rep.tenants.empty());
  rep.tenants[0].latency.p99 = rep.tenants[0].latency.max + 1.0;
  EXPECT_THROW(rep.verify(), Error);

  ServeReport rep2 = run_pipeline(false);
  rep2.latency.p99 = rep2.latency.max + 1.0;
  EXPECT_THROW(rep2.verify(), Error);

  // Ordered on its own, but slower than the slowest request of the run.
  ServeReport rep3 = run_pipeline(false);
  ASSERT_FALSE(rep3.tenants.empty());
  rep3.tenants[0].latency.max = rep3.latency.max + 1.0;
  EXPECT_THROW(rep3.verify(), Error);
}

// -------------------------------------------------- plan cache identities

TEST(PlanCacheInvariants, HoldAcrossEvictionAndInvalidation) {
  PlanCache cache(std::make_shared<PlanCatalog>(test_cluster()),
                  /*capacity=*/2, /*eviction_window=*/2);
  const std::vector<JobShape> shapes = {cube(32), cube(48), cube(64)};
  // Drive past capacity (evictions), then re-touch (hits), then crash
  // (invalidation) and rebuild.
  for (int round = 0; round < 2; ++round)
    for (const JobShape& s : shapes) {
      cache.acquire(s);
      cache.check_invariants();
    }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), cache.lookups());
  EXPECT_EQ(cache.misses(),
            cache.resident() + cache.evictions() + cache.invalidations());

  const std::size_t dropped = cache.invalidate_all();
  EXPECT_EQ(dropped, 2u);
  cache.check_invariants();
  EXPECT_EQ(cache.resident(), 0u);

  cache.acquire(shapes[0]);
  cache.check_invariants();
  EXPECT_EQ(cache.hits() + cache.misses(), cache.lookups());
  EXPECT_EQ(cache.misses(),
            cache.resident() + cache.evictions() + cache.invalidations());
}

TEST(PlanCacheInvariants, ResidentPlansAreTheirCatalogsHandles) {
  auto catalog = std::make_shared<PlanCatalog>(test_cluster());
  PlanCache cache(catalog, /*capacity=*/2);
  cache.acquire(cube(32));
  cache.check_invariants();
  // A second handle for the same key (a cache that priced afresh) breaks
  // the sharing identity.
  auto& handle = catalog->plans.at(shape_key(test_cluster(), cube(32)));
  auto stolen = std::move(handle);
  handle = std::make_unique<ServedPlan>(cube(32), test_cluster());
  EXPECT_THROW(cache.check_invariants(), Error);
  handle = std::move(stolen);
  cache.check_invariants();
}

// -------------------------------------------------- flowsim capacity

TEST(FlowSimInvariants, NoLinkExceedsItsCapacity) {
  const bool prev = set_paranoid(true);
  net::FlowSim sim(net::summit(), net::RankMap{6}, /*nranks=*/12);
  // Congested all-to-all style phase with staggered starts.
  std::vector<net::Flow> flows;
  for (int s = 0; s < 12; ++s)
    for (int d = 0; d < 12; ++d) {
      if (s == d) continue;
      net::Flow f;
      f.src = s;
      f.dst = d;
      f.bytes = 1 << 20;
      f.start = 1e-6 * static_cast<double>(s);
      flows.push_back(f);
    }
  net::LinkStats stats;
  sim.run(flows, net::TransferMode::GpuAware, &stats);
  set_paranoid(prev);

  ASSERT_FALSE(stats.links.empty());
  for (const auto& link : stats.links) {
    EXPECT_LE(link.peak_rate, link.capacity * (1.0 + 1e-9)) << link.name;
    EXPECT_GT(link.bytes, 0.0) << link.name;
  }
  for (const net::Flow& f : flows) EXPECT_GE(f.finish, f.start);
}

// The streamed bottleneck estimate rests on its source emitting the same
// flows in the same order on both visits; paranoid builds check that.
TEST(FlowSimInvariants, StreamedEstimateChecksItsSource) {
  const bool prev = set_paranoid(true);
  const net::FlowSim sim(net::summit(), net::RankMap{6}, /*nranks=*/48);
  int visits = 0;
  bool drift = false;  // the second visit sends one byte more
  const auto source = [&](auto&& emit) {
    ++visits;
    for (int s = 0; s < 48; ++s)
      for (int d = 0; d < 48; ++d) {
        net::Flow f;
        f.src = s;
        f.dst = d;
        f.bytes = 1e5 + 10.0 * s + ((drift && visits == 2 && s == 7) ? 1 : 0);
        emit(f);
      }
  };
  std::vector<double> finish;
  const auto sink = [&finish](const net::Flow& f, double t) {
    EXPECT_GE(t, f.start);
    finish.push_back(t);
  };
  net::LinkStats stats;
  sim.run(48 * 48, source, net::TransferMode::Staged, sink, &stats);
  EXPECT_EQ(visits, 2);
  EXPECT_EQ(finish.size(), 48u * 48u);
  EXPECT_FALSE(stats.links.empty());

  visits = 0;
  drift = true;
  if (paranoid_compiled()) {
    EXPECT_THROW(sim.run(48 * 48, source, net::TransferMode::Staged, sink),
                 Error);
  }
  set_paranoid(prev);
}

// -------------------------------------------------- cluster identities

/// A full sharded-cluster pipeline: 3 machines with decorrelated fault
/// schedules, a blacked-out front end, global admission and affinity
/// placement, all at once.
cluster::ClusterReport run_cluster_pipeline(bool paranoid) {
  const bool prev = set_paranoid(paranoid);
  cluster::ClusterOptions opt;
  opt.shard = pipeline_config();
  opt.machines = 3;
  opt.placement = cluster::Placement::Affinity;
  opt.admission.global_queue_limit = 48;
  FaultSpec spec;
  spec.seed = 13;
  spec.horizon = 200.0;
  spec.crash_mtbf = 40.0;
  spec.crash_mttr = 2.0;
  spec.degrade_mtbf = 25.0;
  spec.degrade_mttr = 5.0;
  spec.blackout_mtbf = 60.0;
  spec.blackout_mttr = 2.0;
  opt.faults = ClusterFaultPlan::generate(3, spec);
  cluster::Cluster c(opt);
  OpenLoopWorkload load(pipeline_mix(), /*rate=*/2.0, /*count=*/120,
                        /*tenants=*/3, /*seed=*/99);
  cluster::ClusterReport rep = c.run(load);
  set_paranoid(prev);
  return rep;
}

TEST(ClusterReportVerify, AcceptsRealRuns) {
  const cluster::ClusterReport rep = run_cluster_pipeline(true);
  EXPECT_GT(rep.completed, 0u);
  EXPECT_NO_THROW(rep.verify());
}

TEST(ClusterReportVerify, RejectsBrokenGlobalConservation) {
  cluster::ClusterReport rep = run_cluster_pipeline(false);
  ++rep.completed;  // one request now terminates twice, cluster-wide
  EXPECT_THROW(rep.verify(), Error);

  cluster::ClusterReport rep2 = run_cluster_pipeline(false);
  ++rep2.frontend_shed;  // a shed request the workload never offered
  EXPECT_THROW(rep2.verify(), Error);
}

TEST(ClusterReportVerify, RejectsShardRollupMismatch) {
  // The global totals must be exactly the per-shard sums: drop one
  // shard's contribution and the rollup identity breaks.
  cluster::ClusterReport rep = run_cluster_pipeline(false);
  ASSERT_FALSE(rep.per_machine.empty());
  ++rep.per_machine[0].routed;
  EXPECT_THROW(rep.verify(), Error);

  cluster::ClusterReport rep2 = run_cluster_pipeline(false);
  ++rep2.crashes;  // a crash no shard experienced
  EXPECT_THROW(rep2.verify(), Error);

  cluster::ClusterReport rep3 = run_cluster_pipeline(false);
  ASSERT_FALSE(rep3.per_machine.empty());
  // More warm placements than placements is impossible.
  rep3.per_machine[0].warm_routed = rep3.per_machine[0].routed + 1;
  EXPECT_THROW(rep3.verify(), Error);
}

TEST(ClusterReportVerify, RejectsQuantilesAboveTheMax) {
  cluster::ClusterReport rep = run_cluster_pipeline(false);
  rep.latency.p99 = rep.latency.max + 1.0;
  EXPECT_THROW(rep.verify(), Error);
}

/// The router's side of the clock-skew invariant: a shard's virtual
/// clock can never be driven backwards, so no shard can drift ahead of
/// the router that advances it.
TEST(ClusterClock, ShardClockCannotRunBackwards) {
  Server server(pipeline_config());
  OpenLoopWorkload load(pipeline_mix(), /*rate=*/2.0, /*count=*/4,
                        /*tenants=*/1, /*seed=*/7);
  server.begin(load);
  double t = server.next_event_time();
  server.advance_to(t);
  ASSERT_GT(server.now(), 0.0);
  EXPECT_THROW(server.advance_to(server.now() * 0.5), Error);
}

// -------------------------------------------------- negative paranoid tests

#if defined(PARFFT_PARANOID)

TEST(ParanoidViolations, TracerMisnestedSpanThrows) {
  const bool prev = set_paranoid(true);
  obs::Tracer tracer(1);
  // Deliberately left open: the test needs a live parent to mis-nest
  // against. parfft-lint: allow(span-pairing)
  tracer.begin(0, obs::Category::Transform, "outer", 10.0);
  // A child claiming to start before its open parent is mis-nested.
  EXPECT_THROW(
      tracer.complete(0, obs::Category::Fft, "child", 1.0, 0.5), Error);
  set_paranoid(prev);
}

TEST(ParanoidViolations, NegativeCollectiveExitCostThrows) {
  // Only settle_clocks may set a clock back; an ordinary collective that
  // charges a negative exit cost is a bug. The check runs once the group
  // has drained, so the runtime stays usable.
  const bool prev = set_paranoid(true);
  smpi::RuntimeOptions ro;
  ro.nranks = 3;
  smpi::Runtime rt(ro);
  EXPECT_THROW(rt.run([](smpi::Comm& c) {
                 c.advance(1.0);
                 c.collective(nullptr, nullptr, nullptr,
                              [](int, int) { return -0.5; });
               }),
               Error);
  EXPECT_NO_THROW(rt.run([](smpi::Comm& c) { c.barrier(); }));
  set_paranoid(prev);
}

TEST(ParanoidViolations, ReshapeThatLeavesAHoleThrows) {
  // A reshape writes its destination without clearing it first, so the
  // regions a rank receives must tile its destination box. Here the
  // source layout misses the plane x = 3 of rank 1's destination.
  const bool prev = set_paranoid(true);
  smpi::RuntimeOptions ro;
  ro.nranks = 2;
  smpi::Runtime rt(ro);
  EXPECT_THROW(
      rt.run([](smpi::Comm& c) {
        const core::Box3 from = c.rank() == 0
                                    ? core::Box3{{0, 0, 0}, {1, 3, 3}}
                                    : core::Box3{{2, 0, 0}, {2, 3, 3}};
        const core::Box3 to = c.rank() == 0 ? core::Box3{{0, 0, 0}, {1, 3, 3}}
                                            : core::Box3{{2, 0, 0}, {3, 3, 3}};
        std::vector<cplx> in(static_cast<std::size_t>(from.count())), out;
        core::distributed_reshape(c, from, to, in, out,
                                  core::Backend::Alltoallv);
      }),
      Error);
  set_paranoid(prev);
}

TEST(ParanoidViolations, DisabledAtRuntimeDoesNotThrow) {
  const bool prev = set_paranoid(false);
  obs::Tracer tracer(1);
  // Deliberately left open, as above. parfft-lint: allow(span-pairing)
  tracer.begin(0, obs::Category::Transform, "outer", 10.0);
  EXPECT_NO_THROW(
      tracer.complete(0, obs::Category::Fft, "child", 1.0, 0.5));
  set_paranoid(prev);
}

#endif  // PARFFT_PARANOID

}  // namespace
}  // namespace parfft::serve
