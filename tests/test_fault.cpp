/// \file test_fault.cpp
/// Fault-injection and recovery layer: FaultPlan scheduling and queries,
/// retry backoff determinism, crash/degrade/blackout semantics in the
/// server event loop, deadline-aware shedding, and the acceptance
/// properties -- crashes inflate the tail and amplify traffic, shedding
/// beats no shedding on goodput at overload, and seeded fault runs are
/// byte-identical.

#include <gtest/gtest.h>

#include <vector>

#include "serve/server.hpp"

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

ServerConfig base_config(std::vector<JobShape> shapes) {
  ServerConfig cfg;
  cfg.cluster = test_cluster();
  cfg.shapes = std::move(shapes);
  return cfg;
}

double unit_time(const JobShape& shape) {
  core::Simulator sim(to_sim_config(test_cluster(), shape));
  return sim.transform_time(1);
}

// ------------------------------------------------------------- fault plan

TEST(FaultPlan, GenerateIsDeterministicAndOrdered) {
  FaultSpec spec;
  spec.seed = 42;
  spec.horizon = 100.0;
  spec.crash_mtbf = 10.0;
  spec.crash_mttr = 2.0;
  spec.degrade_mtbf = 8.0;
  spec.degrade_mttr = 3.0;
  spec.degrade_scale = 0.5;
  spec.blackout_mtbf = 20.0;
  spec.blackout_mttr = 1.0;

  const FaultPlan a = FaultPlan::generate(spec);
  const FaultPlan b = FaultPlan::generate(spec);
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  ASSERT_EQ(a.degrades().size(), b.degrades().size());
  ASSERT_EQ(a.blackouts().size(), b.blackouts().size());
  EXPECT_GT(a.crashes().size(), 0u);
  EXPECT_GT(a.degrades().size(), 0u);
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].at, b.crashes()[i].at);
    EXPECT_EQ(a.crashes()[i].restart_delay, b.crashes()[i].restart_delay);
  }
  // Time-ordered, non-overlapping, inside the horizon.
  for (std::size_t i = 0; i + 1 < a.crashes().size(); ++i)
    EXPECT_GE(a.crashes()[i + 1].at,
              a.crashes()[i].at + a.crashes()[i].restart_delay);
  for (std::size_t i = 0; i + 1 < a.degrades().size(); ++i)
    EXPECT_GE(a.degrades()[i + 1].begin, a.degrades()[i].end);
  for (const CrashEvent& c : a.crashes()) EXPECT_LT(c.at, spec.horizon);
  for (const DegradeWindow& w : a.degrades()) EXPECT_LT(w.begin, spec.horizon);

  // A different seed decorrelates the schedule.
  spec.seed = 43;
  const FaultPlan c = FaultPlan::generate(spec);
  bool differs = c.crashes().size() != a.crashes().size();
  for (std::size_t i = 0; !differs && i < a.crashes().size(); ++i)
    differs = c.crashes()[i].at != a.crashes()[i].at;
  EXPECT_TRUE(differs);

  // Zero rates disable every class.
  FaultSpec off;
  off.horizon = 100.0;
  EXPECT_TRUE(FaultPlan::generate(off).empty());
}

TEST(FaultPlan, QueriesAnswerFromWindows) {
  FaultPlan p;
  p.add_crash(5.0, 2.0);
  p.add_crash(20.0, 1.0);
  p.add_degrade(3.0, 6.0, 0.5);
  p.add_degrade(10.0, 12.0, 0.25);
  p.add_blackout(8.0, 9.0);

  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.next_crash_after(0.0), 5.0);
  EXPECT_EQ(p.next_crash_after(5.0), 20.0);
  EXPECT_FALSE(p.next_crash_after(20.0).has_value());
  ASSERT_NE(p.crash_at(5.0), nullptr);
  EXPECT_EQ(p.crash_at(5.0)->restart_delay, 2.0);
  EXPECT_EQ(p.crash_at(6.0), nullptr);

  EXPECT_EQ(p.nic_scale_at(2.0), 1.0);
  EXPECT_EQ(p.nic_scale_at(3.0), 0.5);
  EXPECT_EQ(p.nic_scale_at(5.9), 0.5);
  EXPECT_EQ(p.nic_scale_at(6.0), 1.0) << "windows are half-open [begin, end)";
  EXPECT_EQ(p.nic_scale_at(11.0), 0.25);

  EXPECT_EQ(p.next_degrade_boundary_after(0.0), 3.0);
  EXPECT_EQ(p.next_degrade_boundary_after(3.0), 6.0);
  EXPECT_EQ(p.next_degrade_boundary_after(6.0), 10.0);
  EXPECT_EQ(p.next_degrade_boundary_after(10.0), 12.0);
  EXPECT_FALSE(p.next_degrade_boundary_after(12.0).has_value());

  EXPECT_FALSE(p.in_blackout(7.9));
  EXPECT_TRUE(p.in_blackout(8.0));
  EXPECT_TRUE(p.in_blackout(8.5));
  EXPECT_FALSE(p.in_blackout(9.0));

  EXPECT_TRUE(FaultPlan().empty());
  EXPECT_EQ(FaultPlan().nic_scale_at(1.0), 1.0);
}

// ---------------------------------------------------------- retry backoff

TEST(RetryBackoff, DeterministicDecorrelatedAndCapped) {
  RetryPolicy p;
  p.backoff_base = 1e-3;
  p.backoff_cap = 0.5;
  p.jitter = true;
  p.jitter_seed = 7;

  // Pure function of (seed, id, attempt).
  for (int k = 2; k <= 6; ++k)
    EXPECT_EQ(retry_backoff(p, 11, k), retry_backoff(p, 11, k));
  // Different requests back off differently (decorrelated storms).
  EXPECT_NE(retry_backoff(p, 11, 2), retry_backoff(p, 12, 2));
  // Bounded by [base-ish, cap].
  for (std::uint64_t id = 0; id < 50; ++id)
    for (int k = 2; k <= 8; ++k) {
      const double s = retry_backoff(p, id, k);
      EXPECT_GE(s, p.backoff_base * (1.0 - 1e-12));
      EXPECT_LE(s, p.backoff_cap);
    }

  // Without jitter: capped binary exponential.
  p.jitter = false;
  EXPECT_DOUBLE_EQ(retry_backoff(p, 3, 2), 1e-3);
  EXPECT_DOUBLE_EQ(retry_backoff(p, 3, 3), 2e-3);
  EXPECT_DOUBLE_EQ(retry_backoff(p, 3, 4), 4e-3);
  EXPECT_DOUBLE_EQ(retry_backoff(p, 3, 60), 0.5) << "cap holds at any depth";
}

// ----------------------------------------------- plan cache invalidation

TEST(ServePlanCache, InvalidationsAreNotEvictions) {
  PlanCache cache(test_cluster(), /*capacity=*/4);
  cache.acquire(cube(32));
  cache.acquire(cube(64));
  EXPECT_EQ(cache.resident(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.invalidations(), 0u);

  EXPECT_EQ(cache.invalidate_all(), 2u);
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(cache.invalidations(), 2u);
  EXPECT_EQ(cache.evictions(), 0u) << "crash loss is not capacity pressure";

  // Re-entry after the crash pays the setup spike again.
  const double charged = cache.setup_charged();
  PlanCache::Lookup again = cache.acquire(cube(32));
  EXPECT_FALSE(again.hit);
  EXPECT_GT(again.setup_charge, 0.0);
  EXPECT_GT(cache.setup_charged(), charged);
  EXPECT_EQ(cache.misses(), 3u);
}

// ----------------------------------------------------------- batch flush

TEST(Batcher, FlushReturnsEverythingGroupedByShape) {
  BatchPolicy p;
  p.max_batch = 8;
  p.max_delay = 100.0;
  Batcher b(p);
  auto req = [](std::uint64_t id, int shape, double arrival) {
    Request r;
    r.id = id;
    r.shape_id = shape;
    r.arrival = arrival;
    return r;
  };
  b.push(req(0, 5, 0.1));
  b.push(req(1, 2, 0.2));
  b.push(req(2, 5, 0.3));

  std::vector<Batch> flushed = b.flush();
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].shape_id, 2) << "ascending shape order";
  EXPECT_EQ(flushed[0].size(), 1);
  EXPECT_EQ(flushed[1].shape_id, 5);
  EXPECT_EQ(flushed[1].size(), 2);
  EXPECT_EQ(flushed[1].requests[0].id, 0u) << "queue order preserved";
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.flush().empty());
}

// ------------------------------------------- degraded fabric + profiles

TEST(DegradedFabric, NicScaleSlowsExchangesAndRestores) {
  core::Simulator sim(to_sim_config(test_cluster(), cube(64)));
  const double healthy = sim.transform_time(1);
  sim.set_nic_scale(0.5);
  const double degraded = sim.transform_time(1);
  EXPECT_GT(degraded, healthy) << "half the NIC bandwidth must cost time";
  sim.set_nic_scale(1.0);
  EXPECT_EQ(sim.transform_time(1), healthy) << "restoring links restores cost";

  // ServedPlan prices through the simulator's per-scale memos and always
  // restores the links, so healthy and degraded answers both come back.
  ServedPlan plan(cube(64), test_cluster());
  const double h = plan.exec_time(4);
  const double d = plan.exec_time(4, 0.5);
  EXPECT_GT(d, h);
  EXPECT_EQ(plan.exec_time(4), h);
  EXPECT_EQ(plan.exec_time(4, 0.5), d);
}

TEST(BatchProfile, DeliveryIsMonotoneAndComplete) {
  core::Simulator sim(to_sim_config(test_cluster(), cube(64)));
  const core::BatchProfile prof = sim.batch_profile(6);
  ASSERT_FALSE(prof.elems.empty());
  ASSERT_EQ(prof.elems.size(), prof.frac.size());
  EXPECT_EQ(prof.elems.back(), 6);
  EXPECT_NEAR(prof.frac.back(), 1.0, 1e-9);
  for (std::size_t i = 0; i + 1 < prof.frac.size(); ++i) {
    EXPECT_LE(prof.frac[i], prof.frac[i + 1]);
    EXPECT_LT(prof.elems[i], prof.elems[i + 1]);
  }
  EXPECT_EQ(prof.delivered(0.0), 0) << "nothing leaves before the 1st chunk";
  EXPECT_EQ(prof.delivered(1.0), 6);
  EXPECT_LE(prof.delivered(0.5), 6);

  // Non-overlapped execution delivers everything at once.
  JobShape plain = cube(64);
  plain.options.overlap_batches = false;
  core::Simulator single(to_sim_config(test_cluster(), plain));
  const core::BatchProfile one = single.batch_profile(6);
  ASSERT_EQ(one.elems.size(), 1u);
  EXPECT_EQ(one.delivered(0.99), 0);
  EXPECT_EQ(one.delivered(1.0), 6);
}

// ------------------------------------------------------- server semantics

/// An empty FaultPlan and the default RetryPolicy must reproduce the
/// fault-free engine exactly: same events, same virtual times, bit-equal.
TEST(FaultServer, EmptyPlanReproducesBaselineExactly) {
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}, {cube(64), 2.0}};
  auto run_with = [&](bool explicit_empty_faults) {
    ServerConfig cfg = base_config({cube(32), cube(64)});
    cfg.batching.max_batch = 4;
    cfg.batching.max_delay = 1e-3;
    cfg.queue_limit = 16;
    if (explicit_empty_faults) {
      FaultSpec off;
      off.seed = 9;
      off.horizon = 1e6;  // all rates zero: no events
      cfg.faults = FaultPlan::generate(off);
      cfg.retry = RetryPolicy{};
    }
    Server server(cfg);
    OpenLoopWorkload load(mix, /*rate=*/2000, /*count=*/300, 2, 99);
    return server.run(load);
  };
  const ServeReport base = run_with(false);
  const ServeReport fault = run_with(true);
  EXPECT_EQ(base.completed, fault.completed);
  EXPECT_EQ(base.rejected, fault.rejected);
  EXPECT_EQ(base.failed, fault.failed);
  EXPECT_EQ(base.batches, fault.batches);
  EXPECT_EQ(base.makespan, fault.makespan);
  EXPECT_EQ(base.busy_time, fault.busy_time);
  EXPECT_EQ(fault.crashes, 0u);
  EXPECT_EQ(fault.retries, 0u);
  EXPECT_EQ(fault.dropped, 0u);
  ASSERT_EQ(base.latencies.size(), fault.latencies.size());
  for (std::size_t i = 0; i < base.latencies.size(); ++i)
    EXPECT_EQ(base.latencies[i], fault.latencies[i]);
}

/// Acceptance: executor crashes force retries (amplification > 1) and
/// inflate the p99 tail versus the fault-free baseline; recovery times
/// and cache invalidations are reported.
TEST(FaultServer, CrashesAmplifyTrafficAndInflateTail) {
  const double t1 = unit_time(cube(64));
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  auto config = [&] {
    ServerConfig cfg = base_config({cube(64)});
    cfg.batching.enabled = false;  // always busy under overload
    return cfg;
  };
  auto load = [&] {
    return OpenLoopWorkload(mix, /*rate=*/2.0 / t1, /*count=*/120, 2, 17);
  };

  ServerConfig base_cfg = config();
  Server base_server(base_cfg);
  OpenLoopWorkload base_load = load();
  const ServeReport base = base_server.run(base_load);
  EXPECT_EQ(base.completed, 120u);
  EXPECT_EQ(base.crashes, 0u);

  ServerConfig cfg = config();
  // Two crashes while the overloaded server is provably busy.
  cfg.faults.add_crash(10.5 * t1, 8.0 * t1);
  cfg.faults.add_crash(30.5 * t1, 8.0 * t1);
  cfg.retry.max_attempts = 5;
  cfg.retry.backoff_base = 0.5 * t1;
  cfg.retry.backoff_cap = 8.0 * t1;
  cfg.retry.jitter = true;
  cfg.retry.jitter_seed = 3;
  Server server(cfg);
  OpenLoopWorkload fault_load = load();
  const ServeReport rep = server.run(fault_load);

  EXPECT_EQ(rep.crashes, 2u);
  EXPECT_GT(rep.aborted, 0u) << "crash mid-flight aborts the batch";
  EXPECT_GT(rep.retries, 0u);
  EXPECT_GT(rep.retry_amplification, 1.0);
  EXPECT_EQ(rep.completed + rep.failed, rep.offered);
  EXPECT_GT(rep.completed, 0u);
  EXPECT_GT(rep.latency.p99, base.latency.p99)
      << "crashes + rework must inflate the tail";
  EXPECT_GT(rep.latency.p999, base.latency.p999);
  EXPECT_NEAR(rep.downtime, 16.0 * t1, 1e-9);
  ASSERT_GE(rep.recovery_times.size(), 1u);
  EXPECT_GT(rep.mean_recovery, 0.0);
  EXPECT_GT(rep.cache_invalidations, 0u)
      << "a crash loses every resident plan";
  EXPECT_GT(rep.makespan, base.makespan);
}

/// Acceptance: at overload with tight deadlines, deadline-aware shedding
/// yields strictly more goodput than executing every late request.
TEST(FaultServer, SheddingBeatsNoSheddingOnGoodputAtOverload) {
  const double t1 = unit_time(cube(64));
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  auto run_with = [&](bool shed) {
    ServerConfig cfg = base_config({cube(64)});
    cfg.batching.enabled = false;
    cfg.retry.deadline = 6.0 * t1;  // tight under 4x overload
    cfg.shed_expired = shed;
    Server server(cfg);
    OpenLoopWorkload load(mix, /*rate=*/4.0 / t1, /*count=*/120, 2, 23);
    return server.run(load);
  };
  const ServeReport keep = run_with(false);
  const ServeReport shed = run_with(true);
  EXPECT_EQ(keep.shed, 0u);
  EXPECT_GT(shed.shed, 0u);
  EXPECT_EQ(shed.completed + shed.failed, shed.offered);
  EXPECT_GT(shed.goodput, keep.goodput)
      << "capacity spent on already-late requests starves the rest";
  EXPECT_LT(shed.makespan, keep.makespan);
}

/// Acceptance: a seeded fault schedule plus a seeded workload reproduce
/// the entire report bit-for-bit across runs.
TEST(FaultServer, SeededFaultRunsAreByteIdentical) {
  const double t1 = unit_time(cube(64));
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}, {cube(64), 1.0}};
  auto run_once = [&] {
    FaultSpec spec;
    spec.seed = 1234;
    spec.horizon = 120.0 * t1;
    spec.crash_mtbf = 25.0 * t1;
    spec.crash_mttr = 5.0 * t1;
    spec.degrade_mtbf = 15.0 * t1;
    spec.degrade_mttr = 10.0 * t1;
    spec.degrade_scale = 0.5;
    spec.blackout_mtbf = 40.0 * t1;
    spec.blackout_mttr = 2.0 * t1;

    ServerConfig cfg = base_config({cube(32), cube(64)});
    cfg.batching.max_batch = 4;
    cfg.batching.max_delay = t1;
    cfg.queue_limit = 32;
    cfg.faults = FaultPlan::generate(spec);
    cfg.retry.max_attempts = 4;
    cfg.retry.backoff_base = 0.5 * t1;
    cfg.retry.backoff_cap = 4.0 * t1;
    cfg.retry.jitter = true;
    cfg.retry.jitter_seed = 77;
    cfg.retry.deadline = 40.0 * t1;
    cfg.shed_expired = true;
    Server server(cfg);
    OpenLoopWorkload load(mix, /*rate=*/1.5 / t1, /*count=*/200, 3, 55);
    return server.run(load);
  };
  const ServeReport a = run_once();
  const ServeReport b = run_once();

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.deadline_met, b.deadline_met);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_EQ(a.downtime, b.downtime);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.retry_amplification, b.retry_amplification);
  ASSERT_EQ(a.latencies.size(), b.latencies.size());
  for (std::size_t i = 0; i < a.latencies.size(); ++i)
    EXPECT_EQ(a.latencies[i], b.latencies[i]);
  ASSERT_EQ(a.recovery_times.size(), b.recovery_times.size());
  for (std::size_t i = 0; i < a.recovery_times.size(); ++i)
    EXPECT_EQ(a.recovery_times[i], b.recovery_times[i]);
  // The schedule actually exercised the fault machinery.
  EXPECT_GT(a.crashes + a.dropped + a.retries, 0u);
}

TEST(FaultServer, DegradeWindowSlowsTheRunAndRepricesInFlight) {
  const double t1 = unit_time(cube(64));
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  auto run_with = [&](bool degrade) {
    ServerConfig cfg = base_config({cube(64)});
    cfg.batching.enabled = false;
    if (degrade)
      // Opens mid-first-flight, so the in-flight batch must reprice.
      cfg.faults.add_degrade(0.5 * t1, 200.0 * t1, 0.5);
    Server server(cfg);
    OpenLoopWorkload load(mix, /*rate=*/1.0 / t1, /*count=*/40, 1, 8);
    return server.run(load);
  };
  const ServeReport healthy = run_with(false);
  const ServeReport degraded = run_with(true);
  EXPECT_EQ(healthy.completed, 40u);
  EXPECT_EQ(degraded.completed, 40u);
  EXPECT_GT(degraded.makespan, healthy.makespan)
      << "half the fabric must stretch the run";
  EXPECT_GT(degraded.latency.mean, healthy.latency.mean);
}

TEST(FaultServer, BlackoutDropsArrivalsAndRetriesRecoverThem) {
  const double t1 = unit_time(cube(64));
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  ServerConfig cfg = base_config({cube(64)});
  cfg.batching.max_batch = 4;
  cfg.batching.max_delay = t1;
  const double window = 4.0 * t1;
  cfg.faults.add_blackout(0.0, window);
  cfg.retry.max_attempts = 3;
  cfg.retry.jitter = false;        // backoff = base, then 2*base
  cfg.retry.backoff_base = window; // first retry always clears the window
  cfg.retry.backoff_cap = 4.0 * window;
  Server server(cfg);
  OpenLoopWorkload load(mix, /*rate=*/1.0 / t1, /*count=*/30, 2, 12);
  const ServeReport rep = server.run(load);

  EXPECT_GT(rep.dropped, 0u) << "arrivals inside the blackout are lost";
  EXPECT_GT(rep.retries, 0u);
  EXPECT_EQ(rep.failed, 0u) << "every drop comes back after the window";
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_GT(rep.retry_amplification, 1.0);
}

TEST(FaultServer, DeadlineAccountingMatchesThroughputWhenGenerous) {
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  ServerConfig cfg = base_config({cube(64)});
  cfg.retry.deadline = 1e9;  // effectively unbounded
  Server server(cfg);
  OpenLoopWorkload load(mix, /*rate=*/100, /*count=*/40, 1, 3);
  const ServeReport rep = server.run(load);
  EXPECT_EQ(rep.completed, 40u);
  EXPECT_EQ(rep.deadline_met, rep.completed);
  EXPECT_EQ(rep.goodput, rep.throughput);
}

}  // namespace
}  // namespace parfft::serve
