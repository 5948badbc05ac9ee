/// \file test_serve.cpp
/// Serving layer: batcher policy, plan cache, workload generators and the
/// virtual-time server, including the two headline properties -- shape
/// batching strictly increases throughput at equal offered load, and a
/// warm plan cache strictly beats a cold one at the tail.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "obs/session.hpp"
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

Request req(std::uint64_t id, int shape, double arrival) {
  Request r;
  r.id = id;
  r.shape_id = shape;
  r.arrival = arrival;
  return r;
}

// ---------------------------------------------------------------- batcher

TEST(Batcher, ReleasesWhenFull) {
  BatchPolicy p;
  p.max_batch = 3;
  p.max_delay = 1.0;
  Batcher b(p);
  b.push(req(0, 7, 0.0));
  b.push(req(1, 7, 0.1));
  EXPECT_EQ(b.pop(0.2).size(), 0) << "neither full nor aged";
  b.push(req(2, 7, 0.2));
  Batch got = b.pop(0.2);
  EXPECT_EQ(got.size(), 3);
  EXPECT_EQ(got.shape_id, 7);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, ReleasesAtMaxDelay) {
  BatchPolicy p;
  p.max_batch = 8;
  p.max_delay = 0.5;
  Batcher b(p);
  b.push(req(0, 1, 1.0));
  b.push(req(1, 1, 1.2));
  EXPECT_DOUBLE_EQ(b.next_deadline(), 1.5);
  EXPECT_EQ(b.pop(1.4).size(), 0);
  Batch got = b.pop(1.5);
  EXPECT_EQ(got.size(), 2) << "head aged out; the whole group goes";
}

TEST(Batcher, NeverExceedsMaxBatch) {
  BatchPolicy p;
  p.max_batch = 4;
  p.max_delay = 0.0;  // always eligible
  Batcher b(p);
  for (int i = 0; i < 10; ++i) b.push(req(i, 2, 0.0));
  EXPECT_EQ(b.pop(0.0).size(), 4);
  EXPECT_EQ(b.pop(0.0).size(), 4);
  EXPECT_EQ(b.pop(0.0).size(), 2);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, DisabledDispatchesOldestSingly) {
  BatchPolicy p;
  p.enabled = false;
  Batcher b(p);
  b.push(req(0, 5, 0.3));
  b.push(req(1, 2, 0.1));  // older head, different shape
  b.push(req(2, 5, 0.4));
  Batch got = b.pop(1.0);
  EXPECT_EQ(got.size(), 1);
  EXPECT_EQ(got.shape_id, 2) << "oldest request goes first";
  EXPECT_EQ(b.pending(), 2u);
}

TEST(Batcher, DrainWaivesEligibility) {
  BatchPolicy p;
  p.max_batch = 8;
  p.max_delay = 100.0;
  Batcher b(p);
  b.push(req(0, 3, 0.0));
  EXPECT_EQ(b.pop(0.0).size(), 0);
  EXPECT_EQ(b.pop(0.0, /*drain=*/true).size(), 1);
}

TEST(Batcher, OldestHeadWinsAcrossShapes) {
  BatchPolicy p;
  p.max_batch = 2;
  p.max_delay = 0.0;
  Batcher b(p);
  b.push(req(0, 9, 0.2));
  b.push(req(1, 4, 0.1));
  EXPECT_EQ(b.pop(1.0).shape_id, 4);
  EXPECT_EQ(b.pop(1.0).shape_id, 9);
}

// ------------------------------------------------------------- plan cache

TEST(ServePlanCache, HitsMissesAndSetupCharge) {
  PlanCache cache(std::make_shared<PlanCatalog>(test_cluster()),
                  /*capacity=*/4);
  PlanCache::Lookup a = cache.acquire(cube(64));
  EXPECT_FALSE(a.hit);
  EXPECT_GT(a.setup_charge, 0) << "miss pays the plan-setup spike";
  PlanCache::Lookup b = cache.acquire(cube(64));
  EXPECT_TRUE(b.hit);
  EXPECT_EQ(b.setup_charge, 0);
  EXPECT_EQ(b.plan, a.plan);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServePlanCache, EvictsAtCapacityAndRecharges) {
  PlanCache cache(std::make_shared<PlanCatalog>(test_cluster()),
                  /*capacity=*/2, /*eviction_window=*/1);
  cache.acquire(cube(32));
  cache.acquire(cube(48));
  cache.acquire(cube(64));  // evicts 32 (window 1 => strict LRU)
  EXPECT_EQ(cache.resident(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  PlanCache::Lookup again = cache.acquire(cube(32));
  EXPECT_FALSE(again.hit);
  EXPECT_GT(again.setup_charge, 0) << "re-entry re-pays the spike";
}

TEST(ServePlanCache, StrictLruOrderWithWindowOne) {
  PlanCache cache(std::make_shared<PlanCatalog>(test_cluster()),
                  /*capacity=*/2, /*eviction_window=*/1);
  cache.acquire(cube(32));   // [32]
  cache.acquire(cube(48));   // [48, 32]
  cache.acquire(cube(32));   // [32, 48] (hit refreshes recency)
  cache.acquire(cube(64));   // evicts 48 -> [64, 32]
  EXPECT_TRUE(cache.acquire(cube(32)).hit);
  EXPECT_FALSE(cache.acquire(cube(48)).hit) << "re-entry after eviction "
                                               "re-pays the spike";
  EXPECT_GT(cache.setup_charged(), 0);
}

TEST(ServePlanCache, CostAwareEvictionSparesExpensivePlan) {
  // An asymmetric pencil plan creates three distinct device-FFT layouts
  // (540us of setup); a contiguous-FFT cube creates one (180us). With
  // window 2, the cheaper-to-recreate plan is evicted even though the
  // expensive one is older.
  JobShape costly;
  costly.n = {128, 64, 32};
  costly.options.decomp = core::Decomposition::Pencil;
  JobShape cheap = cube(64);
  cheap.options.contiguous_fft = true;

  PlanCache cache(std::make_shared<PlanCatalog>(test_cluster()),
                  /*capacity=*/2, /*eviction_window=*/2);
  PlanCache::Lookup a = cache.acquire(costly);  // LRU tail
  PlanCache::Lookup b = cache.acquire(cheap);
  ASSERT_GT(a.setup_charge, b.setup_charge);
  cache.acquire(cube(96));  // evicts one of {costly, cheap}
  EXPECT_TRUE(cache.acquire(costly).hit)
      << "the expensive plan must survive despite being least recent";
  EXPECT_EQ(cache.evictions(), 1u);
}

/// Eviction and crash invalidation drop residency, not prices: the
/// re-acquired plan is the catalog's handle, re-pays its setup spike in
/// virtual time without a single new exchange solve, and every answer is
/// bit-identical to a freshly built handle's.
TEST(PlanCache, EvictedAndInvalidatedPlansKeepTheirPrices) {
  PlanCache cache(std::make_shared<PlanCatalog>(test_cluster()),
                  /*capacity=*/1, /*eviction_window=*/1);
  const JobShape shape = cube(64);
  PlanCache::Lookup first = cache.acquire(shape);
  ServedPlan* plan = first.plan;
  for (int b = 1; b <= 8; ++b) {
    plan->exec_time(b, 1.0);
    plan->exec_time(b, 0.5);
    plan->profile(b);
  }
  const std::uint64_t solves = plan->simulator().counters().exchange_solves;
  ASSERT_GT(solves, 0u);

  cache.acquire(cube(32));  // evicts the priced plan
  EXPECT_FALSE(cache.warm(shape));
  PlanCache::Lookup back = cache.acquire(shape);
  EXPECT_FALSE(back.hit);
  EXPECT_EQ(back.plan, plan) << "eviction must not drop the pricing handle";
  EXPECT_EQ(back.setup_charge, first.setup_charge) << "the miss re-pays setup";
  EXPECT_EQ(cache.invalidate_all(), 1u);
  PlanCache::Lookup again = cache.acquire(shape);
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(again.plan, plan) << "a crash must not drop the pricing handle";
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.catalog().size(), 2u);
  cache.check_invariants();

  struct Query {
    int batch;
    bool profile;  // profile() instead of exec_time()
  };
  std::vector<Query> queries;
  for (int b = 1; b <= 8; ++b) {
    queries.push_back({b, false});
    queries.push_back({b, true});
  }
  Rng rng(20261017);
  for (double scale : {1.0, 0.5, 1.0}) {
    std::shuffle(queries.begin(), queries.end(), rng.engine());
    for (const Query& q : queries) {
      ServedPlan fresh(shape, test_cluster());
      const std::string what = "b=" + std::to_string(q.batch) +
                               " scale=" + std::to_string(scale);
      if (q.profile) {
        const core::BatchProfile got = plan->profile(q.batch);
        const core::BatchProfile want = fresh.profile(q.batch);
        EXPECT_EQ(got.elems, want.elems) << what;
        EXPECT_EQ(got.frac, want.frac) << what;
      } else {
        EXPECT_EQ(plan->exec_time(q.batch, scale),
                  fresh.exec_time(q.batch, scale))
            << what;
      }
      EXPECT_EQ(plan->setup_time(), fresh.setup_time()) << what;
    }
  }
  EXPECT_EQ(plan->simulator().counters().exchange_solves, solves)
      << "every answer after the first pricing must come from the memo";
}

/// A catalog handle is shared by every shard of a cluster: a pricing that
/// throws must still restore healthy links.
TEST(PlanCache, DegradedPricingRestoresHealthyLinksOnThrow) {
  ServedPlan plan(cube(64), test_cluster());
  EXPECT_THROW(plan.exec_time(0, 0.5), Error);
  EXPECT_EQ(plan.simulator().nic_scale(), 1.0);
  ServedPlan fresh(cube(64), test_cluster());
  EXPECT_EQ(plan.exec_time(4), fresh.exec_time(4));
}

// -------------------------------------------------------------- workloads

TEST(Workloads, OpenLoopIsDeterministic) {
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}, {cube(64), 3.0}};
  OpenLoopWorkload a(mix, /*rate=*/100, /*count=*/50, /*tenants=*/3, 42);
  OpenLoopWorkload b(mix, 100, 50, 3, 42);
  while (a.peek()) {
    ASSERT_TRUE(b.peek().has_value());
    EXPECT_DOUBLE_EQ(*a.peek(), *b.peek());
    Request ra = a.pop(), rb = b.pop();
    EXPECT_EQ(ra.shape_id, rb.shape_id);
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_DOUBLE_EQ(ra.arrival, rb.arrival);
  }
  EXPECT_TRUE(a.done() && b.done());
  EXPECT_EQ(a.offered(), 50u);
}

TEST(Workloads, OpenLoopSeedChangesArrivals) {
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  OpenLoopWorkload a(mix, 100, 10, 1, 1);
  OpenLoopWorkload b(mix, 100, 10, 1, 2);
  EXPECT_NE(*a.peek(), *b.peek());
}

TEST(Workloads, ClosedLoopWaitsForCompletions) {
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  ClosedLoopWorkload w(mix, /*clients=*/2, /*rounds=*/2, /*think=*/0.1, 7);
  EXPECT_EQ(w.offered(), 4u);
  ASSERT_TRUE(w.peek().has_value());
  Request r0 = w.pop();
  Request r1 = w.pop();
  EXPECT_NE(r0.tenant, r1.tenant);
  EXPECT_FALSE(w.peek().has_value()) << "both clients in flight";
  EXPECT_FALSE(w.done());
  r0.completion = 1.0;
  w.on_complete(r0, 1.0);
  ASSERT_TRUE(w.peek().has_value());
  EXPECT_GT(*w.peek(), 1.0) << "think time elapses before the next round";
  Request r2 = w.pop();
  EXPECT_EQ(r2.tenant, r0.tenant);
  w.on_complete(r1, 1.0);
  Request r3 = w.pop();
  EXPECT_EQ(r3.tenant, r1.tenant);
  w.on_complete(r2, 2.0);
  w.on_complete(r3, 3.0);
  EXPECT_TRUE(w.done()) << "every client issued all its rounds";
}

// ----------------------------------------------------------------- server

ServerConfig base_config(std::vector<JobShape> shapes) {
  ServerConfig cfg;
  cfg.cluster = test_cluster();
  cfg.shapes = std::move(shapes);
  return cfg;
}

TEST(Server, RunIsDeterministic) {
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}, {cube(64), 2.0}};
  ServeReport r1, r2;
  for (ServeReport* out : {&r1, &r2}) {
    ServerConfig cfg = base_config({cube(32), cube(64)});
    cfg.batching.max_batch = 4;
    cfg.batching.max_delay = 1e-3;
    Server server(cfg);
    OpenLoopWorkload load(mix, /*rate=*/2000, /*count=*/200, 2, 99);
    *out = server.run(load);
  }
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.batches, r2.batches);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  ASSERT_EQ(r1.latencies.size(), r2.latencies.size());
  for (std::size_t i = 0; i < r1.latencies.size(); ++i)
    EXPECT_DOUBLE_EQ(r1.latencies[i], r2.latencies[i]);
}

/// Acceptance: the shape batcher strictly increases completed transforms
/// per virtual second versus no batching at equal offered load.
TEST(Server, BatchingIncreasesThroughputAtEqualLoad) {
  const std::vector<ShapeMix> mix = {{cube(64), 3.0}, {cube(32), 1.0}};
  core::Simulator unit(to_sim_config(test_cluster(), cube(64)));
  const double t1 = unit.transform_time(1);
  const double rate = 4.0 / t1;  // overload: 4x unbatched capacity

  auto run_with = [&](bool batching) {
    ServerConfig cfg = base_config({cube(64), cube(32)});
    cfg.batching.enabled = batching;
    cfg.batching.max_batch = 8;
    cfg.batching.max_delay = 4 * t1;
    Server server(cfg);
    OpenLoopWorkload load(mix, rate, /*count=*/600, /*tenants=*/3, 2026);
    return server.run(load);
  };
  const ServeReport off = run_with(false);
  const ServeReport on = run_with(true);
  EXPECT_EQ(off.completed, 600u);
  EXPECT_EQ(on.completed, 600u);
  EXPECT_GT(on.mean_batch, 1.0);
  EXPECT_GT(on.throughput, off.throughput)
      << "batched overlap must raise completed transforms per virtual "
         "second at equal offered load";
}

/// Acceptance: p99 latency with a warm plan cache is strictly below the
/// cold-cache p99 of the identical workload (first run pays Fig. 10's
/// plan-setup spikes; the second run finds every plan resident).
TEST(Server, WarmCacheBeatsColdCacheAtP99) {
  std::vector<JobShape> shapes;
  std::vector<ShapeMix> mix;
  for (int n : {32, 48, 64, 96}) {
    shapes.push_back(cube(n));
    mix.push_back({cube(n), 1.0});
  }
  ServerConfig cfg = base_config(shapes);
  cfg.batching.enabled = false;  // dispatch singly: latency = exec (+setup)
  Server server(cfg);

  // <= 99 samples => nearest-rank p99 is the max sample, so the strict
  // inequality only needs one cold request to pay a setup spike.
  auto make_load = [&] {
    return OpenLoopWorkload(mix, /*rate=*/50, /*count=*/80, 2, 11);
  };
  OpenLoopWorkload cold_load = make_load();
  const ServeReport cold = server.run(cold_load);
  OpenLoopWorkload warm_load = make_load();
  const ServeReport warm = server.run(warm_load);

  EXPECT_EQ(cold.completed, 80u);
  EXPECT_EQ(warm.completed, 80u);
  EXPECT_GT(warm.cache_hits, cold.cache_hits) << "plans stayed resident";
  EXPECT_LT(warm.latency.p99, cold.latency.p99);
  EXPECT_LE(warm.latency.mean, cold.latency.mean);
}

TEST(Server, AdmissionControlRejectsOverflowAndAccountsAll) {
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  ServerConfig cfg = base_config({cube(64)});
  cfg.queue_limit = 4;
  cfg.batching.max_batch = 2;
  core::Simulator unit(to_sim_config(cfg.cluster, cube(64)));
  cfg.batching.max_delay = unit.transform_time(1);
  Server server(cfg);
  // Offered far above capacity: the bounded queue must shed load.
  OpenLoopWorkload load(mix, /*rate=*/16.0 / unit.transform_time(1),
                        /*count=*/300, 2, 5);
  const ServeReport rep = server.run(load);
  EXPECT_GT(rep.rejected, 0u);
  EXPECT_GT(rep.completed, 0u);
  EXPECT_EQ(rep.completed + rep.rejected, rep.offered);
  EXPECT_EQ(rep.admitted, rep.completed);
}

TEST(Server, ClosedLoopCompletesAllRounds) {
  const std::vector<ShapeMix> mix = {{cube(32), 1.0}, {cube(64), 1.0}};
  ServerConfig cfg = base_config({cube(32), cube(64)});
  cfg.batching.max_batch = 4;
  cfg.batching.max_delay = 1e-3;
  Server server(cfg);
  ClosedLoopWorkload load(mix, /*clients=*/6, /*rounds=*/5,
                          /*think=*/1e-3, 123);
  const ServeReport rep = server.run(load);
  EXPECT_EQ(rep.completed, 30u);
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_GT(rep.makespan, 0.0);
  EXPECT_LE(rep.utilization, 1.0 + 1e-12);
}

TEST(Server, ReportThroughputMatchesCounts) {
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  ServerConfig cfg = base_config({cube(64)});
  Server server(cfg);
  OpenLoopWorkload load(mix, /*rate=*/100, /*count=*/40, 1, 3);
  const ServeReport rep = server.run(load);
  EXPECT_EQ(rep.completed, 40u);
  EXPECT_NEAR(rep.throughput * rep.makespan,
              static_cast<double>(rep.completed), 1e-6);
  EXPECT_NEAR(rep.mean_batch * static_cast<double>(rep.batches),
              static_cast<double>(rep.completed), 1e-9);
}

// On a handful of samples the summary stays within one bucket of the
// nearest-rank quantile and never above the largest sample.
TEST(Server, LatencySummaryNearestRank) {
  obs::LogLinearHistogram h;
  for (double x : {5.0, 1.0, 4.0, 2.0, 3.0}) h.observe(x);
  const LatencySummary s = summarize(h);
  EXPECT_NEAR(s.p50, 3.0, 3.0 / h.sub());
  EXPECT_GE(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.p99, 5);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  const LatencySummary empty = summarize(obs::LogLinearHistogram());
  EXPECT_DOUBLE_EQ(empty.p99, 0);
}

TEST(Server, SummarizeIsExactAtTheEndsAndBoundedInBetween) {
  // A smooth lognormal population, as request latencies are.
  obs::LogLinearHistogram h;
  Rng rng(11);
  std::vector<double> xs;
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double x = 0.05 * std::exp(0.5 * rng.normal());
    xs.push_back(x);
    sum += x;
    h.observe(x);
  }
  const LatencySummary s = summarize(h);
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(s.min, xs.front());
  EXPECT_EQ(s.max, xs.back());
  EXPECT_EQ(s.mean, sum / static_cast<double>(xs.size()));
  const double tol = 1.0 / (2.0 * h.sub());
  const std::pair<double, double> quantiles[] = {
      {0.50, s.p50}, {0.95, s.p95}, {0.99, s.p99}, {0.999, s.p999}};
  for (const auto& [q, est] : quantiles) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    const double exact = xs[rank - 1];
    EXPECT_NEAR(est, exact, tol * exact) << "q = " << q;
    EXPECT_GE(est, s.min);
    EXPECT_LE(est, s.max);
  }
  EXPECT_NO_THROW(s.verify("lognormal"));

  // Three samples in one bucket: interpolation alone would put p99 past
  // the largest sample; the clamp keeps it at the max.
  obs::LogLinearHistogram few;
  for (double x : {1.0, 1.01, 1.02}) few.observe(x);
  const LatencySummary f = summarize(few);
  EXPECT_EQ(f.min, 1.0);
  EXPECT_EQ(f.p99, 1.02);
  EXPECT_EQ(f.p999, 1.02);
  EXPECT_EQ(f.max, 1.02);

  const LatencySummary empty = summarize(obs::LogLinearHistogram());
  EXPECT_EQ(empty.min, 0);
  EXPECT_EQ(empty.p99, 0);
  EXPECT_EQ(empty.mean, 0);
  EXPECT_EQ(empty.max, 0);
}

// The serve and fault cells pinned by bench/perf_baseline: every
// tenant's quantiles stay ordered and at or below that tenant's own max.
TEST(Server, TenantQuantilesStayWithinTenantMaxOnPerfCells) {
  constexpr std::uint64_t kSeed = 20260806;
  const ClusterConfig c = test_cluster();
  const auto check = [](const ServeReport& rep) {
    ASSERT_FALSE(rep.tenants.empty());
    for (const TenantReport& t : rep.tenants) {
      const LatencySummary& l = t.latency;
      EXPECT_GT(t.completed, 0u);
      EXPECT_LE(l.p50, l.p95) << "tenant " << t.tenant;
      EXPECT_LE(l.p95, l.p99) << "tenant " << t.tenant;
      EXPECT_LE(l.p99, l.max) << "tenant " << t.tenant;
      EXPECT_LE(l.max, rep.latency.max) << "tenant " << t.tenant;
    }
    EXPECT_NO_THROW(rep.verify());
  };

  {
    const std::vector<ShapeMix> mix = {
        {cube(64), 4.0}, {cube(128), 2.0}, {cube(32), 1.0}};
    const double t1 =
        core::Simulator(to_sim_config(c, cube(64))).transform_time(1);
    ServerConfig cfg;
    cfg.cluster = c;
    for (const ShapeMix& m : mix) cfg.shapes.push_back(m.shape);
    cfg.batching.max_batch = 8;
    cfg.batching.max_delay = 4 * t1;
    cfg.telemetry.window = 10 * t1;
    cfg.telemetry.default_slo.latency = 600 * t1;
    cfg.telemetry.default_slo.objective = 0.95;
    Server server(cfg);
    OpenLoopWorkload load(mix, 4.0 / t1, /*count=*/400, /*tenants=*/4, kSeed);
    check(server.run(load));
  }

  {
    const std::vector<ShapeMix> mix = {{cube(64), 3.0}, {cube(32), 1.0}};
    const double t1 =
        core::Simulator(to_sim_config(c, cube(64))).transform_time(1);
    const double rate = 1.5 / t1;
    ServerConfig cfg;
    cfg.cluster = c;
    for (const ShapeMix& m : mix) cfg.shapes.push_back(m.shape);
    cfg.batching.max_batch = 8;
    cfg.batching.max_delay = 2 * t1;
    FaultSpec spec;
    spec.seed = kSeed;
    spec.horizon = 2.5 * 300 / rate;
    spec.crash_mtbf = 50 * t1;
    spec.crash_mttr = 5 * t1;
    cfg.faults = FaultPlan::generate(spec);
    cfg.retry.max_attempts = 4;
    cfg.retry.backoff_base = 0.5 * t1;
    cfg.retry.backoff_cap = 8 * t1;
    cfg.retry.jitter_seed = kSeed;
    cfg.retry.deadline = 60 * t1;
    cfg.shed_expired = true;
    cfg.telemetry.window = 2 * t1;
    cfg.telemetry.default_slo.latency = 12 * t1;
    cfg.telemetry.default_slo.objective = 0.95;
    Server server(cfg);
    OpenLoopWorkload load(mix, rate, /*count=*/300, /*tenants=*/4, kSeed);
    check(server.run(load));
  }
}

TEST(Server, TraceMetricsMatchReport) {
  // An overloaded, traced run with every fault class and recovery path
  // firing, plus one external cancellation: each serve/* counter and
  // gauge the engine publishes must equal its report field.
  const double t1 =
      core::Simulator(to_sim_config(test_cluster(), cube(64))).transform_time(1);
  const std::vector<ShapeMix> mix = {{cube(64), 1.0}};
  constexpr std::uint64_t kCount = 400;
  ServerConfig cfg = base_config({cube(64)});
  cfg.batching.max_batch = 4;
  cfg.batching.max_delay = 2 * t1;
  cfg.queue_limit = 8;
  cfg.shed_expired = true;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base = 0.5 * t1;
  cfg.retry.backoff_cap = 8 * t1;
  cfg.retry.jitter_seed = 17;
  cfg.retry.deadline = 10 * t1;
  FaultSpec spec;
  spec.seed = 17;
  spec.horizon = 400 * t1;
  spec.crash_mtbf = 30 * t1;
  spec.crash_mttr = 5 * t1;
  spec.degrade_mtbf = 25 * t1;
  spec.degrade_mttr = 5 * t1;
  spec.degrade_scale = 0.5;
  spec.blackout_mtbf = 40 * t1;
  spec.blackout_mttr = 2 * t1;
  cfg.faults = FaultPlan::generate(spec);
  cfg.trace.enabled = true;
  cfg.label = "test/trace_metrics";

  Server server(cfg);
  OpenLoopWorkload load(mix, /*rate=*/3.0 / t1, kCount, /*tenants=*/2, 17);
  const std::size_t runs_before = obs::Session::global().runs().size();
  server.begin(load);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool cancelled = false;
  for (double t = server.next_event_time(); t < kInf;
       t = server.next_event_time()) {
    server.advance_to(t);
    for (std::uint64_t id = 0; id < kCount && !cancelled; ++id)
      cancelled = server.queued(id) && server.cancel_queued(id, t);
  }
  const ServeReport rep = server.finish();
  rep.verify();
  const auto runs = obs::Session::global().runs();
  ASSERT_EQ(runs.size(), runs_before + 1);
  const obs::MetricsRegistry& m = runs.back()->metrics;

  // The run must exercise every counter, or equality proves little.
  for (std::uint64_t n : {rep.failed, rep.cancelled, rep.rejected,
                          rep.dropped, rep.aborted, rep.shed, rep.retries,
                          rep.crashes, rep.batches})
    EXPECT_GT(n, 0u);

  const std::map<std::string, double> want_counters = {
      {"serve/completed", static_cast<double>(rep.completed)},
      {"serve/failed", static_cast<double>(rep.failed)},
      {"serve/cancelled", static_cast<double>(rep.cancelled)},
      {"serve/rejected", static_cast<double>(rep.rejected)},
      {"serve/dropped", static_cast<double>(rep.dropped)},
      {"serve/aborted", static_cast<double>(rep.aborted)},
      {"serve/shed", static_cast<double>(rep.shed)},
      {"serve/retries", static_cast<double>(rep.retries)},
      {"serve/crashes", static_cast<double>(rep.crashes)},
      {"serve/batches", static_cast<double>(rep.batches)},
      // A fresh Server: this run paid all of the cache's setup.
      {"serve/plan_setup_seconds", rep.setup_charged}};
  const std::map<std::string, double> want_gauges = {
      {"serve/throughput", rep.throughput},
      {"serve/goodput", rep.goodput},
      {"serve/utilization", rep.utilization},
      {"serve/retry_amplification", rep.retry_amplification},
      {"serve/downtime_seconds", rep.downtime},
      {"serve/cache_hits", static_cast<double>(rep.cache_hits)},
      {"serve/cache_misses", static_cast<double>(rep.cache_misses)}};
  const auto check = [](const std::vector<std::pair<std::string, double>>& got,
                        const std::map<std::string, double>& want) {
    std::size_t seen = 0;
    for (const auto& [name, v] : got) {
      if (name.rfind("serve/", 0) != 0) continue;
      ++seen;
      const auto it = want.find(name);
      ASSERT_NE(it, want.end()) << name << " has no report field";
      EXPECT_EQ(v, it->second) << name;
    }
    EXPECT_EQ(seen, want.size());
  };
  check(m.counters(), want_counters);
  check(m.gauges(), want_gauges);

  std::map<std::string, std::uint64_t> hist_counts;
  for (const auto& [name, h] : m.histograms()) hist_counts[name] = h.count();
  EXPECT_EQ(hist_counts["serve/latency_seconds"], rep.completed);
  EXPECT_EQ(hist_counts["serve/recovery_seconds"], rep.recovery_times.size());
  EXPECT_GT(rep.recovery_times.size(), 0u);
}

TEST(Server, ShapeKeyDistinguishesPlansAndMachines) {
  const ClusterConfig c = test_cluster();
  EXPECT_EQ(shape_key(c, cube(64)), shape_key(c, cube(64)));
  EXPECT_NE(shape_key(c, cube(64)), shape_key(c, cube(32)));
  JobShape slab = cube(64);
  slab.options.decomp = core::Decomposition::Slab;
  EXPECT_NE(shape_key(c, cube(64)), shape_key(c, slab));
  ClusterConfig spock = c;
  spock.machine = net::spock();
  spock.device = gpu::mi100();
  spock.nranks = 8;
  EXPECT_NE(shape_key(c, cube(64)), shape_key(spock, cube(64)));
  // Both pricers and both MPI flavors price differently: distinct plans.
  JobShape seq = cube(64);
  seq.options.overlap_batches = false;
  EXPECT_EQ(shape_key(c, seq), shape_key(c, cube(64)) + "|seq");
  ClusterConfig mvapich = c;
  mvapich.flavor = net::MpiFlavor::Mvapich;
  EXPECT_EQ(shape_key(mvapich, cube(64)), shape_key(c, cube(64)) + "|f1");
  // Keys of the defaults are unchanged, so trace span names are too.
  EXPECT_EQ(shape_key(c, cube(64)),
            "64x64x64|r12|d2|MPI_Alltoallv|summit/cuFFT");
}

TEST(Server, RejectsACatalogOfAnotherCluster) {
  ServerConfig cfg;
  cfg.cluster = test_cluster();
  cfg.shapes = {cube(32)};
  ClusterConfig other = test_cluster();
  other.flavor = net::MpiFlavor::Mvapich;
  EXPECT_THROW(Server(cfg, std::make_shared<PlanCatalog>(other)), Error);
  EXPECT_NO_THROW(Server(cfg, std::make_shared<PlanCatalog>(test_cluster())));
}

}  // namespace
}  // namespace parfft::serve
