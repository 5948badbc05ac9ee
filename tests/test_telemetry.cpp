/// \file test_telemetry.cpp
/// Live telemetry (src/obs/telemetry): log-linear streaming histograms,
/// windowed virtual-time series, per-tenant SLO burn-rate monitors and
/// the flight recorder -- plus their integration with the serve event
/// loop: telemetry on/off must not change any virtual result, snapshots
/// and flight dumps must be valid (and seed-reproducible) JSON, and the
/// per-tenant alert timeline must follow an injected fault schedule.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulate.hpp"
#include "json_parser.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"

namespace parfft::obs {
namespace {

using parfft::testjson::JsonParser;
using parfft::testjson::JValue;

// ----------------------------------------------------- log-linear histogram

TEST(LogLinearHistogram, SingleValueQuantilesClampToData) {
  LogLinearHistogram h;
  h.observe(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  // The estimate interpolates inside the bucket but clamps to the
  // observed [min, max], so a single value round-trips exactly.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.125);
}

TEST(LogLinearHistogram, QuantileAccuracyOnUniformGrid) {
  LogLinearHistogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i) * 1e-3);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
  // Relative error is bounded by one sub-bucket's width (~1.5% at the
  // default sub = 32); allow 3% for interpolation slack.
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const double est = h.quantile(q);
    EXPECT_NEAR(est, q, 0.03 * q + 2e-3) << "q = " << q;
  }
}

TEST(LogLinearHistogram, ValuesAtOrBelowLoCollapseIntoOneBucket) {
  LogLinearHistogram h(/*lo=*/1e-6, /*sub=*/32);
  h.observe(0.0);
  h.observe(-3.0);
  h.observe(5e-7);
  h.observe(1e-6);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets().size(), 1u) << "all clamp to the lo bucket";
  // min/max report the raw observations, not the clamped bin.
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e-6);
}

TEST(LogLinearHistogram, BucketIndexConsistentAcrossMagnitudes) {
  // The bit-twiddled bucket index must place every value in a bucket
  // whose exported lower bound does not exceed it, across octaves both
  // below and above 1.0, including exact powers of two.
  for (const double v : {1e-5, 3.1e-4, 0.001, 0.25, 0.5, 0.72, 1.0, 1.5,
                         2.0, 3.5, 64.0, 1e3, 7.7e5}) {
    LogLinearHistogram h;
    h.observe(v);
    const auto b = h.buckets();
    ASSERT_EQ(b.size(), 1u);
    EXPECT_LE(b[0].first, v) << "v = " << v;
    EXPECT_GT(b[0].first, v * 0.5) << "v = " << v;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), v) << "v = " << v;
  }
  // Distinct octaves land in distinct buckets.
  LogLinearHistogram h;
  h.observe(0.5);
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  EXPECT_EQ(h.buckets().size(), 4u);
}

TEST(LogLinearHistogram, MergeMatchesBulkObservation) {
  LogLinearHistogram bulk, a, b;
  for (int i = 1; i <= 500; ++i) {
    const double x = 1e-4 * static_cast<double>(i * i);
    bulk.observe(x);
    a.observe(x);
  }
  for (int i = 501; i <= 1000; ++i) {
    const double x = 1e-4 * static_cast<double>(i * i);
    bulk.observe(x);
    b.observe(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), bulk.count());
  EXPECT_DOUBLE_EQ(a.sum(), bulk.sum());
  EXPECT_DOUBLE_EQ(a.min(), bulk.min());
  EXPECT_DOUBLE_EQ(a.max(), bulk.max());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(a.quantile(q), bulk.quantile(q));
  EXPECT_EQ(a.buckets(), bulk.buckets());
}

// ------------------------------------------------------------------ series

TEST(WindowedSeries, SealsEveryCrossedWindowIncludingEmptyOnes) {
  WindowedSeries s(/*width=*/1.0, /*keep=*/8);
  s.observe(0.5, 42.0);
  s.advance(5.25);
  ASSERT_EQ(s.sealed().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(s.sealed()[i].begin, static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.sealed()[i].end, static_cast<double>(i) + 1.0);
    EXPECT_EQ(s.sealed()[i].count(), i == 0 ? 1u : 0u);
  }
  EXPECT_DOUBLE_EQ(s.live().begin, 5.0);
  EXPECT_EQ(s.live().count(), 0u);
}

TEST(WindowedSeries, LateSamplesForwardKeyIntoTheLiveWindow) {
  WindowedSeries s(1.0, 8);
  s.advance(3.25);
  s.observe(1.0, 7.0);  // timestamped in a sealed window
  EXPECT_EQ(s.live().count(), 1u) << "late sample lands in the live window";
  for (const WindowStats& w : s.sealed())
    EXPECT_EQ(w.count(), 0u) << "sealed history is never rewritten";
}

TEST(WindowedSeries, FastForwardMatchesStepwiseAdvance) {
  // A series advanced in tiny steps and one advanced in a single far
  // jump (which takes the backfill fast path) must reach identical
  // observable state.
  WindowedSeries step(0.5, 4), jump(0.5, 4);
  for (const auto& [t, x] : std::vector<std::pair<double, double>>{
           {0.2, 1.0}, {0.7, 2.0}, {0.9, 3.0}}) {
    step.observe(t, x);
    jump.observe(t, x);
  }
  // Accumulated 0.1 steps drift in FP, so close both at exactly 60.0.
  for (double t = 1.0; t < 60.0; t += 0.1) step.advance(t);
  step.advance(60.0);
  jump.advance(60.0);
  EXPECT_DOUBLE_EQ(step.live().begin, jump.live().begin);
  EXPECT_DOUBLE_EQ(step.live().end, jump.live().end);
  ASSERT_EQ(step.sealed().size(), jump.sealed().size());
  for (std::size_t i = 0; i < step.sealed().size(); ++i) {
    EXPECT_DOUBLE_EQ(step.sealed()[i].begin, jump.sealed()[i].begin);
    EXPECT_DOUBLE_EQ(step.sealed()[i].end, jump.sealed()[i].end);
    EXPECT_EQ(step.sealed()[i].count(), jump.sealed()[i].count());
  }
  EXPECT_EQ(step.overall().count(), jump.overall().count());
  EXPECT_DOUBLE_EQ(step.overall().sum(), jump.overall().sum());
}

TEST(WindowedSeries, OverallSurvivesRingEviction) {
  WindowedSeries s(1.0, /*keep=*/2);
  for (int i = 0; i < 10; ++i)
    s.observe(static_cast<double>(i) + 0.5, 1.0);
  s.advance(12.0);
  EXPECT_EQ(s.sealed().size(), 2u) << "ring bounded";
  EXPECT_EQ(s.overall().count(), 10u) << "run total never forgets";
  EXPECT_DOUBLE_EQ(s.overall().sum(), 10.0);
}

// --------------------------------------------------------------------- slo

SloPolicy test_policy() {
  SloPolicy p;
  p.short_windows = 2;
  p.long_windows = 4;
  p.warn_burn = 1.5;
  p.page_burn = 6.0;
  p.clear_after = 2;
  return p;
}

TEST(SloMonitor, EscalatesOnSustainedBurnThenClearsWithHysteresis) {
  SloMonitor m(/*tenant=*/0, SloTarget{1.0, 0.9}, test_policy(),
               /*width=*/1.0);
  // Four healthy windows: everything in SLO, no transitions. Outcomes
  // are forward-keyed into the live window, so advance between windows
  // to spread them across the horizon.
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 10; ++i)
      m.observe(static_cast<double>(w) + 0.5, 0.5, true);
    EXPECT_TRUE(m.advance(static_cast<double>(w) + 1.0).empty());
  }
  EXPECT_EQ(m.state(), AlertState::Ok);
  EXPECT_DOUBLE_EQ(m.attainment(), 1.0);

  // Sustained burn: every outcome out of SLO. The short horizon trips
  // first (warning), the long horizon follows (page).
  std::vector<AlertTransition> fired;
  for (int w = 4; w < 8; ++w) {
    for (int i = 0; i < 10; ++i)
      m.observe(static_cast<double>(w) + 0.5, 5.0, true);
    const auto f = m.advance(static_cast<double>(w) + 1.0);
    fired.insert(fired.end(), f.begin(), f.end());
  }
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].from, AlertState::Ok);
  EXPECT_EQ(fired[0].to, AlertState::Warning);
  EXPECT_EQ(fired[1].from, AlertState::Warning);
  EXPECT_EQ(fired[1].to, AlertState::Page);
  EXPECT_EQ(m.state(), AlertState::Page);
  EXPECT_GE(m.burn_short(), 6.0);

  // Recovery: one clean window is not enough (hysteresis) ...
  for (int i = 0; i < 10; ++i) m.observe(8.5, 0.5, true);
  EXPECT_TRUE(m.advance(9.0).empty());
  EXPECT_EQ(m.state(), AlertState::Page);
  // ... the second clean evaluation de-escalates.
  for (int i = 0; i < 10; ++i) m.observe(9.5, 0.5, true);
  const auto cleared = m.advance(10.0);
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_EQ(cleared[0].from, AlertState::Page);
  EXPECT_EQ(m.state(), cleared[0].to);
  EXPECT_NE(m.state(), AlertState::Page);
}

TEST(SloMonitor, IdleFastForwardMatchesStepwiseAdvance) {
  SloMonitor step(1, SloTarget{1.0, 0.99}, test_policy(), 0.25);
  SloMonitor jump(1, SloTarget{1.0, 0.99}, test_policy(), 0.25);
  for (double t = 0.25; t <= 500.0; t += 0.25) step.advance(t);
  jump.advance(500.0);
  EXPECT_EQ(step.state(), jump.state());
  EXPECT_DOUBLE_EQ(step.burn_short(), jump.burn_short());
  EXPECT_DOUBLE_EQ(step.burn_long(), jump.burn_long());
  // Both resume identically once traffic appears.
  step.observe(500.1, 9.0, true);
  jump.observe(500.1, 9.0, true);
  const auto fs = step.advance(501.0);
  const auto fj = jump.advance(501.0);
  ASSERT_EQ(fs.size(), fj.size());
  EXPECT_EQ(step.state(), jump.state());
  EXPECT_DOUBLE_EQ(step.burn_short(), jump.burn_short());
}

// ---------------------------------------------------------------- recorder

FlightRecorderConfig rec_cfg(std::size_t capacity, std::uint64_t every) {
  FlightRecorderConfig c;
  c.capacity = capacity;
  c.sample_every = every;
  c.seed = 0xfeedULL;
  c.window = 100.0;
  return c;
}

TEST(FlightRecorder, SeededSamplingIsDeterministic) {
  FlightRecorder a(rec_cfg(64, 4)), b(rec_cfg(64, 4));
  const std::uint32_t name_a = a.intern("dispatch");
  const std::uint32_t name_b = b.intern("dispatch");
  for (int i = 0; i < 200; ++i) {
    const double t = static_cast<double>(i) * 0.01;
    a.record(t, 0.001, Category::Fft, name_a, i % 4);
    b.record(t, 0.001, Category::Fft, name_b, i % 4);
  }
  EXPECT_EQ(a.seen(), 200u);
  EXPECT_EQ(a.recorded(), b.recorded());
  EXPECT_GT(a.recorded(), 0u);
  EXPECT_LT(a.recorded(), 200u) << "subsampling must drop something";
  const auto ea = a.last_window(2.0);
  const auto eb = b.last_window(2.0);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i)
    EXPECT_EQ(ea[i].seq, eb[i].seq) << "same seed -> same kept events";
}

TEST(FlightRecorder, CriticalEventsBypassSamplingAndRingStaysBounded) {
  FlightRecorder r(rec_cfg(/*capacity=*/8, /*every=*/1000000));
  const std::uint32_t crash = r.intern("crash");
  for (int i = 0; i < 100; ++i)
    r.record(static_cast<double>(i), 0.0, Category::Alert, crash, -1,
             /*critical=*/true);
  EXPECT_EQ(r.recorded(), 100u) << "critical events never sampled out";
  const auto kept = r.last_window(99.0);
  EXPECT_LE(kept.size(), 8u);
  ASSERT_FALSE(kept.empty());
  EXPECT_EQ(kept.back().seq, 99u) << "ring keeps the newest events";
}

TEST(FlightRecorder, ChromeDumpIsValidTrace) {
  FlightRecorder r(rec_cfg(32, 1));
  const std::uint32_t d = r.intern("dispatch/64x64x64");
  const std::uint32_t c = r.intern("crash");
  r.record(0.1, 0.02, Category::Fft, d, 0);
  r.record(0.2, 0.02, Category::Fft, d, 1);
  r.record(0.3, 0.0, Category::Alert, c, -1, /*critical=*/true);
  std::ostringstream os;
  r.write_chrome(os, /*now=*/0.5, "flight: test");
  JValue doc = JsonParser(os.str()).parse();
  const JValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JValue::Kind::Arr);
  int spans = 0, meta = 0;
  bool saw_crash = false;
  for (const JValue& e : events->arr) {
    const std::string ph = e.string("ph");
    if (ph == "M") {
      ++meta;
    } else if (ph == "X") {
      ++spans;
      EXPECT_GE(e.number("ts"), 0.0);
      if (e.string("name") == "crash") saw_crash = true;
    } else {
      ADD_FAILURE() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(spans, 3);
  EXPECT_GE(meta, 3) << "process + server/tenant thread names";
  EXPECT_TRUE(saw_crash);
}

// ------------------------------------------------- serve-loop integration

serve::ClusterConfig test_cluster() {
  serve::ClusterConfig c;
  c.machine = net::summit();
  c.device = gpu::v100();
  c.nranks = 12;
  return c;
}

serve::JobShape cube(int n) {
  serve::JobShape s;
  s.n = {n, n, n};
  s.options.decomp = core::Decomposition::Pencil;
  s.options.overlap_batches = true;
  return s;
}

double unit_time(const serve::ClusterConfig& c, const serve::JobShape& s) {
  core::Simulator sim(serve::to_sim_config(c, s));
  return sim.transform_time(1);
}

serve::ServerConfig small_cfg(const serve::ClusterConfig& c, double t1) {
  serve::ServerConfig cfg;
  cfg.cluster = c;
  cfg.shapes.push_back(cube(32));
  cfg.batching.enabled = true;
  cfg.batching.max_batch = 4;
  cfg.batching.max_delay = 2 * t1;
  cfg.telemetry.window = 4 * t1;
  cfg.telemetry.default_slo.latency = 30 * t1;
  cfg.telemetry.default_slo.objective = 0.9;
  return cfg;
}

serve::ServeReport run_small(serve::ServerConfig cfg) {
  serve::Server server(cfg);
  serve::OpenLoopWorkload load({{cube(32), 1.0}}, 0.5 / cfg.batching.max_delay,
                               /*count=*/80, /*tenants=*/3, /*seed=*/7);
  return server.run(load);
}

TEST(TelemetryServe, OnOffProducesIdenticalVirtualResults) {
  const serve::ClusterConfig c = test_cluster();
  const double t1 = unit_time(c, cube(32));
  serve::ServerConfig on_cfg = small_cfg(c, t1);
  serve::ServerConfig off_cfg = small_cfg(c, t1);
  off_cfg.telemetry.enabled = false;
  const serve::ServeReport on = run_small(on_cfg);
  const serve::ServeReport off = run_small(off_cfg);
  EXPECT_NO_THROW(on.verify());
  EXPECT_NO_THROW(off.verify());
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_EQ(on.failed, off.failed);
  EXPECT_EQ(on.offered, off.offered);
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.latencies, off.latencies) << "byte-identical latency stream";
  // The per-tenant sections come from the event loop's own counters, so
  // they too are identical -- except the monitor-only fields.
  ASSERT_EQ(on.tenants.size(), off.tenants.size());
  for (std::size_t i = 0; i < on.tenants.size(); ++i) {
    EXPECT_EQ(on.tenants[i].tenant, off.tenants[i].tenant);
    EXPECT_EQ(on.tenants[i].offered, off.tenants[i].offered);
    EXPECT_EQ(on.tenants[i].completed, off.tenants[i].completed);
    EXPECT_EQ(on.tenants[i].failed, off.tenants[i].failed);
    EXPECT_EQ(on.tenants[i].shed, off.tenants[i].shed);
    EXPECT_DOUBLE_EQ(on.tenants[i].latency.p99, off.tenants[i].latency.p99);
    EXPECT_DOUBLE_EQ(on.tenants[i].latency.max, off.tenants[i].latency.max);
    EXPECT_DOUBLE_EQ(on.tenants[i].attainment, off.tenants[i].attainment);
  }
}

TEST(TelemetryServe, PerTenantCountersObeyConservation) {
  const serve::ClusterConfig c = test_cluster();
  const double t1 = unit_time(c, cube(32));
  const serve::ServeReport rep = run_small(small_cfg(c, t1));
  ASSERT_FALSE(rep.tenants.empty());
  std::uint64_t offered = 0, completed = 0, failed = 0;
  for (const serve::TenantReport& t : rep.tenants) {
    EXPECT_EQ(t.completed + t.failed, t.offered)
        << "tenant " << t.tenant << ": every request terminal exactly once";
    offered += t.offered;
    completed += t.completed;
    failed += t.failed;
  }
  EXPECT_EQ(offered, rep.offered);
  EXPECT_EQ(completed, rep.completed);
  EXPECT_EQ(failed, rep.failed);
}

TEST(TelemetryServe, SnapshotIsSeedReproducibleAndWellFormed) {
  const serve::ClusterConfig c = test_cluster();
  const double t1 = unit_time(c, cube(32));
  const auto snapshot_of = [&] {
    serve::Server server(small_cfg(c, t1));
    serve::OpenLoopWorkload load({{cube(32), 1.0}}, 0.25 / t1, 80, 3, 7);
    server.run(load);
    std::ostringstream os;
    server.telemetry()->write_snapshot(os);
    return os.str();
  };
  const std::string first = snapshot_of();
  const std::string second = snapshot_of();
  EXPECT_EQ(first, second) << "same seed -> byte-identical snapshot";

  JValue doc = JsonParser(first).parse();
  EXPECT_EQ(doc.string("schema"), "parfft-telemetry-v1");
  const JValue* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_NE(series->find("serve/latency"), nullptr);
  EXPECT_NE(series->find("serve/outcome"), nullptr);
  const JValue* lat = series->find("serve/latency");
  const JValue* windows = lat->find("windows");
  ASSERT_NE(windows, nullptr);
  EXPECT_GE(windows->arr.size(), 2u) << "run spans several windows";
  const JValue* slo = doc.find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->arr.size(), 3u) << "one monitor per tenant";
}

TEST(TelemetryServe, AlertTimelineAndFlightDumpFollowInjectedCrash) {
  const serve::ClusterConfig c = test_cluster();
  const double t1 = unit_time(c, cube(32));
  serve::ServerConfig cfg = small_cfg(c, t1);
  // One crash with a long outage: latencies across it blow the 30*t1
  // target, so the burn monitors must escalate after -- never before --
  // the crash instant.
  const double crash_at = 40 * t1;
  cfg.faults.add_crash(crash_at, /*restart_delay=*/120 * t1);
  const std::string prefix =
      ::testing::TempDir() + "parfft_test_flight_";
  cfg.telemetry.flight_path = prefix;
  const serve::ServeReport rep = run_small(cfg);
  EXPECT_NO_THROW(rep.verify());
  EXPECT_EQ(rep.crashes, 1u);

  ASSERT_FALSE(rep.alert_log.empty()) << "degradation must alert";
  bool escalated = false;
  for (const AlertTransition& a : rep.alert_log) {
    EXPECT_GE(a.t, crash_at) << "no alert before the injected fault";
    if (a.to == AlertState::Warning || a.to == AlertState::Page)
      escalated = true;
  }
  EXPECT_TRUE(escalated);

  // The crash dumped the flight recorder; the dump is a valid Chrome
  // trace with real events in it.
  ASSERT_FALSE(rep.flight_dumps.empty());
  for (const std::string& path : rep.flight_dumps) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    JValue doc = JsonParser(buf.str()).parse();
    const JValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->arr.size(), 1u);
    std::remove(path.c_str());
  }
}

TEST(MetricsHistogram, QuantileInterpolatesAndClampsOverflow) {
  // Two samples spread over one bucket [1, 1 + 1/4) at sub = 4: the
  // median interpolates halfway into the bucket.
  LogLinearHistogram h(/*lo=*/1e-6, /*sub=*/4);
  h.observe(1.0);
  h.observe(1.2);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.125);
  // Interpolation past the largest sample clamps to the exact max, and
  // a far outlier is reported as itself, not as a bucket edge.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.2);
  LogLinearHistogram o(/*lo=*/1e-6, /*sub=*/4);
  o.observe(1.5);
  o.observe(100.0);
  EXPECT_DOUBLE_EQ(o.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(o.quantile(0.0), 1.5);
  LogLinearHistogram e;
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 0.0) << "empty histogram";
}

}  // namespace
}  // namespace parfft::obs
