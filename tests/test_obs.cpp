/// Tests for the observability subsystem (src/obs): span tracer, metrics
/// registry, Chrome trace-event export, and the integration of all three
/// with the threaded runtime and the virtual-time simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/plan.hpp"
#include "core/simulate.hpp"
#include "json_parser.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/tracer.hpp"

using namespace parfft;
using parfft::testjson::JValue;
using parfft::testjson::JsonParser;

namespace {

/// EXPECT_NEAR with a relative tolerance tight enough to be "equal up to
/// summation-order rounding" (the tracer and the legacy aggregates sum the
/// same doubles, occasionally in different association).
void expect_close(double a, double b) {
  EXPECT_NEAR(a, b, 1e-12 * (1.0 + std::abs(b)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, CounterAndGauge) {
  obs::MetricsRegistry reg;
  reg.counter("bytes").add(10);
  reg.counter("bytes").add(32);
  EXPECT_DOUBLE_EQ(reg.counter("bytes").value(), 42.0);

  reg.gauge("util").set_max(0.5);
  reg.gauge("util").set_max(0.25);  // lower: peak is kept
  EXPECT_DOUBLE_EQ(reg.gauge("util").value(), 0.5);
  reg.gauge("util").set(0.1);
  EXPECT_DOUBLE_EQ(reg.gauge("util").value(), 0.1);

  const auto counters = reg.counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "bytes");
}

// Rank threads feed one histogram name concurrently; the registry mutex
// must serialize them without losing or tearing an observation.
TEST(Metrics, ConcurrentObserveConservesCountAndExtremes) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg, t] {
      for (int i = 1; i <= kPerThread; ++i)
        reg.observe("exchange/message_bytes",
                    static_cast<double>(t * kPerThread + i));
    });
  for (std::thread& th : threads) th.join();

  const auto hists = reg.histograms();
  ASSERT_EQ(hists.size(), 1u);
  const obs::LogLinearHistogram& h = hists[0].second;
  constexpr double n = kThreads * kPerThread;
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), n);
  // Integer-valued samples sum exactly in any order.
  EXPECT_EQ(h.sum(), n * (n + 1) / 2);
}

// Registry histograms are log-linear: each power-of-two octave splits
// into sub = 32 equal buckets, lower edge inclusive, upper exclusive.
TEST(Metrics, HistogramBucketEdges) {
  obs::MetricsRegistry reg;
  for (double x : {1.0, 1.03, 1.03125, 1000.0, 1000.0})
    reg.observe("exchange/message_bytes", x);
  const auto hists = reg.histograms();
  ASSERT_EQ(hists.size(), 1u);
  const obs::LogLinearHistogram& h = hists[0].second;
  ASSERT_EQ(h.sub(), 32);
  const auto b = h.buckets();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].first, 1.0);      // [1, 1 + 1/32): 1, 1.03
  EXPECT_EQ(b[0].second, 2u);
  EXPECT_EQ(b[1].first, 1.03125);  // an edge value opens its own bucket
  EXPECT_EQ(b[1].second, 1u);
  EXPECT_EQ(b[2].first, 992.0);    // [512, 1024) in steps of 16
  EXPECT_EQ(b[2].second, 2u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1 + 1.03 + 1.03125 + 1000 + 1000);
}

// Octave starts are powers of two, so bucket lower edges step
// geometrically across octaves and every power of two is an edge.
TEST(Metrics, GeometricEdges) {
  obs::MetricsRegistry reg;
  std::vector<double> xs;
  for (double x = 1024.0; x < 4e9; x *= 4.0) xs.push_back(x);
  for (double x : xs) reg.observe("fft/batch_bytes", x);
  const auto hists = reg.histograms();
  ASSERT_EQ(hists.size(), 1u);
  const auto b = hists[0].second.buckets();
  ASSERT_EQ(b.size(), xs.size());
  EXPECT_EQ(b.front().first, 1024.0);
  EXPECT_GE(b.back().first, 1e9);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i].first, xs[i]);
    EXPECT_EQ(b[i].second, 1u);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(b[i].first, b[i - 1].first * 4.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, NestingAndTotals) {
  obs::Tracer tr(2);
  tr.begin(0, obs::Category::Transform, "fft3d", 0.0);
  EXPECT_EQ(tr.open_spans(0), 1);
  tr.begin(0, obs::Category::Reshape, "reshape 0", 0.0);
  tr.complete(0, obs::Category::Pack, "pack", 0.0, 1.0);
  tr.complete(0, obs::Category::Exchange, "alltoallv", 1.0, 2.0);
  tr.end(0, 3.0);  // reshape
  tr.complete(0, obs::Category::Fft, "fft", 3.0, 4.0);
  tr.end(0, 7.0);  // transform
  EXPECT_EQ(tr.open_spans(0), 0);

  const auto& spans = tr.spans(0);
  ASSERT_EQ(spans.size(), 5u);
  // Completion order: children close before their parents.
  EXPECT_EQ(spans[0].name, "pack");
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_EQ(spans[1].name, "alltoallv");
  EXPECT_EQ(spans[2].name, "reshape 0");
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_EQ(spans[4].name, "fft3d");
  EXPECT_EQ(spans[4].depth, 0);
  EXPECT_DOUBLE_EQ(spans[4].dur, 7.0);

  // Leaves lie inside their parents; timestamps are monotone.
  for (const auto& s : spans) {
    EXPECT_GE(s.dur, 0.0);
    EXPECT_GE(s.begin, 0.0);
    EXPECT_LE(s.end(), 7.0);
  }
  EXPECT_DOUBLE_EQ(tr.total(0, obs::Category::Pack), 1.0);
  EXPECT_DOUBLE_EQ(tr.total(0, obs::Category::Exchange), 2.0);
  EXPECT_DOUBLE_EQ(tr.total(0, obs::Category::Fft), 4.0);
  // Rank 1 untouched.
  EXPECT_TRUE(tr.spans(1).empty());
}

// ---------------------------------------------------------------------------
// Exporters

TEST(ChromeExport, JsonEscape) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("x\ny"), "x\\ny");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(ChromeExport, RoundTripsSpansAndCounters) {
  obs::RunTrace run("unit run", 7, 2, /*with_args=*/true);
  run.tracer.begin(0, obs::Category::Transform, "fft3d", 0.0,
                   {{"n", std::string("8x8x8")}, {"batch", 1.0}});
  run.tracer.complete(0, obs::Category::Pack, "pack \"q\"", 0.0, 1e-6);
  run.tracer.end(0, 2e-6);
  run.tracer.complete(1, obs::Category::Fft, "fft", 0.0, 3e-6);
  run.counter_sample("link/core GB/s", 0.0, 12.5);
  run.counter_sample("link/core GB/s", 1e-6, 0.0);
  run.metrics.counter("rank/0/bytes_sent").add(4096);

  std::ostringstream os;
  obs::write_chrome_trace(os, {&run});
  JValue doc = JsonParser(os.str()).parse();

  const JValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JValue::Kind::Arr);

  int meta = 0, spans = 0, counters = 0;
  bool saw_pack = false, saw_args = false;
  for (const JValue& e : events->arr) {
    const std::string ph = e.string("ph");
    EXPECT_EQ(e.number("pid"), 7);
    if (ph == "M") {
      ++meta;
    } else if (ph == "X") {
      ++spans;
      EXPECT_GE(e.number("dur"), 0.0);
      if (e.string("name") == "pack \"q\"") {
        saw_pack = true;
        EXPECT_DOUBLE_EQ(e.number("ts"), 0.0);
        EXPECT_DOUBLE_EQ(e.number("dur"), 1.0);  // 1e-6 s == 1 us
        EXPECT_EQ(e.string("cat"), "pack");
        EXPECT_DOUBLE_EQ(e.number("tid"), 0);
      }
      if (e.string("name") == "fft3d") {
        const JValue* args = e.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->string("n"), "8x8x8");
        EXPECT_DOUBLE_EQ(args->number("batch"), 1.0);
        saw_args = true;
      }
    } else if (ph == "C") {
      ++counters;
      EXPECT_EQ(e.string("name"), "link/core GB/s");
    } else {
      ADD_FAILURE() << "unexpected phase " << ph;
    }
  }
  // 1 process_name + 2 ranks * (thread_name + thread_sort_index).
  EXPECT_EQ(meta, 5);
  EXPECT_EQ(spans, 3);
  EXPECT_EQ(counters, 2);
  EXPECT_TRUE(saw_pack);
  EXPECT_TRUE(saw_args);
}

TEST(SummaryExport, MentionsCategoriesAndMetrics) {
  obs::RunTrace run("summary run", 1, 1, true);
  run.tracer.complete(0, obs::Category::Exchange, "alltoallv", 0.0, 1e-3);
  run.metrics.counter("rank/0/bytes_sent").add(1 << 20);
  run.metrics.observe("exchange/message_bytes", 2048.0);
  std::ostringstream os;
  obs::write_run_summary(os, run);
  const std::string s = os.str();
  EXPECT_NE(s.find("summary run"), std::string::npos);
  EXPECT_NE(s.find("exchange"), std::string::npos);
  EXPECT_NE(s.find("rank/0/bytes_sent"), std::string::npos);
  EXPECT_NE(s.find("message_bytes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CSV hardening

TEST(CallCsv, EscapesSpecialFields) {
  EXPECT_EQ(core::csv_escape("plain"), "plain");
  EXPECT_EQ(core::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(core::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(core::csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CallCsv, HeaderAndRows) {
  core::SimConfig cfg;
  cfg.n = {32, 32, 32};
  cfg.nranks = 4;
  const core::SimReport rep = core::simulate(cfg);
  std::ostringstream os;
  core::write_call_csv(rep, os);
  const std::string s = os.str();
  EXPECT_EQ(s.rfind("kind,index,name,seconds", 0), 0u);  // header first
  EXPECT_NE(s.find("comm,1,"), std::string::npos);
  EXPECT_NE(s.find("fft,1,"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Integration: threaded runtime. Span aggregates must reproduce the legacy
// per-plan KernelTimes breakdown, category by category.

TEST(RuntimeTrace, PlanTraceMatchesSpans) {
  const std::array<int, 3> n = {32, 32, 32};
  constexpr int kRanks = 4;

  smpi::RuntimeOptions ro;
  ro.nranks = kRanks;
  ro.machine = net::summit();
  ro.trace.enabled = true;

  std::mutex mu;
  std::vector<core::KernelTimes> kernels(kRanks);
  const std::size_t before = obs::Session::global().runs().size();

  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& comm) {
    const auto boxes = core::brick_layout(n, comm.size());
    const core::Box3& box = boxes[static_cast<std::size_t>(comm.rank())];
    core::PlanOptions opt;
    opt.backend = core::Backend::Alltoallv;
    opt.scaling = core::Scaling::Full;
    core::Plan3D plan(comm, n, box, box, opt);

    Rng rng(7 + static_cast<std::uint64_t>(comm.rank()));
    auto in = rng.complex_vector(static_cast<std::size_t>(box.count()));
    std::vector<cplx> freq(in.size()), back(in.size());
    plan.execute(in.data(), freq.data(), dft::Direction::Forward);
    plan.execute(freq.data(), back.data(), dft::Direction::Backward);

    std::lock_guard lk(mu);
    kernels[static_cast<std::size_t>(comm.rank())] = plan.trace().kernels();
  });

  const auto runs = obs::Session::global().runs();
  ASSERT_EQ(runs.size(), before + 1);
  const obs::RunTrace* tr = runs.back();
  EXPECT_EQ(tr->nranks(), kRanks);

  for (int r = 0; r < kRanks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& k = kernels[static_cast<std::size_t>(r)];
    EXPECT_GT(k.total(), 0.0);
    expect_close(tr->tracer.total(r, obs::Category::Fft), k.fft);
    expect_close(tr->tracer.total(r, obs::Category::Pack), k.pack);
    expect_close(tr->tracer.total(r, obs::Category::Unpack), k.unpack);
    expect_close(tr->tracer.total(r, obs::Category::Exchange), k.comm);
    expect_close(tr->tracer.total(r, obs::Category::Scale), k.scale);
    EXPECT_EQ(tr->tracer.open_spans(r), 0);

    // Exactly one Transform parent per execute() call.
    int transforms = 0;
    for (const auto& s : tr->tracer.spans(r))
      if (s.cat == obs::Category::Transform) ++transforms;
    EXPECT_EQ(transforms, 2);
  }

  // Byte accounting fed the metrics registry.
  double bytes0 = 0;
  for (const auto& [name, v] : tr->metrics.counters())
    if (name == "rank/0/bytes_sent") bytes0 = v;
  EXPECT_GT(bytes0, 0.0);
  const auto hists = tr->metrics.histograms();
  bool msg_hist = false;
  for (const auto& [name, h] : hists)
    if (name == "exchange/message_bytes" && h.count() > 0) msg_hist = true;
  EXPECT_TRUE(msg_hist);
}

// An overlapped batched execute runs its stages back to back but leaves
// every rank at the pipelined time. Its spans are fitted into that window,
// so every span lies inside its parent. The top-level spans of a rank do
// not overlap once the FFT plans exist: the first execute's plan-creation
// spikes are not part of the pipelined time, so its fft3d span stretches
// past the window to cover them.
TEST(RuntimeTrace, OverlappedBatchSpansNestInTheirParents) {
  const std::array<int, 3> n = {16, 12, 8};
  constexpr int kRanks = 4;
  for (core::Backend backend :
       {core::Backend::Alltoallv, core::Backend::P2PNonBlocking}) {
    SCOPED_TRACE(core::backend_name(backend));
    smpi::RuntimeOptions ro;
    ro.nranks = kRanks;
    ro.trace.enabled = true;
    smpi::Runtime rt(ro);
    rt.run([&](smpi::Comm& comm) {
      const auto boxes = core::brick_layout(n, comm.size());
      const core::Box3& box = boxes[static_cast<std::size_t>(comm.rank())];
      core::PlanOptions opt;
      opt.backend = backend;
      opt.batch = 4;
      opt.scaling = core::Scaling::Full;
      core::Plan3D plan(comm, n, box, box, opt);
      Rng rng(3 + static_cast<std::uint64_t>(comm.rank()));
      auto data = rng.complex_vector(
          static_cast<std::size_t>(plan.input_elements()));
      std::vector<cplx> out(data.size());
      for (int rep = 0; rep < 3; ++rep) {
        const auto dir = rep % 2 == 0 ? dft::Direction::Forward
                                      : dft::Direction::Backward;
        plan.execute(data.data(), out.data(), dir);
        data.swap(out);
      }
    });
    const obs::RunTrace* tr = obs::Session::global().runs().back();
    for (int r = 0; r < kRanks; ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      // Completion order puts each span before its parent: the first
      // later span one level up.
      const auto& spans = tr->tracer.spans(r);
      int transforms = 0;
      double top_end = 0;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const obs::Span& s = spans[i];
        if (s.depth == 0) {
          if (transforms >= 2) {
            EXPECT_GE(s.begin, top_end) << s.name;
          }
          top_end = s.end();
          transforms += s.cat == obs::Category::Transform;
          continue;
        }
        std::size_t p = i + 1;
        while (p < spans.size() && spans[p].depth != s.depth - 1) ++p;
        ASSERT_LT(p, spans.size()) << s.name << " has no parent";
        EXPECT_GE(s.begin, spans[p].begin) << s.name << " in " << spans[p].name;
        EXPECT_LE(s.end(), spans[p].end() * (1 + 1e-12))
            << s.name << " in " << spans[p].name;
      }
      EXPECT_EQ(transforms, 3);
    }
  }
}

// ---------------------------------------------------------------------------
// Integration: virtual-time simulator. Checks structural nesting, counter
// tracks from the flow model, and per-link gauges.

TEST(SimulateTrace, NestedSpansAndLinkCounters) {
  core::SimConfig cfg;
  cfg.n = {64, 64, 64};
  cfg.nranks = 6;
  cfg.repeats = 2;
  cfg.options.backend = core::Backend::Alltoallv;
  cfg.options.trace.enabled = true;

  const std::size_t before = obs::Session::global().runs().size();
  const core::SimReport rep = core::simulate(cfg);
  const auto runs = obs::Session::global().runs();
  ASSERT_EQ(runs.size(), before + 1);
  const obs::RunTrace* tr = runs.back();
  ASSERT_EQ(tr->nranks(), cfg.nranks);

  for (int r = 0; r < cfg.nranks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(tr->tracer.open_spans(r), 0);
    const auto& spans = tr->tracer.spans(r);
    ASSERT_FALSE(spans.empty());

    const double total = rep.rank_times[static_cast<std::size_t>(r)];
    const double eps = 1e-9 * (1.0 + total);

    // One Transform parent per repeat; every other span nested inside one.
    std::vector<const obs::Span*> transforms;
    for (const auto& s : spans) {
      EXPECT_GE(s.dur, 0.0);
      EXPECT_GE(s.begin, -eps);
      EXPECT_LE(s.end(), total + eps);
      if (s.cat == obs::Category::Transform) transforms.push_back(&s);
    }
    ASSERT_EQ(static_cast<int>(transforms.size()), cfg.repeats);
    for (const auto& s : spans) {
      if (s.cat == obs::Category::Transform) continue;
      bool inside = false;
      for (const obs::Span* t : transforms)
        if (s.begin >= t->begin - eps && s.end() <= t->end() + eps)
          inside = true;
      EXPECT_TRUE(inside) << s.name << " not nested in any transform";
    }

    // Transform parents tile the rank's clock back-to-back and in order.
    std::sort(transforms.begin(), transforms.end(),
              [](const obs::Span* a, const obs::Span* b) {
                return a->begin < b->begin;
              });
    for (std::size_t i = 1; i < transforms.size(); ++i)
      EXPECT_GE(transforms[i]->begin, transforms[i - 1]->end() - eps);

    // Per-rank span sums never exceed the simulator's aggregate breakdown
    // (SimReport::kernels is a per-transform max over ranks, so scale it
    // back up by the repeat count).
    const double reps = cfg.repeats;
    EXPECT_LE(tr->tracer.total(r, obs::Category::Fft),
              reps * rep.kernels.fft + eps);
    EXPECT_LE(tr->tracer.total(r, obs::Category::Pack),
              reps * rep.kernels.pack + eps);
    EXPECT_LE(tr->tracer.total(r, obs::Category::Unpack),
              reps * rep.kernels.unpack + eps);
  }

  // The flow model fed link-utilization counter tracks and gauges.
  const auto series = tr->counter_series();
  EXPECT_FALSE(series.empty());
  for (const auto& cs : series) {
    EXPECT_EQ(cs.name.rfind("link/", 0), 0u);
    EXPECT_FALSE(cs.samples.empty());
  }
  bool peak_gauge = false;
  for (const auto& [name, v] : tr->metrics.gauges())
    if (name.rfind("link/", 0) == 0 &&
        name.find("/peak_util") != std::string::npos && v > 0)
      peak_gauge = true;
  EXPECT_TRUE(peak_gauge);

  // Fan-out histogram saw one observation per (rank, reshape) execution.
  bool fanout = false;
  for (const auto& [name, h] : tr->metrics.histograms())
    if (name == "reshape/fanout" && h.count() > 0) fanout = true;
  EXPECT_TRUE(fanout);
}

// A disabled config records nothing (no run is even created).
TEST(SessionTest, DisabledConfigRecordsNothing) {
  obs::Session s;
  obs::TraceConfig off;
  EXPECT_EQ(s.begin_run("off", 2, off), nullptr);
  EXPECT_TRUE(s.runs().empty());

  obs::TraceConfig on;
  on.enabled = true;
  obs::RunTrace* run = s.begin_run("on", 2, on);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(s.runs().size(), 1u);
  std::ostringstream os;
  s.write_chrome(os);
  EXPECT_NO_THROW(JsonParser(os.str()).parse());
}

// ---------------------------------------------------------------------------
// Exporter edge cases: the writers must produce well-formed output for
// degenerate sessions, not just the happy path the benches exercise.

// A session that recorded nothing still writes a complete, parseable
// Chrome document (empty traceEvents) and an empty summary.
TEST(ExportEdgeCases, EmptySessionWritesValidEmptyDocuments) {
  obs::Session s;
  std::ostringstream chrome;
  s.write_chrome(chrome);
  JValue doc = JsonParser(chrome.str()).parse();
  const JValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JValue::Kind::Arr);
  EXPECT_TRUE(events->arr.empty());

  std::ostringstream summary;
  s.write_summary(summary);
  EXPECT_TRUE(summary.str().empty());
}

// A run holding metrics but not a single span (e.g. a phase that only
// counts bytes) exports: Chrome output is valid JSON with metadata-only
// events, and the summary still lists the metrics.
TEST(ExportEdgeCases, MetricsOnlyRunExports) {
  obs::RunTrace run("metrics only", 3, 2, /*with_args=*/false);
  run.metrics.counter("rank/0/bytes_sent").add(1 << 16);
  run.metrics.gauge("link/core/peak_util").set(0.5);

  std::ostringstream os;
  obs::write_chrome_trace(os, {&run});
  JValue doc = JsonParser(os.str()).parse();
  const JValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const JValue& e : events->arr)
    EXPECT_EQ(e.string("ph"), "M") << "span event in a span-less run";

  std::ostringstream summary;
  obs::write_run_summary(summary, run);
  EXPECT_NE(summary.str().find("metrics only"), std::string::npos);
  EXPECT_NE(summary.str().find("rank/0/bytes_sent"), std::string::npos);
  EXPECT_NE(summary.str().find("link/core/peak_util"), std::string::npos);
}

// PARFFT_TRACE_SUMMARY=- streams the summary tables to stderr when the
// session flushes; the shape must match write_run_summary's output.
TEST(ExportEdgeCases, SummaryDashFlushesTablesToStderr) {
  ASSERT_EQ(setenv("PARFFT_TRACE_SUMMARY", "-", /*overwrite=*/1), 0);
  testing::internal::CaptureStderr();
  {
    obs::Session s;  // reads the env at construction
    obs::TraceConfig on;
    on.enabled = true;
    obs::RunTrace* run = s.begin_run("dash run", 1, on);
    ASSERT_NE(run, nullptr);
    run->tracer.complete(0, obs::Category::Exchange, "alltoallv", 0.0,
                         1e-3);
    run->metrics.counter("rank/0/bytes_sent").add(4096);
  }  // destructor flushes to stderr
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("PARFFT_TRACE_SUMMARY"), 0);

  obs::RunTrace twin("dash run", 1, 1, false);
  twin.tracer.complete(0, obs::Category::Exchange, "alltoallv", 0.0, 1e-3);
  twin.metrics.counter("rank/0/bytes_sent").add(4096);
  std::ostringstream expected;
  obs::write_run_summary(expected, twin);
  EXPECT_NE(err.find("dash run"), std::string::npos);
  EXPECT_NE(err.find("exchange"), std::string::npos);
  EXPECT_NE(err.find(expected.str()), std::string::npos)
      << "stderr summary does not embed write_run_summary's tables";
}
