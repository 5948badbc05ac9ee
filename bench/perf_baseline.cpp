/// \file perf_baseline.cpp
/// Pinned perf-regression suite. Runs a fixed set of simulations -- the
/// Fig. 6 breakdown pair, one Fig. 8 scaling point, a serve_throughput
/// smoke config and a fault_sweep smoke config -- and emits every number
/// worth guarding as machine-readable JSON (BENCH_parfft.json).
///
/// Everything is deterministic virtual time, so the committed baseline
/// (bench/baselines/BENCH_parfft.json) is comparable across machines;
/// tools/perfdiff diffs two such files with tolerances and exits nonzero
/// on regression. ctest runs this under `-L perf`; CI uploads the JSON.
///
/// Schema (consumed by tools/perfdiff):
///   { "schema": "parfft-bench-v1",
///     "metrics": { "<name>": {"v": <number>, "dir": "lower"|"higher"
///                             [, "tol": <number>]} },
///     "serve_report": {...}, "fault_report": {...} }
/// "dir" says which direction is *better*; perfdiff flags moves the
/// wrong way beyond tolerance. A per-metric "tol" overrides perfdiff's
/// global tolerance -- used by the one wall-clock-derived metric,
/// obs.trace_overhead_ratio (the cost of running with telemetry + flight
/// recorder on versus off; everything else here is virtual time).
///
/// --smoke runs only the serve suite + the overhead measurement (the CI
/// telemetry smoke job's fast path); --snapshot=PATH additionally writes
/// the serve suite's telemetry snapshot JSON for tools/parfft_top.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/analysis.hpp"
#include "obs/session.hpp"
#include "serve/server.hpp"

using namespace parfft;
using namespace parfft::bench;
namespace cl = parfft::cluster;

namespace {

constexpr std::uint64_t kSeed = 20260806;

struct Metric {
  std::string name;
  double value = 0;
  const char* dir = "lower";  ///< which direction is better
  double tol = -1;  ///< per-metric tolerance override (< 0 = global)
};

std::vector<Metric>& metrics() {
  static std::vector<Metric> m;
  return m;
}

void put(const std::string& name, double value, const char* dir = "lower",
         double tol = -1) {
  metrics().push_back({name, value, dir, tol});
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// The RunTrace recorded by the immediately preceding traced simulate().
const obs::RunTrace& last_run() {
  const auto runs = obs::Session::global().runs();
  PARFFT_CHECK(!runs.empty(), "traced run expected");
  return *runs.back();
}

/// Fig. 6 pair on 24 GPUs, traced; attribution + residuals come from the
/// Alltoallv variant (the paper's winner).
void suite_fig06(std::ostream& heatmap_csv) {
  core::SimConfig a = experiment512(24);
  a.options.backend = core::Backend::Alltoall;
  a.options.contiguous_fft = true;
  const auto ra = core::simulate(a);
  put("fig06.alltoall.total_per_fft", ra.kernels.total());
  put("fig06.alltoall.comm", ra.kernels.comm);

  core::SimConfig v = experiment512(24);
  v.options.backend = core::Backend::Alltoallv;
  v.options.contiguous_fft = false;
  v.options.trace.enabled = true;
  const auto rv = core::simulate(v);
  put("fig06.alltoallv.total_per_fft", rv.kernels.total());
  put("fig06.alltoallv.comm", rv.kernels.comm);
  put("fig06.alltoallv.fft", rv.kernels.fft);
  put("fig06.alltoallv.pack", rv.kernels.pack);

  const obs::RunTrace& run = last_run();
  const obs::CriticalPath cp = obs::critical_path(run);
  const obs::PathAttribution at = cp.attribution();
  put("fig06.path.makespan", cp.makespan);
  put("fig06.path.comms_frac", at.comms / cp.makespan);
  put("fig06.path.wait_frac", at.wait / cp.makespan);
  put("fig06.path.untracked", cp.untracked);
  put("fig06.path.hidden_compute", at.hidden_compute, "higher");

  const auto res = obs::bandwidth_residuals(run);
  double mean_abs = 0;
  int flagged = 0;
  for (const auto& r : res) {
    mean_abs += std::abs(r.residual);
    flagged += r.flagged ? 1 : 0;
  }
  if (!res.empty()) mean_abs /= static_cast<double>(res.size());
  put("fig06.residual.mean_abs", mean_abs);
  put("fig06.residual.flagged", flagged);

  write_attribution_report(run, std::cout);
  const obs::LinkHeatmap hm = obs::link_heatmap(run);
  obs::write_heatmap_csv(hm, heatmap_csv);
}

/// One Fig. 8 scaling point (96 GPUs, both transfer modes).
void suite_fig08() {
  for (const bool aware : {true, false}) {
    core::SimConfig cfg = experiment512(96);
    cfg.options.backend = core::Backend::Alltoallv;
    cfg.gpu_aware = aware;
    const auto rep = core::simulate(cfg);
    const std::string key = aware ? "fig08.gpus96.aware" : "fig08.gpus96.staged";
    put(key + ".total_per_fft", rep.per_transform);
    put(key + ".comm", rep.kernels.comm);
  }
}

serve::ClusterConfig cluster() {
  serve::ClusterConfig c;
  c.machine = net::summit();
  c.device = gpu::v100();
  c.nranks = 12;  // two Summit nodes
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

const std::vector<serve::ShapeMix>& serve_mix() {
  static const std::vector<serve::ShapeMix> mix = {
      {cube(64), 4.0}, {cube(128), 2.0}, {cube(32), 1.0}};
  return mix;
}

/// The serve suite's server config: batch<=8 smoke cell with live
/// telemetry on (the pinned numbers include its always-on cost) and a
/// shared SLO target so the per-tenant report sections and burn-rate
/// monitors are exercised.
serve::ServerConfig serve_cfg(const serve::ClusterConfig& c, double t1) {
  serve::ServerConfig cfg;
  cfg.cluster = c;
  for (const auto& m : serve_mix()) cfg.shapes.push_back(m.shape);
  cfg.batching.enabled = true;
  cfg.batching.max_batch = 8;
  cfg.batching.max_delay = 4 * t1;
  cfg.label = "perf/serve";
  // Telemetry windows ~10 unit transforms wide; the SLO target sits
  // above the steady-state p99 (~540 t1 under this deliberately loaded
  // rate/batch config) so attainment is high and alerts mean real
  // degradation, not a mis-set target burning its budget from minute
  // zero.
  cfg.telemetry.window = 10 * t1;
  cfg.telemetry.default_slo.latency = 600 * t1;
  cfg.telemetry.default_slo.objective = 0.95;
  return cfg;
}

/// serve_throughput's batch<=8 smoke cell, pinned.
serve::ServeReport suite_serve(const std::string& snapshot_path) {
  const serve::ClusterConfig c = cluster();
  const double t1 = unit_time(c, serve_mix()[0].shape);
  serve::ServerConfig cfg = serve_cfg(c, t1);
  cfg.telemetry.snapshot_path = snapshot_path;
  serve::Server server(cfg);
  serve::OpenLoopWorkload load(serve_mix(), 4.0 / t1, /*requests=*/400,
                               /*tenants=*/4, kSeed);
  const serve::ServeReport rep = server.run(load);
  put("serve.throughput", rep.throughput, "higher");
  put("serve.completed", static_cast<double>(rep.completed), "higher");
  put("serve.p50", rep.latency.p50);
  put("serve.p99", rep.latency.p99);
  put("serve.utilization", rep.utilization, "higher");
  put("serve.mean_batch", rep.mean_batch, "higher");
  const double lookups =
      static_cast<double>(rep.cache_hits + rep.cache_misses);
  put("serve.cache_hit_rate",
      lookups > 0 ? static_cast<double>(rep.cache_hits) / lookups : 0.0,
      "higher");
  double attainment_min = 1.0;
  for (const serve::TenantReport& t : rep.tenants)
    attainment_min = std::min(attainment_min, t.attainment);
  put("serve.slo_attainment_min", attainment_min, "higher");
  put("serve.alerts", static_cast<double>(rep.alert_log.size()));
  return rep;
}

/// Wall-clock cost of the always-on instrumentation, telemetry + flight
/// recorder on versus off. Two measurements:
///
///  - obs.trace_overhead_ratio: best-of-N end-to-end serve runs, a
///    fresh Server per repetition, so each run pays plan construction,
///    dispatch and the event loop -- the shape of a production run. This
///    is the committed acceptance metric and must stay <= 1.05.
///  - obs.trace_overhead_ratio_warm: best-of-N re-runs of one Server
///    with a hot plan cache, isolating the per-event instrumentation
///    cost. The loop is ~100s of microseconds so the ratio is noisy;
///    the loose tolerance makes it a tripwire for per-event regressions
///    (an accidental string build or allocation on the hot path), not a
///    budget.
///
/// The virtual results of both sides must be identical -- that is the
/// whole point of keying telemetry to virtual time -- and this asserts
/// it.
void suite_overhead() {
  // File outputs would contaminate the timed runs: telemetry paths fall
  // back to the environment, so a PARFFT_TELEMETRY_SNAPSHOT or
  // PARFFT_FLIGHT_DUMP redirection makes every telemetry-ON repetition
  // write JSON mid-measurement (and only the ON side, skewing the
  // ratio). Hold both unset for the duration, restore on exit.
  struct EnvGuard {
    const char* name;
    std::string saved;
    bool was_set;
    explicit EnvGuard(const char* n) : name(n) {
      const char* v = std::getenv(n);
      was_set = v != nullptr;
      if (was_set) {
        saved = v;
        unsetenv(n);
      }
    }
    ~EnvGuard() {
      if (was_set) setenv(name, saved.c_str(), 1);
    }
  };
  const EnvGuard snapshot_guard("PARFFT_TELEMETRY_SNAPSHOT");
  const EnvGuard flight_guard("PARFFT_FLIGHT_DUMP");
  const serve::ClusterConfig c = cluster();
  const double t1 = unit_time(c, serve_mix()[0].shape);
  const auto make_cfg = [&](bool telemetry_on) {
    serve::ServerConfig cfg = serve_cfg(c, t1);
    cfg.telemetry.enabled = telemetry_on;
    return cfg;
  };
  const auto run_cold = [&](bool telemetry_on, serve::ServeReport& rep) {
    return best_of(5, [&] {
      serve::Server server(make_cfg(telemetry_on));
      serve::OpenLoopWorkload load(serve_mix(), 4.0 / t1, 400, 4, kSeed);
      rep = server.run(load);
    });
  };
  const auto run_warm = [&](bool telemetry_on, serve::ServeReport& rep) {
    serve::Server server(make_cfg(telemetry_on));
    {
      serve::OpenLoopWorkload warm(serve_mix(), 4.0 / t1, 400, 4, kSeed);
      server.run(warm);  // warm the plan cache
    }
    // 2000 requests: a long enough loop that the per-event delta
    // dominates timer resolution and scheduler jitter.
    return best_of(5, [&] {
      serve::OpenLoopWorkload load(serve_mix(), 4.0 / t1, 2000, 4, kSeed);
      rep = server.run(load);
    });
  };
  serve::ServeReport with, without;
  const double cold_on = run_cold(true, with);
  const double cold_off = run_cold(false, without);
  PARFFT_CHECK(with.completed == without.completed &&
                   with.failed == without.failed &&
                   with.makespan == without.makespan &&
                   with.latencies == without.latencies,
               "telemetry changed the serve results");
  const double warm_on = run_warm(true, with);
  const double warm_off = run_warm(false, without);
  PARFFT_CHECK(with.completed == without.completed &&
                   with.failed == without.failed &&
                   with.makespan == without.makespan &&
                   with.latencies == without.latencies,
               "telemetry changed the serve results (warm)");
  std::printf(
      "overhead: cold on %.3f ms, off %.3f ms; warm on %.3f ms, off "
      "%.3f ms\n",
      cold_on * 1e3, cold_off * 1e3, warm_on * 1e3, warm_off * 1e3);
  // The only wall-clock metrics in the file: their per-metric tolerances
  // absorb CI scheduler noise that the virtual-time metrics never see.
  put("obs.trace_overhead_ratio", cold_off > 0 ? cold_on / cold_off : 1.0,
      "lower", /*tol=*/0.10);
  put("obs.trace_overhead_ratio_warm",
      warm_off > 0 ? warm_on / warm_off : 1.0, "lower", /*tol=*/0.75);
}

/// fault_sweep's mtbf=50xt1 / retry-x4 smoke cell, pinned.
serve::ServeReport suite_fault() {
  const serve::ClusterConfig c = cluster();
  const std::vector<serve::ShapeMix> mix = {{cube(64), 3.0}, {cube(32), 1.0}};
  const double t1 = unit_time(c, mix[0].shape);
  const double rate = 1.5 / t1;
  const std::uint64_t requests = 300;
  serve::ServerConfig cfg;
  cfg.cluster = c;
  for (const auto& m : mix) cfg.shapes.push_back(m.shape);
  cfg.batching.max_batch = 8;
  cfg.batching.max_delay = 2 * t1;
  serve::FaultSpec spec;
  spec.seed = kSeed;
  spec.horizon = 2.5 * static_cast<double>(requests) / rate;
  spec.crash_mtbf = 50 * t1;
  spec.crash_mttr = 5 * t1;
  cfg.faults = serve::FaultPlan::generate(spec);
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_base = 0.5 * t1;
  cfg.retry.backoff_cap = 8 * t1;
  cfg.retry.jitter_seed = kSeed;
  cfg.retry.deadline = 60 * t1;
  cfg.shed_expired = true;
  cfg.label = "perf/fault";
  // Telemetry under faults: every tenant monitored, so the injected
  // crash schedule shows up as a per-tenant SLO alert timeline.
  cfg.telemetry.window = 2 * t1;
  cfg.telemetry.default_slo.latency = 12 * t1;
  cfg.telemetry.default_slo.objective = 0.95;
  serve::Server server(cfg);
  serve::OpenLoopWorkload load(mix, rate, requests, /*tenants=*/4, kSeed);
  const serve::ServeReport rep = server.run(load);
  put("fault.goodput", rep.goodput, "higher");
  put("fault.p99", rep.latency.p99);
  put("fault.failed", static_cast<double>(rep.failed));
  put("fault.retry_amplification", rep.retry_amplification);
  put("fault.alerts", static_cast<double>(rep.alert_log.size()));
  if (!rep.recovery_times.empty())
    put("fault.mean_recovery", rep.mean_recovery);
  return rep;
}

/// The sharded tier's pinned cell (bench/cluster_sweep's headline
/// config): 3 machines behind shape-affinity routing, one machine-scoped
/// crash mid-run forcing placement failover. Guards the cluster's
/// useful-work rate, how warm affinity keeps the caches, and the tail
/// under failover.
void suite_cluster() {
  const serve::ClusterConfig c = cluster();
  const double t1 = unit_time(c, serve_mix()[0].shape);
  cl::ClusterOptions opt;
  opt.shard = serve_cfg(c, t1);
  opt.shard.retry.max_attempts = 3;
  opt.shard.retry.backoff_base = 0.5 * t1;
  opt.shard.retry.jitter_seed = kSeed;
  opt.machines = 3;
  opt.placement = cl::Placement::Affinity;
  opt.label = "perf/cluster";
  // Crash machine 0 while arrivals are still flowing: its pinned shapes
  // must fail over and re-warm elsewhere.
  opt.faults.machine(0).add_crash(40 * t1, 20 * t1);
  cl::Cluster tier(opt);
  serve::OpenLoopWorkload load(serve_mix(), 8.0 / t1, /*requests=*/400,
                               /*tenants=*/4, kSeed);
  const cl::ClusterReport rep = tier.run(load);
  rep.verify();
  put("cluster.goodput", rep.goodput, "higher");
  put("cluster.affinity_hit_rate", rep.affinity_hit_rate, "higher");
  put("cluster.failover_p99", rep.latency.p99);
  put("cluster.completed", static_cast<double>(rep.completed), "higher");
  put("cluster.failovers", static_cast<double>(rep.failovers));
}

/// The survival layer's pinned cells. Three scenarios, all deterministic
/// from kSeed:
///  - rolling drain of every machine (the zero-loss restart contract is
///    asserted right here, not just in tests) -- pins the restart's tail
///    cost;
///  - hedged failover against a NIC-degraded shard -- pins how often the
///    speculative copy actually wins;
///  - one fixed-seed chaos cell (generated correlated crash + degrade +
///    blackout schedules) with breakers + hedging + paced spooling on --
///    pins the goodput the survival layer must keep delivering.
void suite_cluster_survival() {
  const serve::ClusterConfig c = cluster();
  const double t1 = unit_time(c, serve_mix()[0].shape);

  {
    cl::ClusterOptions opt;
    opt.shard = serve_cfg(c, t1);
    opt.machines = 3;
    opt.placement = cl::Placement::Affinity;
    opt.label = "perf/cluster_drain";
    opt.survival.drains = {{0, 20 * t1, 5 * t1, -1},
                           {1, 40 * t1, 5 * t1, -1},
                           {2, 60 * t1, 5 * t1, -1}};
    cl::Cluster tier(opt);
    serve::OpenLoopWorkload load(serve_mix(), 4.0 / t1, /*requests=*/300,
                                 /*tenants=*/4, kSeed);
    const cl::ClusterReport rep = tier.run(load);
    rep.verify();
    PARFFT_CHECK(rep.drains == 3, "rolling restart skipped a machine");
    PARFFT_CHECK(rep.failed == 0, "rolling restart lost requests");
    put("cluster.drain_p99", rep.latency.p99);
    put("cluster.drain_handovers", static_cast<double>(rep.drain_handovers),
        "higher");
  }

  {
    cl::ClusterOptions opt;
    opt.shard = serve_cfg(c, t1);
    opt.machines = 3;
    opt.placement = cl::Placement::Hash;
    opt.label = "perf/cluster_hedge";
    opt.faults.machine(0).add_degrade(0.0, 1e6 * t1, 0.05);
    opt.survival.hedge.enabled = true;
    opt.survival.hedge.hedge_after = 12 * t1;
    cl::Cluster tier(opt);
    serve::OpenLoopWorkload load(serve_mix(), 6.0 / t1, /*requests=*/300,
                                 /*tenants=*/4, kSeed);
    const cl::ClusterReport rep = tier.run(load);
    rep.verify();
    PARFFT_CHECK(rep.hedges_placed > 0, "hedge cell placed no hedges");
    put("cluster.hedge_win_rate",
        static_cast<double>(rep.hedge_wins) /
            static_cast<double>(rep.hedges_placed),
        "higher");
    put("cluster.hedge_p99", rep.latency.p99);
  }

  {
    cl::ClusterOptions opt;
    opt.shard = serve_cfg(c, t1);
    opt.shard.retry.max_attempts = 3;
    opt.shard.retry.backoff_base = 0.5 * t1;
    opt.shard.retry.jitter_seed = kSeed;
    opt.shard.retry.deadline = 80 * t1;
    opt.machines = 3;
    opt.placement = cl::Placement::Affinity;
    opt.label = "perf/cluster_chaos";
    serve::FaultSpec spec;
    spec.seed = kSeed;
    spec.horizon = 150 * t1;
    spec.crash_mtbf = 40 * t1;
    spec.crash_mttr = 8 * t1;
    spec.degrade_mtbf = 40 * t1;
    spec.degrade_mttr = 10 * t1;
    spec.degrade_scale = 0.1;
    spec.blackout_mtbf = 50 * t1;
    spec.blackout_mttr = 4 * t1;
    opt.faults = serve::ClusterFaultPlan::generate(3, spec);
    opt.admission.frontend_down = cl::AdmissionConfig::FrontendDown::Spool;
    opt.admission.spool_drain_batch = 4;
    opt.admission.spool_drain_interval = 0.5 * t1;
    opt.survival.breaker.enabled = true;
    opt.survival.breaker.failure_threshold = 3;
    opt.survival.breaker.open_duration = 6 * t1;
    opt.survival.breaker.seed = kSeed;
    opt.survival.hedge.enabled = true;
    opt.survival.hedge.hedge_after = 10 * t1;
    cl::Cluster tier(opt);
    serve::OpenLoopWorkload load(serve_mix(), 6.0 / t1, /*requests=*/300,
                                 /*tenants=*/4, kSeed);
    const cl::ClusterReport rep = tier.run(load);
    rep.verify();
    put("cluster.chaos_goodput", rep.goodput, "higher");
    put("cluster.chaos_completed", static_cast<double>(rep.completed),
        "higher");
  }
}

void write_bench_json(std::ostream& os, const serve::ServeReport& serve_rep,
                      const serve::ServeReport* fault_rep) {
  os << "{\n  \"schema\": \"parfft-bench-v1\",\n  \"suite\": "
        "\"perf_baseline\",\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics().size(); ++i) {
    const Metric& m = metrics()[i];
    os << "    \"" << m.name << "\": {\"v\": " << fmt(m.value)
       << ", \"dir\": \"" << m.dir << "\"";
    if (m.tol >= 0) os << ", \"tol\": " << fmt(m.tol);
    os << "}" << (i + 1 < metrics().size() ? ",\n" : "\n");
  }
  os << "  },\n  \"serve_report\": ";
  serve_rep.write_json(os);
  if (fault_rep) {
    os << ",\n  \"fault_report\": ";
    fault_rep->write_json(os);
  }
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_parfft.json";
  std::string snapshot;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0)
      out = argv[i] + 6;
    else if (std::strncmp(argv[i], "--snapshot=", 11) == 0)
      snapshot = argv[i] + 11;
    else if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
  }

  banner("perf_baseline",
         smoke ? "telemetry smoke: serve suite + tracing-overhead ratio"
               : "pinned perf suite: fig06/fig08 breakdowns + serve/fault "
                 "smoke",
         "deterministic virtual-time numbers; diff against "
         "bench/baselines/BENCH_parfft.json with tools/perfdiff");

  if (!smoke) {
    std::string heatmap_out = out;
    if (heatmap_out.size() > 5 &&
        heatmap_out.rfind(".json") == heatmap_out.size() - 5)
      heatmap_out.resize(heatmap_out.size() - 5);
    heatmap_out += "_heatmap.csv";

    std::ofstream heatmap_csv(heatmap_out);
    PARFFT_CHECK(static_cast<bool>(heatmap_csv),
                 "cannot open heatmap output " + heatmap_out);
    suite_fig06(heatmap_csv);
    suite_fig08();
    const serve::ServeReport serve_rep = suite_serve(snapshot);
    suite_overhead();
    const serve::ServeReport fault_rep = suite_fault();
    suite_cluster();
    suite_cluster_survival();

    std::ofstream f(out);
    PARFFT_CHECK(static_cast<bool>(f), "cannot open output " + out);
    write_bench_json(f, serve_rep, &fault_rep);
    std::printf("\nwrote %zu metrics to %s (heatmap: %s)\n", metrics().size(),
                out.c_str(), heatmap_out.c_str());
    return 0;
  }

  // Smoke path: the CI telemetry job. Serve suite (writes the snapshot
  // parfft_top validates) plus the overhead ratio; no fig06/fig08/fault.
  const serve::ServeReport serve_rep = suite_serve(snapshot);
  suite_overhead();
  std::ofstream f(out);
  PARFFT_CHECK(static_cast<bool>(f), "cannot open output " + out);
  write_bench_json(f, serve_rep, nullptr);
  std::printf("\nwrote %zu metrics to %s (smoke)\n", metrics().size(),
              out.c_str());
  return 0;
}
