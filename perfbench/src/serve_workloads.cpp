/// \file serve_workloads.cpp
/// The two serving workloads, which use the serve layer in opposite ways.
///
/// `serve_steady`: one serve::Server on 12 ranks, a 3-shape catalog with an
/// unbounded plan cache warmed during set-up, so every pricing in the
/// timed part is a memo hit and the wall time is the event loop, the
/// batcher and telemetry.
///
/// `serve_churn`: a 4-machine cluster::Cluster with Hash placement, a
/// 12-shape catalog, 4-plan caches and seeded crash and link-degradation
/// windows, so plans are constantly rebuilt and repriced.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "core/simulate.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parfft;

namespace {

constexpr int kMaxBatch = 8;

serve::ClusterConfig machine12() {
  serve::ClusterConfig c;
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

std::vector<serve::ShapeMix> steady_mix(bool tiny) {
  if (tiny) return {{cube(16), 4.0}, {cube(32), 2.0}, {cube(8), 1.0}};
  return {{cube(64), 4.0}, {cube(128), 2.0}, {cube(32), 1.0}};
}

std::vector<serve::ShapeMix> churn_mix(bool tiny) {
  std::vector<serve::ShapeMix> mix;
  const std::vector<int> sizes =
      tiny ? std::vector<int>{8, 12, 16, 20, 24, 32}
           : std::vector<int>{32, 40, 48, 56, 64, 80, 96, 112, 128, 144, 160,
                              192};
  for (int n : sizes) mix.push_back({cube(n), 1.0});
  return mix;
}

std::uint64_t steady_requests(bool tiny) { return tiny ? 400 : 100000; }
std::uint64_t churn_requests(bool tiny) { return tiny ? 200 : 1000; }
constexpr int kTenants = 4;
constexpr int kChurnMachines = 4;

void digest_serve(Digest& d, const serve::ServeReport& r) {
  // Per-run outputs only: the plan-cache totals accumulate across runs of
  // one Server and are left out.
  d.add(r.offered);
  d.add(r.completed);
  d.add(r.failed);
  d.add(r.rejected);
  d.add(r.dropped);
  d.add(r.aborted);
  d.add(r.shed);
  d.add(r.retries);
  d.add(r.crashes);
  d.add(r.batches);
  d.add(r.deadline_met);
  d.add(r.makespan);
  d.add(r.busy_time);
  d.add(r.downtime);
  d.add(r.latencies);
  d.add(r.recovery_times);
}

void digest_cluster(Digest& d, const cluster::ClusterReport& r) {
  d.add(r.offered);
  d.add(r.routed);
  d.add(r.frontend_shed);
  d.add(r.failovers);
  d.add(r.completed);
  d.add(r.failed);
  d.add(r.crashes);
  d.add(r.makespan);
  d.add(r.latencies);
  for (const cluster::MachineSlice& s : r.per_machine) {
    d.add(s.routed);
    d.add(s.warm_routed);
    d.add(s.report.cache_hits);
    d.add(s.report.cache_misses);
    d.add(s.report.cache_evictions);
    d.add(s.report.cache_invalidations);
    d.add(s.report.setup_charged);
    digest_serve(d, s.report);
  }
}

/// Seed-independent pricing the serve layer consumes: every catalog
/// shape's plan setup and batched execution times.
std::string pricing_digest(const std::vector<serve::ShapeMix>& mix,
                           const std::vector<double>& scales) {
  Digest d;
  for (const serve::ShapeMix& m : mix) {
    serve::ServedPlan plan(m.shape, machine12());
    d.add(plan.setup_time());
    for (double s : scales)
      for (int b = 1; b <= kMaxBatch; ++b) d.add(plan.exec_time(b, s));
  }
  return d.hex();
}

// --- serve_steady ------------------------------------------------------------

serve::ServerConfig steady_config(bool tiny, double t1, bool telemetry) {
  serve::ServerConfig cfg;
  cfg.cluster = machine12();
  for (const serve::ShapeMix& m : steady_mix(tiny))
    cfg.shapes.push_back(m.shape);
  cfg.batching.max_batch = kMaxBatch;
  cfg.batching.max_delay = 2 * t1;
  cfg.cache_capacity = 0;  // unbounded
  cfg.telemetry.enabled = telemetry;
  cfg.label = "perfbench/serve_steady";
  return cfg;
}

/// Builds a server and prices every shape at every batch size, so the
/// timed runs only ever hit the plan cache and the pricing memos.
std::unique_ptr<serve::Server> warmed_server(bool tiny, double t1,
                                             bool telemetry) {
  auto srv = std::make_unique<serve::Server>(steady_config(tiny, t1, telemetry));
  for (const serve::ShapeMix& m : steady_mix(tiny)) {
    serve::PlanCache::Lookup lk = srv->plan_cache_mut().acquire(m.shape);
    lk.plan->setup_time();
    for (int b = 1; b <= kMaxBatch; ++b) {
      lk.plan->exec_time(b);
      lk.plan->profile(b);
    }
  }
  return srv;
}

double steady_rate(double t1) { return 4.0 / t1; }

serve::OpenLoopWorkload steady_load(const Options& o, double t1,
                                    std::uint64_t n) {
  return serve::OpenLoopWorkload(steady_mix(o.tiny), steady_rate(t1), n,
                                 kTenants, o.seed);
}

/// One step-driven serve round (exactly Server::run). Fills per-step wall
/// times when `steps` is non-null.
serve::ServeReport drive(serve::Server& srv, serve::Workload& load,
                         std::vector<double>* steps) {
  srv.begin(load);
  while (true) {
    const double next = srv.next_event_time();
    if (std::isinf(next)) break;
    if (steps == nullptr) {
      srv.advance_to(next);
    } else {
      const double t0 = now_s();
      srv.advance_to(next);
      steps->push_back(now_s() - t0);
    }
  }
  return srv.finish();
}

// --- serve_churn -------------------------------------------------------------

struct ChurnSetup {
  cluster::ClusterOptions opt;
  double rate = 0;
};

ChurnSetup churn_setup(const Options& o) {
  const serve::ClusterConfig c = machine12();
  // Time unit: the catalog's mean unbatched transform time.
  double t1 = 0;
  for (const serve::ShapeMix& m : churn_mix(o.tiny)) t1 += unit_time(c, m.shape);
  t1 /= static_cast<double>(churn_mix(o.tiny).size());
  ChurnSetup s;
  s.rate = 0.7 * kChurnMachines / t1;
  serve::ServerConfig& shard = s.opt.shard;
  shard.cluster = c;
  for (const serve::ShapeMix& m : churn_mix(o.tiny))
    shard.shapes.push_back(m.shape);
  shard.batching.max_batch = kMaxBatch;
  shard.batching.max_delay = 0.5 * t1;
  shard.cache_capacity = 4;
  shard.retry.max_attempts = 3;
  shard.retry.backoff_base = 0.5 * t1;
  shard.retry.backoff_cap = 8 * t1;
  shard.retry.jitter_seed = o.seed;
  shard.retry.deadline = 40 * t1;
  shard.shed_expired = true;
  s.opt.machines = kChurnMachines;
  s.opt.placement = cluster::Placement::Hash;
  serve::FaultSpec spec;
  spec.seed = Rng(o.seed).split(1).seed();
  spec.horizon = 2.0 * static_cast<double>(churn_requests(o.tiny)) / s.rate;
  spec.crash_mtbf = 150 * t1;
  spec.crash_mttr = 5 * t1;
  spec.degrade_mtbf = 60 * t1;
  spec.degrade_mttr = 20 * t1;
  spec.degrade_scale = 0.5;
  s.opt.faults = serve::ClusterFaultPlan::generate(kChurnMachines, spec);
  s.opt.label = "perfbench/serve_churn";
  return s;
}

serve::OpenLoopWorkload churn_load(const Options& o, double rate,
                                   std::uint64_t n) {
  return serve::OpenLoopWorkload(churn_mix(o.tiny), rate, n, kTenants,
                                 Rng(o.seed).split(2).seed());
}

template <typename Report>
bool verified(const Report& r, Outcome& out, const std::string& what) {
  try {
    r.verify();
    return true;
  } catch (const std::exception& e) {
    out.fail(what + " verify(): " + e.what());
    return false;
  }
}

std::uint64_t total_misses(const cluster::ClusterReport& r) {
  std::uint64_t m = 0;
  for (const cluster::MachineSlice& s : r.per_machine) m += s.report.cache_misses;
  return m;
}

/// Throughput and quantiles of the per-request wall time over the fastest
/// eighth of the rounds (requests are not separate calls, so a round's
/// time divided by its requests is the sample); returns the number of
/// samples. `round_seconds` is the wall time of each round's run alone,
/// without the benchmark's checks.
std::size_t report_rounds(Outcome& out, const std::vector<double>& round_seconds,
                          double requests_per_round) {
  const std::vector<std::size_t> fast = fastest_eighth(round_seconds);
  std::vector<double> kept;
  double kept_seconds = 0;
  for (std::size_t r : fast) {
    kept.push_back(round_seconds[r] / requests_per_round);
    kept_seconds += kept.back();
  }
  out.end_to_end.set("ops_per_s", static_cast<double>(kept.size()) / kept_seconds,
                     "1/s");
  out.end_to_end.set("op_p50_ms", 1e3 * median(kept), "ms");
  out.end_to_end.set("op_p90_ms", 1e3 * quantile(kept, 0.9), "ms");
  return kept.size();
}

double mean_batch(const cluster::ClusterReport& r) {
  std::uint64_t batches = 0, completed = 0;
  for (const cluster::MachineSlice& s : r.per_machine) {
    batches += s.report.batches;
    completed += s.report.completed;
  }
  return batches > 0 ? static_cast<double>(completed) /
                           static_cast<double>(batches)
                     : 1.0;
}

/// Share of machine time inside degradation windows, up to the makespan.
double degraded_share(const serve::ClusterFaultPlan& faults,
                      const cluster::ClusterReport& r) {
  if (!(r.makespan > 0)) return 0;
  double degraded = 0;
  for (int m = 0; m < kChurnMachines; ++m)
    for (const serve::DegradeWindow& w : faults.machine(m).degrades())
      degraded += std::max(0.0, std::min(w.end, r.makespan) - w.begin);
  return std::min(1.0, degraded / (kChurnMachines * r.makespan));
}

/// Replayed cost of one plan-cache miss, mean over the churn catalog: the
/// plan handle and its setup spike, plus the execution the missed batch is
/// dispatched with. That execution is priced at the round's mean batch
/// (weighted between the two neighbouring sizes), healthy or at nic_scale
/// 0.5 in proportion to the degraded share of machine time. Each pricing
/// runs on a fresh plan, as a miss does. Batch sizes priced later while
/// the plan stays resident, and repricing when a window opens mid-flight,
/// are not replayed.
double mean_miss_seconds(bool tiny, double batch, double degraded) {
  const int lo = std::clamp(static_cast<int>(std::floor(batch)), 1, kMaxBatch);
  const int hi = std::min(lo + 1, kMaxBatch);
  const double up = std::clamp(batch - lo, 0.0, 1.0);
  double sum = 0;
  for (const serve::ShapeMix& m : churn_mix(tiny))
    for (const auto& [b, wb] : {std::pair{lo, 1 - up}, std::pair{hi, up}})
      for (const auto& [scale, ws] :
           {std::pair{1.0, 1 - degraded}, std::pair{0.5, degraded}}) {
        if (wb * ws == 0) continue;
        const double t0 = now_s();
        serve::ServedPlan plan(m.shape, machine12());
        plan.setup_time();
        plan.exec_time(b, scale);
        sum += wb * ws * (now_s() - t0);
      }
  return sum / static_cast<double>(churn_mix(tiny).size());
}

}  // namespace

PassStats run_serve_steady(const Options& o, double seconds, Outcome& out,
                           Tracer* tracer) {
  // Set-up: unit time, server construction and the warm-up plan misses.
  std::vector<double> setups;
  std::unique_ptr<serve::Server> srv;
  double t1 = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    t1 = unit_time(machine12(), steady_mix(o.tiny)[0].shape);
    srv = warmed_server(o.tiny, t1, /*telemetry=*/true);
    setups.push_back(now_s() - t0);
  }

  const std::uint64_t n = steady_requests(o.tiny);
  Budget budget(seconds);
  std::vector<double> round_seconds, steps;
  std::string first_digest;
  PassStats st;
  while (budget.another()) {
    const double r0 = now_s();
    serve::OpenLoopWorkload load = steady_load(o, t1, n);
    serve::ServeReport rep;
    if (tracer != nullptr) {
      const int id = tracer->begin("serve.run", "serve");
      rep = drive(*srv, load, &steps);
      round_seconds.push_back(tracer->end(id));
    } else {
      const double t0 = now_s();
      rep = drive(*srv, load, nullptr);
      round_seconds.push_back(now_s() - t0);
    }
    st.op_seconds += round_seconds.back();
    st.ops += n;
    out.attempted += n;
    verified(rep, out, "serve_steady ServeReport");
    if (rep.completed + rep.failed != n)
      out.fail("serve_steady: not every request ended");
    if (rep.cache_misses != steady_mix(o.tiny).size())
      out.fail("serve_steady: a timed run missed the plan cache");
    Digest d;
    digest_serve(d, rep);
    if (first_digest.empty()) {
      first_digest = d.hex();
    } else if (d.hex() != first_digest) {
      ++out.mismatches;
      out.fail("serve_steady: a repeated round served different results");
    }
    budget.round_done(now_s() - r0);
  }
  out.pass_digests.push_back(first_digest);
  out.digests.push_back({"pricing", pricing_digest(steady_mix(o.tiny), {1.0})});

  if (tracer == nullptr) {
    const std::size_t samples =
        report_rounds(out, round_seconds, static_cast<double>(n));
    out.end_to_end.set("setup_s", median(setups), "s");
    out.note("serve_steady: " + budget.summary() + ", " + std::to_string(n) +
             " requests per round, " + std::to_string(samples) +
             " rounds in the fastest eighth");
  } else {
    out.note("serve_steady traced: " + std::to_string(steps.size()) +
             " advance_to steps timed");
  }
  return st;
}

PassStats run_serve_churn(const Options& o, double seconds, Outcome& out,
                          Tracer* tracer) {
  const std::uint64_t n = churn_requests(o.tiny);
  // Set-up: pricing the catalog's unit times, the seeded fault plan and
  // the cluster's construction. Repeated; the median is reported.
  std::vector<double> setups;
  ChurnSetup setup;
  for (int rep = 0; rep < 45; ++rep) {
    const double t0 = now_s();
    setup = churn_setup(o);
    cluster::Cluster tier(setup.opt);
    setups.push_back(now_s() - t0);
  }

  Budget budget(seconds);
  std::vector<double> round_seconds;
  std::string first_digest;
  double miss_s = -1;  // replayed once per traced pass: rounds repeat
  PassStats st;
  while (budget.another()) {
    // A fresh cluster per round, so every round does the same work (the
    // shards' caches persist across runs of one Cluster).
    cluster::Cluster tier(setup.opt);

    const double r0 = now_s();
    serve::OpenLoopWorkload load = churn_load(o, setup.rate, n);
    cluster::ClusterReport rep;
    if (tracer != nullptr) {
      const int id = tracer->begin("cluster.run", "cluster");
      rep = tier.run(load);
      round_seconds.push_back(tracer->end(id));
      if (miss_s < 0)
        miss_s = mean_miss_seconds(o.tiny, mean_batch(rep),
                                   degraded_share(setup.opt.faults, rep));
      tracer->add("serve.miss(replayed)", "core+netsim", now_s(),
                  static_cast<double>(total_misses(rep)) * miss_s, id);
    } else {
      const double t0 = now_s();
      rep = tier.run(load);
      round_seconds.push_back(now_s() - t0);
    }
    st.op_seconds += round_seconds.back();
    st.ops += n;
    out.attempted += n;
    verified(rep, out, "serve_churn ClusterReport");
    if (rep.completed + rep.failed != n)
      out.fail("serve_churn: not every request ended");
    Digest d;
    digest_cluster(d, rep);
    if (first_digest.empty()) {
      first_digest = d.hex();
      out.note("serve_churn round: " + std::to_string(rep.completed) +
               " completed, " + std::to_string(rep.failed) + " failed, " +
               std::to_string(rep.crashes) + " crashes, " +
               std::to_string(total_misses(rep)) + " plan misses");
    } else if (d.hex() != first_digest) {
      ++out.mismatches;
      out.fail("serve_churn: a repeated round served different results");
    }
    budget.round_done(now_s() - r0);
  }
  out.pass_digests.push_back(first_digest);
  out.digests.push_back(
      {"pricing", pricing_digest(churn_mix(o.tiny), {1.0, 0.5})});

  if (tracer == nullptr) {
    const std::size_t samples =
        report_rounds(out, round_seconds, static_cast<double>(n));
    out.end_to_end.set("setup_s", median(setups), "s");
    out.note("serve_churn: " + budget.summary() + ", " + std::to_string(n) +
             " requests per round, " + std::to_string(samples) +
             " rounds in the fastest eighth");
  }
  return st;
}

void reference_serve_steady(const Options& o, Outcome& out) {
  Options ro = o;
  ro.seed = kReferenceSeed;
  const double t1 = unit_time(machine12(), steady_mix(o.tiny)[0].shape);
  auto srv = warmed_server(o.tiny, t1, /*telemetry=*/true);
  serve::OpenLoopWorkload load = steady_load(ro, t1, steady_requests(o.tiny));
  const serve::ServeReport rep = drive(*srv, load, nullptr);
  verified(rep, out, "serve_steady reference ServeReport");
  Digest d;
  digest_serve(d, rep);
  out.digests.push_back({"report", d.hex()});
}

void reference_serve_churn(const Options& o, Outcome& out) {
  Options ro = o;
  ro.seed = kReferenceSeed;
  const ChurnSetup setup = churn_setup(ro);
  cluster::Cluster tier(setup.opt);
  serve::OpenLoopWorkload load =
      churn_load(ro, setup.rate, churn_requests(o.tiny));
  const cluster::ClusterReport rep = tier.run(load);
  verified(rep, out, "serve_churn reference ClusterReport");
  Digest d;
  digest_cluster(d, rep);
  out.digests.push_back({"report", d.hex()});
}

void serve_layer_suite(const Options& o, Outcome& out) {
  const serve::ClusterConfig c = machine12();

  // Pricing: the first transform_time(b) of fresh simulators, healthy and
  // at half NIC bandwidth, over the churn catalog.
  std::vector<double> price;
  for (const serve::ShapeMix& m : churn_mix(o.tiny)) {
    core::Simulator sim(serve::to_sim_config(c, m.shape));
    for (double scale : {1.0, 0.5}) {
      sim.set_nic_scale(scale);
      for (int b = 1; b <= kMaxBatch; ++b) {
        const double t0 = now_s();
        sim.transform_time(b);
        price.push_back(now_s() - t0);
      }
    }
  }
  double sum = 0;
  for (double v : price) sum += v;
  out.per_layer.set("core.price_batch_ms",
                    1e3 * sum / static_cast<double>(price.size()), "ms");

  // Exchange solves of a 12-rank serving plan.
  {
    core::Simulator sim(serve::to_sim_config(c, cube(o.tiny ? 16 : 64)));
    const net::RankMap map{c.machine.gpus_per_node};
    const net::CommCost cost(c.machine, map, c.nranks);
    std::vector<int> group(static_cast<std::size_t>(c.nranks));
    for (int i = 0; i < c.nranks; ++i) group[static_cast<std::size_t>(i)] = i;
    std::vector<double> calls;
    const double t_start = now_s();
    while (now_s() - t_start < 0.2 || calls.size() < 10)
      for (const core::Stage& s : sim.plan().stages) {
        if (s.kind != core::Stage::Kind::Reshape) continue;
        const net::SendMatrix m = s.reshape.send_matrix(1);
        const double t0 = now_s();
        cost.exchange(group, m, net::CollectiveAlg::Alltoallv,
                      net::TransferMode::GpuAware, c.flavor);
        calls.push_back(now_s() - t0);
      }
    out.per_layer.set("netsim.exchange_us.pairwise.r12", 1e6 * median(calls),
                      "us");
  }

  // Event loop: one step-driven steady round, then telemetry on vs off.
  const serve::JobShape head = steady_mix(o.tiny)[0].shape;
  const double t1 = unit_time(c, head);
  const std::uint64_t n = steady_requests(o.tiny);
  {
    auto srv = warmed_server(o.tiny, t1, true);
    serve::OpenLoopWorkload load = steady_load(o, t1, n);
    std::vector<double> steps;
    const serve::ServeReport rep = drive(*srv, load, &steps);
    verified(rep, out, "suite ServeReport");
    out.per_layer.set("serve.step_us.p50", 1e6 * median(steps), "us");
    out.per_layer.set("serve.step_us.p90", 1e6 * quantile(steps, 0.9), "us");
    out.per_layer.set("serve.events_per_request",
                      static_cast<double>(steps.size()) / static_cast<double>(n),
                      "count");
  }
  {
    // Alternating rounds on two warmed servers; the first pair warms the
    // allocator and is dropped.
    std::vector<double> on, off;
    auto srv_on = warmed_server(o.tiny, t1, true);
    auto srv_off = warmed_server(o.tiny, t1, false);
    for (int rep = 0; rep < 6; ++rep) {
      for (bool tel : {rep % 2 == 0, rep % 2 != 0}) {
        serve::OpenLoopWorkload load = steady_load(o, t1, n);
        const double t0 = now_s();
        drive(tel ? *srv_on : *srv_off, load, nullptr);
        if (rep > 0) (tel ? on : off).push_back(now_s() - t0);
      }
    }
    out.per_layer.set("obs.telemetry_overhead_ratio", median(on) / median(off),
                      "ratio");
  }

  // One churn round for the cache and router counts.
  {
    const ChurnSetup setup = churn_setup(o);
    cluster::Cluster tier(setup.opt);
    serve::OpenLoopWorkload load = churn_load(o, setup.rate, churn_requests(o.tiny));
    const double t0 = now_s();
    const cluster::ClusterReport rep = tier.run(load);
    const double wall = now_s() - t0;
    verified(rep, out, "suite ClusterReport");
    const double miss_s = mean_miss_seconds(
        o.tiny, mean_batch(rep), degraded_share(setup.opt.faults, rep));
    out.per_layer.set("serve.miss_ms", 1e3 * miss_s, "ms");
    std::uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0;
    for (const cluster::MachineSlice& s : rep.per_machine) {
      hits += s.report.cache_hits;
      misses += s.report.cache_misses;
      evictions += s.report.cache_evictions;
      invalidations += s.report.cache_invalidations;
    }
    const double lookups = static_cast<double>(hits + misses);
    out.per_layer.set("serve.cache_hit_ratio",
                      lookups > 0 ? static_cast<double>(hits) / lookups : 0,
                      "ratio");
    out.per_layer.set("serve.cache_misses", static_cast<double>(misses), "count");
    out.per_layer.set("serve.cache_evictions", static_cast<double>(evictions),
                      "count");
    out.per_layer.set("serve.cache_invalidations",
                      static_cast<double>(invalidations), "count");
    out.per_layer.set("serve.mean_batch", mean_batch(rep), "count");
    out.per_layer.set("serve.miss_share",
                      static_cast<double>(misses) * miss_s / wall, "ratio");
    out.per_layer.set("cluster.failovers", static_cast<double>(rep.failovers),
                      "count");
    out.per_layer.set("cluster.affinity_hit_rate", rep.affinity_hit_rate,
                      "ratio");
  }
}

}  // namespace perfbench
