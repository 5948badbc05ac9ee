/// \file fault_sweep.cpp
/// Fault-injection sweep over the serving stack: crash MTBF x retry
/// policy, link degradation depth, and deadline-aware shedding under
/// overload. Not a paper figure -- this bench exercises src/serve/fault
/// on top of the paper's cost models (crash recovery re-pays Fig. 10's
/// plan-setup spikes; degradation reprices Fig. 13's overlapped
/// exchanges through FlowSim).
///
/// All virtual time, fully deterministic from the workload + fault
/// seeds. Set PARFFT_TRACE=<path> to export the runs -- including fault,
/// retry and recovery spans -- as a Perfetto/Chrome timeline.
///
/// `--smoke` runs a reduced request count (CI).

#include <cstring>

#include "bench_common.hpp"
#include "serve/server.hpp"

using namespace parfft;
using namespace parfft::bench;

namespace {

constexpr std::uint64_t kSeed = 20260807;

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

serve::ServerConfig base_config(const serve::ClusterConfig& c,
                                const std::vector<serve::ShapeMix>& mix,
                                double t1) {
  serve::ServerConfig cfg;
  cfg.cluster = c;
  for (const auto& m : mix) cfg.shapes.push_back(m.shape);
  cfg.batching.max_batch = 8;
  cfg.batching.max_delay = 2 * t1;
  return cfg;
}

/// Crash MTBF x retry policy grid. Each cell reports goodput, retry
/// amplification, tail inflation vs the no-fault baseline of the same
/// policy, and mean time-to-recover.
void sweep_crash_mtbf(std::uint64_t requests) {
  const serve::ClusterConfig c = cluster();
  const std::vector<serve::ShapeMix> mix = {{cube(64), 3.0}, {cube(32), 1.0}};
  const double t1 = unit_time(c, mix[0].shape);
  const double rate = 1.5 / t1;
  const double horizon =
      2.5 * static_cast<double>(requests) / rate;  // covers the stretched run

  struct Policy {
    const char* name;
    int attempts;
  };
  const Policy policies[] = {{"fail-fast", 1}, {"retry x4", 4}};

  std::printf("crash sweep: %llu requests at %.0f/s, crash MTTR 5x t1, "
              "deadline 60x t1\n",
              static_cast<unsigned long long>(requests), rate);
  Table t({"mtbf", "policy", "done", "failed", "crashes", "retries", "amp",
           "goodput/s", "p99", "p99 infl", "recover", "downtime"});
  for (const Policy& pol : policies) {
    double base_p99 = 0;
    for (double mtbf_units : {0.0, 100.0, 50.0, 25.0}) {
      serve::ServerConfig cfg = base_config(c, mix, t1);
      if (mtbf_units > 0) {
        serve::FaultSpec spec;
        spec.seed = kSeed;
        spec.horizon = horizon;
        spec.crash_mtbf = mtbf_units * t1;
        spec.crash_mttr = 5 * t1;
        cfg.faults = serve::FaultPlan::generate(spec);
      }
      cfg.retry.max_attempts = pol.attempts;
      cfg.retry.backoff_base = 0.5 * t1;
      cfg.retry.backoff_cap = 8 * t1;
      cfg.retry.jitter_seed = kSeed;
      cfg.retry.deadline = 60 * t1;
      cfg.shed_expired = true;
      cfg.label = std::string("fault/crash_mtbf") +
                  (mtbf_units > 0 ? std::to_string(static_cast<int>(mtbf_units))
                                  : "inf") +
                  "_" + pol.name;
      serve::Server server(cfg);
      serve::OpenLoopWorkload load(mix, rate, requests, /*tenants=*/4, kSeed);
      const serve::ServeReport rep = server.run(load);
      if (mtbf_units == 0.0) base_p99 = rep.latency.p99;
      t.add_row(
          {mtbf_units > 0 ? format_fixed(mtbf_units, 0) + "xt1" : "none",
           pol.name, std::to_string(rep.completed),
           std::to_string(rep.failed), std::to_string(rep.crashes),
           std::to_string(rep.retries), format_fixed(rep.retry_amplification, 2),
           format_fixed(rep.goodput, 1), format_time(rep.latency.p99),
           base_p99 > 0 ? format_fixed(rep.latency.p99 / base_p99, 2) + "x"
                        : "1.00x",
           rep.recovery_times.empty() ? "-" : format_time(rep.mean_recovery),
           format_time(rep.downtime)});
    }
  }
  t.print(std::cout);
  std::printf("\n");
}

/// Link-degradation depth: the whole run at nic_scale in {1, .75, .5, .25}.
void sweep_degradation(std::uint64_t requests) {
  const serve::ClusterConfig c = cluster();
  const std::vector<serve::ShapeMix> mix = {{cube(64), 1.0}};
  const double t1 = unit_time(c, mix[0].shape);
  const double rate = 1.0 / t1;

  std::printf("degradation sweep: %llu requests at %.0f/s, whole-run window\n",
              static_cast<unsigned long long>(requests), rate);
  Table t({"nic scale", "throughput/s", "p50", "p99", "util"});
  for (double scale : {1.0, 0.75, 0.5, 0.25}) {
    serve::ServerConfig cfg = base_config(c, mix, t1);
    if (scale < 1.0)
      cfg.faults.add_degrade(0.0, 1e9, scale);
    cfg.label = "fault/nic" + format_fixed(scale, 2);
    serve::Server server(cfg);
    serve::OpenLoopWorkload load(mix, rate, requests, /*tenants=*/2, kSeed);
    const serve::ServeReport rep = server.run(load);
    t.add_row({format_fixed(scale, 2), format_fixed(rep.throughput, 1),
               format_time(rep.latency.p50), format_time(rep.latency.p99),
               format_fixed(100 * rep.utilization, 1) + "%"});
  }
  t.print(std::cout);
  std::printf("\n");
}

/// Deadline-aware shedding at rising overload: goodput with shedding must
/// dominate goodput without once the queue cannot keep up.
void sweep_shedding(std::uint64_t requests) {
  const serve::ClusterConfig c = cluster();
  const std::vector<serve::ShapeMix> mix = {{cube(64), 1.0}};
  const double t1 = unit_time(c, mix[0].shape);

  std::printf("shedding sweep: %llu requests, deadline 8x t1\n",
              static_cast<unsigned long long>(requests));
  Table t({"offered", "shed?", "done", "in-deadline", "shed", "goodput/s",
           "makespan"});
  for (double over : {1.0, 2.0, 4.0}) {
    for (bool shed : {false, true}) {
      serve::ServerConfig cfg = base_config(c, mix, t1);
      cfg.batching.enabled = false;
      cfg.retry.deadline = 8 * t1;
      cfg.shed_expired = shed;
      cfg.label = "fault/shed_x" + format_fixed(over, 0) +
                  (shed ? "_on" : "_off");
      serve::Server server(cfg);
      serve::OpenLoopWorkload load(mix, over / t1, requests, /*tenants=*/2,
                                   kSeed);
      const serve::ServeReport rep = server.run(load);
      t.add_row({format_fixed(over, 1) + "x", shed ? "yes" : "no",
                 std::to_string(rep.completed),
                 std::to_string(rep.deadline_met), std::to_string(rep.shed),
                 format_fixed(rep.goodput, 1), format_time(rep.makespan)});
    }
  }
  t.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  banner("fault_sweep",
         "fault injection and recovery on the 2-node Summit service",
         "crashes re-pay the cuFFT plan-setup spike (Fig. 10) and inflate "
         "the tail; rail-down degradation reprices the Fig. 13 overlap "
         "pipeline; deadline-aware shedding preserves goodput at overload");

  sweep_crash_mtbf(smoke ? 300 : 3000);
  sweep_degradation(smoke ? 200 : 2000);
  sweep_shedding(smoke ? 150 : 1500);
  return 0;
}
