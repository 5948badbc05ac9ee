#include "core/simulate.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/paranoid.hpp"
#include "core/pack.hpp"
#include "obs/session.hpp"

namespace parfft::core {

std::vector<Box3> grid_boxes(const std::array<int, 3>& n,
                             const ProcGrid& grid, int nranks) {
  return pad_boxes(split_world(world_box(n), grid), nranks);
}

std::vector<Box3> brick_layout(const std::array<int, 3>& n, int nranks) {
  return grid_boxes(n, min_surface_grid(nranks, n), nranks);
}

namespace {

net::TransferMode transfer_mode(const SimConfig& cfg) {
  return cfg.gpu_aware ? net::TransferMode::GpuAware
                       : net::TransferMode::Staged;
}

std::vector<int> identity_group(int nranks) {
  std::vector<int> group(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) group[static_cast<std::size_t>(r)] = r;
  return group;
}

/// Prices stage `stage` for chunk batch `b` on every rank: the one
/// record the memo keeps and the traced sequential pass builds. `stats`,
/// when non-null, receives the exchange's per-link utilization.
StageCost price_stage(const StagePlan& plan, std::size_t stage, int b,
                      const gpu::DeviceSpec& device, const net::CommCost& cost,
                      net::TransferMode mode, net::MpiFlavor flavor,
                      const std::vector<int>& group, net::LinkStats* stats) {
  StageCost sc;
  for (int r = 0; r < plan.nranks; ++r) {
    const StageKernels ks = stage_kernels(plan, stage, r, b, device);
    if (ks.size == 0) continue;  // an empty FFT box: its kernels stay 0
    if (sc.slots.empty()) {
      sc.slots.assign(ks.begin(), ks.end());
      for (Kernel& slot : sc.slots) slot.seconds = 0;
      sc.kernels.resize(sc.slots.size() *
                        static_cast<std::size_t>(plan.nranks));
    }
    PARFFT_ASSERT(static_cast<std::size_t>(ks.size) == sc.slots.size());
    for (std::size_t k = 0; k < sc.slots.size(); ++k) {
      sc.kernels[static_cast<std::size_t>(r) * sc.slots.size() + k] =
          ks.list[k];
      sc.slots[k].seconds = std::max(sc.slots[k].seconds, ks.list[k].seconds);
    }
  }
  for (std::size_t k = 0; k < sc.slots.size(); ++k) {
    Kernel& slot = sc.slots[k];
    if (slot.kind != KernelKind::Exchange) continue;
    sc.phase = cost.exchange(
        group, plan.stages[stage].reshape.send_matrix(b / slot.calls),
        to_alg(plan.options.backend), mode, flavor, stats);
    slot.seconds = sc.phase.total;
  }
  return sc;
}

/// Sequential execution passes over the stages of `plan` for chunks of
/// `batch` elements, advancing one clock per rank from zero by each
/// rank's kernels of the stage's record. Untraced passes read records
/// from `memo`; a traced pass prices each stage once itself, because it
/// also needs the exchange's link statistics and calibration. Without
/// `warmed`, each rank's first transform pays the FFT plan-setup spikes
/// of its own plan cache.
class StageRunner {
 public:
  StageRunner(const SimConfig& cfg, const StagePlan& plan,
              const net::CommCost& cost, StageCostMemo& memo,
              SimReport& report, int batch, bool warmed, obs::RunTrace* run)
      : cfg_(cfg), plan_(plan), cost_(cost), memo_(memo), report_(report),
        batch_(batch), warmed_(warmed), run_(run),
        caches_(warmed ? 0 : static_cast<std::size_t>(plan.nranks)),
        clocks_(static_cast<std::size_t>(plan.nranks), 0.0) {}

  const std::vector<double>& clocks() const { return clocks_; }

  void run_transform() {
    if (run_ != nullptr)
      for (int r = 0; r < plan_.nranks; ++r)
        run_->tracer.begin(r, obs::Category::Transform, "fft3d",
                           clocks_[static_cast<std::size_t>(r)]);
    for (std::size_t i = 0; i < plan_.stages.size(); ++i) run_stage(i);
    if (run_ != nullptr)
      for (int r = 0; r < plan_.nranks; ++r)
        run_->tracer.end(r, clocks_[static_cast<std::size_t>(r)]);
    first_transform_ = false;
  }

 private:
  net::TransferMode mode() const { return transfer_mode(cfg_); }

  /// A traced stage's record plus what obs needs about its exchange.
  /// Identical across repeats; computed once per stage.
  struct TracedStage {
    StageCost cost;
    net::LinkStats stats;
    int elems = 0;  // batch elements one exchange call moves
    obs::ExchangeRecord exchange;  // all but `begin`, set per call
  };

  const TracedStage& traced_stage(std::size_t stage) {
    auto [it, fresh] = traced_.try_emplace(stage);
    TracedStage& tr = it->second;
    if (!fresh) return tr;
    tr.cost = price_stage(plan_, stage, batch_, cfg_.device, cost_, mode(),
                          cfg_.flavor, identity_group(plan_.nranks),
                          &tr.stats);
    for (const Kernel& k : tr.cost.slots)
      if (k.kind == KernelKind::Exchange) {
        tr.elems = batch_ / k.calls;
        calibrate_exchange(plan_.stages[stage].reshape, tr);
      }
    return tr;
  }

  /// Fills the exchange-phase record for obs/analysis.hpp (residuals +
  /// heatmaps): the busiest sender's remote traffic, the uncontended
  /// bandwidth / fixed per-message cost a representative message of this
  /// exchange measures against the idle fabric (the B and L of model
  /// eqs. (2)-(5)), and netsim's LinkStats, converted here so obs stays
  /// netsim-free. Read-only over the fabric: single_flow_time and
  /// point_to_point are const, so tracing never perturbs the run.
  void calibrate_exchange(const ReshapePlan& rp, TracedStage& tr) {
    obs::ExchangeRecord& rec = tr.exchange;
    rec.name = backend_name(plan_.options.backend);
    rec.duration = tr.cost.phase.total;
    rec.nranks = plan_.nranks;
    for (const net::LinkStats::Link& l : tr.stats.links) {
      if (l.capacity <= 0 || l.bytes <= 0) continue;
      rec.links.push_back({l.name, net::link_class_name(l.name), l.capacity,
                           l.bytes, l.samples});
    }
    int busiest = -1, busiest_peer = -1;
    for (int r = 0; r < plan_.nranks; ++r) {
      double sent = 0;
      int msgs = 0, peer = -1;
      for (const Transfer& t : rp.sends(r)) {
        if (t.peer == r) continue;  // local copy, not a message
        sent +=
            static_cast<double>(t.region.count() * tr.elems) * sizeof(cplx);
        ++msgs;
        if (peer < 0) peer = t.peer;
      }
      rec.bytes_total += sent;
      if (msgs > 0 && sent > rec.max_rank_bytes) {
        rec.max_rank_bytes = sent;
        rec.max_rank_msgs = msgs;
        busiest = r;
        busiest_peer = peer;
      }
    }
    if (busiest < 0) return;  // nothing leaves any rank
    const double rep_bytes = rec.max_rank_bytes / rec.max_rank_msgs;
    const double transport = cost_.flowsim().single_flow_time(
        busiest, busiest_peer, rep_bytes, mode());
    if (transport > 0) rec.model_bandwidth = rep_bytes / transport;
    rec.per_message_cost = std::max(
        cost_.point_to_point(busiest, busiest_peer, rep_bytes, mode()) -
            transport,
        0.0);
  }

  void run_stage(std::size_t stage) {
    const int R = plan_.nranks;
    const TracedStage* traced =
        run_ != nullptr ? &traced_stage(stage) : nullptr;
    const StageCost& sc =
        traced != nullptr
            ? traced->cost
            : memo_.stage(plan_, stage, batch_, cfg_.device, cost_, mode(),
                          cfg_.flavor);
    const bool reshape = plan_.stages[stage].kind == Stage::Kind::Reshape;
    if (run_ != nullptr && reshape)
      for (int r = 0; r < R; ++r)
        run_->tracer.begin(r, obs::Category::Reshape, "reshape",
                           clocks_[static_cast<std::size_t>(r)]);
    // Each rank owns its FFT plans (as each GPU owns cuFFT handles); the
    // first call with a new layout pays the plan-setup spike unless the
    // config declares the plans pre-warmed.
    const bool cold = !warmed_ && first_transform_;
    for (std::size_t k = 0; k < sc.slots.size(); ++k) {
      const Kernel& slot = sc.slots[k];
      if (slot.kind == KernelKind::Exchange) {
        run_exchange(stage, sc, k, traced);
        continue;
      }
      double mx = 0;
      for (int r = 0; r < R; ++r) {
        const Kernel& kr = sc.at(k, r);
        double& clock = clocks_[static_cast<std::size_t>(r)];
        const double t =
            cold && slot.kind == KernelKind::Fft && kr.lines > 0
                ? caches_[static_cast<std::size_t>(r)].fft_call(
                      cfg_.device, kr.len, kr.lines, kr.strided)
                : kr.seconds;
        if (run_ != nullptr && t > 0) {
          std::vector<obs::SpanArg> args;
          if (run_->with_args() && slot.kind == KernelKind::Fft)
            args = {{"axis", static_cast<double>(kr.axis)},
                    {"len", static_cast<double>(kr.len)}};
          run_->tracer.complete(r, kernel_category(slot.kind),
                                kernel_name(slot), clock, t, std::move(args));
        }
        clock += t;
        mx = std::max(mx, t);
      }
      report_.kernels.add(kernel_category(slot.kind), mx);
      if (slot.kind == KernelKind::Fft)
        report_.fft_calls.push_back({kernel_name(slot), mx});
    }
    if (run_ != nullptr && reshape)
      for (int r = 0; r < R; ++r)
        run_->tracer.end(r, clocks_[static_cast<std::size_t>(r)]);
  }

  /// Each call of the exchange is a globally synchronizing collective,
  /// with per-rank completion from the congestion-aware model (identical
  /// call to threaded mode).
  void run_exchange(std::size_t stage, const StageCost& sc, std::size_t k,
                    const TracedStage* traced) {
    const Kernel& slot = sc.slots[k];
    const std::string name = backend_name(plan_.options.backend);
    double comm = 0;
    for (int call = 0; call < slot.calls; ++call) {
      const double base = *std::max_element(clocks_.begin(), clocks_.end());
      if (traced != nullptr) record_reshape_obs(stage, *traced, base);
      for (int r = 0; r < plan_.nranks; ++r) {
        const double t = sc.phase.per_rank[static_cast<std::size_t>(r)];
        double& clock = clocks_[static_cast<std::size_t>(r)];
        if (run_ != nullptr) {
          if (base > clock)
            run_->tracer.complete(r, obs::Category::Wait, "exchange sync",
                                  clock, base - clock);
          run_->tracer.complete(r, obs::Category::Exchange, name, base, t);
        }
        clock = base + t;
      }
      comm += slot.seconds;
    }
    report_.kernels.comm += comm;
    report_.comm_calls.push_back({name, comm});
  }

  /// Per-call metrics: bytes sent, message sizes, fan-out, and the
  /// link-utilization record of this reshape's exchange (gauges keep the
  /// peak over executions; counter tracks get the time-shifted samples).
  void record_reshape_obs(std::size_t stage, const TracedStage& rc,
                          double base) {
    const ReshapePlan& rp = plan_.stages[stage].reshape;
    for (int r = 0; r < plan_.nranks; ++r) {
      double sent = 0;
      for (const Transfer& tr : rp.sends(r)) {
        const double b =
            static_cast<double>(tr.region.count() * rc.elems) * sizeof(cplx);
        sent += b;
        run_->metrics.observe("reshape/message_bytes", b);
      }
      run_->metrics.counter("rank/" + std::to_string(r) + "/bytes_sent")
          .add(sent);
      run_->metrics.observe("reshape/fanout",
                            static_cast<double>(rp.sends(r).size()));
    }
    for (const net::LinkStats::Link& l : rc.stats.links) {
      if (l.capacity <= 0) continue;
      run_->metrics.gauge("link/" + l.name + "/peak_util")
          .set_max(l.peak_rate / l.capacity);
      run_->metrics.gauge("link/" + l.name + "/mean_util")
          .set_max(l.mean_rate(rc.stats.duration) / l.capacity);
      run_->metrics.gauge("link/" + l.name + "/saturated_frac")
          .set_max(l.saturated_fraction(rc.stats.duration));
      for (const auto& [t, rate] : l.samples)
        run_->counter_sample("link/" + l.name + " GB/s", base + t,
                             rate / 1e9);
    }

    obs::ExchangeRecord rec = rc.exchange;
    rec.begin = base;
    run_->add_exchange(std::move(rec));
  }

  const SimConfig& cfg_;
  const StagePlan& plan_;
  const net::CommCost& cost_;
  StageCostMemo& memo_;
  SimReport& report_;
  int batch_;
  bool warmed_;
  obs::RunTrace* run_;  ///< nullptr when tracing is off
  std::vector<gpu::PlanCache> caches_;  ///< per rank; empty when warmed
  std::vector<double> clocks_;          ///< per rank
  std::map<std::size_t, TracedStage> traced_;  ///< by stage index
  bool first_transform_ = true;
};

}  // namespace

double pack_kernel_time(const gpu::DeviceSpec& device, const Box3& box,
                        const TransferRange& transfers, int b,
                        std::size_t elem_bytes) {
  double t = 0;
  for (const Transfer& tr : transfers)
    t += gpu::pack_region_cost(
        device, static_cast<double>(tr.region.count() * b) * elem_bytes,
        pack_contiguous_run(box, tr.region, elem_bytes));
  if (!transfers.empty()) t += device.kernel_launch;
  return t;
}

obs::Category kernel_category(KernelKind kind) {
  if (kind == KernelKind::Fft) return obs::Category::Fft;
  return kind == KernelKind::Unpack ? obs::Category::Unpack
                                    : obs::Category::Pack;
}

const char* kernel_name(const Kernel& k) {
  static constexpr const char* kNames[] = {"fft(contiguous)", "transpose",
                                           "pack", "exchange", "unpack"};
  return k.kind == KernelKind::Fft && k.strided
             ? "fft(strided)"
             : kNames[static_cast<int>(k.kind)];
}

// The rules of what a stage charges, kept here and nowhere else:
//  * Datatype packing. Alltoallw's sub-array datatypes pack inside the MPI
//    library (Algorithm 2), so its reshapes run no GPU pack or unpack
//    kernel; the exchange's cost model prices the datatype engine. This
//    is the paper's reading, and what the threaded plan executes.
//  * Reorder transposes. A contiguous_fft plan transposes every axis but
//    axis 2 into contiguous lines and back (heFFTe's reorder path). The
//    two transposes are one Reorder kernel of twice a transpose's cost,
//    ahead of the contiguous FFT: the stage lasts the same either way,
//    and the sequential figures that price contiguous_fft (fig06, fig07)
//    keep their published values.
//  * Batched Alltoallw. A sub-array datatype describes one brick, so a
//    chunk of b elements is b MPI_Alltoallw calls of one element each,
//    as the threaded plan issues them, not one call of b elements.
StageKernels stage_kernels(const StagePlan& plan, std::size_t stage, int rank,
                           int b, const gpu::DeviceSpec& device) {
  const Stage& s = plan.stages[stage];
  const auto me = static_cast<std::size_t>(rank);
  StageKernels out;
  const auto add = [&out](const Kernel& k) {
    out.list[static_cast<std::size_t>(out.size++)] = k;
  };
  if (s.kind == Stage::Kind::Reshape) {
    const ReshapePlan& rp = s.reshape;
    if (backend_is_datatype(plan.options.backend)) {
      add({.kind = KernelKind::Exchange, .stream = Stream::Network,
           .calls = b});
      return out;
    }
    add({.kind = KernelKind::Pack,
         .seconds = pack_kernel_time(device, rp.from()[me], rp.sends(rank),
                                     b)});
    add({.kind = KernelKind::Exchange, .stream = Stream::Network});
    add({.kind = KernelKind::Unpack,
         .seconds =
             pack_kernel_time(device, rp.to()[me], rp.recvs(rank), b)});
    return out;
  }
  const Box3& box = s.boxes[me];
  if (box.empty()) return out;
  for (int axis : s.axes) {
    const int len = static_cast<int>(box.size(axis));
    const int lines = static_cast<int>(box.count() / len) * b;
    const bool reorder = axis != 2 && plan.options.contiguous_fft;
    const bool strided = axis != 2 && !plan.options.contiguous_fft;
    if (reorder) {
      const double bytes = static_cast<double>(box.count()) * b * sizeof(cplx);
      add({.kind = KernelKind::Reorder, .axis = axis,
           .seconds = 2.0 * gpu::pack_cost(device, bytes, sizeof(cplx))});
    }
    add({.kind = KernelKind::Fft, .strided = strided, .axis = axis,
         .len = len, .lines = lines,
         .seconds = gpu::fft_cost(device, len, lines, strided)});
  }
  return out;
}

int BatchProfile::delivered(double work) const {
  int done = 0;
  for (std::size_t i = 0; i < frac.size(); ++i) {
    if (frac[i] <= work + 1e-12) done = elems[i];
  }
  return done;
}

const StageCost& StageCostMemo::stage(const StagePlan& plan,
                                      std::size_t stage, int b,
                                      const gpu::DeviceSpec& device,
                                      const net::CommCost& cost,
                                      net::TransferMode mode,
                                      net::MpiFlavor flavor,
                                      const std::vector<int>& group) {
  PARFFT_ASSERT(stage < plan.stages.size());
  const bool reshape = plan.stages[stage].kind == Stage::Kind::Reshape;
  counters_.stage_lookups += reshape ? 1 : 0;
  const std::tuple<double, std::size_t, int> key{cost.flowsim().nic_scale(),
                                                 stage, b};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    counters_.stage_hits += reshape ? 1 : 0;
  } else {
    counters_.stage_misses += reshape ? 1 : 0;
    counters_.exchange_solves += reshape ? 1 : 0;
    it = entries_
             .emplace(key, price_stage(plan, stage, b, device, cost, mode,
                                       flavor,
                                       group.empty()
                                           ? identity_group(plan.nranks)
                                           : group,
                                       nullptr))
             .first;
  }
  PARFFT_IF_PARANOID(check_invariants());
  return it->second;
}

void StageCostMemo::check_invariants() const {
  PARFFT_CHECK(counters_.stage_hits + counters_.stage_misses ==
                   counters_.stage_lookups,
               "stage-cost memo: hits + misses != lookups");
  std::uint64_t reshapes = 0;
  for (const auto& [key, sc] : entries_)
    reshapes += sc.phase.per_rank.empty() ? 0 : 1;
  PARFFT_CHECK(counters_.exchange_solves == counters_.stage_misses &&
                   counters_.stage_misses == reshapes,
               "stage-cost memo: exchange solves, misses and reshape "
               "records differ");
}

double overlapped_batch_time(const StagePlan& plan,
                             const gpu::DeviceSpec& device,
                             const net::CommCost& cost,
                             net::TransferMode mode, net::MpiFlavor flavor,
                             int batch, const std::vector<int>& group_in,
                             BatchProfile* profile, StageCostMemo* memo) {
  PARFFT_CHECK(batch >= 1, "batch must be positive");
  const std::vector<int> group =
      group_in.empty() ? identity_group(plan.nranks) : group_in;
  PARFFT_CHECK(static_cast<int>(group.size()) == plan.nranks,
               "group size must match the plan's rank count");
  StageCostMemo local;
  StageCostMemo& costs = memo != nullptr ? *memo : local;

  // heFFTe tunes the sub-batch granularity: few large chunks amortize
  // per-message latency, many small chunks overlap better. Evaluate the
  // pipeline schedule for each candidate and keep the fastest -- this is
  // the tuning the paper applies before reporting Fig. 13. Each chunk's
  // completion time is also its delivery point (its results have left the
  // device), recorded for the abort/partial-batch profile.
  struct Schedule {
    double total = 0;
    std::vector<int> chunk_batch;
    std::vector<double> chunk_done;
  };
  auto schedule = [&](int chunks) {
    Schedule out;
    out.chunk_batch.assign(static_cast<std::size_t>(chunks), batch / chunks);
    for (int c = 0; c < batch % chunks; ++c)
      ++out.chunk_batch[static_cast<std::size_t>(c)];
    gpu::StreamTimeline compute, comm;
    for (int c = 0; c < chunks; ++c) {
      double ready = 0;  // completion of this chunk's previous kernel
      for (std::size_t i = 0; i < plan.stages.size(); ++i) {
        // heFFTe's batched pipeline packs one chunk while another chunk's
        // exchange is in flight: each kernel (each exchange call) is one
        // operation on its stream, lasting its maximum over ranks.
        const StageCost& sc =
            costs.stage(plan, i, out.chunk_batch[static_cast<std::size_t>(c)],
                        device, cost, mode, flavor, group);
        for (const Kernel& k : sc.slots) {
          gpu::StreamTimeline& stream =
              k.stream == Stream::Compute ? compute : comm;
          for (int call = 0; call < k.calls; ++call)
            if (k.seconds > 0) ready = stream.submit(ready, k.seconds);
        }
      }
      out.chunk_done.push_back(ready);
      out.total = std::max(out.total, ready);
    }
    return out;
  };

  Schedule best = schedule(1);
  for (int chunks = 2; chunks <= std::min(batch, 8); ++chunks) {
    Schedule cand = schedule(chunks);
    if (cand.total < best.total) best = std::move(cand);
  }
  if (profile != nullptr) {
    *profile = BatchProfile{};
    int cum = 0;
    for (std::size_t c = 0; c < best.chunk_done.size(); ++c) {
      cum += best.chunk_batch[c];
      profile->elems.push_back(cum);
      profile->frac.push_back(best.total > 0
                                  ? best.chunk_done[c] / best.total
                                  : 1.0);
    }
  }
  return best.total;
}

SimReport simulate(const SimConfig& cfg) {
  PARFFT_CHECK(cfg.repeats >= 1, "repeats must be positive");
  Simulator sim(cfg);
  return sim.run(cfg.options.batch, cfg.repeats, cfg.warmed,
                 /*traced=*/true);
}

namespace {

SimConfig normalized(SimConfig cfg) {
  if (cfg.in_boxes.empty()) cfg.in_boxes = brick_layout(cfg.n, cfg.nranks);
  if (cfg.out_boxes.empty()) cfg.out_boxes = cfg.in_boxes;
  PARFFT_CHECK(static_cast<int>(cfg.in_boxes.size()) == cfg.nranks &&
                   static_cast<int>(cfg.out_boxes.size()) == cfg.nranks,
               "box layouts must have one entry per rank");
  return cfg;
}

}  // namespace

Simulator::Simulator(SimConfig cfg)
    : cfg_(normalized(std::move(cfg))),
      plan_(build_stages(cfg_.n, cfg_.nranks, cfg_.in_boxes, cfg_.out_boxes,
                         cfg_.options, cfg_.machine)),
      map_{cfg_.machine.gpus_per_node},
      cost_(cfg_.machine, map_, cfg_.nranks) {}

SimReport Simulator::run(int batch, int repeats, bool warmed, bool traced) {
  SimReport report;
  report.resolved = plan_.resolved;
  report.reshapes_per_transform = plan_.reshape_count();

  if (overlapped(batch)) {
    // Aggregate-only: the pipelined schedule is never traced and models
    // warm FFT plans.
    const double t = schedule(batch).total;
    report.total = t * repeats;
    report.per_transform = t / batch;
    report.rank_times.assign(static_cast<std::size_t>(cfg_.nranks),
                             report.total);
    return report;
  }

  // One RunTrace per traced run (nullptr when tracing is off).
  obs::RunTrace* run =
      traced ? obs::Session::global().begin_run(
                   "simulate " + std::to_string(cfg_.n[0]) + "x" +
                       std::to_string(cfg_.n[1]) + "x" +
                       std::to_string(cfg_.n[2]) + " " +
                       std::to_string(cfg_.nranks) + " ranks",
                   cfg_.nranks, cfg_.options.trace)
             : nullptr;
  StageRunner runner(cfg_, plan_, cost_, stage_costs_, report, batch, warmed,
                     run);
  for (int rep = 0; rep < repeats; ++rep) runner.run_transform();

  report.rank_times = runner.clocks();
  report.total =
      *std::max_element(report.rank_times.begin(), report.rank_times.end());
  report.per_transform =
      report.total / (static_cast<double>(repeats) * batch);
  // Kernel categories accumulated over all repeats; normalize to one
  // transform for reporting.
  const double inv = 1.0 / repeats;
  report.kernels.fft *= inv;
  report.kernels.pack *= inv;
  report.kernels.unpack *= inv;
  report.kernels.comm *= inv;
  report.kernels.scale *= inv;
  return report;
}

const Simulator::Schedule& Simulator::schedule(int batch) {
  const std::pair<double, int> key{nic_scale(), batch};
  if (auto it = schedules_.find(key); it != schedules_.end())
    return it->second;
  Schedule s;
  s.total = overlapped_batch_time(plan_, cfg_.device, cost_,
                                  transfer_mode(cfg_), cfg_.flavor, batch,
                                  {}, &s.profile, &stage_costs_);
  return schedules_.emplace(key, std::move(s)).first->second;
}

double Simulator::transform_time(int batch, bool cold) {
  PARFFT_CHECK(batch >= 1, "batch must be positive");
  const std::tuple<double, int, bool> key{nic_scale(), batch, cold};
  if (auto it = times_.find(key); it != times_.end()) return it->second;
  return times_.emplace(key, run(batch, 1, !cold, /*traced=*/false).total)
      .first->second;
}

double Simulator::plan_setup_time() {
  return transform_time(1, /*cold=*/true) - transform_time(1, /*cold=*/false);
}

BatchProfile Simulator::batch_profile(int batch) {
  PARFFT_CHECK(batch >= 1, "batch must be positive");
  if (overlapped(batch)) return schedule(batch).profile;
  // Single-chunk execution: nothing leaves the device until the end.
  BatchProfile profile;
  profile.elems = {batch};
  profile.frac = {1.0};
  return profile;
}

void Simulator::set_nic_scale(double scale) {
  cost_.flowsim().set_nic_scale(scale);
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += '"';  // RFC 4180: double embedded quotes
    out += ch;
  }
  out += '"';
  return out;
}

void write_call_csv(const SimReport& report, std::ostream& os) {
  // Schema: kind,index,name,seconds
  //   kind    -- "comm" (one row per reshape execution) or "fft" (one row
  //              per FFT stage axis)
  //   index   -- 1-based position within its kind, in execution order
  //   name    -- MPI routine or kernel label, RFC 4180-quoted if it
  //              contains commas, quotes or newlines
  //   seconds -- virtual duration (max over ranks) of that call
  os << "kind,index,name,seconds\n";
  for (std::size_t i = 0; i < report.comm_calls.size(); ++i)
    os << "comm," << i + 1 << ',' << csv_escape(report.comm_calls[i].name)
       << ',' << report.comm_calls[i].seconds << '\n';
  for (std::size_t i = 0; i < report.fft_calls.size(); ++i)
    os << "fft," << i + 1 << ',' << csv_escape(report.fft_calls[i].name)
       << ',' << report.fft_calls[i].seconds << '\n';
}

}  // namespace parfft::core
