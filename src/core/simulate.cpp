#include "core/simulate.hpp"

#include <algorithm>
#include <memory>
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

/// GPU kernel time to pack (or unpack) `transfers` of `b` batch elements
/// out of (into) `box`: one strided region copy per transfer plus one
/// launch when there is anything to move.
double pack_kernel_time(const gpu::DeviceSpec& device, const Box3& box,
                        const std::vector<Transfer>& transfers, int b) {
  double t = 0;
  for (const Transfer& tr : transfers)
    t += gpu::pack_region_cost(
        device, static_cast<double>(tr.region.count() * b) * sizeof(cplx),
        pack_contiguous_run(box, tr.region));
  if (!transfers.empty()) t += device.kernel_launch;
  return t;
}

/// The one reshape pricing formula, shared by the memo and the traced
/// sequential pass. `stats`, when non-null, receives the exchange's
/// per-link utilization.
ReshapeCost price_reshape(const StagePlan& plan, const ReshapePlan& rp, int b,
                          const gpu::DeviceSpec& device,
                          const net::CommCost& cost, net::TransferMode mode,
                          net::MpiFlavor flavor,
                          const std::vector<int>& group,
                          net::LinkStats* stats) {
  ReshapeCost rc;
  const auto R = static_cast<std::size_t>(plan.nranks);
  rc.pack.assign(R, 0.0);
  rc.unpack.assign(R, 0.0);
  for (std::size_t r = 0; r < R; ++r) {
    const int rank = static_cast<int>(r);
    rc.pack[r] = pack_kernel_time(device, rp.from()[r], rp.sends(rank), b);
    rc.unpack[r] = pack_kernel_time(device, rp.to()[r], rp.recvs(rank), b);
    rc.max_pack = std::max(rc.max_pack, rc.pack[r]);
    rc.max_unpack = std::max(rc.max_unpack, rc.unpack[r]);
  }
  rc.phase = cost.exchange(group, rp.send_matrix(b),
                           to_alg(plan.options.backend), mode, flavor, stats);
  return rc;
}

/// One simulated execution pass over the stages, advancing `clocks`.
/// Untraced passes read reshape costs from `memo`; a traced pass prices
/// each reshape once itself, because it also needs the exchange's link
/// statistics and calibration.
class StageRunner {
 public:
  StageRunner(const SimConfig& cfg, const StagePlan& plan,
              const net::CommCost& cost, StageCostMemo& memo,
              SimReport& report, std::vector<gpu::PlanCache>& caches,
              std::vector<double>& clocks, obs::RunTrace* run)
      : cfg_(cfg), plan_(plan), cost_(cost), memo_(memo), report_(report),
        caches_(caches), clocks_(clocks), run_(run) {}

  void run_transform() {
    if (run_ != nullptr)
      for (int r = 0; r < plan_.nranks; ++r)
        run_->tracer.begin(r, obs::Category::Transform, "fft3d",
                           clocks_[static_cast<std::size_t>(r)]);
    for (std::size_t i = 0; i < plan_.stages.size(); ++i) {
      const Stage& s = plan_.stages[i];
      if (s.kind == Stage::Kind::Reshape) {
        run_reshape(s, i);
      } else {
        run_fft(s);
      }
    }
    if (run_ != nullptr)
      for (int r = 0; r < plan_.nranks; ++r)
        run_->tracer.end(r, clocks_[static_cast<std::size_t>(r)]);
    first_transform_ = false;
  }

 private:
  net::TransferMode mode() const { return transfer_mode(cfg_); }

  /// A traced reshape's cost plus what obs needs about its exchange.
  /// Identical across repeats; computed once per stage.
  struct TracedReshape {
    ReshapeCost cost;
    net::LinkStats stats;
    // Calibration for obs::ExchangeRecord: the busiest sender's remote
    // traffic, and the uncontended bandwidth / fixed per-message cost a
    // representative message of this exchange measures against the idle
    // fabric (the B and L of model eqs. (2)-(5)).
    double bytes_total = 0;
    double max_rank_bytes = 0;
    int max_rank_msgs = 0;
    double model_bw = 0;
    double per_msg_cost = 0;
  };

  const TracedReshape& traced_reshape(const Stage& s, std::size_t stage) {
    if (traced_.size() <= stage) traced_.resize(stage + 1);
    auto& slot = traced_[stage];
    if (slot) return *slot;
    slot = std::make_unique<TracedReshape>();
    TracedReshape& tr = *slot;
    const int batch = plan_.options.batch;
    tr.cost = price_reshape(plan_, s.reshape, batch, cfg_.device, cost_,
                            mode(), cfg_.flavor,
                            identity_group(plan_.nranks), &tr.stats);
    calibrate_exchange(s.reshape, batch, tr);
    return tr;
  }

  /// Measures the busiest sender's traffic and the uncontended (B, L)
  /// pair for this exchange. Read-only over the fabric: single_flow_time
  /// and point_to_point are const, so tracing never perturbs the run.
  void calibrate_exchange(const ReshapePlan& rp, int batch,
                          TracedReshape& rc) {
    int busiest = -1, busiest_peer = -1;
    for (int r = 0; r < plan_.nranks; ++r) {
      double sent = 0;
      int msgs = 0, peer = -1;
      for (const Transfer& tr : rp.sends(r)) {
        if (tr.peer == r) continue;  // local copy, not a message
        sent +=
            static_cast<double>(tr.region.count() * batch) * sizeof(cplx);
        ++msgs;
        if (peer < 0) peer = tr.peer;
      }
      rc.bytes_total += sent;
      if (msgs > 0 && sent > rc.max_rank_bytes) {
        rc.max_rank_bytes = sent;
        rc.max_rank_msgs = msgs;
        busiest = r;
        busiest_peer = peer;
      }
    }
    if (busiest < 0) return;  // nothing leaves any rank
    const double rep_bytes = rc.max_rank_bytes / rc.max_rank_msgs;
    const double transport = cost_.flowsim().single_flow_time(
        busiest, busiest_peer, rep_bytes, mode());
    if (transport > 0) rc.model_bw = rep_bytes / transport;
    rc.per_msg_cost = std::max(
        cost_.point_to_point(busiest, busiest_peer, rep_bytes, mode()) -
            transport,
        0.0);
  }

  void run_reshape(const Stage& s, std::size_t stage) {
    const int R = plan_.nranks;
    const TracedReshape* traced =
        run_ != nullptr ? &traced_reshape(s, stage) : nullptr;
    const ReshapeCost& rc =
        traced != nullptr
            ? traced->cost
            : memo_.reshape(plan_, stage, plan_.options.batch, cfg_.device,
                            cost_, mode(), cfg_.flavor);
    // The datatype backend packs inside MPI: no GPU pack or unpack here
    // (the overlapped pipeline charges them; see ReshapeCost).
    const bool gpu_pack = !backend_is_datatype(plan_.options.backend);
    if (run_ != nullptr)
      for (int r = 0; r < R; ++r)
        run_->tracer.begin(r, obs::Category::Reshape, "reshape",
                           clocks_[static_cast<std::size_t>(r)]);
    for (int r = 0; r < R; ++r) {
      const double p = gpu_pack ? rc.pack[static_cast<std::size_t>(r)] : 0.0;
      if (run_ != nullptr && p > 0)
        run_->tracer.complete(r, obs::Category::Pack, "pack",
                              clocks_[static_cast<std::size_t>(r)], p);
      clocks_[static_cast<std::size_t>(r)] += p;
    }
    report_.kernels.pack += gpu_pack ? rc.max_pack : 0.0;

    // Exchange: globally synchronizing collective, per-rank completion
    // from the congestion-aware model (identical call to threaded mode).
    const double base = *std::max_element(clocks_.begin(), clocks_.end());
    if (traced != nullptr) record_reshape_obs(s, *traced, base);
    for (int r = 0; r < R; ++r) {
      if (run_ != nullptr) {
        const double c = clocks_[static_cast<std::size_t>(r)];
        if (base > c)
          run_->tracer.complete(r, obs::Category::Wait, "exchange sync", c,
                                base - c);
        run_->tracer.complete(
            r, obs::Category::Exchange, backend_name(plan_.options.backend),
            base, rc.phase.per_rank[static_cast<std::size_t>(r)]);
      }
      clocks_[static_cast<std::size_t>(r)] =
          base + rc.phase.per_rank[static_cast<std::size_t>(r)];
    }
    report_.kernels.comm += rc.phase.total;
    report_.comm_calls.push_back(
        {backend_name(plan_.options.backend), rc.phase.total});

    for (int r = 0; r < R; ++r) {
      const double u =
          gpu_pack ? rc.unpack[static_cast<std::size_t>(r)] : 0.0;
      if (run_ != nullptr && u > 0)
        run_->tracer.complete(r, obs::Category::Unpack, "unpack",
                              clocks_[static_cast<std::size_t>(r)], u);
      clocks_[static_cast<std::size_t>(r)] += u;
      if (run_ != nullptr)
        run_->tracer.end(r, clocks_[static_cast<std::size_t>(r)]);
    }
    report_.kernels.unpack += gpu_pack ? rc.max_unpack : 0.0;
  }

  /// Per-execution metrics: bytes sent, message sizes, fan-out, and the
  /// link-utilization record of this reshape's exchange (gauges keep the
  /// peak over executions; counter tracks get the time-shifted samples).
  void record_reshape_obs(const Stage& s, const TracedReshape& rc,
                          double base) {
    const ReshapePlan& rp = s.reshape;
    const int batch = plan_.options.batch;
    for (int r = 0; r < plan_.nranks; ++r) {
      double sent = 0;
      for (const Transfer& tr : rp.sends(r)) {
        const double b =
            static_cast<double>(tr.region.count() * batch) * sizeof(cplx);
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

    // Exchange-phase record for obs/analysis.hpp (residuals + heatmaps):
    // netsim's LinkStats is converted here so obs stays netsim-free.
    obs::ExchangeRecord rec;
    rec.name = backend_name(plan_.options.backend);
    rec.begin = base;
    rec.duration = rc.cost.phase.total;
    rec.nranks = plan_.nranks;
    rec.bytes_total = rc.bytes_total;
    rec.max_rank_bytes = rc.max_rank_bytes;
    rec.max_rank_msgs = rc.max_rank_msgs;
    rec.model_bandwidth = rc.model_bw;
    rec.per_message_cost = rc.per_msg_cost;
    rec.links.reserve(rc.stats.links.size());
    for (const net::LinkStats::Link& l : rc.stats.links) {
      if (l.capacity <= 0 || l.bytes <= 0) continue;
      obs::LinkUsage u;
      u.name = l.name;
      u.cls = net::link_class_name(l.name);
      u.capacity = l.capacity;
      u.bytes = l.bytes;
      u.samples = l.samples;
      rec.links.push_back(std::move(u));
    }
    run_->add_exchange(std::move(rec));
  }

  void run_fft(const Stage& s) {
    const int batch = plan_.options.batch;
    for (int axis : s.axes) {
      double max_fft = 0, max_pack = 0;
      bool any_strided = false;
      for (int r = 0; r < plan_.nranks; ++r) {
        const Box3& box = s.boxes[static_cast<std::size_t>(r)];
        if (box.empty()) continue;
        const int len = static_cast<int>(box.size(axis));
        const int lines = static_cast<int>(box.count() / len) * batch;
        const bool contiguous =
            axis == 2 || plan_.options.contiguous_fft;
        // Each rank owns its FFT plans (as each GPU owns cuFFT handles);
        // the first call with a new layout pays the plan-setup spike
        // unless the config declares the plans pre-warmed.
        const double t =
            (cfg_.warmed || !first_transform_)
                ? gpu::fft_cost(cfg_.device, len, lines, !contiguous)
                : caches_[static_cast<std::size_t>(r)].fft_call(
                      cfg_.device, len, lines, !contiguous);
        if (axis != 2 && plan_.options.contiguous_fft) {
          // Reorder path: two local transposes around the contiguous FFT.
          const double bytes =
              static_cast<double>(box.count()) * batch * sizeof(cplx);
          const double p =
              2.0 * gpu::pack_cost(cfg_.device, bytes, sizeof(cplx));
          if (run_ != nullptr && p > 0)
            run_->tracer.complete(r, obs::Category::Pack, "transpose",
                                  clocks_[static_cast<std::size_t>(r)], p);
          clocks_[static_cast<std::size_t>(r)] += p;
          max_pack = std::max(max_pack, p);
        }
        any_strided = any_strided || !contiguous;
        if (run_ != nullptr && t > 0)
          run_->tracer.complete(
              r, obs::Category::Fft,
              contiguous ? "fft(contiguous)" : "fft(strided)",
              clocks_[static_cast<std::size_t>(r)], t,
              run_->with_args()
                  ? std::vector<obs::SpanArg>{{"axis",
                                               static_cast<double>(axis)},
                                              {"len",
                                               static_cast<double>(len)}}
                  : std::vector<obs::SpanArg>{});
        clocks_[static_cast<std::size_t>(r)] += t;
        max_fft = std::max(max_fft, t);
      }
      report_.kernels.fft += max_fft;
      report_.kernels.pack += max_pack;
      report_.fft_calls.push_back(
          {any_strided ? "fft(strided)" : "fft(contiguous)", max_fft});
    }
  }

  const SimConfig& cfg_;
  const StagePlan& plan_;
  const net::CommCost& cost_;
  StageCostMemo& memo_;
  SimReport& report_;
  std::vector<gpu::PlanCache>& caches_;
  std::vector<double>& clocks_;
  obs::RunTrace* run_;  ///< nullptr when tracing is off
  std::vector<std::unique_ptr<TracedReshape>> traced_;  ///< per stage
  bool first_transform_ = true;
};

}  // namespace

int BatchProfile::delivered(double work) const {
  int done = 0;
  for (std::size_t i = 0; i < frac.size(); ++i) {
    if (frac[i] <= work + 1e-12) done = elems[i];
  }
  return done;
}

const ReshapeCost& StageCostMemo::reshape(
    const StagePlan& plan, std::size_t stage, int b,
    const gpu::DeviceSpec& device, const net::CommCost& cost,
    net::TransferMode mode, net::MpiFlavor flavor,
    const std::vector<int>& group) {
  PARFFT_ASSERT(stage < plan.stages.size() &&
                plan.stages[stage].kind == Stage::Kind::Reshape);
  ++counters_.stage_lookups;
  const std::tuple<double, std::size_t, int> key{cost.flowsim().nic_scale(),
                                                 stage, b};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++counters_.stage_hits;
  } else {
    ++counters_.stage_misses;
    ++counters_.exchange_solves;
    it = entries_
             .emplace(key, price_reshape(
                               plan, plan.stages[stage].reshape, b, device,
                               cost, mode, flavor,
                               group.empty() ? identity_group(plan.nranks)
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
  PARFFT_CHECK(counters_.exchange_solves == counters_.stage_misses &&
                   counters_.stage_misses == entries_.size(),
               "stage-cost memo: exchange solves, misses and entries differ");
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

  // Per-stage costs for a chunk of b batch elements (max over ranks).
  // Reshape stages split into pack (GPU compute stream), exchange (network
  // stream) and unpack (compute stream) -- heFFTe's batched pipeline packs
  // one chunk while another chunk's exchange is in flight.
  struct StageCost {
    double pre = 0;   // pack, compute stream
    double comm = 0;  // exchange, network stream
    double post = 0;  // unpack, compute stream
  };
  auto stage_cost = [&](std::size_t i, int b) {
    const Stage& s = plan.stages[i];
    StageCost c;
    if (s.kind == Stage::Kind::Reshape) {
      const ReshapeCost& rc =
          costs.reshape(plan, i, b, device, cost, mode, flavor, group);
      c.pre = rc.max_pack;
      c.comm = rc.phase.total;
      c.post = rc.max_unpack;
    } else {
      for (int axis : s.axes) {
        double mx = 0;
        for (int r = 0; r < plan.nranks; ++r) {
          const Box3& box = s.boxes[static_cast<std::size_t>(r)];
          if (box.empty()) continue;
          const int len = static_cast<int>(box.size(axis));
          const int lines = static_cast<int>(box.count() / len) * b;
          const bool contiguous = axis == 2 || plan.options.contiguous_fft;
          mx = std::max(mx,
                        gpu::fft_cost(device, len, lines, !contiguous));
        }
        c.pre += mx;
      }
    }
    return c;
  };

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
      double ready = 0;  // completion of this chunk's previous stage
      for (std::size_t i = 0; i < plan.stages.size(); ++i) {
        const StageCost sc =
            stage_cost(i, out.chunk_batch[static_cast<std::size_t>(c)]);
        if (sc.pre > 0) ready = compute.submit(ready, sc.pre);
        if (sc.comm > 0) ready = comm.submit(ready, sc.comm);
        if (sc.post > 0) ready = compute.submit(ready, sc.post);
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
  SimConfig c = cfg;
  if (c.in_boxes.empty()) c.in_boxes = brick_layout(c.n, c.nranks);
  if (c.out_boxes.empty()) c.out_boxes = c.in_boxes;
  PARFFT_CHECK(static_cast<int>(c.in_boxes.size()) == c.nranks &&
                   static_cast<int>(c.out_boxes.size()) == c.nranks,
               "box layouts must have one entry per rank");

  const StagePlan plan = build_stages(c.n, c.nranks, c.in_boxes, c.out_boxes,
                                      c.options, c.machine);
  const net::RankMap map{c.machine.gpus_per_node};
  const net::CommCost cost(c.machine, map, c.nranks);

  SimReport report;
  report.resolved = plan.resolved;
  report.reshapes_per_transform = plan.reshape_count();

  if (plan.options.batch > 1 && plan.options.overlap_batches) {
    const double t =
        overlapped_batch_time(plan, c.device, cost, transfer_mode(c),
                              c.flavor, plan.options.batch);
    report.total = t * c.repeats;
    report.per_transform = t / plan.options.batch;
    report.rank_times.assign(static_cast<std::size_t>(c.nranks),
                             report.total);
    return report;
  }

  std::vector<double> clocks(static_cast<std::size_t>(c.nranks), 0.0);
  std::vector<gpu::PlanCache> caches(
      c.warmed ? 0 : static_cast<std::size_t>(c.nranks));
  // One RunTrace per simulate() call (nullptr when tracing is off); the
  // overlapped-batch path above is aggregate-only and is never traced.
  obs::RunTrace* run = obs::Session::global().begin_run(
      "simulate " + std::to_string(c.n[0]) + "x" + std::to_string(c.n[1]) +
          "x" + std::to_string(c.n[2]) + " " + std::to_string(c.nranks) +
          " ranks",
      c.nranks, c.options.trace);
  StageCostMemo memo;
  StageRunner runner(c, plan, cost, memo, report, caches, clocks, run);
  for (int rep = 0; rep < c.repeats; ++rep) runner.run_transform();

  report.rank_times = clocks;
  report.total = *std::max_element(clocks.begin(), clocks.end());
  report.per_transform =
      report.total / (static_cast<double>(c.repeats) * plan.options.batch);
  // Kernel categories accumulated over all repeats; normalize to one
  // transform for reporting.
  const double inv = 1.0 / c.repeats;
  report.kernels.fft *= inv;
  report.kernels.pack *= inv;
  report.kernels.unpack *= inv;
  report.kernels.comm *= inv;
  report.kernels.scale *= inv;
  return report;
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

double Simulator::run_once(int batch, bool cold) {
  SimConfig c = cfg_;
  c.options.batch = batch;
  c.warmed = !cold;
  StagePlan p = plan_;
  p.options.batch = batch;
  SimReport scratch;
  std::vector<double> clocks(static_cast<std::size_t>(cfg_.nranks), 0.0);
  std::vector<gpu::PlanCache> caches(
      cold ? static_cast<std::size_t>(cfg_.nranks) : 0);
  StageRunner runner(c, p, cost_, stage_costs_, scratch, caches, clocks,
                     nullptr);
  runner.run_transform();
  return *std::max_element(clocks.begin(), clocks.end());
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
  if (overlapped(batch)) return schedule(batch).total;
  const std::tuple<double, int, bool> key{nic_scale(), batch, cold};
  if (auto it = times_.find(key); it != times_.end()) return it->second;
  const double t = run_once(batch, cold);
  times_.emplace(key, t);
  return t;
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
