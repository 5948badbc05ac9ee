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

/// Sequential execution passes over the stages of `plan` for chunks of
/// `batch` elements, advancing one clock per rank from zero. Untraced
/// passes read reshape costs from `memo`; a traced pass prices each
/// reshape once itself, because it also needs the exchange's link
/// statistics and calibration. Without `warmed`, each rank's first
/// transform pays the FFT plan-setup spikes of its own plan cache.
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
    tr.cost = price_reshape(plan_, s.reshape, batch_, cfg_.device, cost_,
                            mode(), cfg_.flavor,
                            identity_group(plan_.nranks), &tr.stats);
    calibrate_exchange(s.reshape, tr);
    return tr;
  }

  /// Measures the busiest sender's traffic and the uncontended (B, L)
  /// pair for this exchange. Read-only over the fabric: single_flow_time
  /// and point_to_point are const, so tracing never perturbs the run.
  void calibrate_exchange(const ReshapePlan& rp, TracedReshape& rc) {
    int busiest = -1, busiest_peer = -1;
    for (int r = 0; r < plan_.nranks; ++r) {
      double sent = 0;
      int msgs = 0, peer = -1;
      for (const Transfer& tr : rp.sends(r)) {
        if (tr.peer == r) continue;  // local copy, not a message
        sent +=
            static_cast<double>(tr.region.count() * batch_) * sizeof(cplx);
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
            : memo_.reshape(plan_, stage, batch_, cfg_.device, cost_, mode(),
                            cfg_.flavor);
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
    for (int r = 0; r < plan_.nranks; ++r) {
      double sent = 0;
      for (const Transfer& tr : rp.sends(r)) {
        const double b =
            static_cast<double>(tr.region.count() * batch_) * sizeof(cplx);
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
    for (int axis : s.axes) {
      double max_fft = 0, max_pack = 0;
      bool any_strided = false;
      for (int r = 0; r < plan_.nranks; ++r) {
        const Box3& box = s.boxes[static_cast<std::size_t>(r)];
        if (box.empty()) continue;
        const int len = static_cast<int>(box.size(axis));
        const int lines = static_cast<int>(box.count() / len) * batch_;
        const bool contiguous =
            axis == 2 || plan_.options.contiguous_fft;
        // Each rank owns its FFT plans (as each GPU owns cuFFT handles);
        // the first call with a new layout pays the plan-setup spike
        // unless the config declares the plans pre-warmed.
        const double t =
            (warmed_ || !first_transform_)
                ? gpu::fft_cost(cfg_.device, len, lines, !contiguous)
                : caches_[static_cast<std::size_t>(r)].fft_call(
                      cfg_.device, len, lines, !contiguous);
        if (axis != 2 && plan_.options.contiguous_fft) {
          // Reorder path: two local transposes around the contiguous FFT.
          const double bytes =
              static_cast<double>(box.count()) * batch_ * sizeof(cplx);
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
  int batch_;
  bool warmed_;
  obs::RunTrace* run_;  ///< nullptr when tracing is off
  std::vector<gpu::PlanCache> caches_;  ///< per rank; empty when warmed
  std::vector<double> clocks_;          ///< per rank
  std::vector<std::unique_ptr<TracedReshape>> traced_;  ///< per stage
  bool first_transform_ = true;
};

}  // namespace

double pack_kernel_time(const gpu::DeviceSpec& device, const Box3& box,
                        const std::vector<Transfer>& transfers, int b,
                        std::size_t elem_bytes) {
  double t = 0;
  for (const Transfer& tr : transfers)
    t += gpu::pack_region_cost(
        device, static_cast<double>(tr.region.count() * b) * elem_bytes,
        pack_contiguous_run(box, tr.region, elem_bytes));
  if (!transfers.empty()) t += device.kernel_launch;
  return t;
}

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
