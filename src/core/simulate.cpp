#include "core/simulate.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"
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

/// One simulated execution pass over the stages, advancing `clocks`.
class StageRunner {
 public:
  StageRunner(const SimConfig& cfg, const StagePlan& plan,
              const net::CommCost& cost, SimReport& report,
              std::vector<gpu::PlanCache>& caches,
              std::vector<double>& clocks, obs::RunTrace* run)
      : cfg_(cfg), plan_(plan), cost_(cost), report_(report),
        caches_(caches), clocks_(clocks), run_(run) {}

  void run_transform() {
    if (run_ != nullptr)
      for (int r = 0; r < plan_.nranks; ++r)
        run_->tracer.begin(r, obs::Category::Transform, "fft3d",
                           clocks_[static_cast<std::size_t>(r)]);
    std::size_t reshape_idx = 0;
    for (const Stage& s : plan_.stages) {
      if (s.kind == Stage::Kind::Reshape) {
        run_reshape(s, reshape_idx++);
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
  net::TransferMode mode() const {
    return cfg_.gpu_aware ? net::TransferMode::GpuAware
                          : net::TransferMode::Staged;
  }

  /// Per-reshape costs are identical across repeats; compute once.
  struct ReshapeCosts {
    std::vector<double> pack, unpack;  // per rank
    double max_pack = 0, max_unpack = 0;
    net::PhaseTimes phase;
    net::LinkStats stats;  ///< filled only when tracing is on
    // Calibration for obs::ExchangeRecord (filled only when tracing is
    // on): the busiest sender's remote traffic, and the uncontended
    // bandwidth / fixed per-message cost a representative message of this
    // exchange measures against the idle fabric (the B and L of
    // model eqs. (2)-(5)).
    double bytes_total = 0;
    double max_rank_bytes = 0;
    int max_rank_msgs = 0;
    double model_bw = 0;
    double per_msg_cost = 0;
  };

  const ReshapeCosts& reshape_costs(const Stage& s, std::size_t idx) {
    if (reshape_cache_.size() <= idx) reshape_cache_.resize(idx + 1);
    auto& slot = reshape_cache_[idx];
    if (slot) return *slot;
    slot = std::make_unique<ReshapeCosts>();
    ReshapeCosts& rc = *slot;
    const ReshapePlan& rp = s.reshape;
    const int R = plan_.nranks;
    const int batch = plan_.options.batch;
    const bool datatype = backend_is_datatype(plan_.options.backend);
    rc.pack.assign(static_cast<std::size_t>(R), 0.0);
    rc.unpack.assign(static_cast<std::size_t>(R), 0.0);
    if (!datatype) {
      for (int r = 0; r < R; ++r) {
        double t = 0;
        const Box3& from = rp.from()[static_cast<std::size_t>(r)];
        for (const Transfer& tr : rp.sends(r))
          t += gpu::pack_region_cost(
              cfg_.device,
              static_cast<double>(tr.region.count() * batch) * sizeof(cplx),
              pack_contiguous_run(from, tr.region));
        if (!rp.sends(r).empty()) t += cfg_.device.kernel_launch;
        rc.pack[static_cast<std::size_t>(r)] = t;
        rc.max_pack = std::max(rc.max_pack, t);
        double u = 0;
        const Box3& to = rp.to()[static_cast<std::size_t>(r)];
        for (const Transfer& tr : rp.recvs(r))
          u += gpu::pack_region_cost(
              cfg_.device,
              static_cast<double>(tr.region.count() * batch) * sizeof(cplx),
              pack_contiguous_run(to, tr.region));
        if (!rp.recvs(r).empty()) u += cfg_.device.kernel_launch;
        rc.unpack[static_cast<std::size_t>(r)] = u;
        rc.max_unpack = std::max(rc.max_unpack, u);
      }
    }
    std::vector<int> group(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) group[static_cast<std::size_t>(r)] = r;
    rc.phase = cost_.exchange(group, rp.send_matrix(batch),
                              to_alg(plan_.options.backend), mode(),
                              cfg_.flavor, run_ ? &rc.stats : nullptr);
    if (run_ != nullptr) calibrate_exchange(rp, batch, rc);
    return rc;
  }

  /// Measures the busiest sender's traffic and the uncontended (B, L)
  /// pair for this exchange. Read-only over the fabric: single_flow_time
  /// and point_to_point are const, so tracing never perturbs the run.
  void calibrate_exchange(const ReshapePlan& rp, int batch, ReshapeCosts& rc) {
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

  void run_reshape(const Stage& s, std::size_t idx) {
    const int R = plan_.nranks;
    const ReshapeCosts& rc = reshape_costs(s, idx);
    if (run_ != nullptr)
      for (int r = 0; r < R; ++r)
        run_->tracer.begin(r, obs::Category::Reshape, "reshape",
                           clocks_[static_cast<std::size_t>(r)]);
    for (int r = 0; r < R; ++r) {
      const double p = rc.pack[static_cast<std::size_t>(r)];
      if (run_ != nullptr && p > 0)
        run_->tracer.complete(r, obs::Category::Pack, "pack",
                              clocks_[static_cast<std::size_t>(r)], p);
      clocks_[static_cast<std::size_t>(r)] += p;
    }
    report_.kernels.pack += rc.max_pack;

    // Exchange: globally synchronizing collective, per-rank completion
    // from the congestion-aware model (identical call to threaded mode).
    const double base = *std::max_element(clocks_.begin(), clocks_.end());
    if (run_ != nullptr) record_reshape_obs(s, rc, base);
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
      const double u = rc.unpack[static_cast<std::size_t>(r)];
      if (run_ != nullptr && u > 0)
        run_->tracer.complete(r, obs::Category::Unpack, "unpack",
                              clocks_[static_cast<std::size_t>(r)], u);
      clocks_[static_cast<std::size_t>(r)] += u;
      if (run_ != nullptr)
        run_->tracer.end(r, clocks_[static_cast<std::size_t>(r)]);
    }
    report_.kernels.unpack += rc.max_unpack;
  }

  /// Per-execution metrics: bytes sent, message sizes, fan-out, and the
  /// link-utilization record of this reshape's exchange (gauges keep the
  /// peak over executions; counter tracks get the time-shifted samples).
  void record_reshape_obs(const Stage& s, const ReshapeCosts& rc,
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
    rec.duration = rc.phase.total;
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
  SimReport& report_;
  std::vector<gpu::PlanCache>& caches_;
  std::vector<double>& clocks_;
  obs::RunTrace* run_;  ///< nullptr when tracing is off
  std::vector<std::unique_ptr<ReshapeCosts>> reshape_cache_;
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

double overlapped_batch_time(const StagePlan& plan,
                             const gpu::DeviceSpec& device,
                             const net::CommCost& cost,
                             net::TransferMode mode, net::MpiFlavor flavor,
                             int batch, const std::vector<int>& group_in,
                             BatchProfile* profile) {
  PARFFT_CHECK(batch >= 1, "batch must be positive");
  std::vector<int> group = group_in;
  if (group.empty()) {
    group.resize(static_cast<std::size_t>(plan.nranks));
    for (int r = 0; r < plan.nranks; ++r)
      group[static_cast<std::size_t>(r)] = r;
  }
  PARFFT_CHECK(static_cast<int>(group.size()) == plan.nranks,
               "group size must match the plan's rank count");

  // Per-stage costs for a chunk of b batch elements (max over ranks).
  // Reshape stages split into pack (GPU compute stream), exchange (network
  // stream) and unpack (compute stream) -- heFFTe's batched pipeline packs
  // one chunk while another chunk's exchange is in flight.
  struct StageCost {
    double pre = 0;   // pack, compute stream
    double comm = 0;  // exchange, network stream
    double post = 0;  // unpack, compute stream
  };
  auto stage_cost = [&](const Stage& s, int b) {
    StageCost c;
    if (s.kind == Stage::Kind::Reshape) {
      const net::PhaseTimes phase = cost.exchange(
          group, s.reshape.send_matrix(b), to_alg(plan.options.backend),
          mode, flavor);
      c.comm = phase.total;
      for (int r = 0; r < plan.nranks; ++r) {
        double p = 0, u = 0;
        for (const Transfer& tr : s.reshape.sends(r))
          p += gpu::pack_region_cost(
              device,
              static_cast<double>(tr.region.count() * b) * sizeof(cplx),
              pack_contiguous_run(s.reshape.from()[static_cast<std::size_t>(r)],
                                  tr.region));
        if (!s.reshape.sends(r).empty()) p += device.kernel_launch;
        for (const Transfer& tr : s.reshape.recvs(r))
          u += gpu::pack_region_cost(
              device,
              static_cast<double>(tr.region.count() * b) * sizeof(cplx),
              pack_contiguous_run(s.reshape.to()[static_cast<std::size_t>(r)],
                                  tr.region));
        if (!s.reshape.recvs(r).empty()) u += device.kernel_launch;
        c.pre = std::max(c.pre, p);
        c.post = std::max(c.post, u);
      }
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
      for (const Stage& s : plan.stages) {
        const StageCost sc =
            stage_cost(s, out.chunk_batch[static_cast<std::size_t>(c)]);
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
    const double t = overlapped_batch_time(
        plan, c.device, cost,
        c.gpu_aware ? net::TransferMode::GpuAware : net::TransferMode::Staged,
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
  StageRunner runner(c, plan, cost, report, caches, clocks, run);
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
  StageRunner runner(c, p, cost_, scratch, caches, clocks, nullptr);
  runner.run_transform();
  return *std::max_element(clocks.begin(), clocks.end());
}

double Simulator::transform_time(int batch, bool cold) {
  PARFFT_CHECK(batch >= 1, "batch must be positive");
  const std::pair<int, bool> key{batch, cold};
  if (auto it = memo_.find(key); it != memo_.end()) return it->second;
  double t;
  if (batch > 1 && cfg_.options.overlap_batches) {
    t = overlapped_batch_time(
        plan_, cfg_.device, cost_,
        cfg_.gpu_aware ? net::TransferMode::GpuAware
                       : net::TransferMode::Staged,
        cfg_.flavor, batch);
  } else {
    t = run_once(batch, cold);
  }
  memo_.emplace(key, t);
  return t;
}

double Simulator::plan_setup_time() {
  return transform_time(1, /*cold=*/true) - transform_time(1, /*cold=*/false);
}

BatchProfile Simulator::batch_profile(int batch) {
  PARFFT_CHECK(batch >= 1, "batch must be positive");
  if (auto it = profile_memo_.find(batch); it != profile_memo_.end())
    return it->second;
  BatchProfile profile;
  if (batch > 1 && cfg_.options.overlap_batches) {
    overlapped_batch_time(plan_, cfg_.device, cost_,
                          cfg_.gpu_aware ? net::TransferMode::GpuAware
                                         : net::TransferMode::Staged,
                          cfg_.flavor, batch, {}, &profile);
  } else {
    // Single-chunk execution: nothing leaves the device until the end.
    profile.elems = {batch};
    profile.frac = {1.0};
  }
  profile_memo_.emplace(batch, profile);
  return profile;
}

void Simulator::set_nic_scale(double scale) {
  if (scale == cost_.flowsim().nic_scale()) return;
  cost_.flowsim().set_nic_scale(scale);
  memo_.clear();
  profile_memo_.clear();
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
