#include "netsim/flowsim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/paranoid.hpp"

namespace parfft::net {

namespace {

/// A flow's route holds at most 7 links:
/// dev_out, nic_out, core, nic_in, dev_in, and up to two host-staging
/// links in Staged mode.
struct Route {
  std::array<int, 7> link{};
  int nlinks = 0;
  double cap = 0;  ///< per-flow rate cap (infinite = none)
};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

FlowSim::FlowSim(const MachineSpec& spec, const RankMap& map, int nranks)
    : spec_(spec), map_(map), nranks_(nranks),
      nodes_(map.nodes_for(nranks)) {
  PARFFT_CHECK(nranks >= 1, "need at least one rank");
  PARFFT_CHECK(map.ranks_per_node >= 1, "ranks_per_node must be positive");
}

void FlowSim::set_nic_scale(double scale) {
  PARFFT_CHECK(scale > 0 && scale <= 1.0,
               "nic scale must be in (0, 1]: a degraded link still carries "
               "traffic, a healthy one is 1");
  nic_scale_ = scale;
}

std::string link_class_name(const std::string& link_name) {
  if (link_name.rfind("dev_", 0) == 0) return "nvlink";
  if (link_name.rfind("nic_", 0) == 0) return "nic";
  if (link_name.rfind("host_stage", 0) == 0) return "host";
  if (link_name == "core") return "core";
  return "other";
}

namespace {

/// Human-readable link name for the layout documented in FlowSim::run.
std::string link_name(int l, int R, int N) {
  if (l < R) return "dev_out/" + std::to_string(l);
  if (l < 2 * R) return "dev_in/" + std::to_string(l - R);
  if (l < 2 * R + N) return "nic_out/node" + std::to_string(l - 2 * R);
  if (l < 2 * R + 2 * N)
    return "nic_in/node" + std::to_string(l - 2 * R - N);
  if (l < 2 * R + 3 * N)
    return "host_stage/node" + std::to_string(l - 2 * R - 2 * N);
  return "core";
}

/// Accumulates per-link utilization while the filling loop runs.
struct StatsAcc {
  std::vector<double> bytes, peak, util_sum, busy, saturated;
  std::vector<std::vector<std::pair<double, double>>> samples;
  std::vector<double> last_sample;

  explicit StatsAcc(std::size_t L)
      : bytes(L, 0.0), peak(L, 0.0), util_sum(L, 0.0), busy(L, 0.0),
        saturated(L, 0.0), samples(L), last_sample(L, -1.0) {}

  /// One progressive-filling interval [t, t+dt) with allocation
  /// base_cap - resid on every link.
  void interval(double t, double dt, const std::vector<double>& base_cap,
                const std::vector<double>& resid) {
    for (std::size_t l = 0; l < base_cap.size(); ++l) {
      const double rate = std::max(base_cap[l] - resid[l], 0.0);
      peak[l] = std::max(peak[l], rate);
      util_sum[l] += rate * dt;
      if (rate > 0) busy[l] += dt;
      if (rate >= 0.99 * base_cap[l]) saturated[l] += dt;
      if (last_sample[l] < 0 ||
          std::abs(rate - last_sample[l]) > 1e-3 * base_cap[l]) {
        samples[l].push_back({t, rate});
        last_sample[l] = rate;
      }
    }
  }

  void finish(LinkStats& out, double duration,
              const std::vector<double>& base_cap, int R, int N) {
    out.duration = duration;
    for (std::size_t l = 0; l < bytes.size(); ++l) {
      if (bytes[l] <= 0) continue;
      LinkStats::Link link;
      link.name = link_name(static_cast<int>(l), R, N);
      link.capacity = base_cap[l];
      link.bytes = bytes[l];
      link.peak_rate = peak[l];
      link.util_sum = util_sum[l];
      link.busy_time = busy[l];
      link.saturated_time = saturated[l];
      link.samples = std::move(samples[l]);
      // Sample rates are assigned (never computed) values; comparing the
      // final sample against an exact stored 0 is intentional.
      if (!link.samples.empty() &&
          (link.samples.back().second != 0.0 ||  // parfft-lint: allow(float-eq)
           link.samples.back().first < duration))
        link.samples.push_back({duration, 0.0});
      out.links.push_back(std::move(link));
    }
  }
};

/// Paranoid invariants of one progressive-filling step: every flow holds
/// an assigned rate, no link carries more than its capacity (residual
/// stays non-negative up to rounding), and no flow exceeds its per-flow
/// cap. [[maybe_unused]] because non-paranoid builds compile out the
/// call site.
[[maybe_unused]] void check_filling_step(const std::vector<Route>& route,
                                         const std::vector<double>& rate,
                                         const std::vector<char>& assigned,
                                         const std::vector<double>& resid,
                                         const std::vector<double>& cap) {
  for (std::size_t l = 0; l < cap.size(); ++l)
    PARFFT_CHECK(resid[l] >= -1e-9 * std::max(cap[l], 1.0),
                 "flowsim: link oversubscribed after water filling");
  for (std::size_t f = 0; f < rate.size(); ++f) {
    PARFFT_CHECK(assigned[f], "flowsim: flow left without a rate");
    PARFFT_CHECK(rate[f] >= 0, "flowsim: negative flow rate");
    PARFFT_CHECK(rate[f] <= route[f].cap * (1.0 + 1e-9) + 1e-12,
                 "flowsim: flow rate exceeds its per-flow cap");
  }
}

}  // namespace

FlowSim::Fabric FlowSim::fabric(TransferMode mode) const {
  const int R = nranks_, N = nodes_;
  Fabric fab;
  fab.mode = mode;
  fab.dev_out = 0;
  fab.dev_in = R;
  fab.nic_out = 2 * R;
  fab.nic_in = 2 * R + N;
  fab.stage = 2 * R + 2 * N;
  fab.core = 2 * R + 3 * N;
  fab.cap.resize(static_cast<std::size_t>(fab.core + 1));
  for (int r = 0; r < R; ++r) {
    fab.cap[static_cast<std::size_t>(fab.dev_out + r)] = spec_.gpu_gpu_bw;
    fab.cap[static_cast<std::size_t>(fab.dev_in + r)] = spec_.gpu_gpu_bw;
  }
  // Host-staged traffic drives the NIC less efficiently (extra host
  // copies on the injection path), so in Staged mode the effective NIC
  // and core capacities shrink.
  const double nic_eff =
      (mode == TransferMode::Staged ? spec_.staged_nic_efficiency : 1.0) *
      nic_scale_;
  for (int n = 0; n < N; ++n) {
    fab.cap[static_cast<std::size_t>(fab.nic_out + n)] = spec_.nic_bw * nic_eff;
    fab.cap[static_cast<std::size_t>(fab.nic_in + n)] = spec_.nic_bw * nic_eff;
    fab.cap[static_cast<std::size_t>(fab.stage + n)] = spec_.host_stage_bw;
  }
  fab.cap[static_cast<std::size_t>(fab.core)] =
      static_cast<double>(N) * spec_.nic_bw * nic_eff *
      spec_.core_efficiency(N);

  // A single message cannot stripe perfectly across the NIC rails. A
  // staged message is bounded by the staging copies regardless of the
  // network, and a Host-mode message within a node is a shared-memory
  // copy at the same rate.
  fab.self_cap = spec_.hbm_bw / 2.0;
  double nic_cap = spec_.single_flow_nic_fraction * spec_.nic_bw * nic_scale_;
  if (mode == TransferMode::Staged) nic_cap *= spec_.staged_nic_efficiency;
  fab.inter_cap = mode == TransferMode::Staged
                      ? std::min(nic_cap, spec_.gpu_host_bw)
                      : nic_cap;
  fab.intra_cap = mode == TransferMode::GpuAware ? kInf : spec_.gpu_host_bw;
  return fab;
}

void FlowSim::estimate_stats(const Fabric& fab,
                             const std::vector<double>& load,
                             double duration, LinkStats& out) const {
  // Bottleneck estimates: each link runs at its mean rate for the whole
  // phase.
  out.duration = duration;
  for (std::size_t l = 0; l < load.size(); ++l) {
    if (load[l] <= 0) continue;
    LinkStats::Link link;
    link.name = link_name(static_cast<int>(l), nranks_, nodes_);
    link.capacity = fab.cap[l];
    link.bytes = load[l];
    const double mean = duration > 0 ? load[l] / duration : 0.0;
    link.peak_rate = mean;
    link.util_sum = load[l];
    link.busy_time = mean > 0 ? duration : 0.0;
    link.saturated_time = mean >= 0.99 * fab.cap[l] ? duration : 0.0;
    link.samples = {{0.0, mean}, {duration, 0.0}};
    out.links.push_back(std::move(link));
  }
}

void FlowSim::check_estimate(const Fabric& fab, const Tally& first,
                             const Tally& second,
                             const std::vector<double>& load) {
  // Both visits of the source must have seen the same flows in the same
  // order: the same count and the same byte sum, bit for bit.
  PARFFT_CHECK(first.flows == second.flows &&
                   !(first.bytes < second.bytes) &&
                   !(second.bytes < first.bytes),
               "flowsim: flow source changed between its two visits");
  // Every byte that crossed the fabric left one device and entered
  // another (device endpoints are off the route in Host mode), and every
  // byte that left a node's NIC crossed the core and entered another
  // node's NIC. The sums run in different orders; summing n non-negative
  // terms errs by at most about n ulps of the total.
  const auto sum = [&load](int from, int to) {
    double s = 0;
    for (int l = from; l < to; ++l) s += load[static_cast<std::size_t>(l)];
    return s;
  };
  const double ulps = 4.0 * static_cast<double>(first.flows + load.size()) *
                      std::numeric_limits<double>::epsilon();
  const auto near = [ulps](double a, double b) {
    return std::abs(a - b) <= ulps * std::max({std::abs(a), std::abs(b), 1.0});
  };
  if (fab.mode != TransferMode::Host) {
    PARFFT_CHECK(near(sum(fab.dev_out, fab.dev_in), first.fabric_bytes) &&
                     near(sum(fab.dev_in, fab.nic_out), first.fabric_bytes),
                 "flowsim: device links do not conserve the phase's bytes");
  }
  const double core = load[static_cast<std::size_t>(fab.core)];
  PARFFT_CHECK(near(sum(fab.nic_out, fab.nic_in), core) &&
                   near(sum(fab.nic_in, fab.stage), core),
               "flowsim: NIC links do not conserve the core's bytes");
}

void FlowSim::run(std::vector<Flow>& flows, TransferMode mode,
                  LinkStats* stats) const {
  const std::size_t F = flows.size();
  if (F > static_cast<std::size_t>(kExactFlowLimit)) {
    std::size_t f = 0;
    estimate([&flows](auto&& emit) {
               for (const Flow& fl : flows) emit(fl);
             },
             mode,
             [&flows, &f](const Flow&, double finish) {
               flows[f++].finish = finish;
             },
             stats);
    return;
  }
  if (stats) *stats = LinkStats{};

  const Fabric fab = fabric(mode);
  const std::vector<double>& base_cap = fab.cap;
  const int R = nranks_, N = nodes_;
  const int L = static_cast<int>(base_cap.size());
  const auto route_of = [&](const Flow& fl) {
    PARFFT_CHECK(fl.src >= 0 && fl.src < R && fl.dst >= 0 && fl.dst < R,
                 "flow endpoint out of range");
    Route rt;
    rt.cap = fab.route(fl, map_.node_of(fl.src), map_.node_of(fl.dst),
                       [&rt](int l) { rt.link[rt.nlinks++] = l; });
    return rt;
  };

  // Exact progressive filling over per-flow routes and remaining bytes.
  std::vector<Route> route(F);
  std::vector<double> rem(F);
  std::vector<char> done(F, 0);
  double max_bytes = 0;
  for (std::size_t f = 0; f < F; ++f) {
    route[f] = route_of(flows[f]);
    rem[f] = std::max(flows[f].bytes, 0.0);
    max_bytes = std::max(max_bytes, rem[f]);
  }

  std::optional<StatsAcc> acc;
  if (stats) {
    acc.emplace(static_cast<std::size_t>(L));
    for (std::size_t f = 0; f < F; ++f)
      for (int l = 0; l < route[f].nlinks; ++l)
        acc->bytes[static_cast<std::size_t>(route[f].link[l])] += rem[f];
  }

  const double eps = std::max(max_bytes, 1.0) * 1e-12;
  double t = 0;
  std::vector<double> resid(static_cast<std::size_t>(L));
  std::vector<int> nflows(static_cast<std::size_t>(L));
  std::vector<double> rate(F);
  std::vector<char> assigned(F);

  for (std::size_t f = 0; f < F; ++f) {
    if (rem[f] <= eps) {  // empty flow: completes at its start time
      done[f] = 1;
      flows[f].finish = flows[f].start;
    }
  }

  std::size_t remaining = 0;
  for (std::size_t f = 0; f < F; ++f) remaining += done[f] ? 0 : 1;

  while (remaining > 0) {
    // Which flows are active at time t? (start <= t)
    double next_start = kInf;
    bool any_active = false;
    for (std::size_t f = 0; f < F; ++f) {
      if (done[f]) continue;
      if (flows[f].start > t + eps) {
        next_start = std::min(next_start, flows[f].start);
      } else {
        any_active = true;
      }
    }
    if (!any_active) {
      PARFFT_ASSERT(next_start < kInf);
      t = next_start;
      continue;
    }

    // Max-min water filling over the active flows.
    std::copy(base_cap.begin(), base_cap.end(), resid.begin());
    std::fill(nflows.begin(), nflows.end(), 0);
    std::fill(assigned.begin(), assigned.end(), char{0});
    std::size_t unassigned = 0;
    for (std::size_t f = 0; f < F; ++f) {
      if (done[f] || flows[f].start > t + eps) {
        assigned[f] = 1;  // not participating in this step
        rate[f] = 0;
        continue;
      }
      ++unassigned;
      for (int l = 0; l < route[f].nlinks; ++l)
        ++nflows[static_cast<std::size_t>(route[f].link[l])];
    }

    while (unassigned > 0) {
      // Smallest fair share among loaded links.
      double share = kInf;
      int bottleneck = -1;
      for (int l = 0; l < L; ++l) {
        if (nflows[static_cast<std::size_t>(l)] == 0) continue;
        const double s = resid[static_cast<std::size_t>(l)] /
                         nflows[static_cast<std::size_t>(l)];
        if (s < share) {
          share = s;
          bottleneck = l;
        }
      }
      // Per-flow caps smaller than every link share bind all at once.
      double min_cap = kInf;
      for (std::size_t f = 0; f < F; ++f)
        if (!assigned[f]) min_cap = std::min(min_cap, route[f].cap);
      if (min_cap <= share || bottleneck < 0) {
        // Assign every remaining flow whose cap is the binding constraint.
        for (std::size_t f = 0; f < F; ++f) {
          if (assigned[f]) continue;
          if (route[f].cap <= share || bottleneck < 0) {
            rate[f] = route[f].cap;
            assigned[f] = 1;
            --unassigned;
            for (int l = 0; l < route[f].nlinks; ++l) {
              const auto li = static_cast<std::size_t>(route[f].link[l]);
              resid[li] -= rate[f];
              --nflows[li];
            }
          }
        }
        continue;
      }
      // Otherwise saturate the bottleneck link.
      for (std::size_t f = 0; f < F; ++f) {
        if (assigned[f]) continue;
        bool on = false;
        for (int l = 0; l < route[f].nlinks; ++l)
          if (route[f].link[l] == bottleneck) on = true;
        if (!on) continue;
        rate[f] = std::min(share, route[f].cap);
        assigned[f] = 1;
        --unassigned;
        for (int l = 0; l < route[f].nlinks; ++l) {
          const auto li = static_cast<std::size_t>(route[f].link[l]);
          resid[li] -= rate[f];
          --nflows[li];
        }
      }
      nflows[static_cast<std::size_t>(bottleneck)] = 0;  // fully allocated
    }
    PARFFT_IF_PARANOID(check_filling_step(route, rate, assigned, resid,
                                          base_cap));

    // Advance to the earliest completion or the next flow start.
    double dt = next_start < kInf ? next_start - t : kInf;
    for (std::size_t f = 0; f < F; ++f) {
      if (done[f] || flows[f].start > t + eps || rate[f] <= 0) continue;
      dt = std::min(dt, rem[f] / rate[f]);
    }
    PARFFT_ASSERT(dt < kInf && dt >= 0);
    if (acc) acc->interval(t, dt, base_cap, resid);
    t += dt;
    for (std::size_t f = 0; f < F; ++f) {
      if (done[f] || flows[f].start > t + eps) continue;
      rem[f] -= rate[f] * dt;
      if (rem[f] <= eps) {
        done[f] = 1;
        flows[f].finish = t;
        --remaining;
      }
    }
  }

  // Flow conservation: every byte was served and no flow finished before
  // it started.
  for (std::size_t f = 0; f < F; ++f) {
    PARFFT_PARANOID_ASSERT(rem[f] <= eps);
    PARFFT_PARANOID_ASSERT(flows[f].finish >= flows[f].start - eps);
  }

  if (acc) {
    double duration = t;
    for (const Flow& fl : flows) duration = std::max(duration, fl.finish);
    acc->finish(*stats, duration, base_cap, R, N);
  }
}

double FlowSim::single_flow_time(int src, int dst, double bytes,
                                 TransferMode mode) const {
  std::vector<Flow> one = {{src, dst, bytes, 0, 0, 0}};
  run(one, mode);
  return one[0].finish;
}

}  // namespace parfft::net
