#pragma once
/// \file flowsim.hpp
/// Flow-level network simulator.
///
/// A communication phase is a set of flows (rank -> rank, bytes). The fabric
/// is a small link graph: per-GPU device in/out links, per-node NIC in/out
/// links, and one aggregate fat-tree core link. Completion times come from
/// progressive filling: at every instant each active flow gets its max-min
/// fair-share rate, we advance to the earliest flow completion, and repeat.
/// This is the same fluid model used by simulators such as SimGrid and is
/// what makes the paper's congestion phenomena (NIC saturation, per-process
/// bandwidth collapse at scale, Fig. 4) emerge rather than being hard-coded.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/paranoid.hpp"
#include "netsim/machine.hpp"

namespace parfft::net {

/// One transfer within a phase. `start` lets callers model posting
/// serialization (blocking sends, CPU injection overhead). `finish` is
/// filled by FlowSim::run with the transport completion time; per-message
/// latency and software overheads are added by the caller (CommCost).
struct Flow {
  int src = 0;
  int dst = 0;
  double bytes = 0;
  double start = 0;
  double rate_cap = 0;  ///< optional per-flow rate cap; 0 = none
  double finish = 0;    ///< output
};

/// Above this flow count a phase switches from exact progressive filling
/// to a bottleneck estimate (FlowSim::estimate): exact for symmetric
/// phases, otherwise neither an upper nor a lower bound on the exact
/// solve. The estimate reads a wide phase as a stream of flows visited
/// twice and stores none of them, so its memory is O(links + ranks)
/// whatever the flow count: a padded MPI_Alltoall over one component of
/// G ranks is G^2 flows (9.4M at 3072 ranks), generated, never stored.
inline constexpr int kExactFlowLimit = 1024;

/// Per-link utilization observed during one simulated phase -- the
/// contention state that makes the paper's bandwidth collapse (Fig. 4)
/// emerge, made visible. Only links that carried traffic are reported.
/// In the exact progressive-filling regime every figure is exact. Above
/// kExactFlowLimit only `bytes` is exact (the per-link loads the
/// estimate sums on its first visit of the flow stream); the rates and
/// times assume each link runs at its mean rate for the
/// bottleneck-estimated phase duration.
struct LinkStats {
  struct Link {
    std::string name;       ///< "dev_out/3", "nic_in/node0", "core", ...
    double capacity = 0;    ///< bytes/s
    double bytes = 0;       ///< payload carried across the phase
    double peak_rate = 0;   ///< max allocated rate, bytes/s
    double util_sum = 0;    ///< integral of allocated rate over time
    double busy_time = 0;   ///< seconds with any allocated rate
    double saturated_time = 0;  ///< seconds at >= 99% of capacity
    /// Step samples (t, allocated rate) for counter-track export.
    std::vector<std::pair<double, double>> samples;

    double mean_rate(double duration) const {
      return duration > 0 ? util_sum / duration : 0.0;
    }
    double saturated_fraction(double duration) const {
      return duration > 0 ? saturated_time / duration : 0.0;
    }
  };
  double duration = 0;  ///< phase completion time
  std::vector<Link> links;
};

/// Classifies a LinkStats link name into its hardware class:
/// "dev_out/3" / "dev_in/3" -> "nvlink" (intra-node device fabric),
/// "nic_out/node0" / "nic_in/node0" -> "nic" (injection links),
/// "host_stage/node0" -> "host" (staging copies), "core" -> "core"
/// (inter-switch fat-tree core). Unknown names map to "other".
std::string link_class_name(const std::string& link_name);

class FlowSim {
 public:
  /// The fabric for `nranks` ranks mapped by `map`; link capacities come
  /// from `spec`. The core capacity scales with the number of occupied
  /// nodes and the machine's core efficiency curve.
  FlowSim(const MachineSpec& spec, const RankMap& map, int nranks);

  /// Simulates one phase under the given transfer mode, filling each
  /// flow's `finish`. Flows with src == dst complete at bytes / (hbm/2)
  /// (a local device copy). Thread-safe: `run` is const and keeps all
  /// mutable state on the stack. When `stats` is non-null it receives the
  /// phase's per-link utilization record. A phase of more than
  /// kExactFlowLimit flows is priced by estimate() over the vector.
  void run(std::vector<Flow>& flows, TransferMode mode,
           LinkStats* stats = nullptr) const;

  /// run() for a phase given as a flow source rather than a vector, so
  /// that a wide phase need never be stored. `source(emit)` calls
  /// `emit(const Flow&)` once per flow (its `finish` is ignored), in the
  /// same order on every call; `nflows` is how many flows it emits.
  /// `sink(const Flow&, double finish)` then receives every flow with its
  /// finish time, in that order. Above kExactFlowLimit this is estimate();
  /// otherwise the flows are collected and solved exactly by run().
  template <class Source, class Sink>
  void run(std::size_t nflows, Source&& source, TransferMode mode,
           Sink&& sink, LinkStats* stats = nullptr) const;

  /// Transport time of a single message with an otherwise idle fabric.
  double single_flow_time(int src, int dst, double bytes,
                          TransferMode mode) const;

  /// Mutable link health: scales every NIC injection link and the
  /// fat-tree core by `scale` (0 < scale <= 1). Models inter-node fabric
  /// degradation -- one rail of Summit's dual-rail EDR down is 0.5, a
  /// flapping Slingshot link some smaller fraction. Subsequent run() /
  /// single_flow_time() calls price flows against the degraded fabric;
  /// callers holding in-flight phase times must re-run them to reprice.
  /// Intra-node NVLink and host-staging paths are unaffected.
  void set_nic_scale(double scale);
  double nic_scale() const { return nic_scale_; }

  const MachineSpec& spec() const { return spec_; }
  const RankMap& map() const { return map_; }
  int nranks() const { return nranks_; }
  int nodes() const { return nodes_; }

 private:
  /// The bottleneck estimate of one phase, read from a flow source (see
  /// the streamed run()) that it visits twice and never stores. Each flow
  /// runs at min(its rate cap, its most loaded link's capacity split by
  /// byte share): finish = start + max(bytes / cap, max over the links of
  /// its route of load / capacity). The first visit sums each link's load
  /// in flow order; the second hands each flow's finish to `sink`. It is
  /// exact for symmetric phases; for uneven ones it is an estimate, not a
  /// bound in either direction: against the exact solve, Fig. 8's points
  /// come out 0.6-1.9% low and Fig. 9's 1536-GPU point 2.5% high. Memory
  /// is O(links + ranks); per flow the loop does table lookups, adds and
  /// maxes, and one division per distinct (bytes, cap) run.
  template <class Source, class Sink>
  void estimate(Source&& source, TransferMode mode, Sink&& sink,
                LinkStats* stats = nullptr) const;

  /// The link graph of one phase under one transfer mode. Link layout:
  /// [0,R) dev_out, [R,2R) dev_in, [2R,2R+N) nic_out, [2R+N,2R+2N)
  /// nic_in, [2R+2N,2R+3N) host staging (used by Staged flows: all ranks
  /// of a node share the host-memory path), [2R+3N] core.
  struct Fabric {
    TransferMode mode = TransferMode::GpuAware;
    int dev_out = 0, dev_in = 0, nic_out = 0, nic_in = 0, stage = 0,
        core = 0;
    std::vector<double> cap;  ///< base capacity of each link
    /// Per-flow rate caps by route class: a local device copy, a message
    /// within a node and one between nodes.
    double self_cap = 0, intra_cap = 0, inter_cap = 0;

    /// Calls `link(l)` for each link on the route of `fl`, whose
    /// endpoints live on the given nodes, in route order, and returns the
    /// flow's rate cap. A local device copy (src == dst) has no links.
    template <class Link>
    double route(const Flow& fl, int src_node, int dst_node,
                 Link&& link) const;
  };

  /// Flow count and byte sum of one visit of a flow source, and the bytes
  /// of its flows that cross the fabric (src != dst). Paranoid builds
  /// tally both visits of estimate() and compare them.
  struct Tally {
    std::size_t flows = 0;
    double bytes = 0, fabric_bytes = 0;
    void add(const Flow& fl, double b) {
      ++flows;
      bytes += b;
      if (fl.src != fl.dst) fabric_bytes += b;
    }
  };

  Fabric fabric(TransferMode mode) const;
  /// Mean-rate LinkStats of an estimated phase.
  void estimate_stats(const Fabric& fab, const std::vector<double>& load,
                      double duration, LinkStats& out) const;
  /// Paranoid checks of estimate(): both visits saw the same flows, and
  /// the link loads conserve the bytes that crossed the fabric.
  static void check_estimate(const Fabric& fab, const Tally& first,
                             const Tally& second,
                             const std::vector<double>& load);

  MachineSpec spec_;
  RankMap map_;
  int nranks_;
  int nodes_;
  double nic_scale_ = 1.0;
};

template <class Link>
double FlowSim::Fabric::route(const Flow& fl, int src_node, int dst_node,
                              Link&& link) const {
  const double own = fl.rate_cap > 0 ? fl.rate_cap
                                     : std::numeric_limits<double>::infinity();
  if (fl.src == fl.dst) return std::min(own, self_cap);  // local device copy
  const bool same_node = src_node == dst_node;
  const bool device_endpoints = mode != TransferMode::Host;
  if (device_endpoints) link(dev_out + fl.src);
  if (!same_node) {
    link(nic_out + src_node);
    link(core);
    link(nic_in + dst_node);
  }
  if (device_endpoints) link(dev_in + fl.dst);
  if (mode == TransferMode::Staged) {
    // Pipelined device->host->host->device path sharing the node-wide
    // host-memory path with every other staging rank.
    link(stage + src_node);
    if (!same_node) link(stage + dst_node);
  }
  return std::min(own, same_node ? intra_cap : inter_cap);
}

template <class Source, class Sink>
void FlowSim::run(std::size_t nflows, Source&& source, TransferMode mode,
                  Sink&& sink, LinkStats* stats) const {
  if (nflows > static_cast<std::size_t>(kExactFlowLimit)) {
    estimate(source, mode, sink, stats);
    return;
  }
  std::vector<Flow> flows;
  flows.reserve(nflows);
  source([&flows](const Flow& fl) { flows.push_back(fl); });
  run(flows, mode, stats);
  for (const Flow& fl : flows) sink(fl, fl.finish);
}

template <class Source, class Sink>
void FlowSim::estimate(Source&& source, TransferMode mode, Sink&& sink,
                       LinkStats* stats) const {
  if (stats) *stats = LinkStats{};
  const Fabric fab = fabric(mode);
  std::vector<int> node(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r)
    node[static_cast<std::size_t>(r)] = map_.node_of(r);
  const auto route = [&](const Flow& fl, auto&& link) {
    PARFFT_CHECK(fl.src >= 0 && fl.src < nranks_ && fl.dst >= 0 &&
                     fl.dst < nranks_,
                 "flow endpoint out of range");
    return fab.route(fl, node[static_cast<std::size_t>(fl.src)],
                     node[static_cast<std::size_t>(fl.dst)], link);
  };

  // First visit: each link's load, summed in flow order. The core link,
  // on every inter-node route, sums in a register.
  std::vector<double> load(fab.cap.size(), 0.0);
  double core_load = 0;
  Tally first, second;
  source([&](const Flow& fl) {
    const double bytes = std::max(fl.bytes, 0.0);
    PARFFT_IF_PARANOID(first.add(fl, bytes));
    route(fl, [&](int l) {
      if (l == fab.core)
        core_load += bytes;
      else
        load[static_cast<std::size_t>(l)] += bytes;
    });
  });
  load[static_cast<std::size_t>(fab.core)] = core_load;

  // Second visit: a flow's time is that of its route's most contended
  // link serving all its traffic at full rate (fair share of a saturated
  // link gives every byte equal service), or its own capped transfer.
  std::vector<double> busy(load.size());
  for (std::size_t l = 0; l < load.size(); ++l) busy[l] = load[l] / fab.cap[l];
  double duration = 0;
  double last_bytes = 0, last_cap = 0, last_time = 0;
  source([&](const Flow& fl) {
    const double bytes = std::max(fl.bytes, 0.0);
    PARFFT_IF_PARANOID(second.add(fl, bytes));
    double finish = fl.start;
    if (bytes > 0) {  // an empty flow completes at its start
      double busiest = 0;
      const double cap = route(fl, [&](int l) {
        busiest = std::max(busiest, busy[static_cast<std::size_t>(l)]);
      });
      // Flows come in runs of one block size and route class.
      if (bytes != last_bytes || cap != last_cap) {
        last_bytes = bytes;
        last_cap = cap;
        last_time = bytes / cap;
      }
      finish = fl.start + std::max(last_time, busiest);
    }
    PARFFT_PARANOID_ASSERT(finish >= fl.start);
    if (stats) duration = std::max(duration, finish);
    sink(fl, finish);
  });
  PARFFT_IF_PARANOID(check_estimate(fab, first, second, load));
  if (stats) estimate_stats(fab, load, duration, *stats);
}

}  // namespace parfft::net
