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

#include <string>
#include <utility>
#include <vector>

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
/// to a bottleneck estimate (see flowsim.cpp): exact for symmetric
/// phases, otherwise neither an upper nor a lower bound on the exact
/// solve.
inline constexpr int kExactFlowLimit = 1024;

/// Per-link utilization observed during one simulated phase -- the
/// contention state that makes the paper's bandwidth collapse (Fig. 4)
/// emerge, made visible. Only links that carried traffic are reported.
/// In the exact progressive-filling regime every figure is exact. Above
/// kExactFlowLimit only `bytes` is exact; the rates and times assume
/// each link runs at its mean rate for the bottleneck-estimated phase
/// duration.
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
  /// phase's per-link utilization record.
  void run(std::vector<Flow>& flows, TransferMode mode,
           LinkStats* stats = nullptr) const;

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
  MachineSpec spec_;
  RankMap map_;
  int nranks_;
  int nodes_;
  double nic_scale_ = 1.0;
};

}  // namespace parfft::net
