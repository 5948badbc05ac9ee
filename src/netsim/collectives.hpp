#pragma once
/// \file collectives.hpp
/// Cost models of the MPI exchange families the paper compares (Table I and
/// Section II): optimized Alltoall / Alltoallv (pairwise-exchange rounds,
/// with padding for the non-v variant), the naive Alltoallw storm used for
/// Algorithm 2, and point-to-point storms (blocking / non-blocking).
///
/// All of them drive the shared FlowSim, so library-level differences
/// (padding, datatype processing, GPU-awareness, RDMA peer pressure) are the
/// only distinctions -- exactly the mechanisms the paper identifies.

#include <utility>
#include <vector>

#include "netsim/flowsim.hpp"

namespace parfft::net {

/// Sparse send lists for one exchange: sends[i] = {(j, bytes), ...} where i
/// and j index positions within the participating group.
using SendMatrix = std::vector<std::vector<std::pair<int, double>>>;

/// The exchange algorithm used for a reshape, mirroring Table I.
enum class CollectiveAlg {
  Alltoall,        ///< MPI_Alltoall: pairwise rounds, padded to max block
  Alltoallv,       ///< MPI_Alltoallv: pairwise rounds, exact counts
  Alltoallw,       ///< MPI_Alltoallw: naive Isend/Irecv storm + datatypes
  P2PBlocking,     ///< MPI_Send + MPI_Irecv + waitany
  P2PNonBlocking,  ///< MPI_Isend + MPI_Irecv + waitany
};

/// True for the two point-to-point families.
bool is_p2p(CollectiveAlg alg);

/// Result of one exchange phase.
struct PhaseTimes {
  double total = 0;             ///< phase completion (max over ranks)
  std::vector<double> per_rank; ///< completion per group position
  double max_block = 0;         ///< padded block size (Alltoall only)
  double moved_bytes = 0;       ///< payload actually transferred
};

/// Computes exchange costs for a fixed machine / rank layout.
class CommCost {
 public:
  CommCost(const MachineSpec& spec, const RankMap& map, int world_ranks);

  /// Cost of one exchange over `group` (distinct global rank ids; order
  /// defines group positions). `sends[i]` lists destinations as positions
  /// within the group. `mode` is the transfer path actually used; note SpectrumMPI
  /// has no GPU-aware Alltoallw, so callers asking for
  /// {Alltoallw, GpuAware, SpectrumMPI} are silently downgraded to Staged,
  /// as on the real machine (Section II, footnote). When `stats` is
  /// non-null it receives the fabric's per-link utilization for this phase
  /// (empty for the Bruck small-message path, which FlowSim does not solve;
  /// its rounds still run at the NIC rate scaled by FlowSim::nic_scale()).
  PhaseTimes exchange(const std::vector<int>& group, const SendMatrix& sends,
                      CollectiveAlg alg, TransferMode mode, MpiFlavor flavor,
                      LinkStats* stats = nullptr) const;

  /// Single isolated message cost (latency + overhead + transport).
  double point_to_point(int src, int dst, double bytes,
                        TransferMode mode) const;

  const FlowSim& flowsim() const { return sim_; }
  /// Mutable access for fault injection: degrading links through
  /// FlowSim::set_nic_scale() makes every later exchange() reprice
  /// against the degraded fabric.
  FlowSim& flowsim() { return sim_; }

 private:
  PhaseTimes pairwise_rounds(const std::vector<int>& group,
                             const SendMatrix& sends, bool padded,
                             TransferMode mode, LinkStats* stats) const;
  PhaseTimes storm(const std::vector<int>& group, const SendMatrix& sends,
                   CollectiveAlg alg, TransferMode mode,
                   LinkStats* stats) const;
  double per_message_overhead(TransferMode mode, double bytes) const;

  FlowSim sim_;
};

}  // namespace parfft::net
