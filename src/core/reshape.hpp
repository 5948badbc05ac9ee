#pragma once
/// \file reshape.hpp
/// Global reshape planning: given the brick each rank owns before and after
/// a transfer phase, compute every rank's send/receive lists by box
/// intersection. This is the "transfer / remap / reshape" step of the
/// paper's Algorithm 1 (and the sub-array exchange of Algorithm 2), and is
/// pure index math -- shared verbatim by the threaded executor and the
/// at-scale simulator so both use identical communication patterns.

#include <vector>

#include "core/box.hpp"
#include "netsim/collectives.hpp"

namespace parfft::core {

/// One transfer: the overlap `region` (global coordinates) exchanged with
/// `peer` (rank index).
struct Transfer {
  int peer = -1;
  Box3 region;
};

class ReshapePlan {
 public:
  /// Builds the plan for moving data from layout `from` to layout `to`
  /// (one box per rank; empty boxes mean the rank holds nothing). The two
  /// layouts must cover the same index set for the data to be preserved --
  /// not checked here, but guaranteed by the stage builder.
  static ReshapePlan create(std::vector<Box3> from, std::vector<Box3> to);

  int nranks() const { return static_cast<int>(from_.size()); }
  const std::vector<Box3>& from() const { return from_; }
  const std::vector<Box3>& to() const { return to_; }
  /// Transfers rank `r` sends, ascending by peer (self included).
  const std::vector<Transfer>& sends(int r) const;
  /// Transfers rank `r` receives, ascending by peer (self included).
  const std::vector<Transfer>& recvs(int r) const;

  /// True when the regions rank `r` receives lie in its destination box,
  /// are pairwise disjoint and cover it: a reshape then writes every
  /// element of the destination exactly once.
  bool recvs_tile(int r) const;

  /// True when every rank keeps exactly its own data (no communication).
  bool is_identity() const;

  /// Sparse byte matrix for the cost model; `batch` scales every payload
  /// (batched transforms fuse the batch into each message). Self-overlaps
  /// are included (they cost a local copy).
  net::SendMatrix send_matrix(int batch = 1) const;

  /// Total bytes rank `r` sends to other ranks (excluding self).
  double send_bytes(int r, int batch = 1) const;

  /// Largest packed send/recv footprint over all ranks, in elements
  /// (buffer sizing).
  idx_t max_send_elements(int r) const;
  idx_t max_recv_elements(int r) const;

 private:
  std::vector<Box3> from_, to_;
  std::vector<std::vector<Transfer>> sends_, recvs_;
};

}  // namespace parfft::core
