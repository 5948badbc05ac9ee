#pragma once
/// \file reshape.hpp
/// Global reshape planning: given the brick each rank owns before and after
/// a transfer phase, compute every rank's send/receive lists by box
/// intersection. This is the "transfer / remap / reshape" step of the
/// paper's Algorithm 1 (and the sub-array exchange of Algorithm 2), and is
/// pure index math -- shared verbatim by the threaded executor and the
/// at-scale simulator so both use identical communication patterns.

#include <array>
#include <cstddef>
#include <cstdint>
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

/// One block of a reshape as the plan stores it: the overlap of rank
/// `from`'s source box and rank `to`'s destination box, its corners in
/// 32-bit global coordinates. 32 bytes and aligned to them, so a block
/// never straddles a cache line.
struct alignas(32) ReshapeBlock {
  std::array<std::int32_t, 3> lo, hi;
  std::int32_t from, to;

  Box3 region() const {
    return {{lo[0], lo[1], lo[2]}, {hi[0], hi[1], hi[2]}};
  }
};

/// One rank's side of a reshape, ascending by peer: a run of the plan's
/// blocks read in place (sends) or through the receive index (recvs).
/// Yields Transfer values whose peer is the other rank; valid while the
/// plan lives.
class TransferRange {
 public:
  /// Iterator for range-for; dereferencing yields a value.
  class iterator {
   public:
    Transfer operator*() const { return at(blocks_, index_, k_); }
    iterator& operator++() {
      ++k_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return k_ != o.k_; }

   private:
    friend class TransferRange;
    iterator(const ReshapeBlock* blocks, const std::uint32_t* index,
             std::size_t k)
        : blocks_(blocks), index_(index), k_(k) {}
    const ReshapeBlock* blocks_;
    const std::uint32_t* index_;
    std::size_t k_;
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Transfer operator[](std::size_t k) const { return at(blocks_, index_, k); }
  iterator begin() const { return {blocks_, index_, 0}; }
  iterator end() const { return {blocks_, index_, size_}; }

 private:
  friend class ReshapePlan;
  TransferRange(const ReshapeBlock* blocks, const std::uint32_t* index,
                std::size_t size)
      : blocks_(blocks), index_(index), size_(size) {}
  static Transfer at(const ReshapeBlock* blocks, const std::uint32_t* index,
                     std::size_t k) {
    if (index == nullptr) return {blocks[k].to, blocks[k].region()};
    const ReshapeBlock& b = blocks[index[k]];
    return {b.from, b.region()};
  }
  const ReshapeBlock* blocks_;
  const std::uint32_t* index_;  ///< nullptr: the blocks are the range
  std::size_t size_;
};

/// A reshape in compressed sparse row form: one block array ordered by
/// sender (and by receiver within a sender) with per-sender offsets, and
/// the receive side as an index into it, counting-sorted by receiver with
/// per-receiver offsets. 36 bytes per block, 8 per rank; every array is
/// allocated once, at its final size. Box corners must fit in 32 bits.
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
  TransferRange sends(int r) const;
  /// Transfers rank `r` receives, ascending by peer (self included).
  TransferRange recvs(int r) const;
  /// Blocks of all ranks, in send order.
  std::size_t block_count() const { return blocks_.size(); }

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

  /// Total elements rank `r` sends (receives), self included: its packed
  /// send (receive) footprint, for buffer sizing.
  idx_t max_send_elements(int r) const;
  idx_t max_recv_elements(int r) const;

 private:
  std::vector<Box3> from_, to_;
  std::vector<ReshapeBlock> blocks_;        ///< by sender, then receiver
  std::vector<std::uint32_t> send_start_;   ///< R + 1 offsets into blocks_
  std::vector<std::uint32_t> recv_index_;   ///< blocks_ by receiver, then sender
  std::vector<std::uint32_t> recv_start_;   ///< R + 1 offsets into recv_index_
};

}  // namespace parfft::core
