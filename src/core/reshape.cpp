#include "core/reshape.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/error.hpp"

namespace parfft::core {

namespace {

/// Index of a box layout: the distinct box edges along each axis cut space
/// into a grid of cells, and every cell lists (ascending) the boxes that
/// touch it. Two boxes can only overlap if they share a cell, so a query
/// visits the boxes near it rather than all of them. When the edges would
/// make more than O(boxes) cells (arbitrary, non-tiling layouts), every
/// other edge of the finest axis is dropped until they do not; coarser
/// cells only add candidates, never lose one.
class BoxIndex {
 public:
  explicit BoxIndex(const std::vector<Box3>& boxes)
      : seen_(boxes.size(), 0) {
    for (std::size_t a = 0; a < 3; ++a) {
      for (const Box3& b : boxes) {
        if (b.empty()) continue;
        edges_[a].push_back(b.lo[a]);
        edges_[a].push_back(b.hi[a] + 1);
      }
      std::sort(edges_[a].begin(), edges_[a].end());
      edges_[a].erase(std::unique(edges_[a].begin(), edges_[a].end()),
                      edges_[a].end());
    }
    if (edges_[0].empty()) return;  // every box is empty

    const std::size_t budget = std::max<std::size_t>(64, 4 * boxes.size());
    while (cells(0) * cells(1) * cells(2) > budget) {
      std::size_t a = 0;
      for (std::size_t b = 1; b < 3; ++b)
        if (cells(b) > cells(a)) a = b;
      std::vector<idx_t>& e = edges_[a];
      std::vector<idx_t> kept;
      kept.reserve(e.size() / 2 + 2);
      for (std::size_t i = 0; i < e.size(); i += 2) kept.push_back(e[i]);
      if (kept.back() != e.back()) kept.push_back(e.back());
      e = std::move(kept);
    }

    // Cell lists in CSR form, filled in ascending box order.
    start_.assign(cells(0) * cells(1) * cells(2) + 1, 0);
    for (const Box3& b : boxes)
      for_each_cell(b, [&](std::size_t c) { ++start_[c + 1]; });
    for (std::size_t c = 1; c < start_.size(); ++c) start_[c] += start_[c - 1];
    items_.resize(start_.back());
    std::vector<std::size_t> fill(start_.begin(), start_.end() - 1);
    for (std::size_t i = 0; i < boxes.size(); ++i)
      for_each_cell(boxes[i],
                    [&](std::size_t c) { items_[fill[c]++] = static_cast<int>(i); });
  }

  /// Every indexed box that shares a cell with `b`, ascending and without
  /// repeats; valid until the next call.
  const std::vector<int>& candidates(const Box3& b) {
    near_.clear();
    if (start_.empty()) return near_;
    ++query_;
    for_each_cell(b, [&](std::size_t c) {
      for (std::size_t k = start_[c]; k < start_[c + 1]; ++k) {
        const auto d = static_cast<std::size_t>(items_[k]);
        if (seen_[d] == query_) continue;
        seen_[d] = query_;
        near_.push_back(items_[k]);
      }
    });
    std::sort(near_.begin(), near_.end());
    return near_;
  }

 private:
  std::size_t cells(std::size_t a) const { return edges_[a].size() - 1; }

  /// Calls `f(cell)` for every cell the non-empty box `b` touches.
  template <class F>
  void for_each_cell(const Box3& b, F&& f) const {
    if (b.empty()) return;
    std::array<std::size_t, 3> lo{}, hi{};
    for (std::size_t a = 0; a < 3; ++a) {
      // Cell m spans [e[m], e[m+1]); the box spans [lo, hi + 1).
      const std::vector<idx_t>& e = edges_[a];
      const auto first =
          std::upper_bound(e.begin(), e.end(), b.lo[a]) - e.begin();
      const auto last =
          std::lower_bound(e.begin(), e.end(), b.hi[a] + 1) - e.begin();
      if (last < 1 || first > static_cast<std::ptrdiff_t>(cells(a))) return;
      lo[a] = first > 0 ? static_cast<std::size_t>(first - 1) : 0;
      hi[a] = std::min(static_cast<std::size_t>(last - 1), cells(a) - 1);
    }
    for (std::size_t i = lo[0]; i <= hi[0]; ++i)
      for (std::size_t j = lo[1]; j <= hi[1]; ++j)
        for (std::size_t k = lo[2]; k <= hi[2]; ++k)
          f((i * cells(1) + j) * cells(2) + k);
  }

  std::array<std::vector<idx_t>, 3> edges_;
  std::vector<std::size_t> start_;
  std::vector<int> items_;
  // Query scratch: seen_[d] == query_ once box d is in near_.
  std::vector<std::size_t> seen_;
  std::size_t query_ = 0;
  std::vector<int> near_;
};

}  // namespace

ReshapePlan ReshapePlan::create(std::vector<Box3> from, std::vector<Box3> to) {
  PARFFT_CHECK(from.size() == to.size(),
               "layouts must have one box per rank");
  PARFFT_CHECK(!from.empty(), "need at least one rank");
  ReshapePlan plan;
  const auto fits = [](const Box3& b) {
    for (std::size_t a = 0; a < 3; ++a)
      if (b.lo[a] < INT32_MIN || b.hi[a] > INT32_MAX) return false;
    return true;
  };
  for (const std::vector<Box3>* layout : {&from, &to})
    for (const Box3& b : *layout)
      PARFFT_CHECK(b.empty() || fits(b),
                   "reshape box corners must fit in 32 bits");
  plan.from_ = std::move(from);
  plan.to_ = std::move(to);
  const auto R = static_cast<std::size_t>(plan.nranks());
  plan.send_start_.assign(R + 1, 0);
  plan.recv_start_.assign(R + 1, 0);

  // Pass 1: each source box is intersected only with the destination
  // boxes it can overlap, in ascending destination order; the receivers
  // of the non-empty overlaps are kept, and counted per receiver.
  std::vector<std::uint32_t> dest;
  {
    BoxIndex index(plan.to_);
    for (std::size_t s = 0; s < R; ++s) {
      const Box3& fb = plan.from_[s];
      for (int d : index.candidates(fb)) {
        if (intersect(fb, plan.to_[static_cast<std::size_t>(d)]).empty())
          continue;
        dest.push_back(static_cast<std::uint32_t>(d));
        ++plan.recv_start_[static_cast<std::size_t>(d) + 1];
      }
      PARFFT_CHECK(dest.size() <= UINT32_MAX, "too many reshape blocks");
      plan.send_start_[s + 1] = static_cast<std::uint32_t>(dest.size());
    }
  }
  for (std::size_t d = 1; d <= R; ++d)
    plan.recv_start_[d] += plan.recv_start_[d - 1];

  // Pass 2: store the blocks in send order, and counting-sort them by
  // receiver into the index; senders ascend within each receiver.
  plan.blocks_.reserve(dest.size());
  plan.recv_index_.resize(dest.size());
  std::vector<std::uint32_t> fill(plan.recv_start_.begin(),
                                  plan.recv_start_.end() - 1);
  for (std::size_t s = 0; s < R; ++s)
    for (std::uint32_t k = plan.send_start_[s]; k < plan.send_start_[s + 1];
         ++k) {
      const std::uint32_t d = dest[k];
      const Box3 ov = intersect(plan.from_[s], plan.to_[d]);
      ReshapeBlock& b = plan.blocks_.emplace_back();
      for (std::size_t a = 0; a < 3; ++a) {
        b.lo[a] = static_cast<std::int32_t>(ov.lo[a]);
        b.hi[a] = static_cast<std::int32_t>(ov.hi[a]);
      }
      b.from = static_cast<std::int32_t>(s);
      b.to = static_cast<std::int32_t>(d);
      plan.recv_index_[fill[d]++] = k;
    }
  return plan;
}

TransferRange ReshapePlan::sends(int r) const {
  PARFFT_CHECK(r >= 0 && r < nranks(), "rank out of range");
  const auto ur = static_cast<std::size_t>(r);
  return {blocks_.data() + send_start_[ur], nullptr,
          send_start_[ur + 1] - send_start_[ur]};
}

TransferRange ReshapePlan::recvs(int r) const {
  PARFFT_CHECK(r >= 0 && r < nranks(), "rank out of range");
  const auto ur = static_cast<std::size_t>(r);
  return {blocks_.data(), recv_index_.data() + recv_start_[ur],
          recv_start_[ur + 1] - recv_start_[ur]};
}

bool ReshapePlan::recvs_tile(int r) const {
  const Box3& to = to_[static_cast<std::size_t>(r)];
  const TransferRange in = recvs(r);
  idx_t cells = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Box3 region = in[i].region;
    if (!(intersect(to, region) == region)) return false;
    for (std::size_t j = 0; j < i; ++j)
      if (!intersect(region, in[j].region).empty()) return false;
    cells += region.count();
  }
  return cells == to.count();
}

bool ReshapePlan::is_identity() const {
  for (int r = 0; r < nranks(); ++r)
    if (!(from_[static_cast<std::size_t>(r)] == to_[static_cast<std::size_t>(r)]))
      return false;
  return true;
}

net::SendMatrix ReshapePlan::send_matrix(int batch) const {
  net::SendMatrix m(static_cast<std::size_t>(nranks()));
  for (int r = 0; r < nranks(); ++r) {
    const TransferRange out = sends(r);
    auto& row = m[static_cast<std::size_t>(r)];
    row.reserve(out.size());
    for (const Transfer& t : out)
      row.push_back({t.peer, static_cast<double>(t.region.count()) * batch *
                                 static_cast<double>(sizeof(cplx))});
  }
  return m;
}

idx_t ReshapePlan::max_send_elements(int r) const {
  idx_t n = 0;
  for (const Transfer& t : sends(r)) n += t.region.count();
  return n;
}

idx_t ReshapePlan::max_recv_elements(int r) const {
  idx_t n = 0;
  for (const Transfer& t : recvs(r)) n += t.region.count();
  return n;
}

}  // namespace parfft::core
