// Pack/unpack kernels, local transposes, and reshape planning. The
// property tests drive random layouts and assert exact coverage: every
// global element is sent exactly once and received exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "core/pack.hpp"
#include "core/reshape.hpp"

namespace parfft::core {
namespace {

TEST(Pack, RoundTripSubBrick) {
  const Box3 local{{0, 0, 0}, {3, 3, 3}};
  const Box3 region{{1, 2, 0}, {2, 3, 3}};
  Rng rng(1);
  auto data = rng.complex_vector(static_cast<std::size_t>(local.count()));
  std::vector<cplx> packed(static_cast<std::size_t>(region.count()));
  pack_box(data.data(), local, region, packed.data());
  // Packed data is row-major over the region.
  idx_t k = 0;
  for (idx_t i0 = 1; i0 <= 2; ++i0)
    for (idx_t i1 = 2; i1 <= 3; ++i1)
      for (idx_t i2 = 0; i2 <= 3; ++i2)
        EXPECT_EQ(packed[static_cast<std::size_t>(k++)],
                  data[static_cast<std::size_t>(local.offset_of({i0, i1, i2}))]);
  // Unpack into a fresh brick reproduces exactly the region.
  std::vector<cplx> fresh(static_cast<std::size_t>(local.count()), cplx{-9, -9});
  unpack_box(packed.data(), local, region, fresh.data());
  for (idx_t i0 = 0; i0 < 4; ++i0)
    for (idx_t i1 = 0; i1 < 4; ++i1)
      for (idx_t i2 = 0; i2 < 4; ++i2) {
        const auto off = static_cast<std::size_t>(local.offset_of({i0, i1, i2}));
        if (region.contains({i0, i1, i2})) {
          EXPECT_EQ(fresh[off], data[off]);
        } else {
          EXPECT_EQ(fresh[off], cplx(-9, -9));
        }
      }
}

TEST(Pack, RegionOutsideLocalThrows) {
  const Box3 local{{0, 0, 0}, {3, 3, 3}};
  const Box3 region{{2, 0, 0}, {4, 1, 1}};
  std::vector<cplx> d(64), p(64);
  EXPECT_THROW(pack_box(d.data(), local, region, p.data()), Error);
}

TEST(Pack, ContiguousRunHeuristic) {
  const Box3 local{{0, 0, 0}, {3, 3, 7}};
  const Box3 thin{{0, 0, 0}, {3, 3, 0}};   // 16-byte runs
  const Box3 full{{0, 0, 0}, {1, 3, 7}};   // full rows merge
  EXPECT_DOUBLE_EQ(pack_contiguous_run(local, thin), 16.0);
  EXPECT_DOUBLE_EQ(pack_contiguous_run(local, full), 8 * 16.0 * 4);
}

class TransposeAxes : public ::testing::TestWithParam<int> {};

TEST_P(TransposeAxes, LineContent) {
  const int axis = GetParam();
  const Box3 box{{2, 1, 0}, {5, 4, 5}};  // 4 x 4 x 6
  Rng rng(10 + static_cast<std::uint64_t>(axis));
  auto data = rng.complex_vector(static_cast<std::size_t>(box.count()));
  std::vector<cplx> lines(data.size());
  const idx_t nlines = transpose_to_lines(data.data(), box, axis, lines.data());
  EXPECT_EQ(nlines, box.count() / box.size(axis));
  // Each output line must be a walk along `axis` in the original brick.
  const idx_t len = box.size(axis);
  for (idx_t j = 0; j < len; ++j) {
    // Line 0 starts at the box origin.
    std::array<idx_t, 3> g = box.lo;
    g[static_cast<std::size_t>(axis)] += j;
    EXPECT_EQ(lines[static_cast<std::size_t>(j)],
              data[static_cast<std::size_t>(box.offset_of(g))]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAxes, TransposeAxes, ::testing::Values(0, 1, 2));

// The tiled transpose must move every element exactly where the plain
// triple loops put it, on boxes that are not multiples of the tile and on
// power-of-two boxes alike.
TEST(Pack, TransposeMatchesNaiveLoops) {
  for (const std::array<idx_t, 3>& n :
       {std::array<idx_t, 3>{5, 7, 3}, {17, 1, 33}, {1, 1, 40}, {128, 32, 128}}) {
    const Box3 box{{3, 0, 2}, {n[0] + 2, n[1] - 1, n[2] + 1}};
    const idx_t n0 = n[0], n1 = n[1], n2 = n[2];
    Rng rng(20 + static_cast<std::uint64_t>(n0 * n1 * n2));
    const auto data = rng.complex_vector(static_cast<std::size_t>(box.count()));
    for (int axis = 0; axis < 3; ++axis) {
      // Line order: the remaining axes in ascending order; j runs along
      // `axis`. want[line * len + j] = data[(i0 * n1 + i1) * n2 + i2].
      std::vector<cplx> want(data.size());
      const idx_t len = n[static_cast<std::size_t>(axis)];
      for (idx_t i0 = 0; i0 < n0; ++i0)
        for (idx_t i1 = 0; i1 < n1; ++i1)
          for (idx_t i2 = 0; i2 < n2; ++i2) {
            const idx_t line = axis == 0 ? i1 * n2 + i2
                               : axis == 1 ? i0 * n2 + i2
                                           : i0 * n1 + i1;
            const idx_t j = axis == 0 ? i0 : axis == 1 ? i1 : i2;
            want[static_cast<std::size_t>(line * len + j)] =
                data[static_cast<std::size_t>((i0 * n1 + i1) * n2 + i2)];
          }
      std::vector<cplx> lines(data.size());
      EXPECT_EQ(transpose_to_lines(data.data(), box, axis, lines.data()),
                box.count() / len);
      EXPECT_EQ(std::memcmp(lines.data(), want.data(), want.size() * sizeof(cplx)), 0)
          << n0 << "x" << n1 << "x" << n2 << " axis " << axis;
    }
  }
}

TEST(ReshapePlan, IdentityDetected) {
  const auto boxes = split_world(world_box({8, 8, 8}), ProcGrid{{2, 2, 1}});
  const auto plan = ReshapePlan::create(boxes, boxes);
  EXPECT_TRUE(plan.is_identity());
  // Every rank "sends" only to itself.
  for (int r = 0; r < plan.nranks(); ++r) {
    ASSERT_EQ(plan.sends(r).size(), 1u);
    EXPECT_EQ(plan.sends(r)[0].peer, r);
  }
}

TEST(ReshapePlan, BrickToPencilCoverage) {
  const std::array<int, 3> n = {8, 12, 10};
  const auto from = split_world(world_box(n), ProcGrid{{2, 3, 2}});
  const auto to = split_world(world_box(n), ProcGrid{{1, 4, 3}});
  const auto plan = ReshapePlan::create(from, to);
  EXPECT_FALSE(plan.is_identity());

  // Element-exact coverage: sends out of rank r tile from[r]; recvs into
  // rank d tile to[d].
  idx_t sent = 0, recvd = 0;
  for (int r = 0; r < plan.nranks(); ++r) {
    for (const Transfer& t : plan.sends(r)) {
      EXPECT_EQ(intersect(t.region, plan.from()[static_cast<std::size_t>(r)]),
                t.region);
      EXPECT_EQ(intersect(t.region, plan.to()[static_cast<std::size_t>(t.peer)]),
                t.region);
      sent += t.region.count();
    }
    for (const Transfer& t : plan.recvs(r)) recvd += t.region.count();
    EXPECT_EQ(plan.max_recv_elements(r),
              plan.to()[static_cast<std::size_t>(r)].count());
  }
  EXPECT_EQ(sent, world_box(n).count());
  EXPECT_EQ(recvd, world_box(n).count());
}

TEST(ReshapePlan, RandomLayoutsProperty) {
  // Random split factorizations; data integrity is guaranteed iff every
  // global element appears exactly once on each side.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::array<int, 3> n = {
        static_cast<int>(rng.uniform_int(4, 12)),
        static_cast<int>(rng.uniform_int(4, 12)),
        static_cast<int>(rng.uniform_int(4, 12))};
    auto rand_grid = [&]() {
      return ProcGrid{{static_cast<int>(rng.uniform_int(1, 3)),
                       static_cast<int>(rng.uniform_int(1, 3)),
                       static_cast<int>(rng.uniform_int(1, 2))}};
    };
    ProcGrid ga = rand_grid(), gb = rand_grid();
    const int R = std::max(ga.count(), gb.count());
    const auto from = pad_boxes(split_world(world_box(n), ga), R);
    const auto to = pad_boxes(split_world(world_box(n), gb), R);
    const auto plan = ReshapePlan::create(from, to);

    idx_t sent = 0;
    for (int r = 0; r < R; ++r) {
      for (const Transfer& t : plan.sends(r)) sent += t.region.count();
      EXPECT_TRUE(plan.recvs_tile(r)) << "trial " << trial << " rank " << r;
    }
    EXPECT_EQ(sent, world_box(n).count()) << "trial " << trial;
  }
}

TEST(ReshapePlan, RecvsTileDetectsHolesAndOverlaps) {
  // Destination: two x-halves of a 4x4x4 grid.
  const Box3 lo{{0, 0, 0}, {1, 3, 3}}, hi{{2, 0, 0}, {3, 3, 3}};
  // A source layout that misses the plane x = 3 leaves a hole in `hi`.
  const Box3 hole{{2, 0, 0}, {2, 3, 3}};
  const auto holed = ReshapePlan::create({lo, hole}, {lo, hi});
  EXPECT_TRUE(holed.recvs_tile(0));
  EXPECT_FALSE(holed.recvs_tile(1));
  // Two sources that both hold the plane x = 2 overlap in `hi`.
  const Box3 wide{{0, 0, 0}, {2, 3, 3}};
  const auto overlapped = ReshapePlan::create({wide, hi}, {lo, hi});
  EXPECT_TRUE(overlapped.recvs_tile(0));
  EXPECT_FALSE(overlapped.recvs_tile(1));
}

TEST(ReshapePlan, SendMatrixScalesWithBatch) {
  const std::array<int, 3> n = {8, 8, 8};
  const auto from = split_world(world_box(n), ProcGrid{{2, 1, 1}});
  const auto to = split_world(world_box(n), ProcGrid{{1, 2, 1}});
  const auto plan = ReshapePlan::create(from, to);
  const auto m1 = plan.send_matrix(1);
  const auto m3 = plan.send_matrix(3);
  for (std::size_t i = 0; i < m1.size(); ++i) {
    ASSERT_EQ(m1[i].size(), m3[i].size());
    for (std::size_t k = 0; k < m1[i].size(); ++k)
      EXPECT_DOUBLE_EQ(m3[i][k].second, 3 * m1[i][k].second);
  }
  // Off-rank bytes: each rank keeps half its 256 elements, ships half.
  double off_rank = 0;
  for (const auto& [peer, bytes] : m1[0])
    if (peer != 0) off_rank += bytes;
  EXPECT_DOUBLE_EQ(off_rank, 128.0 * sizeof(cplx));
}

// create() only intersects each source box with the destination boxes it
// can overlap; the result must be exactly what intersecting every pair
// gives, in the same order, for any layout.
void expect_matches_all_pairs(const std::vector<Box3>& from,
                              const std::vector<Box3>& to,
                              const std::string& what) {
  const auto R = from.size();
  std::vector<std::vector<Transfer>> sends(R), recvs(R);
  for (std::size_t s = 0; s < R; ++s)
    for (std::size_t d = 0; d < R; ++d)
      if (const Box3 ov = intersect(from[s], to[d]); !ov.empty()) {
        sends[s].push_back({static_cast<int>(d), ov});
        recvs[d].push_back({static_cast<int>(s), ov});
      }

  const auto plan = ReshapePlan::create(from, to);
  auto same = [&](const TransferRange& got,
                  const std::vector<Transfer>& want, const char* side,
                  std::size_t r) {
    ASSERT_EQ(got.size(), want.size()) << what << " " << side << " " << r;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].peer, want[k].peer) << what << " " << side << " " << r;
      EXPECT_EQ(got[k].region, want[k].region)
          << what << " " << side << " " << r;
      // Peers strictly ascend: no pair is stored twice, and receivers
      // meet their senders in rank order.
      if (k > 0) {
        EXPECT_LT(got[k - 1].peer, got[k].peer)
            << what << " " << side << " " << r;
      }
    }
  };
  std::size_t blocks = 0;
  for (std::size_t r = 0; r < R; ++r) {
    same(plan.sends(static_cast<int>(r)), sends[r], "sends", r);
    same(plan.recvs(static_cast<int>(r)), recvs[r], "recvs", r);
    blocks += sends[r].size();
  }
  EXPECT_EQ(plan.block_count(), blocks) << what;
}

TEST(ReshapePlan, IndexedCreateMatchesAllPairsScan) {
  // Tilings of the world by two different grids, uneven splits included.
  const std::array<int, 3> n = {37, 20, 29};
  const Box3 w = world_box(n);
  const std::vector<ProcGrid> grids = {
      {{2, 3, 2}}, {{1, 4, 3}}, {{5, 1, 1}}, {{1, 1, 12}}, {{3, 4, 1}}};
  for (const ProcGrid& a : grids)
    for (const ProcGrid& b : grids) {
      const int R = std::max(a.count(), b.count());
      expect_matches_all_pairs(pad_boxes(split_world(w, a), R),
                               pad_boxes(split_world(w, b), R), "tiling");
    }

  // Empty boxes on either side (grid shrinking pads with them): into and
  // out of a shrunk grid, between two shrunk grids, and between a shrunk
  // grid and its own pencils.
  const std::vector<Box3> full = split_world(w, ProcGrid{{1, 4, 5}});
  const std::vector<Box3> shrunk =
      pad_boxes(split_world(w, ProcGrid{{2, 1, 3}}), 20);
  expect_matches_all_pairs(shrunk, full, "padded source");
  expect_matches_all_pairs(full, shrunk, "padded destination");
  expect_matches_all_pairs(shrunk,
                           pad_boxes(split_world(w, pencil_grid(7, 1)), 20),
                           "both padded");
  for (int axis = 0; axis < 3; ++axis)
    expect_matches_all_pairs(
        pad_boxes(split_world(w, min_surface_grid(9, n)), 24),
        pad_boxes(split_world(w, pencil_grid(9, axis)), 24),
        "shrunk pencils " + std::to_string(axis));
  expect_matches_all_pairs(std::vector<Box3>(7), std::vector<Box3>(7),
                           "all empty");
  expect_matches_all_pairs(std::vector<Box3>(7),
                           pad_boxes(split_world(w, ProcGrid{{1, 1, 3}}), 7),
                           "empty source");

  // Arbitrary boxes: overlapping, gapped, outside each other's hull,
  // negative corners, empty ones.
  Rng rng(4151);
  for (int trial = 0; trial < 30; ++trial) {
    const int R = static_cast<int>(rng.uniform_int(1, 90));
    auto random_boxes = [&] {
      std::vector<Box3> boxes(static_cast<std::size_t>(R));
      for (Box3& b : boxes)
        for (std::size_t a = 0; a < 3; ++a) {
          b.lo[a] = rng.uniform_int(-8, 40);
          b.hi[a] = b.lo[a] + rng.uniform_int(-2, 25);
        }
      return boxes;
    };
    const auto from = random_boxes();
    const auto to = random_boxes();
    expect_matches_all_pairs(from, to, "random " + std::to_string(trial));
  }

  // The largest point of the strong-scaling sweep: 512^3 on 3072 ranks,
  // minimum-surface bricks to z-pencils.
  const Box3 big = world_box({512, 512, 512});
  expect_matches_all_pairs(
      split_world(big, min_surface_grid(3072, {512, 512, 512})),
      split_world(big, pencil_grid(3072, 2)), "3072 brick->pencil");
}

TEST(ReshapePlan, MismatchedSizesThrow) {
  std::vector<Box3> a(2), b(3);
  EXPECT_THROW(ReshapePlan::create(a, b), Error);
}

TEST(ReshapePlan, CornersBeyond32BitsThrow) {
  // Blocks store their corners in 32 bits; a box that does not fit is
  // refused, not truncated.
  const Box3 small{{0, 0, 0}, {3, 3, 3}};
  const Box3 far{{0, 0, 0}, {idx_t{1} << 32, 3, 3}};
  EXPECT_THROW(ReshapePlan::create({far}, {small}), Error);
  EXPECT_THROW(ReshapePlan::create({small}, {far}), Error);
  EXPECT_NO_THROW(ReshapePlan::create({small}, {small}));
}

}  // namespace
}  // namespace parfft::core
