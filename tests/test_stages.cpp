// Stage-pipeline construction: decomposition structure (slab/pencil/brick
// phase counts from Section I), auto selection via the bandwidth model,
// grid shrinking, and validation errors.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/simulate.hpp"
#include "core/stages.hpp"

namespace parfft::core {
namespace {

StagePlan make(const std::array<int, 3>& n, int nranks, PlanOptions opt,
               bool pencil_io = false) {
  const auto io = pencil_io ? grid_boxes(n, pencil_grid(nranks, 0), nranks)
                            : brick_layout(n, nranks);
  return build_stages(n, nranks, io, io, opt, net::summit());
}

int fft_stage_count(const StagePlan& p) {
  int c = 0;
  for (const auto& s : p.stages)
    if (s.kind == Stage::Kind::Fft) ++c;
  return c;
}

TEST(Stages, PencilPlanAt3072RanksHoldsEachBlockOnce) {
  // The largest point of the strong-scaling sweep: 512^3 bricks through
  // the three pencil grids on 3072 ranks, four reshapes.
  PlanOptions opt;
  opt.decomp = Decomposition::Pencil;
  const auto p = make({512, 512, 512}, 3072, opt);
  ASSERT_EQ(p.reshape_count(), 4);
  std::size_t blocks = 0;
  for (const Stage& s : p.stages) {
    if (s.kind != Stage::Kind::Reshape) continue;
    const ReshapePlan& rp = s.reshape;
    idx_t sent = 0, recvd = 0;
    std::size_t sends = 0, recvs = 0;
    for (int r = 0; r < p.nranks; ++r) {
      for (const Transfer& t : rp.sends(r)) sent += t.region.count();
      for (const Transfer& t : rp.recvs(r)) recvd += t.region.count();
      sends += rp.sends(r).size();
      recvs += rp.recvs(r).size();
    }
    EXPECT_EQ(sent, p.total_elements());
    EXPECT_EQ(recvd, p.total_elements());
    EXPECT_EQ(sends, rp.block_count());
    EXPECT_EQ(recvs, rp.block_count());
    blocks += rp.block_count();
  }
  EXPECT_EQ(blocks, 452096u);
}

TEST(Stages, PencilHasTwoInternalPlusTwoIoReshapes) {
  PlanOptions opt;
  opt.decomp = Decomposition::Pencil;
  const auto p = make({64, 64, 64}, 12, opt);
  EXPECT_EQ(p.resolved, Decomposition::Pencil);
  EXPECT_EQ(fft_stage_count(p), 3);
  EXPECT_EQ(p.reshape_count(), 4);  // brick->p0, p0->p1, p1->p2, p2->brick
}

TEST(Stages, PencilInputSkipsFirstReshape) {
  PlanOptions opt;
  opt.decomp = Decomposition::Pencil;
  const auto p = make({64, 64, 64}, 12, opt, /*pencil_io=*/true);
  // In/out already on the axis-0 pencil grid: no input remap, and the
  // final stage must come back to it.
  EXPECT_EQ(p.reshape_count(), 3);
}

TEST(Stages, SlabHasOneInternalReshape) {
  PlanOptions opt;
  opt.decomp = Decomposition::Slab;
  const auto p = make({64, 64, 64}, 8, opt);
  EXPECT_EQ(fft_stage_count(p), 2);  // 2-D stage + 1-D stage
  EXPECT_EQ(p.reshape_count(), 3);   // in + internal + out
  // First FFT stage computes two axes.
  for (const auto& s : p.stages)
    if (s.kind == Stage::Kind::Fft) {
      EXPECT_EQ(s.axes.size(), 2u);
      break;
    }
}

TEST(Stages, BrickHasFourInternalPhases) {
  PlanOptions opt;
  opt.decomp = Decomposition::Brick;
  const auto p = make({64, 64, 64}, 12, opt);
  EXPECT_EQ(fft_stage_count(p), 3);
  // pencil0 -> brick -> pencil1 -> brick -> pencil2: 4 internal phases,
  // plus in/out remaps (in/out use the same min-surface brick grid as the
  // intermediate hop here, so the hop back coincides with it; at minimum
  // the paper's four internal phases must be present).
  EXPECT_GE(p.reshape_count(), 4);
}

TEST(Stages, AutoSelectsSlabBelowCrossover) {
  PlanOptions opt;  // Auto by default
  const auto small = make({512, 512, 512}, 24, opt);
  EXPECT_EQ(small.resolved, Decomposition::Slab);
  const auto large = make({512, 512, 512}, 384, opt);
  EXPECT_EQ(large.resolved, Decomposition::Pencil);
}

TEST(Stages, ShrinkLeavesIdleRanksEmpty) {
  PlanOptions opt;
  opt.decomp = Decomposition::Pencil;
  opt.shrink_to = 4;
  const auto p = make({16, 16, 16}, 8, opt);
  EXPECT_EQ(p.compute_ranks, 4);
  for (const auto& s : p.stages) {
    if (s.kind != Stage::Kind::Fft) continue;
    for (int r = 4; r < 8; ++r)
      EXPECT_TRUE(s.boxes[static_cast<std::size_t>(r)].empty());
    for (int r = 0; r < 4; ++r)
      EXPECT_FALSE(s.boxes[static_cast<std::size_t>(r)].empty());
  }
}

TEST(Stages, SlabRejectedWhenTooManyRanks) {
  PlanOptions opt;
  opt.decomp = Decomposition::Slab;
  EXPECT_THROW(make({8, 8, 8}, 12, opt), Error);
}

TEST(Stages, CoverageValidated) {
  PlanOptions opt;
  auto io = brick_layout({8, 8, 8}, 4);
  auto bad = io;
  bad[0].hi[0] -= 1;  // drop a plane
  EXPECT_THROW(
      build_stages({8, 8, 8}, 4, bad, io, opt, net::summit()), Error);
}

TEST(Stages, MaxWorkElementsCoversAllStages) {
  PlanOptions opt;
  opt.decomp = Decomposition::Pencil;
  const auto p = make({16, 16, 16}, 4, opt);
  for (int r = 0; r < 4; ++r) {
    const idx_t m = p.max_work_elements(r);
    EXPECT_GE(m, 16 * 16 * 16 / 4);
  }
}

TEST(Stages, BackendHelpers) {
  EXPECT_EQ(backend_name(Backend::Alltoall), "MPI_Alltoall");
  EXPECT_EQ(backend_name(Backend::Alltoallw), "MPI_Alltoallw");
  EXPECT_EQ(backend_name(Backend::P2PNonBlocking), "MPI_Isend/Irecv");
  EXPECT_TRUE(backend_is_p2p(Backend::P2PBlocking));
  EXPECT_FALSE(backend_is_p2p(Backend::Alltoallw));
  EXPECT_TRUE(backend_is_datatype(Backend::Alltoallw));
  EXPECT_EQ(to_alg(Backend::Alltoall), net::CollectiveAlg::Alltoall);
}

TEST(Stages, SingleRankStillBuilds) {
  PlanOptions opt;
  const auto p = make({8, 8, 8}, 1, opt);
  EXPECT_EQ(fft_stage_count(p), p.resolved == Decomposition::Slab ? 2 : 3);
  EXPECT_EQ(p.reshape_count(), 0);  // everything local
}

}  // namespace
}  // namespace parfft::core
