// End-to-end validation of the distributed 3-D FFT (Algorithm 1 and the
// Alltoallw-based Algorithm 2): distributed results must equal the local
// engine exactly, across decompositions x communication backends x rank
// counts x layout options, including round trips, batching, grid
// shrinking and brick-shaped input/output grids.
#include <gtest/gtest.h>

#include <cstring>

#include "common/random.hpp"
#include "core/pack.hpp"
#include "core/plan.hpp"
#include "core/simulate.hpp"
#include "fft/many.hpp"

namespace parfft::core {
namespace {

struct DistCase {
  int nranks;
  Decomposition decomp;
  Backend backend;
  bool contiguous_fft;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const DistCase& c) {
  return os << c.label;
}

/// Runs a forward distributed transform and checks every rank's output
/// against the local reference transform of the same global data.
void check_forward(const DistCase& cse, const std::array<int, 3>& n,
                   int batch = 1, int shrink_to = 0) {
  const idx_t N = static_cast<idx_t>(n[0]) * n[1] * n[2];
  Rng rng(1234);
  std::vector<cplx> global = rng.complex_vector(static_cast<std::size_t>(N * batch));
  // Reference: local 3-D FFT per batch element.
  std::vector<cplx> ref = global;
  for (int b = 0; b < batch; ++b)
    dft::fft3d_local(ref.data() + static_cast<idx_t>(b) * N, n,
                     dft::Direction::Forward);

  smpi::RuntimeOptions ro;
  ro.nranks = cse.nranks;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto in_boxes = brick_layout(n, c.size());
    const auto out_boxes = brick_layout(n, c.size());
    const Box3& inbox = in_boxes[static_cast<std::size_t>(c.rank())];
    const Box3& outbox = out_boxes[static_cast<std::size_t>(c.rank())];

    PlanOptions opt;
    opt.decomp = cse.decomp;
    opt.backend = cse.backend;
    opt.contiguous_fft = cse.contiguous_fft;
    opt.batch = batch;
    opt.shrink_to = shrink_to;
    Plan3D plan(c, n, inbox, outbox, opt);

    std::vector<cplx> local_in(static_cast<std::size_t>(plan.input_elements()));
    const Box3 world = world_box(n);
    for (int b = 0; b < batch; ++b)
      pack_box(global.data() + static_cast<idx_t>(b) * N, world, inbox,
               local_in.data() + static_cast<idx_t>(b) * inbox.count());

    std::vector<cplx> local_out(static_cast<std::size_t>(plan.output_elements()));
    plan.execute(local_in.data(), local_out.data(), dft::Direction::Forward);

    std::vector<cplx> want(local_out.size());
    for (int b = 0; b < batch; ++b)
      pack_box(ref.data() + static_cast<idx_t>(b) * N, world, outbox,
               want.data() + static_cast<idx_t>(b) * outbox.count());
    double err = 0;
    for (std::size_t i = 0; i < want.size(); ++i)
      err = std::max(err, std::abs(local_out[i] - want[i]));
    EXPECT_LT(err, 1e-9 * static_cast<double>(N)) << "rank " << c.rank();
    // Virtual time moved (communication + FFT happened).
    EXPECT_GT(c.vtime(), 0.0);
  });
}

class DistFft : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistFft, ForwardMatchesLocalReference) {
  check_forward(GetParam(), {12, 8, 10});
}

TEST_P(DistFft, NonCubicGrid) { check_forward(GetParam(), {5, 16, 6}); }

INSTANTIATE_TEST_SUITE_P(
    Matrix, DistFft,
    ::testing::Values(
        DistCase{1, Decomposition::Pencil, Backend::Alltoallv, false, "serial"},
        DistCase{4, Decomposition::Pencil, Backend::Alltoallv, false,
                 "pencil_a2av_strided"},
        DistCase{4, Decomposition::Pencil, Backend::Alltoallv, true,
                 "pencil_a2av_contig"},
        DistCase{4, Decomposition::Pencil, Backend::Alltoall, false,
                 "pencil_a2a"},
        DistCase{4, Decomposition::Pencil, Backend::Alltoallw, false,
                 "pencil_a2aw"},
        DistCase{4, Decomposition::Pencil, Backend::P2PBlocking, false,
                 "pencil_p2p_blocking"},
        DistCase{4, Decomposition::Pencil, Backend::P2PNonBlocking, false,
                 "pencil_p2p_nonblocking"},
        DistCase{5, Decomposition::Slab, Backend::Alltoallv, false,
                 "slab_a2av"},
        DistCase{5, Decomposition::Slab, Backend::P2PNonBlocking, true,
                 "slab_p2p_contig"},
        DistCase{4, Decomposition::Brick, Backend::Alltoallv, false,
                 "brick_a2av"},
        DistCase{6, Decomposition::Brick, Backend::P2PNonBlocking, false,
                 "brick_p2p"},
        DistCase{6, Decomposition::Auto, Backend::Alltoallv, false,
                 "auto_a2av"},
        DistCase{8, Decomposition::Pencil, Backend::Alltoallw, true,
                 "pencil_a2aw_contig"},
        DistCase{12, Decomposition::Pencil, Backend::Alltoallv, false,
                 "pencil_12ranks"}),
    [](const ::testing::TestParamInfo<DistCase>& pinfo) {
      return pinfo.param.label;
    });

TEST(DistFftFeatures, RoundTripWithScaling) {
  const std::array<int, 3> n = {8, 8, 8};
  const idx_t N = 512;
  Rng rng(7);
  std::vector<cplx> global = rng.complex_vector(static_cast<std::size_t>(N));

  smpi::RuntimeOptions ro;
  ro.nranks = 6;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto boxes = brick_layout(n, c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    PlanOptions opt;
    opt.decomp = Decomposition::Pencil;
    opt.scaling = Scaling::Full;
    Plan3D plan(c, n, box, box, opt);

    std::vector<cplx> mine(static_cast<std::size_t>(box.count()));
    pack_box(global.data(), world_box(n), box, mine.data());
    std::vector<cplx> freq(mine.size()), back(mine.size());
    plan.execute(mine.data(), freq.data(), dft::Direction::Forward);
    plan.execute(freq.data(), back.data(), dft::Direction::Backward);
    for (std::size_t i = 0; i < mine.size(); ++i)
      EXPECT_NEAR(std::abs(back[i] - mine[i]), 0.0, 1e-10);
  });
}

TEST(DistFftFeatures, BatchedTransform) {
  check_forward({6, Decomposition::Pencil, Backend::Alltoallv, false,
                 "batched"},
                {6, 8, 4}, /*batch=*/3);
}

TEST(DistFftFeatures, BatchedDatatypeBackend) {
  check_forward({4, Decomposition::Pencil, Backend::Alltoallw, false,
                 "batched_w"},
                {6, 4, 4}, /*batch=*/2);
}

TEST(DistFftFeatures, GridShrinking) {
  // 8 ranks hold the data; only 4 compute the FFT.
  check_forward({8, Decomposition::Pencil, Backend::Alltoallv, false,
                 "shrink"},
                {8, 8, 8}, /*batch=*/1, /*shrink_to=*/4);
}

TEST(DistFftFeatures, GridShrinkingToSingleRank) {
  check_forward({6, Decomposition::Pencil, Backend::Alltoallv, false,
                 "shrink1"},
                {6, 6, 6}, 1, 1);
}

TEST(DistFftFeatures, InPlaceExecution) {
  const std::array<int, 3> n = {8, 6, 4};
  const idx_t N = 8 * 6 * 4;
  Rng rng(3);
  std::vector<cplx> global = rng.complex_vector(static_cast<std::size_t>(N));
  std::vector<cplx> ref = global;
  dft::fft3d_local(ref.data(), n, dft::Direction::Forward);

  smpi::RuntimeOptions ro;
  ro.nranks = 4;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    // Same pencil layout in and out so counts match for in-place use. An
    // FFT stage comes first, so execute works on a copy of `in`.
    const auto boxes = grid_boxes(n, pencil_grid(c.size(), 0), c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    PlanOptions opt;
    opt.decomp = Decomposition::Pencil;
    opt.scaling = Scaling::Full;
    Plan3D plan(c, n, box, box, opt);
    EXPECT_EQ(plan.stage_plan().stages.front().kind, Stage::Kind::Fft);
    std::vector<cplx> data(static_cast<std::size_t>(box.count()));
    pack_box(global.data(), world_box(n), box, data.data());
    const std::vector<cplx> orig = data;
    plan.execute(data.data(), data.data(), dft::Direction::Forward);
    std::vector<cplx> want(data.size());
    pack_box(ref.data(), world_box(n), box, want.data());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_NEAR(std::abs(data[i] - want[i]), 0.0, 1e-8);
    // The scaled backward pass, in place too, recovers the input.
    plan.execute(data.data(), data.data(), dft::Direction::Backward);
    for (std::size_t i = 0; i < orig.size(); ++i)
      EXPECT_NEAR(std::abs(data[i] - orig[i]), 0.0, 1e-12);
  });
}

TEST(DistFftFeatures, PencilInputToBrickOutput) {
  // Asymmetric in/out layouts (input already pencil-shaped: the case where
  // the paper notes MPI_Alltoall padding is harmless). With z-pencils in,
  // the first stage is a reshape that reads `in` directly; with x-pencils
  // in, an FFT comes first and works on a copy of it.
  const std::array<int, 3> n = {8, 12, 4};
  const idx_t N = 8 * 12 * 4;
  Rng rng(5);
  std::vector<cplx> global = rng.complex_vector(static_cast<std::size_t>(N));
  std::vector<cplx> ref = global;
  dft::fft3d_local(ref.data(), n, dft::Direction::Forward);

  for (const int in_axis : {2, 0}) {
    smpi::RuntimeOptions ro;
    ro.nranks = 6;
    smpi::Runtime rt(ro);
    rt.run([&](smpi::Comm& c) {
      const auto in_boxes =
          grid_boxes(n, pencil_grid(c.size(), in_axis), c.size());
      const auto out_boxes = brick_layout(n, c.size());
      const Box3& inbox = in_boxes[static_cast<std::size_t>(c.rank())];
      const Box3& outbox = out_boxes[static_cast<std::size_t>(c.rank())];
      PlanOptions opt;
      opt.decomp = Decomposition::Pencil;
      opt.backend = Backend::Alltoall;
      Plan3D plan(c, n, inbox, outbox, opt);
      EXPECT_EQ(plan.stage_plan().stages.front().kind,
                in_axis == 2 ? Stage::Kind::Reshape : Stage::Kind::Fft);
      std::vector<cplx> in(static_cast<std::size_t>(inbox.count()));
      std::vector<cplx> out(static_cast<std::size_t>(outbox.count()));
      pack_box(global.data(), world_box(n), inbox, in.data());
      plan.execute(in.data(), out.data(), dft::Direction::Forward);
      std::vector<cplx> want(out.size());
      pack_box(ref.data(), world_box(n), outbox, want.data());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(std::abs(out[i] - want[i]), 0.0, 1e-8)
            << "input pencil axis " << in_axis;
    });
  }
}

TEST(DistFftFeatures, TraceRecordsAllKernelCategories) {
  const std::array<int, 3> n = {8, 8, 8};
  smpi::RuntimeOptions ro;
  ro.nranks = 4;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    // A slab-shaped in/out grid that coincides with none of the pencil
    // grids, so all four reshapes (in + 2 internal + out) materialize.
    const auto boxes = grid_boxes(n, ProcGrid{{4, 1, 1}}, c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    PlanOptions opt;
    opt.decomp = Decomposition::Pencil;
    Plan3D plan(c, n, box, box, opt);
    const double t0 = c.vtime();  // after plan-creation collectives
    std::vector<cplx> data(static_cast<std::size_t>(box.count()), cplx{1, 0});
    plan.execute(data.data(), data.data(), dft::Direction::Forward);
    const double elapsed = c.vtime() - t0;
    const auto& k = plan.trace().kernels();
    EXPECT_GT(k.fft, 0);
    EXPECT_GT(k.pack, 0);
    EXPECT_GT(k.unpack, 0);
    EXPECT_GT(k.comm, 0);
    // Pencil from brick in/out: 4 reshape calls (in + 2 + out).
    EXPECT_EQ(plan.trace().comm_calls().size(), 4u);
    EXPECT_EQ(plan.stage_plan().reshape_count(), 4);
    // 3 FFT stages -> 3 fft calls.
    EXPECT_EQ(plan.trace().fft_calls().size(), 3u);
    // Elapsed virtual time equals the trace total (every cost flows
    // through the trace).
    EXPECT_NEAR(elapsed, k.total(), 1e-6 * k.total());
  });
}

/// Every rank's forward output, then its backward (Scaling::Full) output
/// of that, for one backend on the 12x10x9 grid over 6 ranks with bricks
/// in and out (a reshape at both ends of the pipeline). In place, each
/// execute gets in == out.
std::vector<std::vector<cplx>> forward_backward(Backend backend, int batch,
                                                bool contiguous,
                                                bool in_place = false) {
  const std::array<int, 3> n = {12, 10, 9};
  const idx_t N = static_cast<idx_t>(n[0]) * n[1] * n[2];
  Rng rng(4321);
  const std::vector<cplx> global =
      rng.complex_vector(static_cast<std::size_t>(N * batch));
  smpi::RuntimeOptions ro;
  ro.nranks = 6;
  smpi::Runtime rt(ro);
  std::vector<std::vector<cplx>> out(2 * static_cast<std::size_t>(ro.nranks));
  rt.run([&](smpi::Comm& c) {
    const auto boxes = brick_layout(n, c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    PlanOptions opt;
    opt.decomp = Decomposition::Pencil;
    opt.backend = backend;
    opt.contiguous_fft = contiguous;
    opt.batch = batch;
    opt.scaling = Scaling::Full;
    Plan3D plan(c, n, box, box, opt);
    const auto& stages = plan.stage_plan().stages;
    EXPECT_EQ(stages.front().kind, Stage::Kind::Reshape);
    EXPECT_EQ(stages.back().kind, Stage::Kind::Reshape);
    std::vector<cplx> in(static_cast<std::size_t>(plan.input_elements()));
    for (int b = 0; b < batch; ++b)
      pack_box(global.data() + b * N, world_box(n), box,
               in.data() + b * box.count());
    std::vector<cplx>& fwd = out[static_cast<std::size_t>(2 * c.rank())];
    std::vector<cplx>& bwd = out[static_cast<std::size_t>(2 * c.rank() + 1)];
    if (in_place) {
      std::vector<cplx> data = in;
      plan.execute(data.data(), data.data(), dft::Direction::Forward);
      fwd = data;
      plan.execute(data.data(), data.data(), dft::Direction::Backward);
      bwd = data;
    } else {
      fwd.resize(in.size());
      bwd.resize(in.size());
      plan.execute(in.data(), fwd.data(), dft::Direction::Forward);
      plan.execute(fwd.data(), bwd.data(), dft::Direction::Backward);
    }
  });
  return out;
}

TEST(DistFftFeatures, InPlaceMatchesOutOfPlaceAtReshapeEnds) {
  // A reshape as the first stage reads `in` and one as the last writes
  // `out` directly; with in == out every rank's output must still be
  // byte-identical to the out-of-place run, on every backend, batched
  // (overlapped) or not. InPlaceExecution covers a plan whose first stage
  // is an FFT, which works on a copy of `in`.
  auto check = [](Backend backend, int batch) {
    const auto want = forward_backward(backend, batch, false, false);
    const auto got = forward_backward(backend, batch, false, true);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].size(), want[i].size());
      EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                            want[i].size() * sizeof(cplx)),
                0)
          << backend_name(backend) << " batch " << batch << " rank " << i / 2
          << (i % 2 == 0 ? " forward" : " backward");
    }
  };
  for (Backend backend : {Backend::Alltoallv, Backend::Alltoall,
                          Backend::Alltoallw, Backend::P2PBlocking,
                          Backend::P2PNonBlocking})
    for (int batch : {1, 2}) check(backend, batch);
}

TEST(DistFftFeatures, BackendsAgreeBitForBit) {
  // Every backend moves the same blocks into the same places, so on an
  // uneven layout (6 ranks, 12x10x9) the output arrays are byte-identical,
  // forward and backward, batched or not. A contiguous_fft plan prices its
  // reorder transposes but runs every axis on the brick, so it gives the
  // same bytes as the strided plan.
  for (int batch : {1, 3}) {
    const auto want = forward_backward(Backend::Alltoallv, batch, false);
    for (bool contiguous : {false, true})
      for (Backend backend : {Backend::Alltoallv, Backend::Alltoall,
                              Backend::Alltoallw, Backend::P2PBlocking,
                              Backend::P2PNonBlocking}) {
        if (backend == Backend::Alltoallv && !contiguous) continue;
        const auto got = forward_backward(backend, batch, contiguous);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].size(), want[i].size());
          EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                                want[i].size() * sizeof(cplx)),
                    0)
              << backend_name(backend) << " batch " << batch
              << (contiguous ? " contiguous" : " strided") << " rank "
              << i / 2 << (i % 2 == 0 ? " forward" : " backward");
        }
      }
  }
}

}  // namespace
}  // namespace parfft::core
