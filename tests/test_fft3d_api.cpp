// The heFFTe-style facade: forward/backward with per-call scaling,
// asymmetric inbox/outbox round trips, and collective-count validation in
// the runtime (mismatched alltoallv counts must throw).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"
#include "core/fft3d.hpp"
#include "core/pack.hpp"
#include "core/simulate.hpp"
#include "fft/many.hpp"

namespace parfft::core {
namespace {

TEST(Fft3dApi, ForwardMatchesLocalEngine) {
  const std::array<int, 3> n = {8, 12, 10};
  const idx_t N = 8 * 12 * 10;
  Rng rng(17);
  const auto global = rng.complex_vector(static_cast<std::size_t>(N));
  auto ref = global;
  dft::fft3d_local(ref.data(), n, dft::Direction::Forward);

  smpi::RuntimeOptions ro;
  ro.nranks = 6;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto boxes = brick_layout(n, c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    Fft3D fft(c, n, box, box);
    EXPECT_EQ(fft.size_inbox(), box.count());
    EXPECT_EQ(fft.size_outbox(), box.count());

    std::vector<cplx> in(static_cast<std::size_t>(box.count())), out;
    pack_box(global.data(), world_box(n), box, in.data());
    fft.forward(in, out);
    std::vector<cplx> want(in.size());
    pack_box(ref.data(), world_box(n), box, want.data());
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_NEAR(std::abs(out[i] - want[i]), 0.0, 1e-9);
  });
}

TEST(Fft3dApi, FullScaleRoundTrip) {
  const std::array<int, 3> n = {8, 8, 8};
  smpi::RuntimeOptions ro;
  ro.nranks = 4;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto boxes = brick_layout(n, c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    Fft3D fft(c, n, box, box);
    Rng rng(31 + static_cast<std::uint64_t>(c.rank()));
    const auto orig = rng.complex_vector(static_cast<std::size_t>(box.count()));
    std::vector<cplx> freq, back;
    fft.forward(orig, freq);
    fft.backward(freq, back, Scale::Full);
    for (std::size_t i = 0; i < orig.size(); ++i)
      EXPECT_NEAR(std::abs(back[i] - orig[i]), 0.0, 1e-10);
  });
}

TEST(Fft3dApi, SymmetricScaleIsInvolutive) {
  // forward(symmetric) then backward(symmetric) is also the identity.
  const std::array<int, 3> n = {8, 8, 8};
  smpi::RuntimeOptions ro;
  ro.nranks = 4;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto boxes = brick_layout(n, c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    Fft3D fft(c, n, box, box);
    Rng rng(32);
    const auto orig = rng.complex_vector(static_cast<std::size_t>(box.count()));
    std::vector<cplx> freq, back;
    fft.forward(orig, freq, Scale::Symmetric);
    fft.backward(freq, back, Scale::Symmetric);
    for (std::size_t i = 0; i < orig.size(); ++i)
      EXPECT_NEAR(std::abs(back[i] - orig[i]), 0.0, 1e-10);
  });
}

TEST(Fft3dApi, AsymmetricLayoutsRoundTripThroughReversedPipeline) {
  // inbox = bricks, outbox = z-pencils: backward must come home.
  const std::array<int, 3> n = {8, 12, 8};
  smpi::RuntimeOptions ro;
  ro.nranks = 6;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto in_all = brick_layout(n, c.size());
    const auto out_all = grid_boxes(n, pencil_grid(c.size(), 2), c.size());
    const Box3& inbox = in_all[static_cast<std::size_t>(c.rank())];
    const Box3& outbox = out_all[static_cast<std::size_t>(c.rank())];
    Fft3D fft(c, n, inbox, outbox);
    EXPECT_EQ(fft.size_outbox(), outbox.count());

    Rng rng(33 + static_cast<std::uint64_t>(c.rank()));
    const auto orig = rng.complex_vector(static_cast<std::size_t>(inbox.count()));
    std::vector<cplx> freq, back;
    fft.forward(orig, freq);
    EXPECT_EQ(freq.size(), static_cast<std::size_t>(outbox.count()));
    fft.backward(freq, back, Scale::Full);
    ASSERT_EQ(back.size(), orig.size());
    for (std::size_t i = 0; i < orig.size(); ++i)
      EXPECT_NEAR(std::abs(back[i] - orig[i]), 0.0, 1e-10);
  });
}

// A scale pass is charged to the plan whose transform it normalizes: with
// asymmetric layouts backward() runs the reversed pipeline, so its scale
// pass lands in backward_plan()'s trace after the backward kernels, and
// plan() keeps the forward transform alone.
TEST(Fft3dApi, BackwardScaleIsChargedToTheReversedPipeline) {
  const std::array<int, 3> n = {8, 12, 8};
  smpi::RuntimeOptions ro;
  ro.nranks = 6;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto in_all = brick_layout(n, c.size());
    const auto out_all = grid_boxes(n, pencil_grid(c.size(), 2), c.size());
    Fft3D fft(c, n, in_all[static_cast<std::size_t>(c.rank())],
              out_all[static_cast<std::size_t>(c.rank())]);
    ASSERT_NE(&fft.backward_plan(), &fft.plan());
    Rng rng(35 + static_cast<std::uint64_t>(c.rank()));
    const auto orig =
        rng.complex_vector(static_cast<std::size_t>(fft.size_inbox()));
    std::vector<cplx> freq, back;
    fft.forward(orig, freq, Scale::Symmetric);
    fft.backward(freq, back, Scale::Symmetric);

    const auto scales = [](const Plan3D& p) {
      int count = 0;
      for (const CallRecord& call : p.trace().calls())
        count += call.cat == obs::Category::Scale ? 1 : 0;
      return count;
    };
    EXPECT_EQ(scales(fft.plan()), 1);
    EXPECT_EQ(fft.plan().trace().calls().back().cat, obs::Category::Scale);
    const Trace& bwd = fft.backward_plan().trace();
    EXPECT_EQ(scales(fft.backward_plan()), 1);
    EXPECT_EQ(bwd.calls().back().cat, obs::Category::Scale);
    EXPECT_GT(bwd.kernels().fft, 0.0);
    EXPECT_GT(bwd.kernels().comm, 0.0);
  });
}

TEST(Fft3dApi, RejectsWrongSizes) {
  const std::array<int, 3> n = {8, 8, 8};
  smpi::RuntimeOptions ro;
  ro.nranks = 2;
  smpi::Runtime rt(ro);
  EXPECT_THROW(rt.run([&](smpi::Comm& c) {
                 const auto boxes = brick_layout(n, c.size());
                 const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
                 Fft3D fft(c, n, box, box);
                 std::vector<cplx> too_small(3), out;
                 fft.forward(too_small, out);
               }),
               Error);
}

TEST(RuntimeValidation, MismatchedAlltoallvCountsThrow) {
  smpi::RuntimeOptions ro;
  ro.nranks = 2;
  smpi::Runtime rt(ro);
  EXPECT_THROW(rt.run([](smpi::Comm& c) {
                 std::vector<std::size_t> scounts = {0, 8}, sdispls = {0, 0};
                 std::vector<std::size_t> rcounts = {0, 4}, rdispls = {0, 0};
                 if (c.rank() == 1) {
                   scounts = {8, 0};
                   rcounts = {16, 0};  // expects 16 but peer sends 8
                 }
                 std::vector<std::byte> s(16), r(16);
                 c.alltoallv(s.data(), scounts, sdispls, r.data(), rcounts,
                             rdispls);
               }),
               Error);
}

}  // namespace
}  // namespace parfft::core
