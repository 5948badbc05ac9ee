// Distributed real-to-complex transforms: agreement with the local real
// engine and the complex distributed transform, Hermitian structure, round
// trips with scaling, and 2-D transform support in the stage builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "core/pack.hpp"
#include "core/real_plan.hpp"
#include "core/simulate.hpp"
#include "core/spectral.hpp"
#include "fft/many.hpp"
#include "fft/real.hpp"
#include "fft/reference.hpp"
#include "obs/session.hpp"

namespace parfft::core {
namespace {

struct RealCase {
  std::array<int, 3> n;
  int nranks;
};

class RealDist : public ::testing::TestWithParam<RealCase> {};

TEST_P(RealDist, ForwardMatchesLocalR2C) {
  const auto [n, nranks] = GetParam();
  const auto nc = RealPlan3D::spectrum_dims(n);
  const idx_t N = static_cast<idx_t>(n[0]) * n[1] * n[2];
  const idx_t NC = static_cast<idx_t>(nc[0]) * nc[1] * nc[2];
  Rng rng(99);
  const auto global = rng.real_vector(static_cast<std::size_t>(N));
  std::vector<cplx> want(static_cast<std::size_t>(NC));
  dft::fft3d_r2c_local(global.data(), want.data(), n);

  smpi::RuntimeOptions ro;
  ro.nranks = nranks;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto in_all = brick_layout(n, c.size());
    const auto out_all = brick_layout(nc, c.size());
    const Box3& inbox = in_all[static_cast<std::size_t>(c.rank())];
    const Box3& outbox = out_all[static_cast<std::size_t>(c.rank())];
    PlanOptions opt;
    RealPlan3D plan(c, n, inbox, outbox, opt);

    std::vector<double> mine(static_cast<std::size_t>(inbox.count()));
    pack_box_t(global.data(), world_box(n), inbox, mine.data());
    std::vector<cplx> spec(static_cast<std::size_t>(outbox.count()));
    plan.forward(mine.data(), spec.data());

    std::vector<cplx> expect(spec.size());
    pack_box(want.data(), world_box(nc), outbox, expect.data());
    for (std::size_t i = 0; i < spec.size(); ++i)
      EXPECT_NEAR(std::abs(spec[i] - expect[i]), 0.0, 1e-8)
          << "rank " << c.rank() << " i " << i;
  });
}

TEST_P(RealDist, RoundTripWithScaling) {
  const auto [n, nranks] = GetParam();
  const auto nc = RealPlan3D::spectrum_dims(n);
  const idx_t N = static_cast<idx_t>(n[0]) * n[1] * n[2];
  Rng rng(123);
  const auto global = rng.real_vector(static_cast<std::size_t>(N));

  smpi::RuntimeOptions ro;
  ro.nranks = nranks;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto in_all = brick_layout(n, c.size());
    const auto out_all = brick_layout(nc, c.size());
    const Box3& inbox = in_all[static_cast<std::size_t>(c.rank())];
    const Box3& outbox = out_all[static_cast<std::size_t>(c.rank())];
    PlanOptions opt;
    opt.scaling = Scaling::Full;
    RealPlan3D plan(c, n, inbox, outbox, opt);

    std::vector<double> mine(static_cast<std::size_t>(inbox.count()));
    pack_box_t(global.data(), world_box(n), inbox, mine.data());
    std::vector<cplx> spec(static_cast<std::size_t>(outbox.count()));
    std::vector<double> back(mine.size(), -1);
    plan.forward(mine.data(), spec.data());
    plan.backward(spec.data(), back.data());
    for (std::size_t i = 0; i < mine.size(); ++i)
      EXPECT_NEAR(back[i], mine[i], 1e-10);
    // Timing flowed through the trace.
    EXPECT_GT(plan.kernels().total(), 0);
    EXPECT_GT(plan.kernels().comm, 0);
    EXPECT_GT(plan.kernels().fft, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RealDist,
    ::testing::Values(RealCase{{8, 8, 8}, 4}, RealCase{{12, 8, 10}, 6},
                      RealCase{{8, 12, 7}, 4},  // odd fast axis
                      RealCase{{16, 16, 16}, 1}));

TEST(RealDist, DcModeIsMeanTimesN) {
  const std::array<int, 3> n = {8, 8, 8};
  const auto nc = RealPlan3D::spectrum_dims(n);
  smpi::RuntimeOptions ro;
  ro.nranks = 4;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto in_all = brick_layout(n, c.size());
    const auto out_all = brick_layout(nc, c.size());
    const Box3& inbox = in_all[static_cast<std::size_t>(c.rank())];
    const Box3& outbox = out_all[static_cast<std::size_t>(c.rank())];
    RealPlan3D plan(c, n, inbox, outbox, PlanOptions{});
    std::vector<double> mine(static_cast<std::size_t>(inbox.count()), 2.5);
    std::vector<cplx> spec(static_cast<std::size_t>(outbox.count()));
    plan.forward(mine.data(), spec.data());
    if (outbox.contains({0, 0, 0})) {
      const auto off = static_cast<std::size_t>(outbox.offset_of({0, 0, 0}));
      EXPECT_NEAR(spec[off].real(), 2.5 * 512, 1e-8);
      EXPECT_NEAR(spec[off].imag(), 0.0, 1e-9);
    }
  });
}

TEST(RealDist, RejectsBatched) {
  smpi::RuntimeOptions ro;
  ro.nranks = 2;
  smpi::Runtime rt(ro);
  EXPECT_THROW(rt.run([](smpi::Comm& c) {
                 const std::array<int, 3> n = {8, 8, 8};
                 const auto in_all = brick_layout(n, c.size());
                 const auto out_all =
                     brick_layout(RealPlan3D::spectrum_dims(n), c.size());
                 PlanOptions opt;
                 opt.batch = 2;
                 RealPlan3D plan(c, n,
                                 in_all[static_cast<std::size_t>(c.rank())],
                                 out_all[static_cast<std::size_t>(c.rank())],
                                 opt);
               }),
               Error);
}

// ---------------------------------------------------------------------------
// 2-D transforms through the stage builder (n[0] == 1).
// ---------------------------------------------------------------------------

TEST(Fft2dDistributed, MatchesLocalReference) {
  const std::array<int, 3> n = {1, 12, 16};
  const idx_t N = 12 * 16;
  Rng rng(5);
  const auto global = rng.complex_vector(static_cast<std::size_t>(N));
  auto ref = global;
  dft::fft3d_local(ref.data(), n, dft::Direction::Forward);

  smpi::RuntimeOptions ro;
  ro.nranks = 4;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto boxes = grid_boxes(n, ProcGrid{{1, 2, 2}}, c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    PlanOptions opt;  // any decomposition collapses to the 2-D pipeline
    Plan3D plan(c, n, box, box, opt);
    EXPECT_EQ(plan.stage_plan().resolved, Decomposition::Slab);

    std::vector<cplx> mine(static_cast<std::size_t>(box.count()));
    pack_box(global.data(), world_box(n), box, mine.data());
    plan.execute(mine.data(), mine.data(), dft::Direction::Forward);
    std::vector<cplx> want(mine.size());
    pack_box(ref.data(), world_box(n), box, want.data());
    for (std::size_t i = 0; i < mine.size(); ++i)
      EXPECT_NEAR(std::abs(mine[i] - want[i]), 0.0, 1e-9);
  });
}

TEST(Fft2dDistributed, BatchedRoundTrip) {
  const std::array<int, 3> n = {1, 8, 8};
  smpi::RuntimeOptions ro;
  ro.nranks = 4;
  smpi::Runtime rt(ro);
  rt.run([&](smpi::Comm& c) {
    const auto boxes = grid_boxes(n, ProcGrid{{1, 4, 1}}, c.size());
    const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
    PlanOptions opt;
    opt.batch = 3;
    opt.scaling = Scaling::Full;
    Plan3D plan(c, n, box, box, opt);
    Rng rng(8 + static_cast<std::uint64_t>(c.rank()));
    auto data = rng.complex_vector(static_cast<std::size_t>(box.count() * 3));
    auto orig = data;
    plan.execute(data.data(), data.data(), dft::Direction::Forward);
    plan.execute(data.data(), data.data(), dft::Direction::Backward);
    for (std::size_t i = 0; i < data.size(); ++i)
      EXPECT_NEAR(std::abs(data[i] - orig[i]), 0.0, 1e-10);
  });
}

TEST(Fft2dDistributed, RejectsTooManyRanks) {
  smpi::RuntimeOptions ro;
  ro.nranks = 6;
  smpi::Runtime rt(ro);
  EXPECT_THROW(rt.run([](smpi::Comm& c) {
                 const std::array<int, 3> n = {1, 4, 16};
                 const auto boxes = grid_boxes(n, ProcGrid{{1, 1, 6}}, c.size());
                 Plan3D plan(c, n, boxes[static_cast<std::size_t>(c.rank())],
                             boxes[static_cast<std::size_t>(c.rank())],
                             PlanOptions{});
               }),
               Error);
}

// The pack formula restated independently of the library: per transfer,
// one fused region copy of count * batch elements whose innermost
// contiguous run spans whole rows when the region covers the local box's
// last two extents, plus one launch when anything moves.
double oracle_pack_time(const gpu::DeviceSpec& dev, const Box3& box,
                        const TransferRange& transfers, int batch,
                        double elem_bytes) {
  double t = 0;
  for (const Transfer& tr : transfers) {
    const Box3& g = tr.region;
    double run = g.empty() ? 0.0 : static_cast<double>(g.size(2)) * elem_bytes;
    if (g.size(2) == box.size(2) && g.size(1) == box.size(1))
      run *= static_cast<double>(g.size(1));
    t += gpu::pack_region_cost(
        dev, static_cast<double>(g.count() * batch) * elem_bytes, run);
  }
  if (!transfers.empty()) t += dev.kernel_launch;
  return t;
}

/// Durations of one rank's spans called `name`, in emission order.
std::vector<double> span_durations(const obs::RunTrace& run, int rank,
                                   const std::string& name) {
  std::vector<double> out;
  for (const obs::Span& s : run.tracer.spans(rank))
    if (s.name == name) out.push_back(s.dur);
  return out;
}

// Every packed reshape -- Plan3D's collective and P2P paths at batch 1
// and 3, RealPlan3D's real stage and the standalone distributed_reshape --
// charges each pack and unpack kernel exactly as the oracle above prices
// it, bit for bit, on every rank.
TEST(Reshape, EveryPackedPathChargesThePackFormula) {
  constexpr int kRanks = 6;
  const std::array<int, 3> n = {12, 10, 8};
  smpi::RuntimeOptions ro;
  ro.nranks = kRanks;
  ro.trace.enabled = true;
  const gpu::DeviceSpec dev = ro.device;
  smpi::Runtime rt(ro);
  const auto last_run = [] { return obs::Session::global().runs().back(); };
  const auto bricks = brick_layout(n, kRanks);
  const auto zpencils = grid_boxes(n, pencil_grid(kRanks, 2), kRanks);
  const auto kept = [](std::vector<double> v) {  // zero charges emit no span
    std::erase(v, 0.0);
    return v;
  };

  for (Backend backend : {Backend::Alltoallv, Backend::P2PNonBlocking}) {
    for (int batch : {1, 3}) {
      SCOPED_TRACE(std::string(backend_name(backend)) +
                   " batch=" + std::to_string(batch));
      std::vector<std::vector<double>> pack(kRanks), unpack(kRanks);
      rt.run([&](smpi::Comm& c) {
        const int me = c.rank();
        const Box3& box = bricks[static_cast<std::size_t>(me)];
        PlanOptions opt;
        opt.backend = backend;
        opt.batch = batch;
        Plan3D plan(c, n, box, box, opt);
        Rng rng(5 + static_cast<std::uint64_t>(me));
        const auto in =
            rng.complex_vector(static_cast<std::size_t>(plan.input_elements()));
        std::vector<cplx> out(static_cast<std::size_t>(plan.output_elements()));
        plan.execute(in.data(), out.data(), dft::Direction::Forward);
        for (const Stage& s : plan.stage_plan().stages) {
          if (s.kind != Stage::Kind::Reshape) continue;
          const ReshapePlan& rp = s.reshape;
          pack[static_cast<std::size_t>(me)].push_back(oracle_pack_time(
              dev, rp.from()[static_cast<std::size_t>(me)], rp.sends(me),
              batch, sizeof(cplx)));
          unpack[static_cast<std::size_t>(me)].push_back(oracle_pack_time(
              dev, rp.to()[static_cast<std::size_t>(me)], rp.recvs(me), batch,
              sizeof(cplx)));
        }
      });
      const obs::RunTrace& run = *last_run();
      for (int r = 0; r < kRanks; ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        const auto ur = static_cast<std::size_t>(r);
        EXPECT_FALSE(pack[ur].empty());
        EXPECT_EQ(span_durations(run, r, "pack"), kept(pack[ur]));
        EXPECT_EQ(span_durations(run, r, "unpack"), kept(unpack[ur]));
      }
    }
  }

  {
    SCOPED_TRACE("RealPlan3D real stage");
    // The real stage is the first reshape of forward() and the last of
    // backward(); it moves doubles.
    const ReshapePlan fwd = ReshapePlan::create(bricks, zpencils);
    const ReshapePlan bwd = ReshapePlan::create(zpencils, bricks);
    const auto nc = RealPlan3D::spectrum_dims(n);
    rt.run([&](smpi::Comm& c) {
      const Box3& inbox = bricks[static_cast<std::size_t>(c.rank())];
      const Box3 outbox =
          brick_layout(nc, c.size())[static_cast<std::size_t>(c.rank())];
      RealPlan3D plan(c, n, inbox, outbox, PlanOptions{});
      Rng rng(11 + static_cast<std::uint64_t>(c.rank()));
      const auto in = rng.real_vector(static_cast<std::size_t>(inbox.count()));
      std::vector<cplx> spec(static_cast<std::size_t>(outbox.count()));
      std::vector<double> back(in.size());
      plan.forward(in.data(), spec.data());
      plan.backward(spec.data(), back.data());
    });
    const obs::RunTrace& run = *last_run();
    for (int r = 0; r < kRanks; ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      const auto ur = static_cast<std::size_t>(r);
      const double want_pack[2] = {
          oracle_pack_time(dev, fwd.from()[ur], fwd.sends(r), 1, 8),
          oracle_pack_time(dev, bwd.from()[ur], bwd.sends(r), 1, 8)};
      const double want_unpack[2] = {
          oracle_pack_time(dev, fwd.to()[ur], fwd.recvs(r), 1, 8),
          oracle_pack_time(dev, bwd.to()[ur], bwd.recvs(r), 1, 8)};
      ASSERT_GT(std::min(want_pack[0], want_pack[1]), 0.0);
      ASSERT_GT(std::min(want_unpack[0], want_unpack[1]), 0.0);
      const auto packs = span_durations(run, r, "pack");
      const auto unpacks = span_durations(run, r, "unpack");
      ASSERT_GE(packs.size(), 2u);
      ASSERT_GE(unpacks.size(), 2u);
      EXPECT_EQ(packs.front(), want_pack[0]);
      EXPECT_EQ(packs.back(), want_pack[1]);
      EXPECT_EQ(unpacks.front(), want_unpack[0]);
      EXPECT_EQ(unpacks.back(), want_unpack[1]);
    }
  }

  {
    SCOPED_TRACE("distributed_reshape");
    // Beyond its two box allgathers, the reshape advances the clock by
    // exactly pack + exchange + unpack.
    const ReshapePlan rp = ReshapePlan::create(bricks, zpencils);
    std::vector<double> advance(kRanks);
    rt.run([&](smpi::Comm& c) {
      const auto me = static_cast<std::size_t>(c.rank());
      Rng rng(17 + me);
      const auto in =
          rng.complex_vector(static_cast<std::size_t>(bricks[me].count()));
      std::vector<cplx> out;
      const double t0 = c.vtime();
      distributed_reshape(c, bricks[me], zpencils[me], in, out);
      advance[me] = c.vtime() - t0;
    });
    const obs::RunTrace& run = *last_run();
    for (int r = 0; r < kRanks; ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      const auto ur = static_cast<std::size_t>(r);
      double gathers = 0, exchange = 0;
      for (const obs::Span& s : run.tracer.spans(r)) {
        if (s.cat == obs::Category::Collective) gathers += s.dur;
        if (s.cat == obs::Category::Exchange) exchange += s.dur;
      }
      const double want =
          oracle_pack_time(dev, rp.from()[ur], rp.sends(r), 1, sizeof(cplx)) +
          exchange +
          oracle_pack_time(dev, rp.to()[ur], rp.recvs(r), 1, sizeof(cplx));
      EXPECT_GT(exchange, 0.0);
      EXPECT_NEAR(advance[ur] - gathers, want, 1e-12 * want);
    }
  }
}

}  // namespace
}  // namespace parfft::core
