// The at-scale simulator: agreement with the threaded runtime on small
// configurations (the two-execution-modes contract from DESIGN.md),
// scaling behaviour, batching overlap, and the Table III experiment
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/random.hpp"
#include "core/grids.hpp"
#include "core/pack.hpp"
#include "core/plan.hpp"
#include "core/simulate.hpp"

namespace parfft::core {
namespace {

SimConfig base_config(int nranks, std::array<int, 3> n) {
  SimConfig cfg;
  cfg.n = n;
  cfg.nranks = nranks;
  cfg.options.decomp = Decomposition::Pencil;
  return cfg;
}

TEST(Simulate, AgreesWithThreadedExecution) {
  // Same machine, same plan: the simulator's per-rank clocks must match
  // the threaded runtime's virtual clocks for every backend.
  const std::array<int, 3> n = {16, 16, 16};
  const int R = 12;
  for (Backend backend : {Backend::Alltoallv, Backend::Alltoall,
                          Backend::Alltoallw, Backend::P2PNonBlocking}) {
    SimConfig cfg = base_config(R, n);
    cfg.options.backend = backend;
    cfg.warmed = false;  // the threaded plan also pays first-call spikes
    const SimReport rep = simulate(cfg);

    smpi::RuntimeOptions ro;
    ro.nranks = R;
    smpi::Runtime rt(ro);
    std::vector<double> threaded(static_cast<std::size_t>(R));
    rt.run([&](smpi::Comm& c) {
      const auto boxes = brick_layout(n, c.size());
      const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
      Plan3D plan(c, n, box, box, cfg.options);
      std::vector<cplx> data(static_cast<std::size_t>(box.count()), cplx{1, 1});
      const double t0 = c.vtime();
      plan.execute(data.data(), data.data(), dft::Direction::Forward);
      threaded[static_cast<std::size_t>(c.rank())] = c.vtime() - t0;
    });
    const double threaded_max =
        *std::max_element(threaded.begin(), threaded.end());
    EXPECT_NEAR(rep.total, threaded_max, 1e-9 + 1e-9 * threaded_max)
        << backend_name(backend);
  }
}

TEST(Simulate, CommCallCountMatchesPlanStructure) {
  SimConfig cfg = base_config(24, {64, 64, 64});
  cfg.repeats = 3;
  const SimReport rep = simulate(cfg);
  EXPECT_EQ(rep.reshapes_per_transform, 4);
  EXPECT_EQ(rep.comm_calls.size(), 12u);  // 4 per transform x 3 repeats
  EXPECT_EQ(rep.fft_calls.size(), 9u);
}

TEST(Simulate, WarmupSpikesOnlyOnFirstTransform) {
  SimConfig cfg = base_config(6, {32, 32, 32});
  cfg.repeats = 2;
  cfg.warmed = false;
  const SimReport rep = simulate(cfg);
  // First transform's fft calls include the plan-setup spike; repeats do
  // not. With identical per-stage layouts, call k and call k+3 differ by
  // exactly the setup cost for at least one stage.
  ASSERT_EQ(rep.fft_calls.size(), 6u);
  EXPECT_GT(rep.fft_calls[0].seconds, rep.fft_calls[3].seconds);
}

TEST(Simulate, CommunicationDominatesAt512Cubed) {
  // Paper Section II: communication is over 90% of runtime for 512^3 on
  // 24 GPUs.
  SimConfig cfg = base_config(24, {512, 512, 512});
  const SimReport rep = simulate(cfg);
  EXPECT_GT(rep.kernels.comm / rep.kernels.total(), 0.75);
}

TEST(Simulate, PackUnpackUnderTenPercent)  {
  // Paper Section II: packing/unpacking accounts for less than 10% of
  // runtime on GPU-based libraries.
  SimConfig cfg = base_config(24, {512, 512, 512});
  const SimReport rep = simulate(cfg);
  EXPECT_LT((rep.kernels.pack + rep.kernels.unpack) / rep.kernels.total(),
            0.10);
}

TEST(Simulate, StrongScalingReducesRuntimeAcrossNodes) {
  // From 4 nodes (24 GPUs) on, adding nodes must reduce the runtime. The
  // 1-node -> 4-node transition is excluded: a single node communicates
  // entirely over NVLink, and crossing to InfiniBand can cost more than
  // the added parallelism buys -- on the real Summit as in the model.
  double prev = 1e30;
  for (int gpus : {24, 96, 384, 1536}) {
    SimConfig cfg = base_config(gpus, {512, 512, 512});
    const SimReport rep = simulate(cfg);
    EXPECT_LT(rep.per_transform, prev) << gpus;
    prev = rep.per_transform;
  }
}

TEST(Simulate, GpuAwareFasterAtScale) {
  SimConfig cfg = base_config(96, {512, 512, 512});
  const SimReport aware = simulate(cfg);
  cfg.gpu_aware = false;
  const SimReport staged = simulate(cfg);
  EXPECT_GT(staged.kernels.comm, aware.kernels.comm);
}

TEST(Simulate, AlltoallwSlowerThanAlltoallvOnGpus) {
  // The Fig. 2 phenomenon at the whole-transform level.
  SimConfig cfg = base_config(24, {512, 512, 512});
  cfg.flavor = net::MpiFlavor::Mvapich;
  cfg.options.backend = Backend::Alltoallv;
  const SimReport v = simulate(cfg);
  cfg.options.backend = Backend::Alltoallw;
  const SimReport w = simulate(cfg);
  EXPECT_GT(w.kernels.comm, v.kernels.comm);
}

TEST(Simulate, BatchingOverlapBeatsSequentialSmallFfts) {
  // Fig. 13: batched 64^3 transforms across nodes give >2x per-transform
  // speedup vs isolated transforms (overlap + message aggregation). The
  // effect needs inter-node communication; within one node the exchanges
  // are overhead-dominated NVLink copies and only aggregation helps.
  SimConfig cfg = base_config(24, {64, 64, 64});
  cfg.options.batch = 1;
  const double isolated = simulate(cfg).per_transform;
  cfg.options.batch = 16;
  cfg.options.overlap_batches = true;
  const double batched = simulate(cfg).per_transform;
  EXPECT_LT(batched, isolated / 2.0);

  // Batching still helps (aggregation) on a single node, just less.
  SimConfig one = base_config(6, {64, 64, 64});
  one.options.batch = 1;
  const double iso1 = simulate(one).per_transform;
  one.options.batch = 16;
  const double bat1 = simulate(one).per_transform;
  EXPECT_LT(bat1, iso1 / 1.5);
}

TEST(Simulate, OverlapOffMatchesScaledSequential) {
  SimConfig cfg = base_config(6, {32, 32, 32});
  cfg.options.batch = 4;
  cfg.options.overlap_batches = false;
  const SimReport rep = simulate(cfg);
  EXPECT_GT(rep.total, 0);
  EXPECT_NEAR(rep.per_transform, rep.total / 4.0, 1e-12);
}

TEST(Simulate, ShrinkingHelpsTinyTransformsOnManyRanks) {
  // Grid shrinking: a 32^3 transform spread over 96 ranks wastes time in
  // latency-bound exchanges; shrinking to 12 compute ranks must help.
  SimConfig cfg = base_config(96, {32, 32, 32});
  const double full = simulate(cfg).per_transform;
  cfg.options.shrink_to = 12;
  const double shrunk = simulate(cfg).per_transform;
  EXPECT_LT(shrunk, full);
}

TEST(Simulate, Table3ConfigurationsRun) {
  for (int gpus : {6, 48, 768}) {
    const auto row = table3_row(gpus);
    SimConfig cfg = base_config(gpus, {512, 512, 512});
    cfg.in_boxes = grid_boxes(cfg.n, row.input, gpus);
    cfg.out_boxes = grid_boxes(cfg.n, row.output, gpus);
    const SimReport rep = simulate(cfg);
    EXPECT_GT(rep.total, 0) << gpus;
    EXPECT_EQ(rep.resolved, Decomposition::Pencil);
    EXPECT_EQ(rep.rank_times.size(), static_cast<std::size_t>(gpus));
  }
}

TEST(Simulate, RepeatsScaleLinearlyWhenWarmed) {
  SimConfig cfg = base_config(12, {64, 64, 64});
  cfg.repeats = 1;
  const double one = simulate(cfg).total;
  cfg.repeats = 4;
  const double four = simulate(cfg).total;
  // Not exactly linear: per-rank clock skew from the first transform
  // persists into later ones; the deviation is bounded by one sync.
  EXPECT_NEAR(four, 4 * one, 1e-3 * four);
}

TEST(Simulate, RejectsBadConfig) {
  SimConfig cfg = base_config(4, {8, 8, 8});
  cfg.repeats = 0;
  EXPECT_THROW(simulate(cfg), Error);
}

TEST(Simulate, SimulatorAgreesWithThreadedBatchedExecution) {
  // Reusable plan handles (core::Simulator) and the threaded runtime must
  // charge identical virtual time for batched transforms, with the
  // overlap pipeline both on and off. Alltoallw is excluded: the threaded
  // datatype path issues `batch` separate exchanges by design, which the
  // at-scale model prices as one scaled exchange.
  const std::array<int, 3> n = {16, 16, 16};
  const int R = 12;
  const int B = 3;
  for (bool overlap : {false, true}) {
    for (Backend backend : {Backend::Alltoallv, Backend::P2PNonBlocking}) {
      SimConfig cfg = base_config(R, n);
      cfg.options.backend = backend;
      cfg.options.batch = B;
      cfg.options.overlap_batches = overlap;
      cfg.warmed = false;
      Simulator sim(cfg);
      // Sequential batches pay first-call plan spikes like the threaded
      // plan below; the overlap pipeline prices warm plans either way.
      const double model = sim.transform_time(B, /*cold=*/!overlap);

      smpi::RuntimeOptions ro;
      ro.nranks = R;
      smpi::Runtime rt(ro);
      std::vector<double> threaded(static_cast<std::size_t>(R));
      rt.run([&](smpi::Comm& c) {
        const auto boxes = brick_layout(n, c.size());
        const Box3& box = boxes[static_cast<std::size_t>(c.rank())];
        Plan3D plan(c, n, box, box, cfg.options);
        std::vector<cplx> data(static_cast<std::size_t>(box.count() * B),
                               cplx{1, 1});
        const double t0 = c.vtime();
        plan.execute(data.data(), data.data(), dft::Direction::Forward);
        threaded[static_cast<std::size_t>(c.rank())] = c.vtime() - t0;
      });
      const double threaded_max =
          *std::max_element(threaded.begin(), threaded.end());
      EXPECT_NEAR(model, threaded_max, 1e-9 + 1e-9 * threaded_max)
          << backend_name(backend) << (overlap ? " overlap" : " sequential");
    }
  }
}

TEST(Simulate, SimulatorMatchesSimulateAndMemoizes) {
  SimConfig cfg = base_config(12, {32, 32, 32});
  cfg.warmed = true;
  cfg.repeats = 1;
  Simulator sim(cfg);
  const SimReport rep = simulate(cfg);
  EXPECT_NEAR(sim.transform_time(1), rep.per_transform,
              1e-12 + 1e-12 * rep.per_transform);
  EXPECT_DOUBLE_EQ(sim.transform_time(1), sim.transform_time(1));
  EXPECT_GT(sim.plan_setup_time(), 0)
      << "cold first transform must pay Fig. 10's plan-setup spike";
}

// The stage-cost memo reuses exact solves, so a long-lived Simulator must
// answer every question bit-for-bit like a fresh one, whatever it priced
// before and at whichever nic scale.
TEST(Simulate, MemoizedPricingMatchesFreshSimulatorBitwise) {
  struct Query {
    int batch;
    bool cold;
    bool profile;  // batch_profile() instead of transform_time()
  };
  std::vector<Query> queries;
  for (int b = 1; b <= 8; ++b) {
    queries.push_back({b, false, false});
    queries.push_back({b, true, false});
    queries.push_back({b, false, true});
  }
  Rng rng(20260517);
  for (Backend backend : {Backend::Alltoallv, Backend::Alltoall,
                          Backend::Alltoallw, Backend::P2PNonBlocking}) {
    for (bool gpu_aware : {true, false}) {
      SimConfig cfg = base_config(12, {64, 64, 64});
      cfg.options.backend = backend;
      cfg.gpu_aware = gpu_aware;
      Simulator shared(cfg);
      for (double scale : {1.0, 0.5, 1.0}) {
        std::shuffle(queries.begin(), queries.end(), rng.engine());
        shared.set_nic_scale(scale);
        for (const Query& q : queries) {
          Simulator fresh(cfg);
          fresh.set_nic_scale(scale);
          const std::string what =
              std::string(backend_name(backend)) +
              (gpu_aware ? " gpu-aware" : " staged") + " b=" +
              std::to_string(q.batch) + (q.cold ? " cold" : " warm") +
              " scale=" + std::to_string(scale);
          if (q.profile) {
            const BatchProfile got = shared.batch_profile(q.batch);
            const BatchProfile want = fresh.batch_profile(q.batch);
            EXPECT_EQ(got.elems, want.elems) << what;
            EXPECT_EQ(got.frac, want.frac) << what;
          } else {
            EXPECT_EQ(shared.transform_time(q.batch, q.cold),
                      fresh.transform_time(q.batch, q.cold))
                << what;
          }
        }
      }
      const PricingCounters& c = shared.counters();
      EXPECT_EQ(c.stage_hits + c.stage_misses, c.stage_lookups);
      EXPECT_EQ(c.exchange_solves, c.stage_misses);
    }
  }
}

TEST(Simulate, PricingSolvesEachExchangeOncePerBatchAndScale) {
  // b = 1..8 at two scales: the sequential b=1 pass and every chunk of
  // every overlapped candidate draw from one memo, so each reshape is
  // solved once per distinct chunk batch (1..8) per scale.
  Simulator sim(base_config(12, {64, 64, 64}));
  const auto reshapes =
      static_cast<std::uint64_t>(sim.plan().reshape_count());
  ASSERT_EQ(reshapes, 4u);
  for (double scale : {1.0, 0.5}) {
    sim.set_nic_scale(scale);
    for (int b = 1; b <= 8; ++b) sim.transform_time(b);
  }
  const PricingCounters first = sim.counters();
  EXPECT_EQ(first.exchange_solves, reshapes * 8 * 2);
  EXPECT_GT(first.stage_hits, first.stage_misses);

  // Everything asked again -- both scales, cold b=1 included, profiles
  // too -- is answered without a single new solve.
  for (double scale : {0.5, 1.0}) {
    sim.set_nic_scale(scale);
    for (int b = 1; b <= 8; ++b) {
      sim.transform_time(b);
      sim.batch_profile(b);
    }
    sim.plan_setup_time();
  }
  EXPECT_EQ(sim.counters().exchange_solves, first.exchange_solves);
  EXPECT_EQ(sim.counters().stage_hits + sim.counters().stage_misses,
            sim.counters().stage_lookups);
}

TEST(Simulate, OverlappedBatchTimeReusesACallersMemo) {
  // A caller-owned memo carries solves from one call to the next and
  // prices exactly like the memo local to a call.
  SimConfig cfg = base_config(12, {64, 64, 64});
  cfg.options.backend = Backend::P2PNonBlocking;
  const Simulator sim(cfg);
  const net::RankMap map{cfg.machine.gpus_per_node};
  const net::CommCost cost(cfg.machine, map, cfg.nranks);
  const auto price = [&](int batch, StageCostMemo* memo) {
    return overlapped_batch_time(sim.plan(), cfg.device, cost,
                                 net::TransferMode::GpuAware, cfg.flavor,
                                 batch, {}, nullptr, memo);
  };
  StageCostMemo memo;
  const double t6 = price(6, &memo);
  // Chunk batches of b=6 over 1..6 chunks: {6, 3, 2, 1} per reshape.
  EXPECT_EQ(memo.counters().exchange_solves, 4u * 4);
  // b=3 chunks into {3, 2, 1}: all already solved.
  const double t3 = price(3, &memo);
  EXPECT_EQ(memo.counters().exchange_solves, 4u * 4);
  EXPECT_EQ(t6, price(6, nullptr));
  EXPECT_EQ(t3, price(3, nullptr));
  memo.check_invariants();
}

}  // namespace
}  // namespace parfft::core
