// The at-scale simulator: agreement with the threaded runtime on small
// configurations (the two-execution-modes contract from DESIGN.md),
// scaling behaviour, batching overlap, and the Table III experiment
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
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

/// Every rank's clock after each of `executes` threaded executions of
/// `plan` on brick inputs (clocks[e][r]). Each rank's Plan3D wraps the
/// prebuilt plan (no collective set-up), so every clock starts at 0 like
/// the simulator's.
std::vector<std::vector<double>> threaded_clocks(const StagePlan& plan,
                                                 int executes = 1) {
  smpi::RuntimeOptions ro;
  ro.nranks = plan.nranks;
  smpi::Runtime rt(ro);
  const auto boxes = brick_layout(plan.n, plan.nranks);
  std::vector<std::vector<double>> clocks(
      static_cast<std::size_t>(executes),
      std::vector<double>(static_cast<std::size_t>(plan.nranks)));
  rt.run([&](smpi::Comm& c) {
    const auto me = static_cast<std::size_t>(c.rank());
    Plan3D p(c, plan, boxes[me], boxes[me]);
    std::vector<cplx> data(static_cast<std::size_t>(p.input_elements()),
                           cplx{1, 1});
    for (auto& after : clocks) {
      p.execute(data.data(), data.data(), dft::Direction::Forward);
      after[me] = c.vtime();
    }
  });
  return clocks;
}

std::string describe(const SimConfig& cfg) {
  return backend_name(cfg.options.backend) +
         (cfg.options.contiguous_fft ? " contiguous" : " strided") +
         " batch " + std::to_string(cfg.options.batch) +
         (cfg.options.batch > 1 && cfg.options.overlap_batches ? " overlap"
                                                                : "");
}

TEST(Simulate, AgreesWithThreadedExecution) {
  // Same machine, same plan: the simulator's per-rank clocks equal the
  // threaded runtime's virtual clocks bit for bit, for every backend and
  // both FFT layouts.
  for (Backend backend :
       {Backend::Alltoallv, Backend::Alltoall, Backend::Alltoallw,
        Backend::P2PBlocking, Backend::P2PNonBlocking}) {
    for (bool contiguous : {false, true}) {
      SimConfig cfg = base_config(12, {16, 16, 16});
      cfg.options.backend = backend;
      cfg.options.contiguous_fft = contiguous;
      cfg.warmed = false;  // the threaded plan also pays first-call spikes
      const SimReport rep = simulate(cfg);
      const std::vector<double> threaded =
          threaded_clocks(Simulator(cfg).plan())[0];
      for (int r = 0; r < cfg.nranks; ++r)
        EXPECT_EQ(threaded[static_cast<std::size_t>(r)],
                  rep.rank_times[static_cast<std::size_t>(r)])
            << describe(cfg) << " rank " << r;
    }
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
  // Batched transforms, the overlap pipeline off and on. Without overlap
  // every rank's clock equals the simulator's bit for bit. With overlap,
  // the threaded plan moves the data stage by stage and one collective
  // then lands every clock on the latest entry clock plus t, the
  // pipelined time both modes price: exactly t after the first execute,
  // and 2t after a second execute of the same plan, which reuses the t
  // its first execute priced.
  struct Case {
    int nranks;
    std::array<int, 3> n;
    int batch;
    Backend backend;
    bool contiguous;
  };
  std::vector<Case> cases;
  for (Backend backend :
       {Backend::Alltoallv, Backend::P2PNonBlocking, Backend::Alltoallw})
    for (bool contiguous : {false, true})
      cases.push_back({12, {16, 16, 16}, 3, backend, contiguous});
  // Eight nodes, where the exchanges' placement on the fabric matters.
  cases.push_back({48, {32, 32, 32}, 8, Backend::Alltoallv, false});
  for (const Case& c : cases) {
    SimConfig cfg = base_config(c.nranks, c.n);
    cfg.options.backend = c.backend;
    cfg.options.contiguous_fft = c.contiguous;
    cfg.options.batch = c.batch;
    cfg.options.overlap_batches = false;
    cfg.warmed = false;  // the threaded plan also pays first-call spikes
    const SimReport seq = simulate(cfg);
    const std::vector<double> threaded_seq =
        threaded_clocks(Simulator(cfg).plan())[0];
    for (int r = 0; r < cfg.nranks; ++r)
      EXPECT_EQ(threaded_seq[static_cast<std::size_t>(r)],
                seq.rank_times[static_cast<std::size_t>(r)])
          << describe(cfg) << " rank " << r;

    cfg.options.overlap_batches = true;
    Simulator sim(cfg);
    // The pipeline prices warm plans either way.
    const double t = sim.transform_time(c.batch);
    const auto threaded = threaded_clocks(sim.plan(), 2);
    for (int r = 0; r < cfg.nranks; ++r) {
      EXPECT_EQ(threaded[0][static_cast<std::size_t>(r)], t)
          << describe(cfg) << " rank " << r;
      EXPECT_EQ(threaded[1][static_cast<std::size_t>(r)], t + t)
          << describe(cfg) << " rank " << r << ", second execute";
    }
  }
}

TEST(Simulate, ThreadedOverlapOnASubCommunicatorMatchesThePricedPipeline) {
  // The settle prices the pipeline on its communicator's world ranks. The
  // odd ranks of 12 span both Summit nodes, where ranks 0-5 would share
  // one, so an identity group would price another time.
  const std::vector<int> members{1, 3, 5, 7, 9, 11};
  smpi::RuntimeOptions ro;
  ro.nranks = 12;
  PlanOptions opt;
  opt.decomp = Decomposition::Pencil;
  opt.batch = 3;
  const std::array<int, 3> n{16, 16, 16};
  const auto boxes = brick_layout(n, 6);
  const StagePlan plan = build_stages(n, 6, boxes, boxes, opt, ro.machine);

  smpi::Runtime rt(ro);
  std::vector<double> entry(12), first(12), second(12);
  rt.run([&](smpi::Comm& world) {
    smpi::Comm sub = world.create_group(members);
    if (!sub.valid()) return;
    const auto me = static_cast<std::size_t>(sub.rank());
    const auto w = static_cast<std::size_t>(world.world_rank());
    Plan3D p(sub, plan, boxes[me], boxes[me]);
    std::vector<cplx> data(static_cast<std::size_t>(p.input_elements()),
                           cplx{1, 1});
    entry[w] = sub.vtime();
    p.execute(data.data(), data.data(), dft::Direction::Forward);
    first[w] = sub.vtime();
    p.execute(data.data(), data.data(), dft::Direction::Forward);
    second[w] = sub.vtime();
  });

  const net::CommCost cost(ro.machine, net::RankMap{ro.machine.gpus_per_node},
                           ro.nranks);
  const double t =
      overlapped_batch_time(plan, ro.device, cost, net::TransferMode::GpuAware,
                            ro.flavor, opt.batch, members);
  ASSERT_NE(t, overlapped_batch_time(plan, ro.device, cost,
                                     net::TransferMode::GpuAware, ro.flavor,
                                     opt.batch));
  double base = 0;
  for (int m : members) base = std::max(base, entry[static_cast<std::size_t>(m)]);
  for (int m : members) {
    EXPECT_EQ(first[static_cast<std::size_t>(m)], base + t) << "rank " << m;
    EXPECT_EQ(second[static_cast<std::size_t>(m)], base + t + t)
        << "rank " << m << ", second execute";
  }
}

TEST(Simulate, SimulatorMatchesSimulateAndMemoizes) {
  // simulate() is a traced run of a Simulator: with one repeat its total
  // is the handle's transform_time bit for bit, batched or not,
  // overlapped or not, warm or cold.
  for (int batch : {1, 3}) {
    for (bool overlap : {false, true}) {
      for (bool warmed : {true, false}) {
        SimConfig cfg = base_config(12, {32, 32, 32});
        cfg.options.batch = batch;
        cfg.options.overlap_batches = overlap;
        cfg.warmed = warmed;
        cfg.repeats = 1;
        Simulator sim(cfg);
        const SimReport rep = simulate(cfg);
        EXPECT_EQ(rep.total, sim.transform_time(batch, !warmed))
            << "batch " << batch << (overlap ? " overlap" : " sequential")
            << (warmed ? " warm" : " cold");
        EXPECT_EQ(sim.transform_time(batch, !warmed),
                  sim.transform_time(batch, !warmed));
      }
    }
  }
  Simulator sim(base_config(12, {32, 32, 32}));
  EXPECT_GT(sim.plan_setup_time(), 0)
      << "cold first transform must pay Fig. 10's plan-setup spike";
}

// The pipeline schedules the same stage records the sequential pass sums.
// At batch 1 its one-chunk schedule is the in-order sum of each kernel's
// maximum over ranks, contiguous_fft's transposes included. Alltoallw's records hold no GPU pack or unpack, so the
// pipeline and the sequential pass both charge it no packing.
TEST(Simulate, OverlappedPipelineSchedulesTheStageRecords) {
  for (Backend backend : {Backend::Alltoallv, Backend::Alltoallw}) {
    for (bool contiguous : {false, true}) {
      SimConfig cfg = base_config(12, {32, 32, 32});
      cfg.options.backend = backend;
      cfg.options.contiguous_fft = contiguous;
      SCOPED_TRACE(describe(cfg));
      const auto boxes = brick_layout(cfg.n, cfg.nranks);
      const StagePlan plan = build_stages(cfg.n, cfg.nranks, boxes, boxes,
                                          cfg.options, cfg.machine);
      const net::RankMap map{cfg.machine.gpus_per_node};
      const net::CommCost cost(cfg.machine, map, cfg.nranks);
      const net::TransferMode mode = net::TransferMode::GpuAware;
      StageCostMemo memo;
      double want = 0;
      int reorders = 0, packs = 0;
      for (std::size_t i = 0; i < plan.stages.size(); ++i) {
        const StageCost& sc =
            memo.stage(plan, i, 1, cfg.device, cost, mode, cfg.flavor);
        for (const Kernel& k : sc.slots) {
          reorders += k.kind == KernelKind::Reorder ? 1 : 0;
          packs += k.kind == KernelKind::Pack || k.kind == KernelKind::Unpack
                       ? 1
                       : 0;
          for (int call = 0; call < k.calls; ++call) want += k.seconds;
        }
      }
      EXPECT_EQ(overlapped_batch_time(plan, cfg.device, cost, mode,
                                      cfg.flavor, 1),
                want);
      EXPECT_EQ(reorders > 0, contiguous);
      EXPECT_EQ(packs > 0, backend != Backend::Alltoallw);
      const SimReport seq = simulate(cfg);
      EXPECT_EQ(seq.kernels.unpack > 0, backend != Backend::Alltoallw);
    }
  }
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

// The strong-scaling sweep's largest points price wide exchange phases
// (reshape planning over 3072 boxes, thousands of padded or storm flows)
// and must keep reproducing these exact results, recorded before planning
// and pairwise pricing stopped scaling with the square of the rank count.
TEST(Simulate, LargeScalePricingMatchesRecordedValues) {
  struct Point {
    int ranks;
    Backend backend;
    double per_transform;
    std::uint64_t rank_times_digest;
  };
  const Point points[] = {
      {3072, Backend::Alltoallv, 0x1.2619755784898p-9, 0xafb90058345af43dull},
      {3072, Backend::P2PNonBlocking, 0x1.526a332cdd624p-8,
       0xaadcf6836ab4de25ull},
      {1536, Backend::Alltoall, 0x1.ef8ae5b7d872dp-4, 0xe113d193faa84025ull},
  };
  for (const Point& p : points) {
    SimConfig cfg = base_config(p.ranks, {512, 512, 512});
    cfg.options.backend = p.backend;
    cfg.gpu_aware = true;
    const SimReport rep = simulate(cfg);
    ASSERT_EQ(rep.rank_times.size(), static_cast<std::size_t>(p.ranks));
    // FNV-1a over the bit patterns of the per-rank clocks.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (double t : rep.rank_times) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &t, sizeof bits);
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
    EXPECT_EQ(rep.per_transform, p.per_transform)
        << backend_name(p.backend) << " r" << p.ranks;
    EXPECT_EQ(h, p.rank_times_digest)
        << backend_name(p.backend) << " r" << p.ranks;
  }
}

}  // namespace
}  // namespace parfft::core
