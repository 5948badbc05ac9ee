// Network simulator tests: machine specs, flow-level bandwidth sharing
// (max-min fairness, bottlenecks, staging caps) and the collective cost
// models that differentiate the paper's MPI exchange families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "netsim/collectives.hpp"
#include "netsim/flowsim.hpp"
#include "netsim/machine.hpp"

namespace parfft::net {
namespace {

constexpr double kTol = 1e-9;

TEST(Machine, SummitMatchesPaperNumbers) {
  const MachineSpec m = summit();
  EXPECT_EQ(m.gpus_per_node, 6);
  EXPECT_DOUBLE_EQ(m.nic_bw, 23.5e9);       // Section II-A
  EXPECT_DOUBLE_EQ(m.gpu_gpu_bw, 50e9);     // NVLink per direction
  EXPECT_DOUBLE_EQ(m.latency_inter, 1e-6);  // Section IV-A
}

TEST(Machine, SpockHasFourGpusPerNode) {
  EXPECT_EQ(spock().gpus_per_node, 4);
}

TEST(Machine, CoreEfficiencyDecaysWithScale) {
  const MachineSpec m = summit();
  EXPECT_DOUBLE_EQ(m.core_efficiency(1), 1.0);
  EXPECT_GT(m.core_efficiency(2), m.core_efficiency(128));
  EXPECT_GT(m.core_efficiency(128), 0.5);
}

TEST(RankMap, PlacesSixRanksPerNode) {
  RankMap map{6};
  EXPECT_EQ(map.node_of(0), 0);
  EXPECT_EQ(map.node_of(5), 0);
  EXPECT_EQ(map.node_of(6), 1);
  EXPECT_EQ(map.dev_of(7), 1);
  EXPECT_TRUE(map.same_node(0, 5));
  EXPECT_FALSE(map.same_node(5, 6));
  EXPECT_EQ(map.nodes_for(24), 4);
  EXPECT_EQ(map.nodes_for(25), 5);
}

class FlowSimTest : public ::testing::Test {
 protected:
  MachineSpec m = summit();
  RankMap map{6};
};

TEST_F(FlowSimTest, SingleIntraNodeFlowRunsAtNvlinkRate) {
  FlowSim sim(m, map, 12);
  const double bytes = 1e9;
  const double t = sim.single_flow_time(0, 1, bytes, TransferMode::GpuAware);
  EXPECT_NEAR(t, bytes / m.gpu_gpu_bw, kTol);
}

TEST_F(FlowSimTest, SingleInterNodeFlowIsNicLimited) {
  FlowSim sim(m, map, 12);
  const double bytes = 1e9;
  const double t = sim.single_flow_time(0, 6, bytes, TransferMode::GpuAware);
  EXPECT_NEAR(t, bytes / (m.nic_bw * m.single_flow_nic_fraction), kTol);
}

TEST_F(FlowSimTest, StagedModeIsCappedByHostLink) {
  MachineSpec slow = m;
  slow.gpu_host_bw = 5e9;  // slower than the NIC
  FlowSim sim(slow, map, 12);
  const double bytes = 1e9;
  const double t = sim.single_flow_time(0, 6, bytes, TransferMode::Staged);
  EXPECT_NEAR(t, bytes / 5e9, kTol);
}

TEST_F(FlowSimTest, SelfFlowUsesDeviceCopy) {
  FlowSim sim(m, map, 12);
  const double bytes = 1e9;
  const double t = sim.single_flow_time(3, 3, bytes, TransferMode::GpuAware);
  EXPECT_NEAR(t, bytes / (m.hbm_bw / 2), kTol);
}

TEST_F(FlowSimTest, TwoFlowsShareTheNicFairly) {
  FlowSim sim(m, map, 12);
  const double bytes = 1e9;
  std::vector<Flow> flows = {{0, 6, bytes}, {1, 7, bytes}};
  sim.run(flows, TransferMode::GpuAware);
  // Same source node: NIC out is the bottleneck, each gets nic_bw / 2.
  EXPECT_NEAR(flows[0].finish, bytes / (m.nic_bw / 2), 1e-6);
  EXPECT_NEAR(flows[1].finish, flows[0].finish, kTol);
}

TEST_F(FlowSimTest, UnequalFlowsFinishProgressively) {
  FlowSim sim(m, map, 12);
  const double bytes = 1e9;
  std::vector<Flow> flows = {{0, 6, bytes}, {1, 7, bytes / 2}};
  sim.run(flows, TransferMode::GpuAware);
  // The short flow finishes first; the long one then speeds up.
  EXPECT_LT(flows[1].finish, flows[0].finish);
  // Exact progressive-filling arithmetic: both run at nic/2 until the
  // short one ends at (b/2)/(nic/2); the rest of the long flow runs at
  // min(nic remaining, single-flow cap).
  const double t1 = (bytes / 2) / (m.nic_bw / 2);
  const double rest = bytes - (m.nic_bw / 2) * t1;
  const double t2 =
      t1 + rest / (m.nic_bw * m.single_flow_nic_fraction);
  EXPECT_NEAR(flows[1].finish, t1, 1e-6);
  EXPECT_NEAR(flows[0].finish, t2, 1e-6);
}

TEST_F(FlowSimTest, DisjointNodePairsDoNotInterfere) {
  FlowSim sim(m, map, 24);
  const double bytes = 1e9;
  std::vector<Flow> flows = {{0, 6, bytes}, {12, 18, bytes}};
  sim.run(flows, TransferMode::GpuAware);
  const double solo = sim.single_flow_time(0, 6, bytes, TransferMode::GpuAware);
  EXPECT_NEAR(flows[0].finish, solo, 1e-6);
  EXPECT_NEAR(flows[1].finish, solo, 1e-6);
}

TEST_F(FlowSimTest, StartOffsetsDelayCompletion) {
  FlowSim sim(m, map, 12);
  const double bytes = 1e8;
  std::vector<Flow> flows = {{0, 6, bytes, /*start=*/1.0}};
  sim.run(flows, TransferMode::GpuAware);
  EXPECT_NEAR(flows[0].finish,
              1.0 + bytes / (m.nic_bw * m.single_flow_nic_fraction), 1e-6);
}

TEST_F(FlowSimTest, ZeroByteFlowFinishesAtStart) {
  FlowSim sim(m, map, 12);
  std::vector<Flow> flows = {{0, 6, 0.0, 0.25}};
  sim.run(flows, TransferMode::GpuAware);
  EXPECT_DOUBLE_EQ(flows[0].finish, 0.25);
}

TEST_F(FlowSimTest, ManyNodesSaturateTheCore) {
  // With every node sending off-node simultaneously, the core link's
  // efficiency decay makes per-flow bandwidth drop below nic_bw.
  const int nodes = 64;
  FlowSim sim(m, map, nodes * 6);
  std::vector<Flow> flows;
  const double bytes = 1e8;
  for (int n = 0; n < nodes; ++n)
    flows.push_back({n * 6, ((n + 1) % nodes) * 6, bytes});
  sim.run(flows, TransferMode::GpuAware);
  const double per_flow_bw = bytes / flows[0].finish;
  EXPECT_LT(per_flow_bw, m.nic_bw);
  EXPECT_GT(per_flow_bw, 0.5 * m.nic_bw);
}

TEST_F(FlowSimTest, RejectsBadEndpoint) {
  FlowSim sim(m, map, 12);
  std::vector<Flow> flows = {{0, 99, 10.0}};
  EXPECT_THROW(sim.run(flows, TransferMode::GpuAware), Error);
}

// --------------------------------------------------------------------------
// Collective cost models
// --------------------------------------------------------------------------

class CommCostTest : public ::testing::Test {
 protected:
  MachineSpec m = summit();
  RankMap map{6};
  CommCost cost{m, map, 24};

  static SendMatrix uniform(int G, double bytes) {
    SendMatrix s(static_cast<std::size_t>(G));
    for (int i = 0; i < G; ++i)
      for (int j = 0; j < G; ++j)
        if (i != j) s[static_cast<std::size_t>(i)].push_back({j, bytes});
    return s;
  }

  static std::vector<int> iota(int G, int stride = 1) {
    std::vector<int> g;
    for (int i = 0; i < G; ++i) g.push_back(i * stride);
    return g;
  }
};

TEST_F(CommCostTest, PointToPointIncludesLatencyAndOverhead) {
  const double t = cost.point_to_point(0, 6, 0, TransferMode::Host);
  EXPECT_NEAR(t, m.latency_inter + m.mpi_overhead, kTol);
}

TEST_F(CommCostTest, AlltoallvEqualsAlltoallWhenBalanced) {
  const auto g = iota(24);
  const auto s = uniform(24, 1 << 20);
  const auto a = cost.exchange(g, s, CollectiveAlg::Alltoall,
                               TransferMode::GpuAware, MpiFlavor::SpectrumMPI);
  const auto v = cost.exchange(g, s, CollectiveAlg::Alltoallv,
                               TransferMode::GpuAware, MpiFlavor::SpectrumMPI);
  // Difference is only the padded self-block round: well under 1%.
  EXPECT_NEAR(a.total, v.total, 0.01 * v.total);
}

TEST_F(CommCostTest, PaddingPenalizesImbalancedAlltoall) {
  // One large pair forces every block to the max size under MPI_Alltoall.
  const auto g = iota(24);
  SendMatrix s = uniform(24, 1 << 16);
  s[0][0].second = 1 << 22;  // rank 0 -> rank 1 block is 64x larger
  const auto a = cost.exchange(g, s, CollectiveAlg::Alltoall,
                               TransferMode::GpuAware, MpiFlavor::SpectrumMPI);
  const auto v = cost.exchange(g, s, CollectiveAlg::Alltoallv,
                               TransferMode::GpuAware, MpiFlavor::SpectrumMPI);
  EXPECT_GT(a.total, 5 * v.total);
  EXPECT_DOUBLE_EQ(a.max_block, double{1 << 22});
}

TEST_F(CommCostTest, AlltoallwIsSlowerThanAlltoallv) {
  // Same payload; the naive storm + datatype handling must cost more
  // (paper Fig. 2).
  const auto g = iota(24);
  const auto s = uniform(24, 1 << 20);
  const auto v = cost.exchange(g, s, CollectiveAlg::Alltoallv,
                               TransferMode::GpuAware, MpiFlavor::Mvapich);
  const auto w = cost.exchange(g, s, CollectiveAlg::Alltoallw,
                               TransferMode::GpuAware, MpiFlavor::Mvapich);
  EXPECT_GT(w.total, v.total);
}

TEST_F(CommCostTest, SpectrumAlltoallwIsNotGpuAware) {
  // SpectrumMPI downgrades GPU-aware Alltoallw to host staging; MVAPICH
  // does not. The Spectrum path must therefore be slower.
  const auto g = iota(24);
  const auto s = uniform(24, 1 << 20);
  const auto spectrum =
      cost.exchange(g, s, CollectiveAlg::Alltoallw, TransferMode::GpuAware,
                    MpiFlavor::SpectrumMPI);
  const auto mvapich =
      cost.exchange(g, s, CollectiveAlg::Alltoallw, TransferMode::GpuAware,
                    MpiFlavor::Mvapich);
  EXPECT_GT(spectrum.total, mvapich.total);
}

TEST_F(CommCostTest, DegradedFabricSlowsBruckAlltoall) {
  // 2 KiB blocks take Bruck's small-block path when padded; its rounds
  // cross the same NICs as any other exchange, so halving them must cost
  // time.
  ASSERT_LE(2048.0, m.bruck_threshold);
  const auto g = iota(24);
  const auto s = uniform(24, 2048);
  CommCost degraded = cost;
  degraded.flowsim().set_nic_scale(0.5);
  const auto healthy = cost.exchange(g, s, CollectiveAlg::Alltoall,
                                     TransferMode::GpuAware,
                                     MpiFlavor::SpectrumMPI);
  const auto slow = degraded.exchange(g, s, CollectiveAlg::Alltoall,
                                      TransferMode::GpuAware,
                                      MpiFlavor::SpectrumMPI);
  EXPECT_GT(slow.total, healthy.total);
}

TEST_F(CommCostTest, BlockingAndNonBlockingP2PAreClose) {
  // Paper Fig. 3: "not much difference" between Send and Isend.
  const auto g = iota(24);
  const auto s = uniform(24, 1 << 20);
  const auto nb = cost.exchange(g, s, CollectiveAlg::P2PNonBlocking,
                                TransferMode::GpuAware, MpiFlavor::SpectrumMPI);
  const auto b = cost.exchange(g, s, CollectiveAlg::P2PBlocking,
                               TransferMode::GpuAware, MpiFlavor::SpectrumMPI);
  EXPECT_GT(b.total, nb.total);
  EXPECT_LT(b.total, 1.10 * nb.total);
}

TEST_F(CommCostTest, GpuAwareBeatsStagedForLargeMessages) {
  const auto g = iota(24);
  const auto s = uniform(24, 4 << 20);
  const auto aware = cost.exchange(g, s, CollectiveAlg::Alltoallv,
                                   TransferMode::GpuAware,
                                   MpiFlavor::SpectrumMPI);
  const auto staged = cost.exchange(g, s, CollectiveAlg::Alltoallv,
                                    TransferMode::Staged,
                                    MpiFlavor::SpectrumMPI);
  EXPECT_GT(staged.total, aware.total);
}

TEST_F(CommCostTest, RdmaPeerPressurePenalizesWideGpuAwareP2P) {
  // A wide GPU-aware P2P storm (many peers per rank) must degrade more
  // than the staged variant does (mechanism behind paper Fig. 9).
  CommCost big(m, map, 96);
  const auto g = iota(96);
  const auto s = uniform(96, 1 << 16);
  const auto aware = big.exchange(g, s, CollectiveAlg::P2PNonBlocking,
                                  TransferMode::GpuAware,
                                  MpiFlavor::SpectrumMPI);
  // Overhead added by RDMA peer pressure: (95 - threshold) * penalty.
  const auto narrow_g = iota(6);
  const auto narrow = big.exchange(narrow_g, uniform(6, 1 << 16),
                                   CollectiveAlg::P2PNonBlocking,
                                   TransferMode::GpuAware,
                                   MpiFlavor::SpectrumMPI);
  EXPECT_GT(aware.total, narrow.total + (95 - m.rdma_peer_threshold) *
                                            m.rdma_peer_penalty * 0.5);
}

TEST_F(CommCostTest, PerRankTimesBoundedByTotal) {
  const auto g = iota(24);
  const auto s = uniform(24, 1 << 18);
  for (auto alg : {CollectiveAlg::Alltoall, CollectiveAlg::Alltoallv,
                   CollectiveAlg::Alltoallw, CollectiveAlg::P2PBlocking,
                   CollectiveAlg::P2PNonBlocking}) {
    const auto p = cost.exchange(g, s, alg, TransferMode::GpuAware,
                                 MpiFlavor::SpectrumMPI);
    ASSERT_EQ(p.per_rank.size(), 24u);
    for (double v : p.per_rank) {
      EXPECT_GT(v, 0);
      EXPECT_LE(v, p.total + kTol);
    }
  }
}

TEST_F(CommCostTest, MoreBytesTakeMoreTime) {
  const auto g = iota(24);
  double prev = 0;
  for (double b : {1e4, 1e5, 1e6, 1e7}) {
    const auto p = cost.exchange(g, uniform(24, b), CollectiveAlg::Alltoallv,
                                 TransferMode::GpuAware,
                                 MpiFlavor::SpectrumMPI);
    EXPECT_GT(p.total, prev);
    prev = p.total;
  }
}

TEST_F(CommCostTest, EmptyGroupRejected) {
  EXPECT_THROW(cost.exchange({}, {}, CollectiveAlg::Alltoallv,
                             TransferMode::GpuAware, MpiFlavor::SpectrumMPI),
               Error);
}

TEST_F(CommCostTest, IsP2PHelper) {
  EXPECT_TRUE(is_p2p(CollectiveAlg::P2PBlocking));
  EXPECT_TRUE(is_p2p(CollectiveAlg::P2PNonBlocking));
  EXPECT_FALSE(is_p2p(CollectiveAlg::Alltoall));
  EXPECT_FALSE(is_p2p(CollectiveAlg::Alltoallw));
}

TEST_F(CommCostTest, MovedBytesCountsPayload) {
  const auto g = iota(6);
  const auto s = uniform(6, 1000.0);
  const auto p = cost.exchange(g, s, CollectiveAlg::Alltoallv,
                               TransferMode::GpuAware, MpiFlavor::SpectrumMPI);
  EXPECT_DOUBLE_EQ(p.moved_bytes, 6.0 * 5.0 * 1000.0);
}

/// FNV-1a over the bit patterns of exchange results.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    for (char c : s) add(static_cast<std::uint64_t>(c));
  }
};

/// A seeded send matrix over `G` group positions: each position joins one
/// of `comps` traffic components or (one in eight) stays isolated, and
/// sends `per_row` entries to members of its own component in random
/// order -- self-sends, zero-byte entries and repeated destinations
/// included -- of byte counts in [lo, hi). The counts are not whole
/// numbers, so the order in which repeated destinations and payloads are
/// summed shows in the results.
SendMatrix random_sends(Rng& rng, int G, int comps, int per_row, double lo,
                        double hi) {
  std::vector<std::vector<int>> members(static_cast<std::size_t>(comps));
  std::vector<int> comp(static_cast<std::size_t>(G), -1);
  for (int i = 0; i < G; ++i) {
    if (rng.uniform_int(0, 7) == 0) continue;
    const auto c = static_cast<std::size_t>(rng.uniform_int(0, comps - 1));
    comp[static_cast<std::size_t>(i)] = static_cast<int>(c);
    members[c].push_back(i);
  }
  SendMatrix s(static_cast<std::size_t>(G));
  for (int i = 0; i < G; ++i) {
    const int c = comp[static_cast<std::size_t>(i)];
    if (c < 0) continue;
    const auto& peers = members[static_cast<std::size_t>(c)];
    auto& row = s[static_cast<std::size_t>(i)];
    for (int k = 0; k < per_row; ++k) {
      const int j =
          !row.empty() && rng.uniform_int(0, 5) == 0
              ? row.back().first
              : peers[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(peers.size()) - 1))];
      const double b = rng.uniform_int(0, 6) == 0 ? 0.0 : rng.uniform(lo, hi);
      row.push_back({j, b});
    }
  }
  return s;
}

/// Adds one exchange's PhaseTimes, and its LinkStats when given, to `fnv`.
void add_phase(Fnv& fnv, const PhaseTimes& p, const LinkStats* stats) {
  fnv.add(p.total);
  for (double v : p.per_rank) fnv.add(v);
  fnv.add(p.max_block);
  fnv.add(p.moved_bytes);
  if (!stats) return;
  fnv.add(stats->duration);
  for (const LinkStats::Link& l : stats->links) {
    fnv.add(l.name);
    for (double v : {l.capacity, l.bytes, l.peak_rate, l.util_sum,
                     l.busy_time, l.saturated_time})
      fnv.add(v);
    for (const auto& [t, rate] : l.samples) {
      fnv.add(t);
      fnv.add(rate);
    }
  }
}

/// Digest of `sends` over `group` exchanged by each of `algs` under every
/// transfer mode, stats on. Each exchange also runs with stats off, and
/// must then return the same PhaseTimes bit for bit.
std::string exchange_digest(const CommCost& cost, const std::vector<int>& group,
                            const SendMatrix& sends,
                            std::initializer_list<CollectiveAlg> algs) {
  Fnv fnv;
  for (CollectiveAlg alg : algs)
    for (TransferMode mode : {TransferMode::GpuAware, TransferMode::Staged,
                              TransferMode::Host}) {
      LinkStats stats;
      const PhaseTimes p =
          cost.exchange(group, sends, alg, mode, MpiFlavor::SpectrumMPI,
                        &stats);
      add_phase(fnv, p, &stats);
      Fnv on, off;
      add_phase(on, p, nullptr);
      add_phase(off, cost.exchange(group, sends, alg, mode,
                                   MpiFlavor::SpectrumMPI),
                nullptr);
      EXPECT_EQ(on.h, off.h) << "stats changed the result: alg "
                             << static_cast<int>(alg) << " mode "
                             << static_cast<int>(mode);
    }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv.h));
  return hex;
}

/// A shuffled subset of `G` ranks of a `world`-rank machine.
std::vector<int> shuffled_group(Rng& rng, int world, int G) {
  std::vector<int> ranks(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) ranks[static_cast<std::size_t>(r)] = r;
  std::shuffle(ranks.begin(), ranks.end(), rng.engine());
  return {ranks.begin(), ranks.begin() + G};
}

// The pairwise exchange's sparse bookkeeping and FlowSim's two regimes
// must keep reproducing these exact results: digests of every output bit
// pattern, recorded before the pairwise pricing stopped building a dense
// G x G matrix and the wide path stopped keeping per-flow state. The
// degraded-fabric digests (NICs and core at half capacity), the Spock
// case and the dense padded case were recorded while padded blocks were
// still stored as a flow vector, before the estimate read them as a
// generated stream. The Bruck-sized degraded digest was re-recorded when
// Bruck's rounds started running at the degraded NIC rate
// (FlowSim::nic_scale()); before that they ignored it.
TEST(CommCost, PairwiseAndWidePhasesMatchRecordedResults) {
  struct Case {
    int G;
    int comps;
    int per_row;
    double lo, hi;
    const char* digest;
    const char* degraded;
  };
  // Blocks at or below MachineSpec::bruck_threshold (4096 bytes) take
  // Bruck's path when padded; the others reach FlowSim, on both sides of
  // kExactFlowLimit.
  const Case cases[] = {
      // Bruck-sized
      {40, 3, 6, 16, 600, "f15d4f597f1d90df", "ac6461902568278a"},
      // exact both ways
      {48, 4, 5, 1e5, 4e6, "962f1e813b024a87", "4b6f9bbb127089b4"},
      // wide both ways
      {96, 2, 24, 1e5, 4e6, "c5d5ad6821dcaca6", "6aab69603a945cb5"},
      // padded wide only
      {120, 6, 12, 3e3, 9e4, "1cccfd7180d8ab95", "1ec2979e2fa84c54"},
  };
  const MachineSpec m = summit();
  const CommCost cost(m, RankMap{6}, 132);
  CommCost degraded = cost;
  degraded.flowsim().set_nic_scale(0.5);
  const auto algs = {CollectiveAlg::Alltoall, CollectiveAlg::Alltoallv,
                     CollectiveAlg::P2PNonBlocking};
  Rng rng(15);
  for (const Case& c : cases) {
    const std::vector<int> group = shuffled_group(rng, 132, c.G);
    const SendMatrix sends = random_sends(rng, c.G, c.comps, c.per_row, c.lo,
                                          c.hi);
    EXPECT_EQ(exchange_digest(cost, group, sends, algs), c.digest)
        << "G=" << c.G << " comps=" << c.comps;
    EXPECT_EQ(exchange_digest(degraded, group, sends, algs), c.degraded)
        << "degraded G=" << c.G << " comps=" << c.comps;
  }

  // Spock's intra- and inter-node latencies differ, so each rank's
  // handshake sum depends on which of its peers share its node; an
  // ordered group puts four consecutive positions on every node.
  const MachineSpec spock_spec = spock();
  const CommCost spock_cost(spock_spec, RankMap{spock_spec.gpus_per_node},
                            132);
  Rng spock_rng(23);
  std::vector<int> ordered(96);
  for (int r = 0; r < 96; ++r) ordered[static_cast<std::size_t>(r)] = r;
  EXPECT_EQ(exchange_digest(spock_cost, ordered,
                            random_sends(spock_rng, 96, 2, 24, 1e5, 4e6),
                            algs),
            "06b96b11f71dc618");

  // One dense padded component of 560 shuffled ranks: 313,600 flows, the
  // shape of a large-scale MPI_Alltoall reshape.
  constexpr int kWorld = 600, kG = 560;
  const CommCost wide(m, RankMap{6}, kWorld);
  CommCost wide_degraded = wide;
  wide_degraded.flowsim().set_nic_scale(0.5);
  Rng dense_rng(19);
  const std::vector<int> group = shuffled_group(dense_rng, kWorld, kG);
  SendMatrix sends(static_cast<std::size_t>(kG));
  for (int i = 0; i < kG; ++i) {
    auto& row = sends[static_cast<std::size_t>(i)];
    row.push_back({(i + 1) % kG, dense_rng.uniform(1e4, 2e5)});
    for (int k = 0; k < 3; ++k)
      row.push_back({static_cast<int>(dense_rng.uniform_int(0, kG - 1)),
                     dense_rng.uniform(1e4, 2e5)});
  }
  EXPECT_EQ(exchange_digest(wide, group, sends, {CollectiveAlg::Alltoall}),
            "3f4d512332511d10");
  EXPECT_EQ(exchange_digest(wide_degraded, group, sends,
                            {CollectiveAlg::Alltoall}),
            "4310224dc9c80a5e");
}

// A wide phase as FlowSim::run takes it from its callers: staggered
// starts, per-flow rate caps that bind (alternating between flows of one
// size, so a cached bytes / cap must follow the cap too), self-sends and
// empty flows. Digests recorded while the estimate still read a vector.
TEST(FlowSim, WidePhaseMatchesRecordedResults) {
  const FlowSim sim(summit(), RankMap{6}, 48);
  Rng rng(29);
  std::vector<Flow> flows;
  for (int f = 0; f < 1500; ++f) {
    Flow fl;
    fl.src = static_cast<int>(rng.uniform_int(0, 47));
    fl.dst = static_cast<int>(rng.uniform_int(0, 47));
    fl.bytes = rng.uniform_int(0, 9) == 0 ? 0.0 : 1e6 * (1 + f / 7);
    fl.start = rng.uniform(0, 1e-5);
    fl.rate_cap = f % 2 == 0 ? 0.0 : rng.uniform(1e6, 1e8);
    flows.push_back(fl);
  }
  const char* digests[] = {"08dae7f07ef63b49", "0a2fdc5847170931",
                           "3fbe8db7cabe5245"};
  int k = 0;
  for (TransferMode mode :
       {TransferMode::GpuAware, TransferMode::Staged, TransferMode::Host}) {
    std::vector<Flow> phase = flows;
    LinkStats stats;
    sim.run(phase, mode, &stats);
    Fnv fnv;
    for (const Flow& fl : phase) fnv.add(fl.finish);
    add_phase(fnv, PhaseTimes{}, &stats);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv.h));
    EXPECT_STREQ(hex, digests[k++]) << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace parfft::net
