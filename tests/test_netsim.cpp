// Network simulator tests: machine specs, flow-level bandwidth sharing
// (max-min fairness, bottlenecks, staging caps) and the collective cost
// models that differentiate the paper's MPI exchange families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
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

// The pairwise exchange's sparse bookkeeping and FlowSim's two regimes
// must keep reproducing these exact results: digests of every output bit
// pattern, recorded before the pairwise pricing stopped building a dense
// G x G matrix and the wide path stopped keeping per-flow state.
TEST(CommCost, PairwiseAndWidePhasesMatchRecordedResults) {
  struct Case {
    int G;
    int comps;
    int per_row;
    double lo, hi;
    const char* digest;
  };
  // Blocks at or below MachineSpec::bruck_threshold (4096 bytes) take
  // Bruck's path when padded; the others reach FlowSim, on both sides of
  // kExactFlowLimit.
  const Case cases[] = {
      {40, 3, 6, 16, 600, "f15d4f597f1d90df"},         // Bruck-sized
      {48, 4, 5, 1e5, 4e6, "962f1e813b024a87"},        // exact both ways
      {96, 2, 24, 1e5, 4e6, "c5d5ad6821dcaca6"},       // wide both ways
      {120, 6, 12, 3e3, 9e4, "1cccfd7180d8ab95"},      // padded wide only
  };
  const MachineSpec m = summit();
  const CommCost cost(m, RankMap{6}, 132);
  Rng rng(15);
  for (const Case& c : cases) {
    // The group is a scattered subset of the world in shuffled order.
    std::vector<int> world(132);
    for (int r = 0; r < 132; ++r) world[static_cast<std::size_t>(r)] = r;
    std::shuffle(world.begin(), world.end(), rng.engine());
    const std::vector<int> group(world.begin(), world.begin() + c.G);
    const SendMatrix sends = random_sends(rng, c.G, c.comps, c.per_row, c.lo,
                                          c.hi);
    Fnv fnv;
    for (CollectiveAlg alg : {CollectiveAlg::Alltoall,
                              CollectiveAlg::Alltoallv,
                              CollectiveAlg::P2PNonBlocking})
      for (TransferMode mode : {TransferMode::GpuAware, TransferMode::Staged,
                                TransferMode::Host}) {
        LinkStats stats;
        const PhaseTimes p =
            cost.exchange(group, sends, alg, mode, MpiFlavor::SpectrumMPI,
                          &stats);
        fnv.add(p.total);
        for (double v : p.per_rank) fnv.add(v);
        fnv.add(p.max_block);
        fnv.add(p.moved_bytes);
        fnv.add(stats.duration);
        for (const LinkStats::Link& l : stats.links) {
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
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv.h));
    EXPECT_STREQ(hex, c.digest) << "G=" << c.G << " comps=" << c.comps;
  }
}

}  // namespace
}  // namespace parfft::net
