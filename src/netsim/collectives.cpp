#include "netsim/collectives.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace parfft::net {

bool is_p2p(CollectiveAlg alg) {
  return alg == CollectiveAlg::P2PBlocking ||
         alg == CollectiveAlg::P2PNonBlocking;
}

CommCost::CommCost(const MachineSpec& spec, const RankMap& map,
                   int world_ranks)
    : sim_(spec, map, world_ranks) {}

double CommCost::per_message_overhead(TransferMode mode,
                                      double bytes) const {
  const MachineSpec& m = sim_.spec();
  double o = m.mpi_overhead;
  switch (mode) {
    case TransferMode::GpuAware:
      o += m.gpu_rdma_setup;
      break;
    case TransferMode::Staged:
      // Two pipelined staging copies add one chunk traversal each (a
      // message shorter than the chunk pays only its own length) plus
      // bookkeeping.
      o += m.stage_overhead +
           2.0 * std::min(bytes, static_cast<double>(m.stage_chunk)) /
               m.gpu_host_bw;
      break;
    case TransferMode::Host:
      break;
  }
  return o;
}

double CommCost::point_to_point(int src, int dst, double bytes,
                                TransferMode mode) const {
  const bool same = sim_.map().same_node(src, dst);
  return sim_.spec().latency(same) + per_message_overhead(mode, bytes) +
         sim_.single_flow_time(src, dst, bytes, mode);
}

PhaseTimes CommCost::pairwise_rounds(const std::vector<int>& group,
                                     const SendMatrix& sends, bool padded,
                                     TransferMode mode,
                                     LinkStats* stats) const {
  const int G = static_cast<int>(group.size());
  PARFFT_CHECK(static_cast<int>(sends.size()) == G,
               "send matrix does not match group size");
  const MachineSpec& m = sim_.spec();
  const auto UG = static_cast<std::size_t>(G);

  // Each row's bytes by destination, ascending, repeated destinations
  // summed in the order they are listed. The padded block is the largest
  // of those running sums.
  SendMatrix rows(UG);
  double max_block = 0;
  for (std::size_t i = 0; i < UG; ++i) {
    auto& row = rows[i];
    row = sends[i];
    for (const auto& [j, b] : row)
      PARFFT_CHECK(j >= 0 && j < G, "send destination outside group");
    std::stable_sort(row.begin(), row.end(), [](const auto& x, const auto& y) {
      return x.first < y.first;
    });
    std::size_t n = 0;
    for (std::size_t k = 0; k < row.size(); ++k) {
      const auto [j, b] = row[k];
      if (n == 0 || row[n - 1].first != j) row[n++] = {j, 0.0};
      row[n - 1].second += b;
      max_block = std::max(max_block, row[n - 1].second);
    }
    row.resize(n);
  }

  // MPI_Alltoall padding scope: heFFTe builds a sub-communicator per set
  // of ranks that actually exchange data, so blocks are padded to the
  // maximum within each connected component of the traffic graph, and no
  // padded traffic flows between components. Members of component c are
  // member[member_start[c] .. member_start[c + 1]), ascending.
  std::vector<int> comp(UG);
  std::vector<double> comp_max;
  std::vector<std::size_t> member_start;
  std::vector<int> member;
  if (padded) {
    std::vector<int> parent(UG);
    for (int i = 0; i < G; ++i) parent[static_cast<std::size_t>(i)] = i;
    auto find = [&parent](int x) {
      while (parent[static_cast<std::size_t>(x)] != x) {
        parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
        x = parent[static_cast<std::size_t>(x)];
      }
      return x;
    };
    for (int i = 0; i < G; ++i)
      for (const auto& [j, b] : rows[static_cast<std::size_t>(i)])
        if (b > 0) parent[static_cast<std::size_t>(find(i))] = find(j);
    comp_max.assign(UG, 0.0);
    member_start.assign(UG + 1, 0);
    for (int i = 0; i < G; ++i) {
      const auto c = static_cast<std::size_t>(find(i));
      comp[static_cast<std::size_t>(i)] = static_cast<int>(c);
      ++member_start[c + 1];
      for (const auto& [j, b] : rows[static_cast<std::size_t>(i)])
        comp_max[c] = std::max(comp_max[c], b);
    }
    for (std::size_t c = 0; c < UG; ++c) member_start[c + 1] += member_start[c];
    member.resize(UG);
    std::vector<std::size_t> fill(member_start.begin(), member_start.end() - 1);
    for (int i = 0; i < G; ++i)
      member[fill[static_cast<std::size_t>(comp[static_cast<std::size_t>(i)])]++] = i;
  }
  auto comp_size = [&](int c) {
    return static_cast<int>(member_start[static_cast<std::size_t>(c) + 1] -
                            member_start[static_cast<std::size_t>(c)]);
  };

  PhaseTimes out;
  out.per_rank.assign(UG, 0.0);
  out.max_block = padded ? max_block : 0.0;

  // Small-block MPI_Alltoall: Bruck's algorithm (ceil(log2 Gc) rounds of
  // half-group payloads plus local shuffles) replaces the (Gc-1)-message
  // exchange, as tuned MPI implementations do below a size threshold.
  if (padded && max_block > 0 && max_block <= m.bruck_threshold) {
    for (int i = 0; i < G; ++i) {
      const int ci = comp[static_cast<std::size_t>(i)];
      const int gc = comp_size(ci);
      if (gc <= 1) continue;
      const double b = comp_max[static_cast<std::size_t>(ci)];
      const double rounds = std::ceil(std::log2(static_cast<double>(gc)));
      const double msg = std::ceil(gc / 2.0) * b;
      // Conservative per-round transport: single-flow injection rate, at
      // the fabric's current NIC capacity.
      const double rate =
          m.single_flow_nic_fraction * m.nic_bw * sim_.nic_scale();
      const double shuffle = 2.0 * gc * b * 2.0 / m.hbm_bw;  // local moves
      out.per_rank[static_cast<std::size_t>(i)] =
          rounds * (m.latency_inter + per_message_overhead(mode, msg) +
                    msg / rate) +
          shuffle;
      out.moved_bytes += (gc - 1) * b;
    }
    for (double v : out.per_rank) out.total = std::max(out.total, v);
    return out;
  }

  // Optimized (SpectrumMPI-style) exchange: the pairwise schedule keeps
  // the fabric efficient and overlaps rounds, so transport behaves like a
  // fluid-optimal concurrent transfer; what cannot be hidden is the fixed
  // per-peer cost of one message handshake per round:
  //   per-rank time ~ fluid(all its traffic) + sum_peers (L + o(bytes)).
  // This reduces to the paper's eq. (2)/(3) shapes for balanced phases.
  // Padded, position i sends a block to every member of its component;
  // unpadded, one message per nonzero entry of its row.
  std::vector<int> node(UG);
  for (std::size_t i = 0; i < UG; ++i) node[i] = sim_.map().node_of(group[i]);
  std::vector<double> fixed(UG, 0.0);
  std::size_t nflows = 0;
  for (std::size_t i = 0; i < UG && !padded; ++i)
    for (const auto& [j, b] : rows[i]) {
      if (b <= 0) continue;
      const auto uj = static_cast<std::size_t>(j);
      ++nflows;
      out.moved_bytes += b;
      if (i != uj)
        fixed[i] += m.latency(node[i] == node[uj]) +
                    per_message_overhead(mode, b);
    }
  for (std::size_t i = 0; i < UG && padded; ++i) {
    const auto ci = static_cast<std::size_t>(comp[i]);
    if (comp_max[ci] <= 0) continue;
    nflows += static_cast<std::size_t>(comp_size(comp[i]));
    for (const auto& [j, b] : rows[i])
      if (comp[static_cast<std::size_t>(j)] == comp[i]) out.moved_bytes += b;
  }
  // Padded, position i pays one handshake per other member of its
  // component, summed in member order. Every member of a run of
  // consecutive members on one node sees the same sequence of terms with
  // one intra-node term left out, so the run shares one sum.
  for (std::size_t c = 0; c < UG && padded; ++c) {
    if (comp_max[c] <= 0) continue;
    const double overhead = per_message_overhead(mode, comp_max[c]);
    const double intra = m.latency(true) + overhead;
    const double inter = m.latency(false) + overhead;
    const std::size_t first = member_start[c], last = member_start[c + 1];
    for (std::size_t k0 = first, k1 = first; k0 < last; k0 = k1) {
      const auto u0 = static_cast<std::size_t>(member[k0]);
      double sum = 0;
      for (std::size_t k = first; k < last; ++k) {
        const auto uj = static_cast<std::size_t>(member[k]);
        if (uj != u0) sum += node[u0] == node[uj] ? intra : inter;
      }
      for (; k1 < last &&
             node[static_cast<std::size_t>(member[k1])] == node[u0];
           ++k1)
        fixed[static_cast<std::size_t>(member[k1])] = sum;
    }
  }

  // The phase's flows, generated in row order. Padded blocks are never
  // stored: one component of G ranks is G^2 flows.
  const auto flows = [&](auto&& emit) {
    for (std::size_t i = 0; i < UG; ++i) {
      if (!padded) {
        for (const auto& [j, b] : rows[i])
          if (b > 0)
            emit(Flow{group[i], group[static_cast<std::size_t>(j)], b, 0, 0,
                      0});
        continue;
      }
      const auto ci = static_cast<std::size_t>(comp[i]);
      const double b = comp_max[ci];
      if (b <= 0) continue;
      for (std::size_t k = member_start[ci]; k < member_start[ci + 1]; ++k)
        emit(Flow{group[i], group[static_cast<std::size_t>(member[k])], b, 0,
                  0, 0});
    }
  };
  // Group position of each world rank (FlowSim checks that every flow
  // names ranks of this fabric).
  const int world = sim_.nranks();
  std::vector<std::size_t> pos(static_cast<std::size_t>(world), 0);
  for (std::size_t i = 0; i < UG; ++i)
    if (group[i] >= 0 && group[i] < world)
      pos[static_cast<std::size_t>(group[i])] = i;
  sim_.run(
      nflows, flows, mode,
      [&](const Flow& f, double finish) {
        double& s_ = out.per_rank[pos[static_cast<std::size_t>(f.src)]];
        s_ = std::max(s_, finish);
        double& d_ = out.per_rank[pos[static_cast<std::size_t>(f.dst)]];
        d_ = std::max(d_, finish);
      },
      stats);
  for (int i = 0; i < G; ++i)
    out.per_rank[static_cast<std::size_t>(i)] +=
        fixed[static_cast<std::size_t>(i)];
  for (double v : out.per_rank) out.total = std::max(out.total, v);
  return out;
}

PhaseTimes CommCost::storm(const std::vector<int>& group,
                           const SendMatrix& sends, CollectiveAlg alg,
                           TransferMode mode, LinkStats* stats) const {
  const int G = static_cast<int>(group.size());
  PARFFT_CHECK(static_cast<int>(sends.size()) == G,
               "send matrix does not match group size");
  const MachineSpec& m = sim_.spec();

  // Post everything at once; the fluid model shares the fabric. The
  // messages are counted first, so each flow array is allocated once.
  std::size_t nflows = 0;
  for (const auto& row : sends)
    for (const auto& [j, b] : row) {
      PARFFT_CHECK(j >= 0 && j < G, "send destination outside group");
      if (b > 0) ++nflows;
    }
  std::vector<Flow> flows;
  std::vector<int> owner;          // sending position of each flow
  std::vector<int> receiver;       // receiving position of each flow
  flows.reserve(nflows);
  owner.reserve(nflows);
  receiver.reserve(nflows);
  std::vector<int> peers(static_cast<std::size_t>(G), 0);
  for (int i = 0; i < G; ++i) {
    int k = 0;
    for (const auto& [j, b] : sends[static_cast<std::size_t>(i)]) {
      if (b <= 0) continue;
      Flow f{group[static_cast<std::size_t>(i)], group[static_cast<std::size_t>(j)], b, 0, 0, 0};
      // CPU posts messages one after another.
      f.start = k * m.mpi_overhead;
      flows.push_back(f);
      owner.push_back(i);
      receiver.push_back(j);
      ++k;
    }
    peers[static_cast<std::size_t>(i)] = k;
  }
  sim_.run(flows, mode, stats);

  // An unscheduled storm loses some fabric efficiency to incast and
  // switch-buffer pressure compared to a scheduled pairwise exchange.
  const bool naive_storm = alg == CollectiveAlg::Alltoallw;
  const double eff = naive_storm ? m.storm_efficiency : 1.0;

  PhaseTimes out;
  out.per_rank.assign(static_cast<std::size_t>(G), 0.0);
  // Derived-datatype processing is CPU work per rank: it serializes over
  // that rank's messages on both the sender and the receiver side.
  std::vector<double> datatype_cpu(static_cast<std::size_t>(G), 0.0);
  // RDMA registration pressure (GPU-aware only): per-rank stall growing
  // quadratically in the number of concurrent device-memory peers.
  std::vector<double> rdma_stall(static_cast<std::size_t>(G), 0.0);
  if (mode == TransferMode::GpuAware) {
    for (int i = 0; i < G; ++i) {
      const double p = peers[static_cast<std::size_t>(i)];
      const double over = std::max(p - m.rdma_peer_threshold, 0.0);
      rdma_stall[static_cast<std::size_t>(i)] = p * over * m.rdma_peer_penalty;
    }
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const int i = owner[f];
    const int j = receiver[f];
    const bool same = sim_.map().same_node(flows[f].src, flows[f].dst);
    double extra = m.latency(same) + per_message_overhead(mode, flows[f].bytes);
    if (alg == CollectiveAlg::Alltoallw) {
      const double dt = m.datatype_overhead_per_byte * flows[f].bytes;
      datatype_cpu[static_cast<std::size_t>(i)] += dt;
      datatype_cpu[static_cast<std::size_t>(j)] += dt;
    }
    if (alg == CollectiveAlg::P2PBlocking) {
      // MPI_Send completion handshake per message; the transfers
      // themselves share the fabric either way (the paper finds blocking
      // and non-blocking nearly identical, Fig. 3).
      extra += m.mpi_overhead;
    }
    const double done = flows[f].finish / eff + extra;
    out.per_rank[static_cast<std::size_t>(i)] =
        std::max(out.per_rank[static_cast<std::size_t>(i)], done);
    out.per_rank[static_cast<std::size_t>(j)] =
        std::max(out.per_rank[static_cast<std::size_t>(j)], done);
    out.moved_bytes += flows[f].bytes;
  }
  for (int i = 0; i < G; ++i)
    out.per_rank[static_cast<std::size_t>(i)] +=
        datatype_cpu[static_cast<std::size_t>(i)] +
        rdma_stall[static_cast<std::size_t>(i)];
  for (double v : out.per_rank) out.total = std::max(out.total, v);
  return out;
}

PhaseTimes CommCost::exchange(const std::vector<int>& group,
                              const SendMatrix& sends, CollectiveAlg alg,
                              TransferMode mode, MpiFlavor flavor,
                              LinkStats* stats) const {
  PARFFT_CHECK(!group.empty(), "empty group");
  if (stats) *stats = LinkStats{};

  // SpectrumMPI 10.4 ships no GPU-aware MPI_Alltoallw: device buffers are
  // staged through the host (paper Section II footnote).
  if (alg == CollectiveAlg::Alltoallw && mode == TransferMode::GpuAware &&
      flavor == MpiFlavor::SpectrumMPI) {
    mode = TransferMode::Staged;
  }

  switch (alg) {
    case CollectiveAlg::Alltoall:
      return pairwise_rounds(group, sends, /*padded=*/true, mode, stats);
    case CollectiveAlg::Alltoallv:
      return pairwise_rounds(group, sends, /*padded=*/false, mode, stats);
    case CollectiveAlg::Alltoallw:
    case CollectiveAlg::P2PBlocking:
    case CollectiveAlg::P2PNonBlocking:
      return storm(group, sends, alg, mode, stats);
  }
  PARFFT_ASSERT(false);
  return {};
}

}  // namespace parfft::net
