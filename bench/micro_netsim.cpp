/// \file micro_netsim.cpp
/// google-benchmark micro-suite for reshape planning and exchange pricing:
/// the wall-clock cost of build_stages and of CommCost::exchange on the
/// reshapes of a 512^3 pencil transform, as the strong-scaling sweep plans
/// and prices them. Padded MPI_Alltoall over one traffic component of G
/// ranks is G^2 flows priced by FlowSim's streamed bottleneck estimate;
/// MPI_Alltoallv prices one flow per message.

#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "core/simulate.hpp"
#include "core/stages.hpp"

using namespace parfft;

namespace {

/// The sweep's 512^3 pencil plan at `ranks` GPUs, bricks in and out.
core::StagePlan pencil_plan(int ranks) {
  const std::array<int, 3> n = {512, 512, 512};
  core::PlanOptions opt;
  opt.decomp = core::Decomposition::Pencil;
  const std::vector<core::Box3> boxes = core::brick_layout(n, ranks);
  return core::build_stages(n, ranks, boxes, boxes, opt, net::summit());
}

/// The send matrices of every reshape of the sweep's pencil plan at
/// `ranks` GPUs (one transform, batch 1), built once per rank count.
const std::vector<net::SendMatrix>& pencil_reshapes(int ranks) {
  static std::map<int, std::vector<net::SendMatrix>> cache;
  auto it = cache.find(ranks);
  if (it != cache.end()) return it->second;
  std::vector<net::SendMatrix> mats;
  for (const core::Stage& s : pencil_plan(ranks).stages)
    if (s.kind == core::Stage::Kind::Reshape)
      mats.push_back(s.reshape.send_matrix(1));
  return cache.emplace(ranks, std::move(mats)).first->second;
}

/// Arg: rank count. One iteration plans the whole pencil transform: its
/// layouts and the box intersections of its four reshapes.
void BM_BuildStages(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  std::size_t blocks = 0;
  for (auto _ : state) {
    const core::StagePlan plan = pencil_plan(ranks);
    blocks = 0;
    for (const core::Stage& s : plan.stages)
      if (s.kind == core::Stage::Kind::Reshape)
        blocks += s.reshape.block_count();
    benchmark::DoNotOptimize(blocks);
  }
  state.counters["blocks"] = static_cast<double>(blocks);
}
BENCHMARK(BM_BuildStages)
    ->ArgName("ranks")
    ->Arg(768)
    ->Arg(3072)
    ->Unit(benchmark::kMillisecond);

/// Args: rank count, padded (1 = MPI_Alltoall, 0 = MPI_Alltoallv).
/// One iteration prices every reshape of the transform, GPU-aware.
void BM_PencilExchanges(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const net::CollectiveAlg alg = state.range(1) != 0
                                     ? net::CollectiveAlg::Alltoall
                                     : net::CollectiveAlg::Alltoallv;
  const net::MachineSpec m = net::summit();
  const net::CommCost cost(m, net::RankMap{m.gpus_per_node}, ranks);
  std::vector<int> group(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) group[static_cast<std::size_t>(r)] = r;
  const std::vector<net::SendMatrix>& mats = pencil_reshapes(ranks);
  for (auto _ : state)
    for (const net::SendMatrix& s : mats) {
      net::PhaseTimes p = cost.exchange(group, s, alg,
                                        net::TransferMode::GpuAware,
                                        net::MpiFlavor::SpectrumMPI);
      benchmark::DoNotOptimize(p.total);
    }
  state.counters["exchanges"] = static_cast<double>(mats.size());
}
BENCHMARK(BM_PencilExchanges)
    ->ArgNames({"ranks", "padded"})
    ->Args({768, 1})
    ->Args({768, 0})
    ->Args({3072, 1})
    ->Args({3072, 0})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
