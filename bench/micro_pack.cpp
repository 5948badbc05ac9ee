/// \file micro_pack.cpp
/// google-benchmark micro-suite for the pack/unpack/transpose kernels and
/// the reshape planner (real wall-clock performance of the substrate).

#include <benchmark/benchmark.h>

#include "common/random.hpp"
#include "core/pack.hpp"
#include "core/reshape.hpp"

using namespace parfft;
using namespace parfft::core;

namespace {

void BM_PackBox(benchmark::State& state) {
  const idx_t n = state.range(0);
  const Box3 local{{0, 0, 0}, {n - 1, n - 1, n - 1}};
  const Box3 region{{n / 4, n / 4, n / 4}, {3 * n / 4, 3 * n / 4, 3 * n / 4}};
  Rng rng(1);
  auto data = rng.complex_vector(static_cast<std::size_t>(local.count()));
  std::vector<cplx> out(static_cast<std::size_t>(region.count()));
  for (auto _ : state) {
    pack_box(data.data(), local, region, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * region.count() * 16);
}
BENCHMARK(BM_PackBox)->Arg(32)->Arg(64)->Arg(128);

void BM_TransposeToLines(benchmark::State& state) {
  const idx_t n = state.range(0);
  const Box3 box{{0, 0, 0}, {n - 1, n - 1, n - 1}};
  Rng rng(2);
  auto data = rng.complex_vector(static_cast<std::size_t>(box.count()));
  std::vector<cplx> out(data.size());
  for (auto _ : state) {
    transpose_to_lines(data.data(), box, 0, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * box.count() * 16);
}
BENCHMARK(BM_TransposeToLines)->Arg(32)->Arg(64)->Arg(128);

void BM_ReshapePlanCreate(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::array<int, 3> n = {512, 512, 512};
  const auto from =
      pad_boxes(split_world(world_box(n), min_surface_grid(ranks, n)), ranks);
  const auto to = pad_boxes(split_world(world_box(n), pencil_grid(ranks, 0)),
                            ranks);
  for (auto _ : state) {
    auto plan = ReshapePlan::create(from, to);
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_ReshapePlanCreate)->Arg(24)->Arg(192)->Arg(768)->Arg(3072);

}  // namespace

BENCHMARK_MAIN();
