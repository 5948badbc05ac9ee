/// \file micro_localfft.cpp
/// google-benchmark micro-suite for the local FFT engine -- the CPU
/// substrate that stands in for cuFFT/rocFFT. These are real wall-clock
/// numbers (unlike the figure benches, which report virtual time).

#include <benchmark/benchmark.h>

#include <array>

#include "common/random.hpp"
#include "fft/many.hpp"
#include "fft/real.hpp"

using namespace parfft;

namespace {

void BM_Fft1D(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dft::Plan1D plan(n);
  Rng rng(1);
  auto x = rng.complex_vector(static_cast<std::size_t>(n));
  std::vector<cplx> y(x.size());
  for (auto _ : state) {
    plan.execute(x.data(), y.data(), dft::Direction::Forward);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft1D)->Arg(64)->Arg(128)->Arg(512)->Arg(1024)->Arg(4096);

void BM_Fft1DPrimeBluestein(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dft::Plan1D plan(n);
  Rng rng(2);
  auto x = rng.complex_vector(static_cast<std::size_t>(n));
  std::vector<cplx> y(x.size());
  for (auto _ : state) {
    plan.execute(x.data(), y.data(), dft::Direction::Forward);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft1DPrimeBluestein)->Arg(509)->Arg(1009);

void BM_Fft1DBatchedStrided(benchmark::State& state) {
  const int n = 512, batch = static_cast<int>(state.range(0));
  dft::ManyPlan plan(n, {.count = batch, .istride = batch, .idist = 1,
                         .ostride = batch, .odist = 1});
  Rng rng(3);
  auto x = rng.complex_vector(static_cast<std::size_t>(n) * batch);
  for (auto _ : state) {
    plan.execute(x.data(), x.data(), dft::Direction::Forward);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n * batch);
}
BENCHMARK(BM_Fft1DBatchedStrided)->Arg(4)->Arg(32);

/// One block of 8 adjacent lines (input [n][8], idist 1): radix 8 (128),
/// the generic odd butterfly (125 = 5^3, 243 = 3^5).
void BM_Fft1DBlock8(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0)), lines = 8;
  dft::ManyPlan plan(n, {.count = lines, .istride = lines, .idist = 1,
                         .ostride = lines, .odist = 1});
  Rng rng(7);
  auto x = rng.complex_vector(static_cast<std::size_t>(n) * lines);
  for (auto _ : state) {
    plan.execute(x.data(), x.data(), dft::Direction::Forward);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * lines);
}
BENCHMARK(BM_Fft1DBlock8)->Arg(128)->Arg(125)->Arg(243);

/// Axis 0 of a 128 x 32 x 128 brick: 4096 lines of stride 4096 with
/// adjacent starts, the strided pipeline stage of fft_exec.
void BM_FftAxisStrided(benchmark::State& state) {
  const std::array<int, 3> dims = {128, 32, 128};
  const idx_t count = static_cast<idx_t>(dims[0]) * dims[1] * dims[2];
  Rng rng(6);
  auto x = rng.complex_vector(static_cast<std::size_t>(count));
  for (auto _ : state) {
    dft::fft3d_axis(x.data(), dims, 0, dft::Direction::Forward);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_FftAxisStrided);

void BM_Fft3DLocal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  auto x = rng.complex_vector(static_cast<std::size_t>(n) * n * n);
  for (auto _ : state) {
    dft::fft3d_local(x.data(), {n, n, n}, dft::Direction::Forward);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Fft3DLocal)->Arg(32)->Arg(64);

void BM_RealFft(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dft::RealPlan1D plan(n);
  Rng rng(5);
  auto x = rng.real_vector(static_cast<std::size_t>(n));
  std::vector<cplx> spec(static_cast<std::size_t>(plan.spectrum_size()));
  for (auto _ : state) {
    plan.r2c(x.data(), spec.data());
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_RealFft)->Arg(512)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
