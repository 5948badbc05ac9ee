// Validation of the 1-D complex FFT engine against the naive reference DFT,
// across radix mixes, primes (generic butterfly and Bluestein paths),
// strided execution, batched layouts and in-place operation.
#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hpp"
#include "common/random.hpp"
#include "fft/bluestein.hpp"
#include "fft/factorize.hpp"
#include "fft/many.hpp"
#include "fft/plan1d.hpp"
#include "fft/reference.hpp"

namespace parfft::dft {
namespace {

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(Factorize, StageProductsEqualN) {
  for (int n : {2, 3, 4, 6, 8, 12, 30, 64, 100, 360, 512, 1001}) {
    auto st = fft_stages(n);
    int prod = 1;
    for (auto& s : st) prod *= s.p;
    EXPECT_EQ(prod, n) << n;
    // m fields are consistent: m == remaining length after this stage.
    int rem = n;
    for (auto& s : st) {
      rem /= s.p;
      EXPECT_EQ(s.m, rem);
    }
  }
}

TEST(Factorize, PrefersRadixEightThenFour) {
  // Radix 8 first whenever 8 divides n; a 4 = 2^2 remainder is one
  // radix-4 stage, a 2 one radix-2 stage.
  for (int n : {8, 24, 64, 120, 512})
    EXPECT_EQ(fft_stages(n)[0].p, 8) << n;
  for (int n : {4, 12, 20, 36, 4 * 105})
    EXPECT_EQ(fft_stages(n)[0].p, 4) << n;
  std::vector<int> radices;
  for (const Stage& st : fft_stages(2 * 8 * 8 * 8)) radices.push_back(st.p);
  EXPECT_EQ(radices, (std::vector<int>{8, 8, 8, 2}));
  radices.clear();
  for (const Stage& st : fft_stages(4 * 45)) radices.push_back(st.p);
  EXPECT_EQ(radices, (std::vector<int>{4, 3, 3, 5}));
}

TEST(Factorize, LargestPrimeFactor) {
  EXPECT_EQ(largest_prime_factor(1), 1);
  EXPECT_EQ(largest_prime_factor(2), 2);
  EXPECT_EQ(largest_prime_factor(12), 3);
  EXPECT_EQ(largest_prime_factor(97), 97);
  EXPECT_EQ(largest_prime_factor(2 * 3 * 5 * 101), 101);
}

TEST(Factorize, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(1023), 1024);
}

TEST(Factorize, Smooth) {
  EXPECT_TRUE(smooth(512, 2));
  EXPECT_TRUE(smooth(360, 5));
  EXPECT_FALSE(smooth(97, 61));
}

TEST(Plan1D, RejectsNonPositive) {
  EXPECT_THROW(Plan1D(0), Error);
  EXPECT_THROW(Plan1D(-4), Error);
}

TEST(Plan1D, LengthOneIsIdentity) {
  Plan1D p(1);
  cplx in = {3, -2}, out{};
  p.execute(&in, &out, Direction::Forward);
  EXPECT_EQ(out, in);
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, MatchesReferenceForward) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  auto x = rng.complex_vector(static_cast<std::size_t>(n));
  std::vector<cplx> y(x.size());
  Plan1D plan(n);
  plan.execute(x.data(), y.data(), Direction::Forward);
  auto ref = reference_dft(x, Direction::Forward);
  EXPECT_LT(max_err(y, ref), 1e-9 * n) << "n=" << n;
}

TEST_P(FftSizes, MatchesReferenceBackward) {
  const int n = GetParam();
  Rng rng(2000 + static_cast<std::uint64_t>(n));
  auto x = rng.complex_vector(static_cast<std::size_t>(n));
  std::vector<cplx> y(x.size());
  Plan1D plan(n);
  plan.execute(x.data(), y.data(), Direction::Backward);
  auto ref = reference_dft(x, Direction::Backward);
  EXPECT_LT(max_err(y, ref), 1e-9 * n) << "n=" << n;
}

TEST_P(FftSizes, RoundTripRecoversInput) {
  const int n = GetParam();
  Rng rng(3000 + static_cast<std::uint64_t>(n));
  auto x = rng.complex_vector(static_cast<std::size_t>(n));
  std::vector<cplx> y(x.size()), z(x.size());
  Plan1D plan(n);
  plan.execute(x.data(), y.data(), Direction::Forward);
  plan.execute(y.data(), z.data(), Direction::Backward);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(z[i] / static_cast<double>(n) - x[i]), 0.0, 1e-10)
        << "n=" << n << " i=" << i;
}

TEST_P(FftSizes, InPlaceMatchesOutOfPlace) {
  const int n = GetParam();
  Rng rng(4000 + static_cast<std::uint64_t>(n));
  auto x = rng.complex_vector(static_cast<std::size_t>(n));
  auto inplace = x;
  std::vector<cplx> y(x.size());
  Plan1D plan(n);
  plan.execute(x.data(), y.data(), Direction::Forward);
  plan.execute(inplace.data(), inplace.data(), Direction::Forward);
  EXPECT_LT(max_err(inplace, y), 1e-12 * n);
}

// Sizes cover: pure radix-2/4 chains, mixed radices, the generic butterfly
// (3,5,7,11), odd primes below the Bluestein threshold, and Bluestein sizes.
INSTANTIATE_TEST_SUITE_P(Sweep, FftSizes,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                           15, 16, 21, 25, 27, 32, 35, 36, 49,
                                           53, 60, 61, 64, 100, 105, 128, 210,
                                           243, 256, 360, 512, 1000, 1024));

class BluesteinSizes : public ::testing::TestWithParam<int> {};

TEST_P(BluesteinSizes, UsesBluesteinAndMatchesReference) {
  const int n = GetParam();
  Plan1D plan(n);
  EXPECT_TRUE(plan.uses_bluestein());
  Rng rng(5000 + static_cast<std::uint64_t>(n));
  auto x = rng.complex_vector(static_cast<std::size_t>(n));
  std::vector<cplx> y(x.size());
  plan.execute(x.data(), y.data(), Direction::Forward);
  auto ref = reference_dft(x, Direction::Forward);
  EXPECT_LT(max_err(y, ref), 1e-8 * n) << "n=" << n;
}

TEST_P(BluesteinSizes, BackwardMatchesReference) {
  const int n = GetParam();
  Plan1D plan(n);
  Rng rng(6000 + static_cast<std::uint64_t>(n));
  auto x = rng.complex_vector(static_cast<std::size_t>(n));
  std::vector<cplx> y(x.size());
  plan.execute(x.data(), y.data(), Direction::Backward);
  auto ref = reference_dft(x, Direction::Backward);
  EXPECT_LT(max_err(y, ref), 1e-8 * n) << "n=" << n;
}

// 67, 97, 503: primes; 134 = 2*67: composite with a large prime factor;
// 1009: large prime.
INSTANTIATE_TEST_SUITE_P(Primes, BluesteinSizes,
                         ::testing::Values(67, 97, 134, 503, 1009));

TEST(Plan1D, SmoothSizesAvoidBluestein) {
  for (int n : {2, 61, 512, 3 * 5 * 7 * 11}) {
    Plan1D p(n);
    EXPECT_FALSE(p.uses_bluestein()) << n;
  }
}

TEST(Plan1D, StridedMatchesContiguous) {
  const int n = 48;
  Rng rng(77);
  const idx_t is = 3, os = 2;
  auto packed = rng.complex_vector(n);
  std::vector<cplx> strided_in(static_cast<std::size_t>(n * is), cplx{9, 9});
  for (int j = 0; j < n; ++j)
    strided_in[static_cast<std::size_t>(j * is)] = packed[static_cast<std::size_t>(j)];
  std::vector<cplx> want(packed.size());
  Plan1D plan(n);
  plan.execute(packed.data(), want.data(), Direction::Forward);

  std::vector<cplx> strided_out(static_cast<std::size_t>(n * os), cplx{-7, 7});
  plan.execute_strided(strided_in.data(), is, strided_out.data(), os,
                       Direction::Forward);
  for (int j = 0; j < n; ++j)
    EXPECT_NEAR(std::abs(strided_out[static_cast<std::size_t>(j * os)] -
                         want[static_cast<std::size_t>(j)]),
                0.0, 1e-10);
  // Gaps between outputs are untouched.
  EXPECT_EQ(strided_out[1], cplx(-7, 7));
}

TEST(Plan1D, StridedInPlaceSameStride) {
  const int n = 16;
  Rng rng(78);
  auto base = rng.complex_vector(static_cast<std::size_t>(n * 2));
  auto data = base;
  Plan1D plan(n);
  plan.execute_strided(data.data(), 2, data.data(), 2, Direction::Forward);
  // Compare against gather + contiguous transform.
  std::vector<cplx> line(static_cast<std::size_t>(n)), want(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) line[static_cast<std::size_t>(j)] = base[static_cast<std::size_t>(2 * j)];
  plan.execute(line.data(), want.data(), Direction::Forward);
  for (int j = 0; j < n; ++j)
    EXPECT_NEAR(std::abs(data[static_cast<std::size_t>(2 * j)] - want[static_cast<std::size_t>(j)]),
                0.0, 1e-10);
}

TEST(Plan1D, RejectsBadStride) {
  Plan1D p(8);
  std::vector<cplx> a(8), b(8);
  EXPECT_THROW(p.execute_strided(a.data(), 0, b.data(), 1, Direction::Forward),
               Error);
}

TEST(Plan1D, MoveTransfersPlan) {
  Plan1D a(32);
  Plan1D b = std::move(a);
  Rng rng(5);
  auto x = rng.complex_vector(32);
  std::vector<cplx> y(32);
  b.execute(x.data(), y.data(), Direction::Forward);
  auto ref = reference_dft(x, Direction::Forward);
  EXPECT_LT(max_err(y, ref), 1e-9);
}

enum class Layout { Contiguous, AdjacentStrided, GeneralStrided };

/// The batch layout of `count` lines of length n; out of place, the
/// general-strided output uses other strides than its input.
BatchLayout layout_for(Layout kind, int n, int count, bool in_place) {
  switch (kind) {
    case Layout::Contiguous:
      return {.count = count, .istride = 1, .idist = n, .ostride = 1, .odist = n};
    case Layout::AdjacentStrided:
      return {.count = count, .istride = count, .idist = 1, .ostride = count,
              .odist = 1};
    default:
      return {.count = count, .istride = 3, .idist = 3 * n + 1,
              .ostride = in_place ? 3 : 2,
              .odist = in_place ? 3 * n + 1 : 2 * n + 3};
  }
}

idx_t span_of(int n, int count, idx_t stride, idx_t dist) {
  return (count - 1) * dist + (n - 1) * stride + 1;
}

// Every layout runs through the block path (8 lines interleaved per
// block; counts on both sides of one and two blocks), and each line must
// come out bit for bit as Plan1D::execute makes it from that line alone.
// Counts that are not a multiple of 4 run their first stages on one-double
// lanes and later ones on four-double lanes, so the lane widths must agree
// bit for bit too. The sizes cover radix 8 (8, 64, 512, 2 * 8^3), radix 8
// with odd factors (120) and every other stage kind. Elements between the
// lines must be left untouched.
TEST(ManyPlan, BlockedMatchesSingleLineBitwise) {
  constexpr int kMaxCount = 33;
  const cplx sentinel{-123.25, 456.5};
  // 67 has a prime factor above kGenericRadixMax: Bluestein.
  for (int n : {1, 2, 3, 5, 7, 8, 12, 15, 49, 60, 64, 96, 100, 105, 120, 128,
                243, 512, 1000, 1024, 4096, 67}) {
    Plan1D single(n);
    EXPECT_EQ(single.uses_bluestein(), n == 67);
    Rng rng(7000 + static_cast<std::uint64_t>(n));
    std::vector<std::vector<cplx>> lines(kMaxCount);
    for (auto& l : lines) l = rng.complex_vector(static_cast<std::size_t>(n));
    for (Direction dir : {Direction::Forward, Direction::Backward}) {
      std::vector<std::vector<cplx>> want(kMaxCount,
                                          std::vector<cplx>(static_cast<std::size_t>(n)));
      for (int l = 0; l < kMaxCount; ++l)
        single.execute(lines[static_cast<std::size_t>(l)].data(),
                       want[static_cast<std::size_t>(l)].data(), dir);
      // The O(n^2) reference runs on every line up to n = 256 and on the
      // last line beyond; bitwise equality carries it to the rest.
      const double tol = (n == 67 ? 1e-8 : 1e-9) * n;
      for (int l = n <= 256 ? 0 : kMaxCount - 1; l < kMaxCount; ++l)
        EXPECT_LT(max_err(want[static_cast<std::size_t>(l)],
                          reference_dft(lines[static_cast<std::size_t>(l)], dir)),
                  tol)
            << "n=" << n << " line " << l;
      for (int count : {1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 33})
        for (Layout kind : {Layout::Contiguous, Layout::AdjacentStrided,
                            Layout::GeneralStrided})
          for (bool in_place : {true, false}) {
            const BatchLayout lay = layout_for(kind, n, count, in_place);
            std::vector<cplx> in(static_cast<std::size_t>(
                                     span_of(n, count, lay.istride, lay.idist)),
                                 sentinel);
            for (int l = 0; l < count; ++l)
              for (int j = 0; j < n; ++j)
                in[static_cast<std::size_t>(l * lay.idist + j * lay.istride)] =
                    lines[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)];
            std::vector<cplx> separate(
                in_place ? 0 : static_cast<std::size_t>(
                                   span_of(n, count, lay.ostride, lay.odist)),
                sentinel);
            std::vector<cplx>& out = in_place ? in : separate;
            ManyPlan(n, lay).execute(in.data(), out.data(), dir);
            int wrong = 0, touched = 0;
            for (int l = 0; l < count; ++l)
              for (int j = 0; j < n; ++j) {
                cplx& got = out[static_cast<std::size_t>(l * lay.odist + j * lay.ostride)];
                const cplx& expect =
                    want[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)];
                wrong += std::memcmp(&got, &expect, sizeof(cplx)) != 0;
                got = sentinel;
              }
            for (const cplx& v : out) touched += v != sentinel;
            EXPECT_EQ(wrong, 0) << "n=" << n << " count=" << count << " layout "
                                << static_cast<int>(kind) << " in_place=" << in_place
                                << " dir=" << static_cast<int>(dir);
            EXPECT_EQ(touched, 0) << "n=" << n << " count=" << count
                                  << " layout " << static_cast<int>(kind);
          }
    }
  }
}

TEST(Bluestein, ConvolutionLengthIsPow2AtLeastTwiceN) {
  Bluestein b(97);
  EXPECT_GE(b.conv_length(), 2 * 97 - 1);
  EXPECT_EQ(b.conv_length() & (b.conv_length() - 1), 0);
}

TEST(Reference, DcComponentIsSum) {
  std::vector<cplx> x = {{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  auto y = reference_dft(x, Direction::Forward);
  EXPECT_NEAR(y[0].real(), 10.0, 1e-12);
  EXPECT_NEAR(y[0].imag(), 0.0, 1e-12);
}

}  // namespace
}  // namespace parfft::dft
