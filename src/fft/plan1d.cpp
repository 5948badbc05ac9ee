#include "fft/plan1d.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "fft/bluestein.hpp"

namespace parfft::dft {

namespace {

/// Lines per block of execute_lines(): 8 keeps both buffers of a 128-point
/// block in L1 (2 x 16 KiB); 16 measured slower and raised peak RSS.
constexpr int kBlockLines = 8;

/// a * w, or a * conj(w) when Inv. Written out: std::complex's operator*
/// goes through the __muldc3 NaN-recovery path.
template <bool Inv>
inline cplx mul(const cplx& a, const cplx& w) {
  const double wr = w.real(), wi = Inv ? -w.imag() : w.imag();
  return {a.real() * wr - a.imag() * wi, a.real() * wi + a.imag() * wr};
}

/// Butterfly column k of a radix-2 or radix-4 stage, for q in [0, s).
/// Column k == 0 has unit twiddles and runs without them.
template <int P, bool Inv, bool Twiddle>
void column(const cplx* x0, cplx* y0, idx_t s, idx_t sm, const cplx* w) {
  auto tw = [w](const cplx& a, int r) {
    return Twiddle ? mul<Inv>(a, w[r - 1]) : a;
  };
  for (idx_t q = 0; q < s; ++q) {
    if constexpr (P == 2) {
      const cplx a = x0[q], b = x0[q + sm];
      y0[q] = a + b;
      y0[q + s] = tw(a - b, 1);
    } else {
      const cplx a0 = x0[q], a1 = x0[q + sm], a2 = x0[q + 2 * sm],
                 a3 = x0[q + 3 * sm];
      const cplx t0 = a0 + a2, t1 = a0 - a2, t2 = a1 + a3, t3 = a1 - a3;
      // -i*t3 forward, +i*t3 backward.
      const cplx r = Inv ? cplx(-t3.imag(), t3.real())
                         : cplx(t3.imag(), -t3.real());
      y0[q] = t0 + t2;
      y0[q + s] = tw(t1 + r, 1);
      y0[q + 2 * s] = tw(t0 - t2, 2);
      y0[q + 3 * s] = tw(t1 - r, 3);
    }
  }
}

template <int P, bool Inv>
void radix(const cplx* x, cplx* y, int m, idx_t s, const cplx* tw) {
  const idx_t sm = s * m;
  column<P, Inv, false>(x, y, s, sm, tw);
  for (int k = 1; k < m; ++k)
    column<P, Inv, true>(x + s * k, y + P * s * k, s, sm, tw + (P - 1) * k);
}

/// Generic O(p^2) stage for an odd radix p <= kGenericRadixMax; the root
/// index j*r mod p is stepped, not computed with %.
template <bool Inv>
void generic(const cplx* x, cplx* y, int p, int m, idx_t s, const cplx* tw,
             const cplx* roots) {
  const idx_t sm = s * m;
  cplx a[kGenericRadixMax];
  for (int k = 0; k < m; ++k) {
    const cplx* x0 = x + s * k;
    cplx* y0 = y + p * s * k;
    const cplx* w = tw + (p - 1) * k;
    for (idx_t q = 0; q < s; ++q) {
      for (int j = 0; j < p; ++j) a[j] = x0[q + j * sm];
      for (int r = 0; r < p; ++r) {
        cplx acc = a[0];
        int t = 0;
        for (int j = 1; j < p; ++j) {
          t += r;
          if (t >= p) t -= p;
          acc += mul<Inv>(a[j], roots[t]);
        }
        y0[q + r * s] = k == 0 || r == 0 ? acc : mul<Inv>(acc, w[r - 1]);
      }
    }
  }
}

}  // namespace

Plan1D::Plan1D(int n) : n_(n) {
  PARFFT_CHECK(n >= 1, "transform length must be positive");
  work_.resize(static_cast<std::size_t>(n));
  if (n > 1 && largest_prime_factor(n) > kGenericRadixMax) {
    blue_ = std::make_unique<Bluestein>(n);
    return;
  }
  auto unit_root = [](idx_t num, idx_t den) {  // exp(-2*pi*i*num/den)
    const double phase = -2.0 * std::numbers::pi * num / den;
    return cplx(std::cos(phase), std::sin(phase));
  };
  int len = n;
  for (const Stage& st : fft_stages(n)) {
    StageTables t{st, {}, {}};
    for (int k = 0; k < st.m; ++k)
      for (int r = 1; r < st.p; ++r)
        t.tw.push_back(unit_root(static_cast<idx_t>(r) * k, len));
    if (st.p != 2 && st.p != 4)
      for (int j = 0; j < st.p; ++j) t.roots.push_back(unit_root(j, st.p));
    stages_.push_back(std::move(t));
    len = st.m;
  }
}

Plan1D::~Plan1D() = default;
Plan1D::Plan1D(Plan1D&&) noexcept = default;
Plan1D& Plan1D::operator=(Plan1D&&) noexcept = default;

void Plan1D::run(const cplx* src, cplx* dst, cplx* other, idx_t s,
                 Direction dir) const {
  const std::size_t n_stages = stages_.size();
  if (n_stages == 0 && src != dst) std::copy_n(src, s, dst);  // n == 1
  const bool inv = dir == Direction::Backward;
  const cplx* x = src;
  for (std::size_t i = 0; i < n_stages; ++i) {
    cplx* y = (n_stages - 1 - i) % 2 == 0 ? dst : other;
    const StageTables& t = stages_[i];
    if (t.st.p == 2)
      (inv ? radix<2, true> : radix<2, false>)(x, y, t.st.m, s, t.tw.data());
    else if (t.st.p == 4)
      (inv ? radix<4, true> : radix<4, false>)(x, y, t.st.m, s, t.tw.data());
    else
      (inv ? generic<true> : generic<false>)(x, y, t.st.p, t.st.m, s,
                                             t.tw.data(), t.roots.data());
    x = y;
    s *= t.st.p;
  }
}

void Plan1D::execute(const cplx* in, cplx* out, Direction dir) {
  if (blue_) {
    blue_->execute(in, out, dir);
    return;
  }
  cplx* other = work_.data();
  if (in == out && stages_.size() % 2 == 1) {
    // The first stage would write over its own input: start from a copy.
    std::copy_n(in, n_, other);
    in = other;
  }
  run(in, out, other, 1, dir);
}

void Plan1D::execute_lines(const cplx* in, idx_t istride, idx_t idist,
                           cplx* out, idx_t ostride, idx_t odist, int count,
                           Direction dir) {
  PARFFT_CHECK(istride >= 1 && ostride >= 1, "strides must be positive");
  PARFFT_CHECK(count >= 0, "line count must be non-negative");
  const idx_t n = n_;
  // Bluestein transforms one contiguous line at a time.
  const idx_t block = blue_ ? 1 : std::min(count, kBlockLines);
  if (static_cast<idx_t>(work_.size()) < 2 * n * block)
    work_.resize(static_cast<std::size_t>(2 * n * block));
  cplx* a = work_.data();
  cplx* b = a + n * block;
  for (idx_t l0 = 0; l0 < count; l0 += block) {
    const idx_t nb = std::min<idx_t>(block, count - l0);
    const cplx* src = in + l0 * idist;
    cplx* dst = out + l0 * odist;
    if (idist == 1)
      for (idx_t j = 0; j < n; ++j) std::copy_n(src + j * istride, nb, a + j * nb);
    else
      for (idx_t l = 0; l < nb; ++l)
        for (idx_t j = 0; j < n; ++j) a[j * nb + l] = src[l * idist + j * istride];
    cplx* res = blue_ || stages_.size() % 2 == 0 ? a : b;
    if (blue_)
      blue_->execute(a, a, dir);
    else
      run(a, res, res == a ? b : a, nb, dir);
    if (odist == 1)
      for (idx_t j = 0; j < n; ++j) std::copy_n(res + j * nb, nb, dst + j * ostride);
    else
      for (idx_t l = 0; l < nb; ++l)
        for (idx_t j = 0; j < n; ++j) dst[l * odist + j * ostride] = res[j * nb + l];
  }
}

}  // namespace parfft::dft
