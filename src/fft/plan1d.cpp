#include "fft/plan1d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "common/error.hpp"
#include "fft/bluestein.hpp"

namespace parfft::dft {

namespace {

/// Lines per block of execute_lines(): 8 keeps both buffers of a 128-point
/// block in L1 (2 x 16 KiB); 16 measured slower and raised peak RSS.
constexpr int kBlockLines = 8;

// The kernels below are written once, on a lane type V: `double`, or four
// doubles in one AVX2 register. Every helper takes its lanes by reference
// and is always inlined, so no lane crosses a call between functions built
// for different targets (that would change the ABI). Each instantiation
// performs the same operations in the same order, and the library is built
// without FMA contraction, so every lane width gives the same bits.

#if defined(__x86_64__)
using V4 = double __attribute__((vector_size(32)));
#endif

template <typename V>
inline constexpr idx_t kLanes = sizeof(V) / sizeof(double);

template <typename V>
[[gnu::always_inline]] inline void load(const double* p, V& v) {
  std::memcpy(&v, p, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// (r, i) *= w, or *= conj(w) when Inv.
template <bool Inv, typename V>
[[gnu::always_inline]] inline void twiddle(V& r, V& i, const cplx& w) {
  const double wr = w.real(), wi = Inv ? -w.imag() : w.imag();
  const V t = r * wr - i * wi;
  i = r * wi + i * wr;
  r = t;
}

/// (a, b) <- (a + b, a - b) for complex a = (ar, ai) and b = (br, bi).
template <typename V>
[[gnu::always_inline]] inline void sum_diff(V& ar, V& ai, V& br, V& bi) {
  V t = ar - br;
  ar = ar + br;
  br = t;
  t = ai - bi;
  ai = ai + bi;
  bi = t;
}

/// (r, i) <- -i*(r, i) forward, +i*(r, i) backward.
template <bool Inv, typename V>
[[gnu::always_inline]] inline void rotate(V& r, V& i) {
  const V t = r;
  r = Inv ? -i : i;
  i = Inv ? t : -t;
}

/// In-place DFT-4 of (r0, i0) .. (r3, i3); the outputs come out in
/// bit-reversed order (y0, y2, y1, y3).
template <bool Inv, typename V>
[[gnu::always_inline]] inline void dft4(V& r0, V& i0, V& r1, V& i1, V& r2,
                                        V& i2, V& r3, V& i3) {
  sum_diff(r0, i0, r2, i2);
  sum_diff(r1, i1, r3, i3);
  rotate<Inv>(r3, i3);
  sum_diff(r0, i0, r1, i1);
  sum_diff(r2, i2, r3, i3);
}

/// (r1, i1) *= w8 and (r3, i3) *= w8^3, w8 = (1 -+ i) / sqrt(2) forward /
/// backward: the odd twiddles of a DFT-8.
template <bool Inv, typename V>
[[gnu::always_inline]] inline void w8(V& r1, V& i1, V& r3, V& i3) {
  constexpr double h = std::numbers::sqrt2 / 2;
  const V t1 = r1, t3 = r3;
  if constexpr (Inv) {
    r1 = (t1 - i1) * h;
    i1 = (i1 + t1) * h;
    r3 = -(t3 + i3) * h;
    i3 = (t3 - i3) * h;
  } else {
    r1 = (t1 + i1) * h;
    i1 = (i1 - t1) * h;
    r3 = (i3 - t3) * h;
    i3 = -(t3 + i3) * h;
  }
}

/// Reads the lanes at x[at] of the real plane and x[len + at] of the
/// imaginary one.
template <typename V>
[[gnu::always_inline]] inline void get(const double* x, idx_t len, idx_t at,
                                       V& r, V& i) {
  load(x + at, r);
  load(x + len + at, i);
}

/// Writes output r of a column to row r (y[r*s]), scaled by w[r-1] when
/// Twiddle.
template <bool Inv, bool Twiddle, typename V>
[[gnu::always_inline]] inline void put(V& re, V& im, int r, const cplx* w,
                                       double* y, idx_t len, idx_t s) {
  if (Twiddle && r != 0) twiddle<Inv>(re, im, w[r - 1]);
  store(y + r * s, re);
  store(y + len + r * s, im);
}

/// Butterfly column k of a radix-P stage, P in {2, 4, 8}, for q in
/// [0, s): reads x[q + j*sm], writes y[q + r*s]. Column k == 0 has unit
/// twiddles and runs without them.
template <typename V, int P, bool Inv, bool Twiddle>
[[gnu::always_inline]] inline void column(const double* x, double* y,
                                          idx_t len, idx_t s, idx_t sm,
                                          const cplx* w) {
  for (idx_t q = 0; q < s; q += kLanes<V>) {
    if constexpr (P == 2) {
      V r0, i0, r1, i1;
      get(x, len, q, r0, i0);
      get(x, len, q + sm, r1, i1);
      sum_diff(r0, i0, r1, i1);
      put<Inv, Twiddle>(r0, i0, 0, w, y + q, len, s);
      put<Inv, Twiddle>(r1, i1, 1, w, y + q, len, s);
    } else if constexpr (P == 4) {
      V r0, i0, r1, i1, r2, i2, r3, i3;
      get(x, len, q, r0, i0);
      get(x, len, q + sm, r1, i1);
      get(x, len, q + 2 * sm, r2, i2);
      get(x, len, q + 3 * sm, r3, i3);
      dft4<Inv>(r0, i0, r1, i1, r2, i2, r3, i3);
      put<Inv, Twiddle>(r0, i0, 0, w, y + q, len, s);
      put<Inv, Twiddle>(r2, i2, 1, w, y + q, len, s);
      put<Inv, Twiddle>(r1, i1, 2, w, y + q, len, s);
      put<Inv, Twiddle>(r3, i3, 3, w, y + q, len, s);
    } else {
      static_assert(P == 8);
      V r0, i0, r1, i1, r2, i2, r3, i3, r4, i4, r5, i5, r6, i6, r7, i7;
      get(x, len, q, r0, i0);
      get(x, len, q + sm, r1, i1);
      get(x, len, q + 2 * sm, r2, i2);
      get(x, len, q + 3 * sm, r3, i3);
      get(x, len, q + 4 * sm, r4, i4);
      get(x, len, q + 5 * sm, r5, i5);
      get(x, len, q + 6 * sm, r6, i6);
      get(x, len, q + 7 * sm, r7, i7);
      // DFT-8: the even outputs are the DFT-4 of a_j + a_{j+4}, the odd
      // ones that of (a_j - a_{j+4}) * w8^j. Each half is written out
      // before the other is formed, which keeps fewer lanes live.
      sum_diff(r0, i0, r4, i4);
      sum_diff(r1, i1, r5, i5);
      sum_diff(r2, i2, r6, i6);
      sum_diff(r3, i3, r7, i7);
      dft4<Inv>(r0, i0, r1, i1, r2, i2, r3, i3);
      put<Inv, Twiddle>(r0, i0, 0, w, y + q, len, s);
      put<Inv, Twiddle>(r2, i2, 2, w, y + q, len, s);
      put<Inv, Twiddle>(r1, i1, 4, w, y + q, len, s);
      put<Inv, Twiddle>(r3, i3, 6, w, y + q, len, s);
      w8<Inv>(r5, i5, r7, i7);
      rotate<Inv>(r6, i6);
      dft4<Inv>(r4, i4, r5, i5, r6, i6, r7, i7);
      put<Inv, Twiddle>(r4, i4, 1, w, y + q, len, s);
      put<Inv, Twiddle>(r6, i6, 3, w, y + q, len, s);
      put<Inv, Twiddle>(r5, i5, 5, w, y + q, len, s);
      put<Inv, Twiddle>(r7, i7, 7, w, y + q, len, s);
    }
  }
}

/// One Stockham stage of radix P in {2, 4, 8}: column k reads
/// x[q + s*(k + j*m)], writes y[q + s*(P*k + r)], and scales output r by
/// w[(P-1)*k + r-1]. Each buffer holds its real plane of `len` doubles,
/// then its imaginary plane.
template <typename V, int P, bool Inv>
[[gnu::always_inline]] inline void radix(const double* x, double* y, idx_t len,
                                         int m, idx_t s, const cplx* tw) {
  const idx_t sm = s * m;
  column<V, P, Inv, false>(x, y, len, s, sm, tw);
  for (int k = 1; k < m; ++k)
    column<V, P, Inv, true>(x + s * k, y + P * s * k, len, s, sm,
                            tw + (P - 1) * k);
}

/// Generic O(p^2) stage for an odd radix p <= kGenericRadixMax, with the
/// roots[t] = w_p^t table; the root index j*r mod p is stepped, not
/// computed with %.
template <typename V, bool Inv>
[[gnu::always_inline]] inline void generic(const double* x, double* y,
                                           idx_t len, int p, int m, idx_t s,
                                           const cplx* tw, const cplx* roots) {
  const idx_t sm = s * m;
  V ar[kGenericRadixMax], ai[kGenericRadixMax];
  for (int k = 0; k < m; ++k) {
    const double* x0 = x + s * k;
    double* y0 = y + p * s * k;
    const cplx* w = tw + (p - 1) * k;
    for (idx_t q = 0; q < s; q += kLanes<V>) {
      for (int j = 0; j < p; ++j) get(x0, len, q + j * sm, ar[j], ai[j]);
      for (int r = 0; r < p; ++r) {
        V accr = ar[0], acci = ai[0];
        int t = 0;
        for (int j = 1; j < p; ++j) {
          t += r;
          if (t >= p) t -= p;
          V tr = ar[j], ti = ai[j];
          twiddle<Inv>(tr, ti, roots[t]);
          accr = accr + tr;
          acci = acci + ti;
        }
        if (k != 0)
          put<Inv, true>(accr, acci, r, w, y0 + q, len, s);
        else
          put<Inv, false>(accr, acci, r, w, y0 + q, len, s);
      }
    }
  }
}

/// One stage `st` with its tables: a radix butterfly, or the generic one.
template <typename V, bool Inv>
[[gnu::always_inline]] inline void stage_on(const Stage& st, const cplx* tw,
                                            const cplx* roots, const double* x,
                                            double* y, idx_t len, idx_t s) {
  switch (st.p) {
    case 2: radix<V, 2, Inv>(x, y, len, st.m, s, tw); break;
    case 4: radix<V, 4, Inv>(x, y, len, st.m, s, tw); break;
    case 8: radix<V, 8, Inv>(x, y, len, st.m, s, tw); break;
    default: generic<V, Inv>(x, y, len, st.p, st.m, s, tw, roots); break;
  }
}

/// Splits `count` complex values at `src` into the planes re and im.
template <typename V>
[[gnu::always_inline]] inline void split(const cplx* src, idx_t count,
                                         double* re, double* im) {
  const auto* p = reinterpret_cast<const double*>(src);
  idx_t j = 0;
  if constexpr (kLanes<V> == 4)
    for (; j + 4 <= count; j += 4) {
      V lo, hi;
      load(p + 2 * j, lo);
      load(p + 2 * j + 4, hi);
      store(re + j, V(__builtin_shufflevector(lo, hi, 0, 2, 4, 6)));
      store(im + j, V(__builtin_shufflevector(lo, hi, 1, 3, 5, 7)));
    }
  for (; j < count; ++j) {
    re[j] = p[2 * j];
    im[j] = p[2 * j + 1];
  }
}

/// The inverse of split().
template <typename V>
[[gnu::always_inline]] inline void merge(const double* re, const double* im,
                                         idx_t count, cplx* dst) {
  auto* p = reinterpret_cast<double*>(dst);
  idx_t j = 0;
  if constexpr (kLanes<V> == 4)
    for (; j + 4 <= count; j += 4) {
      V r, i;
      load(re + j, r);
      load(im + j, i);
      store(p + 2 * j, V(__builtin_shufflevector(r, i, 0, 4, 1, 5)));
      store(p + 2 * j + 4, V(__builtin_shufflevector(r, i, 2, 6, 3, 7)));
    }
  for (; j < count; ++j) {
    p[2 * j] = re[j];
    p[2 * j + 1] = im[j];
  }
}

/// Gathers nb lines of n elements into the planes of `a` ([n][nb] each,
/// the imaginary plane at a + n*nb), or scatters them back from there.
template <typename V>
[[gnu::always_inline]] inline void gather(const cplx* src, idx_t istride,
                                          idx_t idist, idx_t n, idx_t nb,
                                          double* a) {
  double* im = a + n * nb;
  if (nb == 1 && istride == 1) {
    split<V>(src, n, a, im);
  } else if (idist == 1) {  // row j is nb adjacent elements
    for (idx_t j = 0; j < n; ++j)
      split<V>(src + j * istride, nb, a + j * nb, im + j * nb);
  } else {
    for (idx_t l = 0; l < nb; ++l)
      for (idx_t j = 0; j < n; ++j) {
        const cplx v = src[l * idist + j * istride];
        a[j * nb + l] = v.real();
        im[j * nb + l] = v.imag();
      }
  }
}

template <typename V>
[[gnu::always_inline]] inline void scatter(const double* a, idx_t n,
                                           idx_t nb, cplx* dst,
                                           idx_t ostride, idx_t odist) {
  const double* im = a + n * nb;
  if (nb == 1 && ostride == 1) {
    merge<V>(a, im, n, dst);
  } else if (odist == 1) {
    for (idx_t j = 0; j < n; ++j)
      merge<V>(a + j * nb, im + j * nb, nb, dst + j * ostride);
  } else {
    for (idx_t l = 0; l < nb; ++l)
      for (idx_t j = 0; j < n; ++j)
        dst[l * odist + j * ostride] = {a[j * nb + l], im[j * nb + l]};
  }
}

void stage_scalar(const Stage& st, const cplx* tw, const cplx* roots,
                  const double* x, double* y, idx_t len, idx_t s, bool inv) {
  if (inv)
    stage_on<double, true>(st, tw, roots, x, y, len, s);
  else
    stage_on<double, false>(st, tw, roots, x, y, len, s);
}

void gather_scalar(const cplx* src, idx_t istride, idx_t idist, idx_t n,
                   idx_t nb, double* a) {
  gather<double>(src, istride, idist, n, nb, a);
}

void scatter_scalar(const double* a, idx_t n, idx_t nb, cplx* dst,
                    idx_t ostride, idx_t odist) {
  scatter<double>(a, n, nb, dst, ostride, odist);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void stage_avx2(const Stage& st, const cplx* tw,
                                        const cplx* roots, const double* x,
                                        double* y, idx_t len, idx_t s,
                                        bool inv) {
  if (inv)
    stage_on<V4, true>(st, tw, roots, x, y, len, s);
  else
    stage_on<V4, false>(st, tw, roots, x, y, len, s);
}

[[gnu::target("avx2")]] void gather_avx2(const cplx* src, idx_t istride,
                                         idx_t idist, idx_t n, idx_t nb,
                                         double* a) {
  gather<V4>(src, istride, idist, n, nb, a);
}

[[gnu::target("avx2")]] void scatter_avx2(const double* a, idx_t n, idx_t nb,
                                          cplx* dst, idx_t ostride,
                                          idx_t odist) {
  scatter<V4>(a, n, nb, dst, ostride, odist);
}
#endif

}  // namespace

/// The kernels a plan runs: gather and scatter, and the stage used when
/// s % 4 == 0 (stage_scalar runs the others). AVX2 or scalar, chosen once
/// per plan.
struct Plan1D::Kernels {
  void (*gather)(const cplx*, idx_t, idx_t, idx_t, idx_t, double*);
  void (*scatter)(const double*, idx_t, idx_t, cplx*, idx_t, idx_t);
  void (*stage4)(const Stage&, const cplx*, const cplx*, const double*,
                 double*, idx_t, idx_t, bool);
};

const Plan1D::Kernels& Plan1D::host_kernels() {
  static const Kernels scalar{gather_scalar, scatter_scalar, stage_scalar};
#if defined(__x86_64__)
  static const Kernels avx2{gather_avx2, scatter_avx2, stage_avx2};
  if (__builtin_cpu_supports("avx2")) return avx2;
#endif
  return scalar;
}

Plan1D::Plan1D(int n) : n_(n), kernels_(&host_kernels()) {
  PARFFT_CHECK(n >= 1, "transform length must be positive");
  work_.resize(static_cast<std::size_t>(2 * n));
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
    if (st.p != 2 && st.p != 4 && st.p != 8)
      for (int j = 0; j < st.p; ++j) t.roots.push_back(unit_root(j, st.p));
    stages_.push_back(std::move(t));
    len = st.m;
  }
}

Plan1D::~Plan1D() = default;
Plan1D::Plan1D(Plan1D&&) noexcept = default;
Plan1D& Plan1D::operator=(Plan1D&&) noexcept = default;

void Plan1D::run(const double* src, double* dst, double* other, idx_t s,
                 Direction dir) const {
  const idx_t len = n_ * s;
  const std::size_t n_stages = stages_.size();
  if (n_stages == 0 && src != dst) std::copy_n(src, 2 * len, dst);  // n == 1
  const bool inv = dir == Direction::Backward;
  const double* x = src;
  for (std::size_t i = 0; i < n_stages; ++i) {
    double* y = (n_stages - 1 - i) % 2 == 0 ? dst : other;
    const StageTables& t = stages_[i];
    (s % 4 == 0 ? kernels_->stage4 : stage_scalar)(
        t.st, t.tw.data(), t.roots.data(), x, y, len, s, inv);
    x = y;
    s *= t.st.p;
  }
}

void Plan1D::execute_lines(const cplx* in, idx_t istride, idx_t idist,
                           cplx* out, idx_t ostride, idx_t odist, int count,
                           Direction dir) {
  PARFFT_CHECK(istride >= 1 && ostride >= 1, "strides must be positive");
  PARFFT_CHECK(count >= 0, "line count must be non-negative");
  const idx_t n = n_;
  if (blue_) {
    // Bluestein transforms one contiguous line at a time.
    for (idx_t l = 0; l < count; ++l) {
      cplx* a = work_.data();
      for (idx_t j = 0; j < n; ++j) a[j] = in[l * idist + j * istride];
      blue_->execute(a, a, dir);
      for (idx_t j = 0; j < n; ++j) out[l * odist + j * ostride] = a[j];
    }
    return;
  }
  const idx_t block = std::min(count, kBlockLines);
  // Two buffers of two planes of n * block doubles: one cplx per double.
  if (static_cast<idx_t>(work_.size()) < 2 * n * block)
    work_.resize(static_cast<std::size_t>(2 * n * block));
  double* a = reinterpret_cast<double*>(work_.data());
  double* b = a + 2 * n * block;
  for (idx_t l0 = 0; l0 < count; l0 += block) {
    const idx_t nb = std::min<idx_t>(block, count - l0);
    double* res = stages_.size() % 2 == 0 ? a : b;
    kernels_->gather(in + l0 * idist, istride, idist, n, nb, a);
    run(a, res, res == a ? b : a, nb, dir);
    kernels_->scatter(res, n, nb, out + l0 * odist, ostride, odist);
  }
}

}  // namespace parfft::dft
