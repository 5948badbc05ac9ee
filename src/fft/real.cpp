#include "fft/real.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "fft/many.hpp"

namespace parfft::dft {

RealPlan1D::RealPlan1D(int n)
    : n_(n), even_(n % 2 == 0 && n >= 2), plan_(even_ ? n / 2 : n) {
  PARFFT_CHECK(n >= 1, "transform length must be positive");
  const int h = n_ / 2;
  w_.resize(static_cast<std::size_t>(h) + 1);
  for (int k = 0; k <= h; ++k) {
    const double phase = -2.0 * std::numbers::pi * k / n_;
    w_[static_cast<std::size_t>(k)] = {std::cos(phase), std::sin(phase)};
  }
  buf_.resize(static_cast<std::size_t>(even_ ? h : n_));
  buf2_.resize(static_cast<std::size_t>(even_ ? h : n_));
}

void RealPlan1D::r2c(const double* in, cplx* out) {
  if (!even_) {
    for (int j = 0; j < n_; ++j) buf_[static_cast<std::size_t>(j)] = in[j];
    plan_.execute(buf_.data(), buf2_.data(), Direction::Forward);
    std::copy_n(buf2_.begin(), n_ / 2 + 1, out);
    return;
  }
  const int h = n_ / 2;
  // Pack adjacent real pairs into complex samples and transform once.
  for (int j = 0; j < h; ++j)
    buf_[static_cast<std::size_t>(j)] = {in[2 * j], in[2 * j + 1]};
  plan_.execute(buf_.data(), buf2_.data(), Direction::Forward);
  for (int k = 0; k <= h; ++k) {
    const cplx zk = buf2_[static_cast<std::size_t>(k % h)];
    const cplx zh = std::conj(buf2_[static_cast<std::size_t>((h - k) % h)]);
    const cplx e = 0.5 * (zk + zh);               // spectrum of even samples
    const cplx o = cplx(0, -0.5) * (zk - zh);     // spectrum of odd samples
    out[k] = e + w_[static_cast<std::size_t>(k)] * o;
  }
}

void RealPlan1D::c2r(const cplx* in, double* out) {
  if (!even_) {
    // Rebuild the full Hermitian spectrum and run a complex backward FFT.
    for (int k = 0; k <= n_ / 2; ++k) buf_[static_cast<std::size_t>(k)] = in[k];
    for (int k = n_ / 2 + 1; k < n_; ++k)
      buf_[static_cast<std::size_t>(k)] = std::conj(in[n_ - k]);
    plan_.execute(buf_.data(), buf2_.data(), Direction::Backward);
    for (int j = 0; j < n_; ++j) out[j] = buf2_[static_cast<std::size_t>(j)].real();
    return;
  }
  const int h = n_ / 2;
  // Repack the half spectrum into the length-h complex sequence; the extra
  // factor of 2 makes c2r(r2c(x)) == n * x (FFTW convention).
  for (int k = 0; k < h; ++k) {
    const cplx xk = in[k];
    const cplx xh = std::conj(in[h - k]);
    const cplx e2 = xk + xh;
    const cplx o2 = (xk - xh) * std::conj(w_[static_cast<std::size_t>(k)]);
    buf_[static_cast<std::size_t>(k)] = e2 + cplx(0, 1) * o2;
  }
  plan_.execute(buf_.data(), buf2_.data(), Direction::Backward);
  for (int j = 0; j < h; ++j) {
    out[2 * j] = buf2_[static_cast<std::size_t>(j)].real();
    out[2 * j + 1] = buf2_[static_cast<std::size_t>(j)].imag();
  }
}

void fft3d_r2c_local(const double* in, cplx* out,
                     const std::array<int, 3>& n) {
  const idx_t n0 = n[0], n1 = n[1], n2 = n[2];
  const idx_t nc = n2 / 2 + 1;
  RealPlan1D rp(n[2]);
  for (idx_t l = 0; l < n0 * n1; ++l)
    rp.r2c(in + l * n2, out + l * nc);
  // Remaining two (complex) axes on the half-spectrum brick.
  const std::array<int, 3> cdims = {n[0], n[1], static_cast<int>(nc)};
  fft3d_axis(out, cdims, 1, Direction::Forward);
  fft3d_axis(out, cdims, 0, Direction::Forward);
}

void fft3d_c2r_local(const cplx* in, double* out,
                     const std::array<int, 3>& n) {
  const idx_t n0 = n[0], n1 = n[1], n2 = n[2];
  const idx_t nc = n2 / 2 + 1;
  const std::array<int, 3> cdims = {n[0], n[1], static_cast<int>(nc)};
  std::vector<cplx> tmp(in, in + n0 * n1 * nc);
  fft3d_axis(tmp.data(), cdims, 0, Direction::Backward);
  fft3d_axis(tmp.data(), cdims, 1, Direction::Backward);
  RealPlan1D rp(n[2]);
  for (idx_t l = 0; l < n0 * n1; ++l)
    rp.c2r(tmp.data() + l * nc, out + l * n2);
}

}  // namespace parfft::dft
