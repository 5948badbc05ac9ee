#include "fft/bluestein.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "fft/factorize.hpp"

namespace parfft::dft {

Bluestein::Bluestein(int n)
    : n_(n), m_(next_pow2(2 * n - 1)), fft_m_(m_) {
  PARFFT_CHECK(n >= 2, "Bluestein requires n >= 2");
  chirp_.resize(static_cast<std::size_t>(n_));
  // j^2 mod 2n keeps the phase argument small for numerical stability.
  const std::int64_t two_n = 2LL * n_;
  for (std::int64_t j = 0; j < n_; ++j) {
    const std::int64_t j2 = (j * j) % two_n;
    const double phase = -std::numbers::pi * static_cast<double>(j2) / n_;
    chirp_[static_cast<std::size_t>(j)] = {std::cos(phase), std::sin(phase)};
  }
  a_.assign(static_cast<std::size_t>(m_), cplx{});

  // Kernel b[j] = conj(chirp[j]) arranged circularly; its spectrum is
  // reused for every execute. Backward direction conjugates the chirp.
  auto make_bhat = [&](bool backward) {
    std::vector<cplx> b(static_cast<std::size_t>(m_), cplx{});
    for (int j = 0; j < n_; ++j) {
      const cplx c = backward ? chirp_[static_cast<std::size_t>(j)]
                              : std::conj(chirp_[static_cast<std::size_t>(j)]);
      b[static_cast<std::size_t>(j)] = c;
      if (j > 0) b[static_cast<std::size_t>(m_ - j)] = c;
    }
    fft_m_.execute(b.data(), b.data(), Direction::Forward);
    return b;
  };
  bhat_fwd_ = make_bhat(false);
  bhat_bwd_ = make_bhat(true);
}

void Bluestein::execute(const cplx* in, cplx* out, Direction dir) {
  const bool backward = dir == Direction::Backward;
  const auto& bhat = backward ? bhat_bwd_ : bhat_fwd_;
  auto chirp_at = [&](int j) {
    const cplx c = chirp_[static_cast<std::size_t>(j)];
    return backward ? std::conj(c) : c;
  };

  for (int j = 0; j < n_; ++j)
    a_[static_cast<std::size_t>(j)] = in[j] * chirp_at(j);
  std::fill(a_.begin() + n_, a_.end(), cplx{});

  fft_m_.execute(a_.data(), a_.data(), Direction::Forward);
  for (int j = 0; j < m_; ++j)
    a_[static_cast<std::size_t>(j)] *= bhat[static_cast<std::size_t>(j)];
  fft_m_.execute(a_.data(), a_.data(), Direction::Backward);

  const double inv_m = 1.0 / m_;
  for (int k = 0; k < n_; ++k)
    out[k] = a_[static_cast<std::size_t>(k)] * inv_m * chirp_at(k);
}

}  // namespace parfft::dft
