#pragma once
/// \file bluestein.hpp
/// Bluestein chirp-z transform: computes a DFT of arbitrary length n as a
/// circular convolution of power-of-two length, used by Plan1D for lengths
/// whose largest prime factor exceeds kGenericRadixMax.

#include <vector>

#include "common/types.hpp"
#include "fft/plan1d.hpp"

namespace parfft::dft {

class Bluestein {
 public:
  explicit Bluestein(int n);

  /// Unnormalized DFT of length n; in == out allowed.
  void execute(const cplx* in, cplx* out, Direction dir);

  int conv_length() const { return m_; }

 private:
  int n_;
  int m_;                       ///< power-of-two convolution length >= 2n-1
  Plan1D fft_m_;                ///< power-of-two helper plan
  std::vector<cplx> chirp_;     ///< exp(-i*pi*j^2/n), j in [0, n)
  std::vector<cplx> bhat_fwd_;  ///< forward-direction kernel spectrum
  std::vector<cplx> bhat_bwd_;  ///< backward-direction kernel spectrum
  std::vector<cplx> a_;         ///< workspace of length m_
};

}  // namespace parfft::dft
