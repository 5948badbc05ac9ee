#pragma once
/// \file plan1d.hpp
/// One-dimensional complex-to-complex FFT plan.
///
/// This is the computational substrate that stands in for the single-device
/// vendor libraries (cuFFT / rocFFT / FFTW) the paper builds on: an
/// iterative Stockham autosort transform (decimation in frequency). A stage
/// of radix p and sub-length L = p*m reads x[q + s*(k + j*m)], takes the
/// length-p DFT over j, multiplies output r by w_L^(r*k) and writes
/// y[q + s*(p*k + r)] into the other of two buffers; s then grows by p.
/// Radix 4 with one radix-2 fix-up, a generic O(p^2) butterfly for odd
/// radices up to kGenericRadixMax and a Bluestein chirp-z fallback cover
/// every length. Each stage's tables are built when the plan is made.
/// The starting s is the interleave width: one line runs with s = 1, and B
/// lines interleaved as [n][B] run the same stages with s = B.
///
/// Conventions match FFTW/cuFFT: the forward transform uses the
/// exp(-2*pi*i*k*n/N) kernel, transforms are unnormalized in both
/// directions, so backward(forward(x)) == N * x.

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "fft/factorize.hpp"

namespace parfft::dft {

/// Transform direction (sign of the exponent).
enum class Direction { Forward, Backward };

/// Prime factors above this bound are routed through Bluestein rather than
/// the O(p^2) generic butterfly.
inline constexpr int kGenericRadixMax = 61;

class Bluestein;  // defined in bluestein.hpp

/// A reusable plan for 1-D transforms of a fixed length.
///
/// Plans hold scratch storage and are therefore not safe for concurrent use
/// from multiple threads; in the distributed library every simulated rank
/// owns its plans, mirroring how cuFFT handles are used per device.
class Plan1D {
 public:
  /// Prepares the per-stage twiddle and root tables (and the Bluestein
  /// machinery when needed) for transforms of length n >= 1.
  explicit Plan1D(int n);
  ~Plan1D();
  Plan1D(Plan1D&&) noexcept;
  Plan1D& operator=(Plan1D&&) noexcept;
  Plan1D(const Plan1D&) = delete;
  Plan1D& operator=(const Plan1D&) = delete;

  int size() const { return n_; }

  /// Transforms n contiguous elements from `in` to `out`. `in == out`
  /// (exact in-place) is allowed; partially overlapping ranges are not.
  void execute(const cplx* in, cplx* out, Direction dir);

  /// Strided variant: element j is read at in[j * istride] and written at
  /// out[j * ostride]. Input and output ranges must be disjoint or identical
  /// with equal strides.
  void execute_strided(const cplx* in, idx_t istride, cplx* out,
                       idx_t ostride, Direction dir) {
    execute_lines(in, istride, 0, out, ostride, 0, 1, dir);
  }

  /// Transforms `count` lines: element j of line l is read at
  /// in[l * idist + j * istride] and written at out[l * odist + j * ostride].
  /// Blocks of B = 8 lines are gathered into [n][B] (a row of B at a
  /// time when idist == 1), run with s = B and scattered back, so each
  /// line equals execute() on it bit for bit. Bluestein lengths go one line
  /// at a time. Exact in-place (same pointer and layout) is allowed.
  void execute_lines(const cplx* in, idx_t istride, idx_t idist, cplx* out,
                     idx_t ostride, idx_t odist, int count, Direction dir);

  /// True when this length is executed through the Bluestein fallback.
  bool uses_bluestein() const { return blue_ != nullptr; }

 private:
  /// A stage and its tables: tw[k*(p-1) + r-1] = w_L^(r*k), and
  /// roots[t] = w_p^t for the generic butterfly.
  struct StageTables {
    Stage st;
    std::vector<cplx> tw;
    std::vector<cplx> roots;
  };

  /// Runs the stages on s-interleaved data from `src`, ending in `dst` and
  /// alternating through `other`; `src` must not be stage 0's target.
  void run(const cplx* src, cplx* dst, cplx* other, idx_t s,
           Direction dir) const;

  int n_ = 0;
  std::vector<StageTables> stages_;
  std::vector<cplx> work_;  ///< ping-pong and block buffers, grown on use
  std::unique_ptr<Bluestein> blue_;
};

}  // namespace parfft::dft
