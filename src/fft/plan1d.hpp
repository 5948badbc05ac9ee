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
/// Radix-8, -4 and -2 butterflies, a generic O(p^2) butterfly for odd
/// radices up to kGenericRadixMax and a Bluestein chirp-z fallback cover
/// every length. Each stage's tables are built when the plan is made.
///
/// Data runs as split planes: a block of s interleaved lines is held as
/// re[n][s] and im[n][s], and each stage's q-loop does lane arithmetic
/// across the lines. The lanes are four doubles (AVX2, chosen once per
/// plan with __builtin_cpu_supports) when s % 4 == 0, else one double.
/// Both come from one kernel template with the same operation order and
/// no FMA, so every lane width gives the same bits: a line's result does
/// not depend on the host or on how many lines run beside it.
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
  void execute(const cplx* in, cplx* out, Direction dir) {
    execute_lines(in, 1, 0, out, 1, 0, 1, dir);
  }

  /// Strided variant: element j is read at in[j * istride] and written at
  /// out[j * ostride]. Input and output ranges must be disjoint or identical
  /// with equal strides.
  void execute_strided(const cplx* in, idx_t istride, cplx* out,
                       idx_t ostride, Direction dir) {
    execute_lines(in, istride, 0, out, ostride, 0, 1, dir);
  }

  /// Transforms `count` lines: element j of line l is read at
  /// in[l * idist + j * istride] and written at out[l * odist + j * ostride].
  /// Blocks of up to 8 lines are split into the planes re[n][8] and
  /// im[n][8] (a row of 8 at a time when idist == 1; one pass for a single
  /// contiguous line), run with s = 8 and merged back, so each line equals
  /// execute() on it bit for bit. Bluestein lengths go one line at a time.
  /// Exact in-place (same pointer and layout) is allowed.
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

  /// Runs the stages on s-interleaved split planes (each buffer holds the
  /// real plane of n*s doubles, then the imaginary one) from `src`, ending
  /// in `dst` and alternating through `other`; `src` must not be stage 0's
  /// target.
  void run(const double* src, double* dst, double* other, idx_t s,
           Direction dir) const;

  struct Kernels;
  /// The AVX2 kernels when the host has AVX2, else the scalar ones.
  static const Kernels& host_kernels();

  int n_ = 0;
  const Kernels* kernels_;
  std::vector<StageTables> stages_;
  std::vector<cplx> work_;  ///< ping-pong plane buffers, grown on use
  std::unique_ptr<Bluestein> blue_;
};

}  // namespace parfft::dft
