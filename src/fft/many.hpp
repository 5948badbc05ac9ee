#pragma once
/// \file many.hpp
/// Batched / strided transforms in the style of cufftPlanMany, plus local
/// 2-D and 3-D transforms on contiguous bricks. These are the exact entry
/// points the distributed library calls between reshapes: a batch of 1-D
/// lines along one axis of the local brick, either contiguous (transposed
/// approach) or strided (non-contiguous approach), cf. paper Figs. 6/7/10.
///
/// Every layout takes one path, Plan1D::execute_lines(): blocks of 8
/// lines are split into the planes re[n][8] and im[n][8] and run through
/// the Stockham stages with SIMD lanes across the lines.

#include <array>

#include "common/types.hpp"
#include "fft/plan1d.hpp"

namespace parfft::dft {

/// Geometry of a batch of equally-spaced 1-D lines (cuFFT advanced layout).
struct BatchLayout {
  int count = 1;      ///< number of lines
  idx_t istride = 1;  ///< input element stride within a line
  idx_t idist = 0;    ///< input distance between line starts
  idx_t ostride = 1;  ///< output element stride within a line
  idx_t odist = 0;    ///< output distance between line starts

  bool contiguous() const { return istride == 1 && ostride == 1; }
};

/// A plan for `layout.count` transforms of length n.
class ManyPlan {
 public:
  ManyPlan(int n, const BatchLayout& layout);

  int size() const { return plan_.size(); }
  const BatchLayout& layout() const { return layout_; }

  /// Executes all lines. Exact in-place (in == out with matching layout) is
  /// supported; lines must otherwise not overlap.
  void execute(const cplx* in, cplx* out, Direction dir) {
    plan_.execute_lines(in, layout_.istride, layout_.idist, out,
                        layout_.ostride, layout_.odist, layout_.count, dir);
  }

 private:
  Plan1D plan_;
  BatchLayout layout_;
};

/// In-place complex 3-D transform of a contiguous row-major brick
/// (n[0] slowest, n[2] fastest), applying 1-D FFTs along all three axes.
/// Unnormalized, like the 1-D engine.
void fft3d_local(cplx* data, const std::array<int, 3>& n, Direction dir);

/// In-place complex 2-D transform of a contiguous row-major n0 x n1 array.
void fft2d_local(cplx* data, int n0, int n1, Direction dir);

/// Applies 1-D FFTs along a single axis of a contiguous row-major brick;
/// this is the per-stage operation of the distributed pipeline.
void fft3d_axis(cplx* data, const std::array<int, 3>& n, int axis,
                Direction dir);

}  // namespace parfft::dft
