#include "fft/many.hpp"

#include "common/error.hpp"

namespace parfft::dft {

ManyPlan::ManyPlan(int n, const BatchLayout& layout)
    : plan_(n), layout_(layout) {
  PARFFT_CHECK(layout.count >= 1, "batch count must be positive");
  PARFFT_CHECK(layout.istride >= 1 && layout.ostride >= 1,
               "strides must be positive");
  if (layout_.idist == 0) layout_.idist = static_cast<idx_t>(n) * layout_.istride;
  if (layout_.odist == 0) layout_.odist = static_cast<idx_t>(n) * layout_.ostride;
}

void fft3d_axis(cplx* data, const std::array<int, 3>& n, int axis,
                Direction dir) {
  PARFFT_CHECK(axis >= 0 && axis < 3, "axis must be 0, 1 or 2");
  const idx_t len = n[static_cast<std::size_t>(axis)];
  idx_t outer = 1, inner = 1;  // points of the slower / faster axes
  for (int d = 0; d < axis; ++d) outer *= n[static_cast<std::size_t>(d)];
  for (int d = axis + 1; d < 3; ++d) inner *= n[static_cast<std::size_t>(d)];
  // Axis 2: all outer lines are contiguous. Otherwise, per slab of the
  // slower axes, `inner` lines of stride `inner` with adjacent starts.
  const bool last = axis == 2;
  const idx_t dist = last ? len : 1;
  ManyPlan p(static_cast<int>(len),
             {.count = static_cast<int>(last ? outer : inner),
              .istride = inner, .idist = dist, .ostride = inner, .odist = dist});
  for (idx_t o = 0; o < (last ? 1 : outer); ++o)
    p.execute(data + o * len * inner, data + o * len * inner, dir);
}

void fft3d_local(cplx* data, const std::array<int, 3>& n, Direction dir) {
  for (int axis = 0; axis < 3; ++axis) fft3d_axis(data, n, axis, dir);
}

void fft2d_local(cplx* data, int n0, int n1, Direction dir) {
  fft3d_local(data, {1, n0, n1}, dir);
}

}  // namespace parfft::dft
