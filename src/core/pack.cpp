#include "core/pack.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace parfft::core {

namespace {
void check_region(const Box3& local, const Box3& region) {
  PARFFT_CHECK(intersect(local, region) == region,
               "region must lie inside the local box");
}
}  // namespace

template <typename T>
void pack_box_t(const T* src, const Box3& local, const Box3& region, T* dst) {
  if (region.empty()) return;
  check_region(local, region);
  const idx_t run = region.size(2);
  idx_t w = 0;
  for (idx_t i0 = region.lo[0]; i0 <= region.hi[0]; ++i0)
    for (idx_t i1 = region.lo[1]; i1 <= region.hi[1]; ++i1) {
      const idx_t off = local.offset_of({i0, i1, region.lo[2]});
      std::memcpy(dst + w, src + off,
                  static_cast<std::size_t>(run) * sizeof(T));
      w += run;
    }
}

template <typename T>
void unpack_box_t(const T* src, const Box3& local, const Box3& region,
                  T* dst) {
  if (region.empty()) return;
  check_region(local, region);
  const idx_t run = region.size(2);
  idx_t r = 0;
  for (idx_t i0 = region.lo[0]; i0 <= region.hi[0]; ++i0)
    for (idx_t i1 = region.lo[1]; i1 <= region.hi[1]; ++i1) {
      const idx_t off = local.offset_of({i0, i1, region.lo[2]});
      std::memcpy(dst + off, src + r,
                  static_cast<std::size_t>(run) * sizeof(T));
      r += run;
    }
}

template void pack_box_t<cplx>(const cplx*, const Box3&, const Box3&, cplx*);
template void unpack_box_t<cplx>(const cplx*, const Box3&, const Box3&,
                                 cplx*);
template void pack_box_t<double>(const double*, const Box3&, const Box3&,
                                 double*);
template void unpack_box_t<double>(const double*, const Box3&, const Box3&,
                                   double*);

double pack_contiguous_run(const Box3& local, const Box3& region,
                           std::size_t elem_bytes) {
  if (region.empty()) return 0;
  // Runs along axis 2; if the region spans the local box's full axis-2
  // extent, consecutive (i0,i1) rows merge into longer runs.
  double run = static_cast<double>(region.size(2)) * elem_bytes;
  if (region.size(2) == local.size(2) && region.size(1) == local.size(1))
    run *= static_cast<double>(region.size(1));
  return run;
}

namespace {
/// dst[a][c][r] = src[a][r][c] for `outer` row-major rows x cols matrices,
/// in kTile x kTile tiles: a power-of-two row length would otherwise send
/// every write of a column into the same few cache sets.
constexpr idx_t kTile = 16;
void transpose_tiled(const cplx* src, idx_t outer, idx_t rows, idx_t cols,
                     cplx* dst) {
  for (idx_t a = 0; a < outer; ++a, src += rows * cols, dst += rows * cols)
    for (idx_t r0 = 0; r0 < rows; r0 += kTile)
      for (idx_t c0 = 0; c0 < cols; c0 += kTile) {
        const idx_t r1 = std::min(rows, r0 + kTile);
        const idx_t c1 = std::min(cols, c0 + kTile);
        for (idx_t r = r0; r < r1; ++r)
          for (idx_t c = c0; c < c1; ++c) dst[c * rows + r] = src[r * cols + c];
      }
}
}  // namespace

idx_t transpose_to_lines(const cplx* src, const Box3& box, int axis,
                         cplx* dst) {
  PARFFT_CHECK(axis >= 0 && axis < 3, "axis must be 0, 1 or 2");
  const idx_t n0 = box.size(0), n1 = box.size(1), n2 = box.size(2);
  const idx_t len = box.size(axis);
  const idx_t lines = len > 0 ? box.count() / len : 0;
  if (lines == 0) return 0;
  switch (axis) {
    case 2:
      std::memcpy(dst, src, static_cast<std::size_t>(box.count()) * sizeof(cplx));
      break;
    case 1:
      // line (i0, i2): dst[(i0*n2 + i2)*n1 + j] = src[(i0*n1 + j)*n2 + i2]
      transpose_tiled(src, n0, n1, n2, dst);
      break;
    default:
      // line (i1, i2): dst[(i1*n2 + i2)*n0 + j] = src[(j*n1 + i1)*n2 + i2]
      transpose_tiled(src, 1, n0, n1 * n2, dst);
      break;
  }
  return lines;
}

}  // namespace parfft::core
