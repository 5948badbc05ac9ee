#pragma once
/// \file pack.hpp
/// Pack/unpack kernels: copy a sub-brick of a rank's local box into/out of
/// a contiguous message buffer, and local transposes that make FFT lines
/// contiguous (heFFTe's "reorder" option -- the contiguous vs strided
/// distinction of paper Figs. 6/7/10). Executed on the CPU; their device
/// cost comes from gpu::pack_cost.

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "core/box.hpp"

namespace parfft::core {

/// Copies `region` (global coords, must lie inside `local`) from the local
/// row-major brick `src` into the contiguous buffer `dst` (row-major in
/// global axis order). Works for any trivially-copyable element type; the
/// complex and real (double) instantiations are provided by pack.cpp.
template <typename T>
void pack_box_t(const T* src, const Box3& local, const Box3& region, T* dst);

/// Inverse of pack_box_t: scatter the contiguous `src` into `region` of
/// the local brick `dst`.
template <typename T>
void unpack_box_t(const T* src, const Box3& local, const Box3& region,
                  T* dst);

inline void pack_box(const cplx* src, const Box3& local, const Box3& region,
                     cplx* dst) {
  pack_box_t(src, local, region, dst);
}
inline void unpack_box(const cplx* src, const Box3& local,
                       const Box3& region, cplx* dst) {
  unpack_box_t(src, local, region, dst);
}

/// Bytes of the innermost contiguous run a pack of `region` from `local`
/// copies at a time (coalescing quality for the cost model), for elements
/// of `elem_bytes` bytes.
double pack_contiguous_run(const Box3& local, const Box3& region,
                           std::size_t elem_bytes = sizeof(cplx));

/// Rearranges a local brick so that global axis `axis` becomes the fastest
/// (contiguous) dimension: out[line][j]. Line order: remaining axes in
/// ascending global order. Returns the number of lines.
idx_t transpose_to_lines(const cplx* src, const Box3& box, int axis,
                         cplx* dst);

}  // namespace parfft::core
