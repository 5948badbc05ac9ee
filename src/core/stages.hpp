#pragma once
/// \file stages.hpp
/// Builds the stage pipeline of the paper's Algorithm 1: a sequence of
/// reshapes and local FFT stages realizing a slab, pencil or brick
/// decomposition, including input/output remaps from arbitrary brick grids
/// and the FFT grid-shrinking feature. The result is pure data, consumed
/// identically by the threaded executor (core/plan) and the at-scale
/// simulator (core/simulate).

#include <array>
#include <string>
#include <vector>

#include "core/reshape.hpp"
#include "netsim/machine.hpp"
#include "obs/tracer.hpp"

namespace parfft::core {

/// Decomposition strategies of Fig. 1. Auto picks slab vs pencil with the
/// paper's bandwidth model (Section IV-A).
enum class Decomposition { Auto, Slab, Pencil, Brick };

/// Communication backends of Table I.
enum class Backend {
  Alltoall,        ///< MPI_Alltoall (padded blocks)
  Alltoallv,       ///< MPI_Alltoallv (exact counts)
  Alltoallw,       ///< MPI_Alltoallw + sub-array datatypes (Algorithm 2)
  P2PBlocking,     ///< MPI_Send + MPI_Irecv + MPI_Waitany
  P2PNonBlocking,  ///< MPI_Isend + MPI_Irecv + MPI_Waitany
};

net::CollectiveAlg to_alg(Backend b);
/// Human-readable MPI routine name ("MPI_Alltoallv", ...) for traces.
std::string backend_name(Backend b);
bool backend_is_p2p(Backend b);
bool backend_is_datatype(Backend b);

/// Normalization applied after a backward transform.
enum class Scaling { None, Full };

struct PlanOptions {
  Decomposition decomp = Decomposition::Auto;
  Backend backend = Backend::Alltoallv;
  /// heFFTe's reorder option: locally transpose so 1-D FFT input is
  /// contiguous (extra packing) instead of running strided FFTs.
  bool contiguous_fft = false;
  /// Batched transforms: number of 3-D FFTs executed together.
  int batch = 1;
  /// FFT grid shrinking: if > 0 and smaller than the communicator, only
  /// this many ranks take part in the FFT stages; data is remapped pre and
  /// post computation (Algorithm 1, line 2).
  int shrink_to = 0;
  /// Overlap communication and computation across batch sub-chunks (the
  /// source of the Fig. 13 speedup). Both the simulator and the threaded
  /// Plan3D charge the pipelined schedule; the threaded plan still moves
  /// the data stage by stage.
  bool overlap_batches = true;
  Scaling scaling = Scaling::None;
  /// Span/metric recording for this plan's executions (simulate mode). Also
  /// switched on globally by the PARFFT_TRACE environment variable.
  obs::TraceConfig trace;
};

/// One pipeline step.
struct Stage {
  enum class Kind { Reshape, Fft };
  Kind kind = Kind::Fft;
  ReshapePlan reshape;        ///< Kind::Reshape
  std::vector<int> axes;      ///< Kind::Fft: global axes transformed
  std::vector<Box3> boxes;    ///< Kind::Fft: per-rank layout during compute
};

struct StagePlan {
  std::array<int, 3> n{};
  int nranks = 0;
  int compute_ranks = 0;          ///< after grid shrinking
  Decomposition resolved = Decomposition::Pencil;
  PlanOptions options;
  std::vector<Stage> stages;

  idx_t total_elements() const {
    return static_cast<idx_t>(n[0]) * n[1] * n[2];
  }
  /// Largest local footprint of `rank` across all stages, in elements
  /// (work-buffer sizing), for one batch element.
  idx_t max_work_elements(int rank) const;
  /// Number of reshape stages (the paper counts these as the
  /// communication phases: 1 for slabs, 2 for pencils, 4 for bricks, plus
  /// input/output remaps).
  int reshape_count() const;
};

/// Builds the pipeline. `in_boxes` / `out_boxes` give each rank's brick
/// before and after the transform (pad_boxes-style empties allowed); both
/// must cover the full index space. The machine spec feeds the Auto
/// decomposition model. 2-D transforms (n[0] == 1) are supported: the two
/// axes are transformed through one intermediate transfer, whatever
/// decomposition is requested.
StagePlan build_stages(const std::array<int, 3>& n, int nranks,
                       std::vector<Box3> in_boxes,
                       std::vector<Box3> out_boxes, const PlanOptions& opt,
                       const net::MachineSpec& machine);

/// Builds a partial pipeline transforming only `axes` (in order), each on
/// its pencil grid, between the given layouts. Used by the distributed
/// real-to-complex transform, whose first axis is handled separately by
/// the real engine.
StagePlan build_partial_stages(const std::array<int, 3>& n, int nranks,
                               std::vector<Box3> in_boxes,
                               std::vector<Box3> out_boxes,
                               const std::vector<int>& axes,
                               const PlanOptions& opt);

}  // namespace parfft::core
