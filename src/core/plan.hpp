#pragma once
/// \file plan.hpp
/// The distributed 3-D FFT plan -- the paper's Algorithm 1 (and, with the
/// Alltoallw backend, Algorithm 2) executed on the simulated MPI runtime.
///
/// A plan is created collectively: every rank passes its input and output
/// brick (arbitrary grids are supported, as in heFFTe/fftMPI/SWFFT), the
/// options select decomposition / backend / reorder / batching / grid
/// shrinking, and execute() runs forward or backward transforms on real
/// data while charging Summit-like virtual time to each rank's clock.

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "core/stages.hpp"
#include "core/trace.hpp"
#include "fft/plan1d.hpp"
#include "simmpi/runtime.hpp"

namespace parfft::core {

class Plan3D {
 public:
  /// Collective constructor (all ranks of `comm` must call it with the
  /// same `n` and options). `inbox`/`outbox` are this rank's bricks.
  Plan3D(smpi::Comm& comm, const std::array<int, 3>& n, const Box3& inbox,
         const Box3& outbox, const PlanOptions& opt);

  /// Wraps a prebuilt stage pipeline (e.g. build_partial_stages, used by
  /// the distributed real transform). `inbox`/`outbox` are this rank's
  /// layouts at entry and exit; not a collective (the plan already
  /// contains every rank's view).
  Plan3D(smpi::Comm& comm, StagePlan plan, const Box3& inbox,
         const Box3& outbox);

  /// Executes options.batch transforms. `in` holds batch-major local
  /// bricks of the input layout (batch * inbox().count() elements); `out`
  /// receives batch * outbox().count() elements. In-place (in == out) is
  /// allowed when the buffer fits both layouts. Forward is unnormalized;
  /// Backward applies options.scaling. A reshape as the first stage reads
  /// `in` directly, and one as the last of two or more stages writes `out`
  /// directly (the backward scaling then runs on `out`); an FFT stage at
  /// either end works on a copy.
  ///
  /// An FFT stage charges this rank's stage_kernels() (core/simulate.hpp),
  /// the kernels the simulator prices. With options.batch > 1 and
  /// options.overlap_batches the data still moves stage by stage, and one
  /// collective then sets every rank's clock to the latest execute-entry
  /// clock plus core::overlapped_batch_time(), the Fig. 13 schedule the
  /// simulator prices. That time is priced once per plan, on its first
  /// overlapped execute; trace() keeps the sequential times, and the
  /// traced spans of the stages are fitted into the settled window
  /// (obs::Tracer::fit_children), so they overlap there.
  void execute(const cplx* in, cplx* out, dft::Direction dir);

  const StagePlan& stage_plan() const { return plan_; }
  const Box3& inbox() const { return inbox_; }
  const Box3& outbox() const { return outbox_; }
  idx_t input_elements() const {
    return inbox_.count() * plan_.options.batch;
  }
  idx_t output_elements() const {
    return outbox_.count() * plan_.options.batch;
  }

  /// Virtual-time accounting for this rank; clear between measurements.
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

 private:
  /// Collective: sets every member's clock to the latest of the members'
  /// execute-entry clocks plus the pipelined batch time.
  void overlap_settle(double entry);
  /// Each reshape moves this rank's `batch` bricks from `src` (the stage's
  /// input layout) into `dst` (its output layout); they must not overlap.
  void run_reshape_collective(const Stage& stage, const cplx* src, cplx* dst);
  void run_reshape_datatype(const Stage& stage, const cplx* src, cplx* dst);
  void run_reshape_p2p(const Stage& stage, int tag_base, const cplx* src,
                       cplx* dst);
  void run_fft(std::size_t stage, dft::Direction dir);

  smpi::Comm& comm_;
  StagePlan plan_;
  Box3 inbox_, outbox_;
  gpu::DeviceSpec dev_;
  gpu::PlanCache fft_cache_;
  smpi::MemSpace space_ = smpi::MemSpace::Device;
  Trace trace_;
  // Work buffers: batch-major local bricks of the current layout.
  std::vector<cplx> work_, work2_;
  /// The pipelined batch time, priced by the first overlapped execute.
  std::optional<double> overlap_time_;
  int tag_counter_ = 100;
};

/// Convenience: gathers every rank's box (collective).
std::vector<Box3> allgather_boxes(smpi::Comm& comm, const Box3& mine);

/// Charges one kernel of `t` virtual seconds to the calling rank: advances
/// its clock, appends the call to `trace` (when non-null) and, with
/// tracing on, records the span that ends at the new clock. The one place
/// src/core advances a clock for a kernel, so a Trace and its spans agree
/// by construction.
void charge(smpi::Comm& comm, Trace* trace, obs::Category cat,
            const char* name, double t, std::vector<obs::SpanArg> args = {});

/// Algorithm 1's packed reshape on this rank, moving each block once: one
/// exchange over device memory, priced under `alg` (Alltoall or
/// Alltoallv), in which every rank copies the regions it receives under
/// `rp` straight from the senders' `batch` bricks `in` into its own
/// `batch` bricks `out` (Comm::alltoallw over subarrays spanning the
/// batch). The receive regions tile `out`, so it is not cleared first.
/// The pack and unpack kernels are charged with pack_kernel_time, as the
/// GPU runs them, but not performed on the host; the pack, the exchange
/// and the unpack are appended to `trace` when it is non-null. With
/// tracing on, `reshape/fanout` is recorded. Collective. Instantiated for
/// cplx and double.
template <typename T>
void packed_reshape(smpi::Comm& comm, const ReshapePlan& rp, int batch,
                    const T* in, T* out, net::CollectiveAlg alg,
                    Trace* trace);

}  // namespace parfft::core
