#pragma once
/// \file device.hpp
/// GPU device model.
///
/// The repository executes every kernel on the CPU (via src/fft and the
/// pack/unpack routines in src/core) for bit-exact correctness, while the
/// *time* each kernel would take on a V100- or MI100-class device comes
/// from the cost functions here. This mirrors the substitution described in
/// DESIGN.md: the paper's numbers are properties of device bandwidth,
/// kernel-launch overhead and cuFFT behaviour (e.g. the strided-input spike
/// of Fig. 10), all of which are modeled explicitly.

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/types.hpp"

namespace parfft::gpu {

enum class Vendor { Nvidia, Amd, Intel };

/// Where a buffer lives. The simulated MPI runtime uses this to pick the
/// GPU-aware vs staged transfer path, as real GPU-aware MPI does.
enum class MemSpace { Host, Device };

/// Performance description of one accelerator.
struct DeviceSpec {
  Vendor vendor = Vendor::Nvidia;
  std::string fft_backend = "cuFFT";
  double fp64_flops = 7.8e12;   ///< peak double-precision FLOP/s
  double hbm_bw = 800e9;        ///< sustained device-memory bandwidth
  double kernel_launch = 5e-6;  ///< per kernel launch, seconds
  /// Memory passes a batched 1-D FFT makes over its data (vendor FFTs run
  /// a few radix stages per pass).
  double fft_mem_passes = 3.0;
  double fft_flop_efficiency = 0.5;   ///< fraction of peak for stride-1 FFT
  double fft_strided_penalty = 5.0;   ///< slowdown with strided input (Fig. 10)
  double fft_plan_setup = 180e-6;     ///< first-call plan creation spike
  /// Pack/unpack kernels read + write each byte; fine-grained (short
  /// contiguous runs) copies lose coalescing.
  double pack_noncoalesced_penalty = 2.5;
  /// Packing many regions for one reshape is fused into few launches
  /// (heFFTe-style); each extra region costs only descriptor setup.
  double pack_region_setup = 0.8e-6;
};

/// V100 (Summit): 7.8 TFLOP/s fp64, ~800 GB/s usable HBM2.
DeviceSpec v100();

/// MI-100 (Spock): 11.5 TFLOP/s fp64, ~1 TB/s HBM2, rocFFT backend.
DeviceSpec mi100();

// ---------------------------------------------------------------------------
// Cost functions (pure).
// ---------------------------------------------------------------------------

/// Time of a batched 1-D FFT of length `len` over `batch` lines of
/// double-complex data: max of the flop-bound and memory-bound estimates
/// plus one kernel launch. `strided` models non-unit input stride.
double fft_cost(const DeviceSpec& d, int len, int batch, bool strided);

/// Time to pack or unpack `bytes` of data; `contiguous_run` is the length
/// in bytes of the innermost contiguous run (coalescing quality).
double pack_cost(const DeviceSpec& d, double bytes, double contiguous_run);

/// Marginal cost of one packed region within a fused reshape pack: bytes
/// traffic plus per-region descriptor setup, but no kernel launch -- the
/// caller adds one `d.kernel_launch` per reshape side.
double pack_region_cost(const DeviceSpec& d, double bytes,
                        double contiguous_run);

/// Time of an element-wise kernel over `bytes` (scaling, Green's function
/// multiply): one read + one write per byte.
double pointwise_cost(const DeviceSpec& d, double bytes);

// ---------------------------------------------------------------------------
// Stateful helpers.
// ---------------------------------------------------------------------------

/// Tracks which FFT plans a device has already created so the first call
/// with a new (len, batch, strided) layout pays the plan-setup spike, as
/// observed with cuFFT in Fig. 10.
///
/// Residency is capacity-bounded with LRU eviction: vendor FFT handles
/// pin device memory (cuFFT work areas), so a process juggling many
/// layouts -- a multi-tenant serving mix above all -- cannot keep every
/// plan alive. A layout that was evicted pays the setup spike again on
/// its next call, exactly like a real handle destroyed and re-created.
class PlanCache {
 public:
  /// Default residency bound; roughly what a cuFFT work-area budget of a
  /// few GB supports for the transform sizes the paper uses.
  static constexpr std::size_t kDefaultCapacity = 64;

  /// `capacity` == 0 means unbounded (the pre-serving behaviour).
  explicit PlanCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Returns the cost of this call and records the layout: a resident
  /// layout is a hit (refreshes recency), anything else pays
  /// `d.fft_plan_setup` and may evict the least-recently-used plan.
  double fft_call(const DeviceSpec& d, int len, int batch, bool strided);

  /// Total plan creations, including re-creations after eviction.
  std::size_t plans_created() const { return misses_; }
  std::size_t resident() const { return resident_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  using Key = std::tuple<int, int, bool>;
  std::size_t capacity_;
  std::list<Key> lru_;  ///< front = most recently used
  std::map<Key, std::list<Key>::iterator> resident_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

/// Ordered virtual-time queue modelling one CUDA/HIP stream: operations
/// submitted to the same stream serialize; different streams overlap. The
/// batched-transform executor uses two streams (compute + communication)
/// to model the overlap that yields the paper's >2x batching speedup
/// (Fig. 13).
class StreamTimeline {
 public:
  /// Schedules an operation that may start at `earliest` and lasts
  /// `duration`; returns its completion time.
  double submit(double earliest, double duration) {
    PARFFT_CHECK(duration >= 0, "negative duration");
    const double start = earliest > ready_ ? earliest : ready_;
    ready_ = start + duration;
    return ready_;
  }

  double ready() const { return ready_; }
  void reset(double t = 0) { ready_ = t; }

 private:
  double ready_ = 0;
};

}  // namespace parfft::gpu
