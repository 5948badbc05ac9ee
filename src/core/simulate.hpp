#pragma once
/// \file simulate.hpp
/// Model-only execution of a StagePlan at any scale.
///
/// The threaded runtime really moves data and is capped at a few hundred
/// ranks; the paper's experiments go to 3072 GPUs. This simulator executes
/// the *same* stage plans (identical reshape send lists, the same
/// stage_kernels()) without data or threads: per-rank virtual clocks
/// advance through pack / FFT / exchange stages, so the strong-scaling and
/// per-call-trace experiments are cheap and deterministic. Consistency
/// tests assert that simulate() and Plan3D::execute() give every rank the
/// same clock on small configurations. simulate() is a traced run of a
/// Simulator, so both entry points price a transform through one code
/// path.

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/stages.hpp"
#include "core/trace.hpp"
#include "gpusim/device.hpp"
#include "netsim/collectives.hpp"

namespace parfft::core {

struct SimConfig {
  std::array<int, 3> n{512, 512, 512};
  int nranks = 6;
  net::MachineSpec machine = net::summit();
  gpu::DeviceSpec device = gpu::v100();
  bool gpu_aware = true;
  net::MpiFlavor flavor = net::MpiFlavor::SpectrumMPI;
  PlanOptions options;
  /// Per-rank input/output bricks; empty selects minimum-surface brick
  /// grids (the paper's "real-world simulation input", Table III blue
  /// grids).
  std::vector<Box3> in_boxes, out_boxes;
  /// Number of consecutive transforms to simulate (the paper times 8
  /// after 2 warm-ups).
  int repeats = 1;
  /// Pre-created FFT plans (skip the first-call plan-setup spike).
  bool warmed = true;
};

struct SimReport {
  double total = 0;          ///< virtual time of all repeats (max over ranks)
  double per_transform = 0;  ///< total / (repeats * batch)
  KernelTimes kernels;       ///< critical-path (max-over-ranks) per category
  std::vector<CallRecord> comm_calls;  ///< one per reshape execution
  std::vector<CallRecord> fft_calls;   ///< one per FFT stage axis
  std::vector<double> rank_times;      ///< final per-rank clocks
  Decomposition resolved = Decomposition::Pencil;
  int reshapes_per_transform = 0;
};

/// Builds a Simulator for `cfg` and runs `cfg.repeats` transforms of
/// `cfg.options.batch` through it, traced when tracing is on (each call
/// is one obs run). The overlapped batch pipeline is aggregate-only: it
/// returns the schedule's time without spans or per-call records.
SimReport simulate(const SimConfig& cfg);

/// The one GPU pack formula: kernel time to pack (or unpack) `transfers`
/// of `b` batch elements of `elem_bytes` each out of (into) `box`, one
/// strided region copy per transfer plus one launch when there is
/// anything to move. Every packed reshape (Plan3D, RealPlan3D,
/// distributed_reshape) and every pricer charges it.
double pack_kernel_time(const gpu::DeviceSpec& device, const Box3& box,
                        const TransferRange& transfers, int b,
                        std::size_t elem_bytes = sizeof(cplx));

/// Cumulative delivery profile of one batched transform under the Fig. 13
/// sub-chunk pipeline: after `frac[i]` of the transform's execution time,
/// the first `elems[i]` batch elements are finished and their results have
/// left the device. Lets a serving layer that aborts a transform mid-way
/// (executor crash) credit the chunks that already completed instead of
/// losing the whole batch. A transform executed as one chunk (batch 1, or
/// overlap disabled) delivers everything at fraction 1.
struct BatchProfile {
  std::vector<int> elems;    ///< cumulative elements delivered per chunk
  std::vector<double> frac;  ///< cumulative execution-time fraction
  /// Elements delivered once `work` (in [0,1]) of the execution is done.
  int delivered(double work) const;
};

/// The Fig. 13 pipeline stream a kernel occupies.
enum class Stream : std::uint8_t { Compute, Network };

enum class KernelKind : std::uint8_t {
  Fft,       ///< batched 1-D FFTs along one axis
  Reorder,   ///< contiguous_fft's two local transposes around an Fft
  Pack,      ///< GPU pack of a reshape's outgoing regions
  Exchange,  ///< the reshape's MPI exchange
  Unpack,    ///< GPU unpack of the received regions
};

/// One kernel a rank runs in a stage.
struct Kernel {
  KernelKind kind = KernelKind::Fft;
  Stream stream = Stream::Compute;
  bool strided = false;  ///< Fft: strided lines
  int axis = 0;          ///< Fft, Reorder: the transformed axis
  int len = 0;           ///< Fft: transform length (plan-cache key)
  int lines = 0;         ///< Fft: transforms per call, batch included
  int calls = 1;         ///< Exchange: MPI calls, each of b / calls elements
  double seconds = 0;    ///< warm time; an Exchange's: see StageCost
};

/// Trace category and name of a GPU kernel: Fft "fft(strided)" or
/// "fft(contiguous)", Reorder "transpose" (a Pack kernel), Pack "pack",
/// Unpack "unpack". An Exchange is traced by the runtime or the pricer.
obs::Category kernel_category(KernelKind kind);
const char* kernel_name(const Kernel& k);

/// At most three FFT axes, each with its reorder kernel.
struct StageKernels {
  std::array<Kernel, 6> list{};
  int size = 0;
  const Kernel* begin() const { return list.data(); }
  const Kernel* end() const { return list.data() + size; }
};

/// The one place that decides what a stage charges: the kernels `rank`
/// runs in `plan.stages[stage]` for a chunk of `b` batch elements, in
/// execution order (none on an empty FFT box). Every pricer charges
/// them; the rules are written down at the definition.
StageKernels stage_kernels(const StagePlan& plan, std::size_t stage, int rank,
                           int b, const gpu::DeviceSpec& device);

/// Self-cost counters of a StageCostMemo: how often pricing asked for a
/// reshape stage's record and how many exchange solves the answers took.
/// Every reshape miss prices its record with exactly one exchange solve,
/// and the memo never drops a record, so lookups == hits + misses and
/// misses == exchange_solves == reshape records (checked under
/// PARFFT_PARANOID). FFT-stage records cost no solve and are not counted.
struct PricingCounters {
  std::uint64_t stage_lookups = 0;  ///< reshape-stage record requests
  std::uint64_t stage_hits = 0;     ///< answered from the memo
  std::uint64_t stage_misses = 0;   ///< priced afresh, one record each
  std::uint64_t exchange_solves = 0;  ///< net::CommCost::exchange calls
};

/// One stage for a chunk of `b` batch elements: every rank's
/// stage_kernels() and the stage's exchange (each rank's time in
/// phase.per_rank). A rank without kernels (an empty FFT box) holds
/// zeros with lines 0.
struct StageCost {
  /// Kernel slots in execution order, each with its maximum over ranks
  /// (an Exchange's: phase.total, the time of one of its calls).
  std::vector<Kernel> slots;
  std::vector<Kernel> kernels;  ///< rank-major: slots.size() per rank
  net::PhaseTimes phase;        ///< one call of a reshape's exchange

  const Kernel& at(std::size_t slot, int rank) const {
    return kernels[static_cast<std::size_t>(rank) * slots.size() + slot];
  }
};

/// Memo of stage records keyed on (nic scale, stage index, chunk batch
/// b). Entries are exact results, never rescaled: exchange time is not
/// linear in b (the Staged per-message overhead and Bruck's small-block
/// path see message sizes), and reusing the bit-exact solve keeps every
/// virtual time identical to pricing afresh. The nic scale is read from
/// the CommCost at lookup, so a degraded pricing adds entries instead of
/// invalidating the healthy ones.
///
/// A memo is bound to one pricing context: share it only between calls
/// that price the same plan over the same CommCost, group, device,
/// transfer mode and MPI flavor.
class StageCostMemo {
 public:
  /// Record of `plan.stages[stage]` for chunk batch `b`, priced on first
  /// request. `group` maps plan positions to global ranks (empty =
  /// identity). The reference stays valid for the memo's life.
  const StageCost& stage(const StagePlan& plan, std::size_t stage, int b,
                         const gpu::DeviceSpec& device,
                         const net::CommCost& cost, net::TransferMode mode,
                         net::MpiFlavor flavor,
                         const std::vector<int>& group = {});

  const PricingCounters& counters() const { return counters_; }

  /// Throws parfft::Error if the counter identities above are broken.
  /// Run after every lookup under PARFFT_PARANOID; callable from tests
  /// in any build.
  void check_invariants() const;

 private:
  std::map<std::tuple<double, std::size_t, int>, StageCost> entries_;
  PricingCounters counters_;
};

/// Virtual time of one batched transform executed with the two-stream
/// overlap pipeline of Fig. 13: the batch is processed in up to eight
/// sub-chunks, each chunk's exchange overlapping the next chunk's
/// compute; the best chunk granularity is selected, as the paper tunes
/// before reporting. Shared by simulate(), Simulator and the threaded
/// Plan3D, so all execution modes charge the identical schedule. Each
/// chunk schedules its stages' StageCost records, one operation per
/// kernel (per exchange call) on its stream. `group` maps plan positions
/// to global ranks (empty = identity); `batch` overrides
/// `plan.options.batch`. Models pre-created (warm) FFT plans. When
/// `profile` is non-null it receives the winning schedule's per-chunk
/// delivery profile. Records come from `memo` (bound to this call's plan,
/// cost, group, device, mode and flavor); when it is null a memo local to
/// the call is used, so each distinct chunk batch is still solved only
/// once.
double overlapped_batch_time(const StagePlan& plan,
                             const gpu::DeviceSpec& device,
                             const net::CommCost& cost,
                             net::TransferMode mode, net::MpiFlavor flavor,
                             int batch, const std::vector<int>& group = {},
                             BatchProfile* profile = nullptr,
                             StageCostMemo* memo = nullptr);

/// Reusable simulation handle: builds the stage pipeline and the
/// congestion-aware cost model once, then prices batched executions of
/// the same geometry at any batch size without re-planning. This is the
/// plan-handle contract a serving layer needs -- plan creation is the
/// expensive, cacheable step; re-execution is cheap -- mirroring how
/// heFFTe applications hold one plan across many transforms.
///
/// Each exchange is solved once per (nic scale, reshape stage, chunk
/// batch) over the handle's life: the sequential pass and every chunk of
/// every overlapped schedule candidate read one StageCostMemo, and both
/// whole-transform answers are memoized per nic scale on top of it.
///
/// The pricing methods are not traced: callers (src/serve) record their
/// own request-scoped spans. simulate() runs the same pass traced.
class Simulator {
 public:
  /// Normalizes `cfg` (default brick layouts) and builds the plan.
  /// `cfg.repeats` and `cfg.options.batch` are ignored; batch is chosen
  /// per call.
  explicit Simulator(SimConfig cfg);

  const SimConfig& config() const { return cfg_; }
  const StagePlan& plan() const { return plan_; }

  /// Virtual time of one batched transform of `batch` 3-D FFTs at the
  /// current nic scale. Honours `cfg.options.overlap_batches` for
  /// batch > 1. `cold` additionally charges the first-call FFT plan-setup
  /// spikes (gpusim::PlanCache); the overlapped path models warm plans
  /// only, like simulate(). Memoized per (batch, cold, nic scale).
  double transform_time(int batch, bool cold = false);

  /// One-time extra virtual time a cold first transform pays for device
  /// FFT plan creation (= cold - warm cost of an unbatched transform).
  double plan_setup_time();

  /// Delivery profile of a batched transform at the current nic scale.
  /// Batch 1 and the non-overlapped path deliver everything at execution
  /// fraction 1; the overlapped path delivers per sub-chunk, from the
  /// same memoized schedule transform_time() reads.
  BatchProfile batch_profile(int batch);

  /// Degrades (or restores) the inter-node fabric this plan prices
  /// against: NIC and core link capacities scale by `scale` (rail-down on
  /// a dual-rail machine = 0.5, healthy = 1). Later pricings use the new
  /// scale. Every memo is keyed on the scale, so nothing is dropped:
  /// returning to a scale priced before answers from its entries.
  void set_nic_scale(double scale);
  double nic_scale() const { return cost_.flowsim().nic_scale(); }

  /// Stage-cost memo counters over the handle's life.
  const PricingCounters& counters() const { return stage_costs_.counters(); }

 private:
  /// The overlapped pipeline's winning schedule for one batch size.
  struct Schedule {
    double total = 0;
    BatchProfile profile;
  };

  friend SimReport simulate(const SimConfig& cfg);

  bool overlapped(int batch) const {
    return batch > 1 && cfg_.options.overlap_batches;
  }
  /// `repeats` transforms of `batch` elements at the current nic scale:
  /// the overlapped schedule, or sequential passes over the stages that
  /// charge cold FFT plans unless `warmed` and record spans when `traced`
  /// and tracing is on. Kernel times are per transform.
  SimReport run(int batch, int repeats, bool warmed, bool traced);
  const Schedule& schedule(int batch);

  SimConfig cfg_;
  StagePlan plan_;
  net::RankMap map_;
  net::CommCost cost_;
  StageCostMemo stage_costs_;
  /// transform_time() answers keyed on (nic scale, batch, cold).
  std::map<std::tuple<double, int, bool>, double> times_;
  /// Overlapped schedules keyed on (nic scale, batch).
  std::map<std::pair<double, int>, Schedule> schedules_;
};

/// RFC 4180 CSV field quoting: fields containing commas, quotes or line
/// breaks are wrapped in double quotes with embedded quotes doubled;
/// everything else passes through unchanged.
std::string csv_escape(const std::string& field);

/// Writes the report's per-call traces as CSV rows for external plotting
/// of the per-call figures (paper Figs. 2, 3, 10). Schema (header row
/// included): kind ("comm"|"fft"), index (1-based within kind, execution
/// order), name (routine/kernel label, csv_escape()d), seconds (virtual
/// duration, max over ranks).
void write_call_csv(const SimReport& report, std::ostream& os);

/// Convenience: the boxes of `grid` over an n-sized space, padded to
/// `nranks`.
std::vector<Box3> grid_boxes(const std::array<int, 3>& n,
                             const ProcGrid& grid, int nranks);

/// Minimum-surface brick layout over all ranks.
std::vector<Box3> brick_layout(const std::array<int, 3>& n, int nranks);

}  // namespace parfft::core
