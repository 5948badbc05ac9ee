#pragma once
/// \file simulate.hpp
/// Model-only execution of a StagePlan at any scale.
///
/// The threaded runtime really moves data and is capped at a few hundred
/// ranks; the paper's experiments go to 3072 GPUs. This simulator executes
/// the *same* stage plans (identical reshape send lists, identical cost
/// functions) without data or threads: per-rank virtual clocks advance
/// through pack / FFT / exchange stages, so the strong-scaling and
/// per-call-trace experiments are cheap and deterministic. A consistency
/// test asserts that simulate() and Plan3D::execute() agree on small
/// configurations.

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

/// Builds the stage plan for `cfg` and runs the virtual-time simulation.
SimReport simulate(const SimConfig& cfg);

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

/// Self-cost counters of a StageCostMemo: how often pricing asked for a
/// reshape stage's cost and how many exchange solves the answers took.
/// Every miss prices its entry with exactly one exchange solve, and the
/// memo never drops an entry, so lookups == hits + misses and
/// misses == exchange_solves == entries (checked under PARFFT_PARANOID).
struct PricingCounters {
  std::uint64_t stage_lookups = 0;  ///< reshape-stage cost requests
  std::uint64_t stage_hits = 0;     ///< answered from the memo
  std::uint64_t stage_misses = 0;   ///< priced afresh, one entry each
  std::uint64_t exchange_solves = 0;  ///< net::CommCost::exchange calls
};

/// Cost of one reshape stage for a chunk of `b` batch elements: the GPU
/// pack and unpack kernels per rank, their maxima over ranks, and the
/// exchange phase between them.
///
/// Known approximation: the pack/unpack costs are computed for every
/// backend, but the two pricers read them differently for the datatype
/// backend (Alltoallw, whose MPI datatypes pack in the library). The
/// sequential pass charges it no pack or unpack, while the overlapped
/// pipeline (overlapped_batch_time) charges both on the compute stream.
/// So a batched, overlapped Alltoallw transform pays GPU packing that
/// its sequential counterpart does not. Making them agree would move
/// published virtual-time results.
struct ReshapeCost {
  std::vector<double> pack, unpack;  ///< per rank
  double max_pack = 0, max_unpack = 0;
  net::PhaseTimes phase;
};

/// Memo of reshape-stage costs keyed on (nic scale, stage index, chunk
/// batch b). Entries are exact results, never rescaled: exchange time is
/// not linear in b (the Staged per-message overhead and Bruck's
/// small-block path see message sizes), and reusing the bit-exact solve
/// keeps every virtual time identical to pricing afresh. The nic scale is
/// read from the CommCost at lookup, so a degraded pricing adds entries
/// instead of invalidating the healthy ones.
///
/// A memo is bound to one pricing context: share it only between calls
/// that price the same plan over the same CommCost, group, device,
/// transfer mode and MPI flavor.
class StageCostMemo {
 public:
  /// Cost of reshape stage `plan.stages[stage]` for chunk batch `b`,
  /// priced on first request. `group` maps plan positions to global ranks
  /// (empty = identity). The reference stays valid for the memo's life.
  const ReshapeCost& reshape(const StagePlan& plan, std::size_t stage, int b,
                             const gpu::DeviceSpec& device,
                             const net::CommCost& cost,
                             net::TransferMode mode, net::MpiFlavor flavor,
                             const std::vector<int>& group = {});

  const PricingCounters& counters() const { return counters_; }

  /// Throws parfft::Error if the counter identities above are broken.
  /// Run after every lookup under PARFFT_PARANOID; callable from tests
  /// in any build.
  void check_invariants() const;

 private:
  std::map<std::tuple<double, std::size_t, int>, ReshapeCost> entries_;
  PricingCounters counters_;
};

/// Virtual time of one batched transform executed with the two-stream
/// overlap pipeline of Fig. 13: the batch is processed in up to eight
/// sub-chunks, each chunk's exchange overlapping the next chunk's
/// compute; the best chunk granularity is selected, as the paper tunes
/// before reporting. Shared by simulate(), Simulator and the threaded
/// Plan3D, so all execution modes charge the identical schedule. `group`
/// maps plan positions to global ranks (empty = identity); `batch`
/// overrides `plan.options.batch`. Models pre-created (warm) FFT plans.
/// When `profile` is non-null it receives the winning schedule's
/// per-chunk delivery profile. Reshape costs come from `memo` (bound to
/// this call's plan, cost, group, device, mode and flavor); when it is
/// null a memo local to the call is used, so each distinct chunk batch
/// is still solved only once.
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
/// Not traced: callers (src/serve) record their own request-scoped spans.
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

  bool overlapped(int batch) const {
    return batch > 1 && cfg_.options.overlap_batches;
  }
  double run_once(int batch, bool cold);
  const Schedule& schedule(int batch);

  SimConfig cfg_;
  StagePlan plan_;
  net::RankMap map_;
  net::CommCost cost_;
  StageCostMemo stage_costs_;
  /// Sequential-pass times keyed on (nic scale, batch, cold).
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
