#pragma once
/// \file tracer.hpp
/// Span-based virtual-time tracer.
///
/// A span is one named interval of a simulated rank's virtual clock --
/// a pack kernel, a cuFFT call, an MPI exchange, a wait -- optionally
/// nested under parent spans (per-transform, per-reshape). Spans carry a
/// category, a name and key/value args, and are exported as Chrome
/// trace-event JSON (loadable in Perfetto / chrome://tracing) or folded
/// into the aggregate breakdowns the paper's figures report.
///
/// Threading: the tracer is sized to a fixed rank count at construction;
/// each rank's spans must be recorded from at most one thread at a time
/// (the rank's own thread under simmpi, or the single simulator thread in
/// core::simulate). Distinct ranks never contend.

#include <string>
#include <utility>
#include <vector>

namespace parfft::obs {

/// Per-plan / per-simulation tracing switch. Collection is on when either
/// this says so or the `PARFFT_TRACE=<path>` environment variable is set
/// (the latter also selects the Chrome-JSON output path written at process
/// exit, so every bench and example gains trace output with no code).
struct TraceConfig {
  /// Force collection even without PARFFT_TRACE in the environment.
  bool enabled = false;
  /// Record key/value args (bytes, peers, backend) on spans.
  bool args = true;
};

/// What a span measures. The first two are structural parents; the rest
/// are the kernel/MPI leaf categories of the paper's breakdowns.
enum class Category {
  Transform,   ///< one 3-D FFT execution (parent span)
  Reshape,     ///< one data reshape: pack + exchange + unpack (parent span)
  Fft,         ///< local 1-D FFT batch (cuFFT call)
  Pack,        ///< packing into contiguous send buffers / local transposes
  Unpack,      ///< unpacking received regions into the new layout
  Exchange,    ///< MPI data exchange (alltoall family, settled P2P phase)
  Wait,        ///< blocked in MPI_Wait* / collective entry synchronization
  Scale,       ///< backward-transform normalization
  Send,        ///< point-to-point send posting
  Collective,  ///< non-exchange collective (barrier, bcast, allgather, ...)
  Request,     ///< one client job in the serving layer (arrival to completion)
  Fault,       ///< injected fault window (crash/restart, degraded link, blackout)
  Retry,       ///< client-side backoff interval between request attempts
  Alert,       ///< SLO alert state transition (telemetry monitor edge)
};

/// Stable lowercase name ("pack", "exchange", ...) used in exports.
const char* category_name(Category c);

/// One key/value annotation on a span; either numeric or string-valued.
struct SpanArg {
  std::string key;
  std::string sval;
  double dval = 0;
  bool numeric = false;

  SpanArg(std::string k, double v)
      : key(std::move(k)), dval(v), numeric(true) {}
  SpanArg(std::string k, std::string v)
      : key(std::move(k)), sval(std::move(v)) {}
};

/// A closed span. `begin` and `dur` are virtual seconds; `dur` is stored
/// rather than an end time so span durations sum exactly like the cost
/// values they were recorded from (no end-minus-begin rounding).
struct Span {
  Category cat = Category::Fft;
  std::string name;
  double begin = 0;
  double dur = 0;
  int depth = 0;  ///< open-span nesting depth at record time
  std::vector<SpanArg> args;

  double end() const { return begin + dur; }
};

/// Records spans per rank. Parent spans use begin()/end(); leaf spans use
/// complete() with an explicit duration.
class Tracer {
 public:
  explicit Tracer(int nranks);

  int nranks() const { return static_cast<int>(ranks_.size()); }

  /// Opens a parent span at virtual time `t`.
  void begin(int rank, Category cat, std::string name, double t,
             std::vector<SpanArg> args = {});
  /// Closes the innermost open span of `rank` at virtual time `t`.
  void end(int rank, double t);
  /// Moves the spans recorded so far inside the innermost open span of
  /// `rank` so that each ends by virtual time `t` if it can: their begins
  /// shrink by one factor towards the open span's begin, so they keep
  /// their order, durations and nesting but may overlap. For work charged
  /// as a pipeline after running back to back. Returns `t`, or the latest
  /// end of the spans longer than the window: the open span must end
  /// there to cover them.
  double fit_children(int rank, double t);
  /// Records a leaf span [begin, begin + dur), nested under the currently
  /// open spans of `rank`.
  void complete(int rank, Category cat, std::string name, double begin,
                double dur, std::vector<SpanArg> args = {});

  /// Closed spans of one rank, in completion order (parents after their
  /// children). Call only after recording has quiesced.
  const std::vector<Span>& spans(int rank) const;

  /// Open spans of one rank (nonzero only mid-recording).
  int open_spans(int rank) const;

  /// Sum of leaf-span durations of `rank` in category `cat`, in emission
  /// order (bit-exact against aggregates built from the same values).
  double total(int rank, Category cat) const;

 private:
  struct RankState {
    std::vector<Span> done;
    std::vector<Span> open;  ///< stack of spans awaiting end()
  };
  RankState& state(int rank);
  const RankState& state(int rank) const;

  std::vector<RankState> ranks_;
};

}  // namespace parfft::obs
