#pragma once
/// \file trace.hpp
/// Virtual-time accounting of a distributed transform: per-kernel totals
/// (the runtime breakdowns of paper Figs. 6, 7 and 12) and per-call records
/// (the per-MPI-call traces of Figs. 2, 3 and 10).
///
/// Trace is the aggregate view; the span-level timeline lives in obs::Tracer
/// (see obs/tracer.hpp). A threaded plan appends each kernel to both in one
/// core::charge() call (core/plan.hpp), which also advances the rank's
/// clock, so their per-category sums agree bit-for-bit.

#include <string>
#include <vector>

#include "obs/tracer.hpp"

namespace parfft::core {

/// Accumulated virtual seconds per kernel category.
struct KernelTimes {
  double fft = 0;
  double pack = 0;
  double unpack = 0;
  double comm = 0;
  double scale = 0;

  double total() const { return fft + pack + unpack + comm + scale; }
  /// Adds `t` to the field of `cat`; every category but Fft, Pack, Unpack
  /// and Scale is communication time.
  void add(obs::Category cat, double t);
  KernelTimes& operator+=(const KernelTimes& o) {
    fft += o.fft;
    pack += o.pack;
    unpack += o.unpack;
    comm += o.comm;
    scale += o.scale;
    return *this;
  }
};

/// One kernel or MPI call with its virtual duration. `cat` is last so the
/// historical `{name, seconds}` aggregate initialization keeps working.
struct CallRecord {
  std::string name;
  double seconds = 0;
  obs::Category cat = obs::Category::Fft;
};

/// Flat per-plan record of every timed call, in execution order. All
/// categories funnel through the single add() entry point.
class Trace {
 public:
  void add(obs::Category cat, std::string name, double t);

  /// Folds the call list into per-category totals.
  KernelTimes kernels() const;
  /// Exchange-category calls, in execution order.
  std::vector<CallRecord> comm_calls() const;
  /// Fft-category calls, in execution order.
  std::vector<CallRecord> fft_calls() const;
  /// Every call, in execution order.
  const std::vector<CallRecord>& calls() const { return calls_; }

  void clear() { calls_.clear(); }

 private:
  std::vector<CallRecord> calls_;
};

}  // namespace parfft::core
