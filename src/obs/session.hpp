#pragma once
/// \file session.hpp
/// Process-wide observability session.
///
/// Each traced execution (one core::simulate() call, one
/// smpi::Runtime::run()) is a *run*: an independent timeline with its own
/// span tracer, metrics registry and counter time series, rendered as one
/// Perfetto "process" with one track per simulated rank. The session owns
/// every run recorded by the process and writes them all as Chrome
/// trace-event JSON to `$PARFFT_TRACE` at exit, which is how existing
/// benches and examples gain timelines with zero per-binary code.

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace parfft::obs {

/// One sample of a time-varying counter (e.g. a link's allocated rate).
struct CounterSample {
  double t = 0;  ///< virtual seconds
  double value = 0;
};

/// A named counter track; rendered as a Perfetto counter series.
struct CounterSeries {
  std::string name;
  std::vector<CounterSample> samples;
};

/// Utilization of one fabric link during one exchange phase, copied from
/// netsim's LinkStats at record time (obs stays independent of netsim).
/// Samples are (t, allocated rate in bytes/s) step points relative to the
/// exchange's start; the last sample closes the phase at rate 0.
struct LinkUsage {
  std::string name;   ///< "dev_out/3", "nic_in/node0", "core", ...
  std::string cls;    ///< link class: "nvlink", "nic", "host", "core"
  double capacity = 0;  ///< bytes/s
  double bytes = 0;     ///< payload carried across the phase
  std::vector<std::pair<double, double>> samples;
};

/// One recorded exchange phase: everything the analysis layer
/// (obs/analysis.hpp) needs to compare the achieved exchange against the
/// paper's Section III bandwidth model and to build link heatmaps.
///
/// The calibration pair (model_bandwidth, per_message_cost) is measured
/// at record time from the *uncontended* fabric -- the bandwidth and
/// fixed cost one lone message of this exchange's representative size
/// would see. That is the B (and L) of eqs. (2)-(5); the residual of the
/// measured duration against the prediction made from them quantifies
/// contention and model error.
struct ExchangeRecord {
  std::string name;     ///< exchange routine label ("alltoallv", ...)
  double begin = 0;     ///< virtual start (the group's sync point)
  double duration = 0;  ///< phase completion, max over ranks
  int nranks = 0;       ///< participating group size
  double bytes_total = 0;     ///< payload moved by the whole phase
  double max_rank_bytes = 0;  ///< busiest sender's outgoing bytes
  int max_rank_msgs = 0;      ///< busiest sender's message count
  double model_bandwidth = 0;   ///< B: uncontended per-flow bytes/s
  double per_message_cost = 0;  ///< L + overhead of one lone message, s
  std::vector<LinkUsage> links;  ///< timestamped per-link utilization
};

/// One traced execution: label + spans + metrics + counter tracks.
class RunTrace {
 public:
  RunTrace(std::string label, int pid, int nranks, bool with_args);

  const std::string& label() const { return label_; }
  int pid() const { return pid_; }
  int nranks() const { return nranks_; }
  /// Whether instrumentation sites should attach key/value span args.
  bool with_args() const { return with_args_; }

  Tracer tracer;
  MetricsRegistry metrics;

  /// Appends a sample to the named counter track (created on first use).
  /// Thread-safe; samples may arrive out of time order and are sorted at
  /// export.
  void counter_sample(const std::string& name, double t, double value);
  std::vector<CounterSeries> counter_series() const;

  /// Appends one exchange-phase record (thread-safe). Instrumentation
  /// sites (core::simulate) feed this; obs/analysis.hpp consumes it.
  void add_exchange(ExchangeRecord rec);
  std::vector<ExchangeRecord> exchanges() const;

 private:
  std::string label_;
  int pid_;
  int nranks_;
  bool with_args_;
  mutable std::mutex mu_;
  std::vector<CounterSeries> series_;
  std::vector<ExchangeRecord> exchanges_;
};

/// Owns all runs of the process. Use Session::global(); a fresh Session
/// is constructible for tests that want isolation.
class Session {
 public:
  Session();
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The process-wide session, configured from `PARFFT_TRACE` (Chrome
  /// JSON output path) and `PARFFT_TRACE_SUMMARY` (summary table path,
  /// "-" for stderr) on first use; flushed at process exit.
  static Session& global();

  /// True when `cfg` or the environment asks for collection.
  bool enabled(const TraceConfig& cfg) const {
    return cfg.enabled || env_enabled_;
  }

  /// Starts a new run if tracing is enabled; returns nullptr otherwise.
  /// The pointer stays valid for the session's lifetime.
  RunTrace* begin_run(const std::string& label, int nranks,
                      const TraceConfig& cfg);

  /// All runs recorded so far, in creation order.
  std::vector<const RunTrace*> runs() const;

  /// Chrome trace-event JSON of every run (one process per run).
  void write_chrome(std::ostream& os) const;
  /// Plain-text summary tables of every run.
  void write_summary(std::ostream& os) const;

 private:
  void flush_env_outputs();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RunTrace>> runs_;
  std::string env_path_;
  std::string env_summary_path_;
  bool env_enabled_ = false;
  int next_pid_ = 1;
};

}  // namespace parfft::obs
