#pragma once
/// \file harness.hpp
/// Shared pieces of the wall-clock benchmark: options, named metrics,
/// the in-memory span tracer, virtual-time digests and small statistics.
///
/// Wall time is read only here (steady_clock); everything the benchmark
/// checks for correctness is a virtual-time output of the library, which
/// must not depend on it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smallest sizes that still run every code path (the benchmark's own
  /// tests); timings from a tiny run mean nothing.
  bool tiny = false;
  /// Run one round and the reference round, print the reference digests
  /// and exit (used to record reference.txt).
  bool digest_only = false;
  std::string reference_path;
  std::string trace_out;  ///< Chrome JSON of the spans ("" = none)
};

/// Monotonic wall-clock seconds since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Spans around calls into the library, kept in memory and written out at
/// the end. A span may name a parent; a parent's self time is its duration
/// minus its children's, where children are usually *replays*: the
/// benchmark re-issues, right after a call, the public sub-calls that call
/// made internally, and times each one.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0;
    double dur = 0;
    int parent = -1;
    double child = 0;  ///< summed duration of children
  };

  int begin(const std::string& name, const std::string& layer,
            int parent = -1);
  double end(int id);
  /// Records an already-timed span.
  int add(const std::string& name, const std::string& layer, double start,
          double dur, int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }
  double self(const Span& s) const { return s.dur - s.child; }
  /// Summed self time per layer.
  std::map<std::string, double> self_by_layer() const;
  /// Summed duration of spans without a parent (the primary calls).
  double root_total() const;
  /// Durations of the spans called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Self times of the spans called `name`.
  std::vector<double> selves(const std::string& name) const;
  /// Chrome trace-event JSON (one complete event per span).
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Times one block of code: RAII wrapper over Tracer::begin/end.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, const std::string& layer,
        int parent = -1)
      : t_(t), id_(t.begin(name, layer, parent)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// FNV-1a over the exact bit patterns of virtual-time outputs.
class Digest {
 public:
  void add(double v);
  void add(std::uint64_t v);
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(const std::vector<double>& v) {
    for (double x : v) add(x);
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// What one workload run produced.
struct Outcome {
  std::uint64_t attempted = 0;  ///< operations attempted
  std::uint64_t failed = 0;     ///< failed correctness checks
  std::uint64_t mismatches = 0; ///< digests that differ from the reference
  Metrics end_to_end;
  Metrics per_layer;
  /// Virtual-time digests that reference.txt pins: outputs that do not
  /// depend on --seed or the host, and the reference round's, keyed
  /// "<part>".
  std::vector<std::pair<std::string, std::string>> digests;
  /// Digests of outputs that depend on --seed or the host (the seeded
  /// rounds, fft_exec at nproc ranks): only compared between the traced
  /// and untraced passes of one run.
  std::vector<std::string> pass_digests;
  /// Human-readable report lines, printed before the JSON result.
  std::vector<std::string> lines;

  void fail(const std::string& what);
  void note(const std::string& what) { lines.push_back(what); }
};

/// Reference digests recorded on seed code (reference.txt): lines of
/// "<workload> <key> <hex>".
class Reference {
 public:
  bool load(const std::string& path);
  /// Compares the digests of `out` with the workload's entries. A
  /// difference, a digest without an entry and an entry without a digest
  /// each count in out.mismatches and out.failed. Without a loaded file
  /// (tiny runs) nothing is compared.
  void check(const std::string& workload, Outcome& out) const;

 private:
  bool loaded_ = false;
  std::map<std::string, std::string> ref_;  ///< "<workload> <key>" -> hex
};

double median(std::vector<double> v);
/// Indices of the fastest eighth of `durations` (at least one), fastest
/// first. Rounds repeat identical work; the host's speed drifts by up to
/// ~1.8x between and within runs (contention from other tenants), and the
/// fastest rounds are the least disturbed.
std::vector<std::size_t> fastest_eighth(const std::vector<double>& durations);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double peak_rss_mb();
std::string fmt(double v, int prec = 4);

/// Keeps running rounds while the next one (estimated from the longest so
/// far) still fits in the budget; always runs at least one.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds), t0_(now_s()) {}
  bool another() const;
  void round_done(double dur) { durations_.push_back(dur); }
  int rounds() const { return static_cast<int>(durations_.size()); }
  const std::vector<double>& durations() const { return durations_; }
  double elapsed() const { return now_s() - t0_; }
  /// "<n> rounds, <min>/<median>/<max> s each".
  std::string summary() const;

 private:
  double seconds_;
  double t0_;
  std::vector<double> durations_;
};

}  // namespace perfbench
