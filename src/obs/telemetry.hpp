#pragma once
/// \file telemetry.hpp
/// Always-on live telemetry: windowed time-series metrics, per-tenant SLO
/// burn-rate monitoring, and a crash-triggered flight recorder.
///
/// Everything here is keyed to VIRTUAL time -- the simulated clock the
/// serve event loop advances -- never the wall clock, so a telemetry-on
/// run is bit-identical to a telemetry-off run and reproducible from its
/// seed. Three layers:
///
///  - WindowedSeries: a metric stream cut into fixed-width virtual-time
///    windows. Each window keeps count/sum/min/max plus a log-linear
///    streaming histogram (LogLinearHistogram, obs/histogram.hpp) so
///    per-window quantiles (p50/p99 of the last 500 ms, say) are
///    queryable live, not only over the whole run.
///
///  - SloMonitor: one per tenant. The tenant declares a latency target
///    and an objective (e.g. 99% of requests under 250 ms); the monitor
///    tracks attainment and the error-budget burn rate over a short and
///    a long horizon of windows, and drives a hysteretic alert state
///    machine (ok -> warning -> page): escalate the instant both horizons
///    burn hot (multi-window multi-burn-rate alerting, after the SRE
///    workbook), de-escalate only after `clear_after` consecutive clean
///    evaluations so a flapping tenant cannot strobe the pager.
///
///  - FlightRecorder: a bounded ring of recent events in pooled storage
///    (one allocation at construction, interned names, no steady-state
///    allocation) with deterministic seeded sampling, cheap enough to
///    leave on in production runs. When the fault layer crashes the
///    executor, a blackout opens, or an SLO alert pages, the last window
///    of activity is dumped as a Chrome trace for post-mortem.
///
/// The Telemetry facade owns all three and is fed by the serve event
/// loop (src/serve/server.cpp) and, through observe_exchange(), by the
/// FlowSim link statistics recorded on exchange phases.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/session.hpp"
#include "obs/tracer.hpp"

namespace parfft::obs {

/// One sealed (or live) telemetry window of a series.
struct WindowStats {
  double begin = 0;
  double end = 0;
  LogLinearHistogram hist;

  std::uint64_t count() const { return hist.count(); }
  double sum() const { return hist.sum(); }
  double mean() const { return hist.mean(); }
  double quantile(double q) const { return hist.quantile(q); }
};

/// A metric stream cut into fixed-width virtual-time windows. advance(t)
/// seals every window whose end has passed `t` (empty windows included,
/// so window counts measure time); sealed windows live in a bounded
/// ring. Observations are forward-keyed: a sample timestamped before the
/// live window's start (e.g. a request admitted in an earlier window but
/// only accounted at completion) is binned into the live window rather
/// than rewriting sealed history -- documented bias, determinism intact.
class WindowedSeries {
 public:
  WindowedSeries(double width, std::size_t keep,
                 const LogLinearHistogram& proto = LogLinearHistogram());

  void observe(double t, double x) {
    advance(t);
    // Forward-keyed binning: samples timestamped before the live window
    // (late accounting of earlier activity) land in the live window.
    live_.hist.observe(x);
  }
  void advance(double t) {
    if (t < live_.end) return;  // the hot case: nothing to seal
    advance_slow(t);
  }

  double width() const { return width_; }
  const WindowStats& live() const { return live_; }
  const std::deque<WindowStats>& sealed() const { return sealed_; }

  /// Run-total histogram over every observation ever made (never cut).
  /// Assembled on demand: sealed windows are folded in as they seal, so
  /// the observe() hot path touches only the live window's histogram.
  LogLinearHistogram overall() const;

  /// The most recent `k` windows (live first, then newest sealed), for
  /// burn-rate style queries over a horizon.
  std::vector<const WindowStats*> last(std::size_t k) const;

 private:
  void seal_one();
  void advance_slow(double t);

  double width_;
  std::size_t keep_;
  LogLinearHistogram proto_;
  WindowStats live_;
  std::deque<WindowStats> sealed_;
  LogLinearHistogram overall_;
};

/// A tenant's service-level objective: `objective` of requests complete
/// within `latency` virtual seconds. latency <= 0 disables monitoring.
struct SloTarget {
  double latency = 0;
  double objective = 0.99;
};

/// Alerting policy shared by every tenant monitor. Burn rate 1.0 spends
/// the error budget exactly at the sustainable pace; `page_burn` of 6
/// pages when the budget burns six times too fast over BOTH the short
/// horizon (fast signal) and the long horizon (flap filter).
struct SloPolicy {
  int short_windows = 3;    ///< short horizon, in telemetry windows
  int long_windows = 12;    ///< long horizon, in telemetry windows
  double warn_burn = 1.5;   ///< both horizons over this -> warning
  double page_burn = 6.0;   ///< both horizons over this -> page
  int clear_after = 2;      ///< clean evaluations before de-escalating
};

enum class AlertState { Ok, Warning, Page };

/// Stable lowercase name ("ok", "warning", "page") used in exports.
const char* alert_state_name(AlertState s);

/// One edge of a tenant's alert state machine, with the burn rates that
/// drove it.
struct AlertTransition {
  double t = 0;
  int tenant = 0;
  AlertState from = AlertState::Ok;
  AlertState to = AlertState::Ok;
  double burn_short = 0;
  double burn_long = 0;
};

/// Per-tenant SLO attainment + error-budget burn tracker. observe() one
/// (latency, completed) outcome per terminal request; advance() seals
/// windows and evaluates the alert state machine once per sealed window,
/// returning any transitions.
class SloMonitor {
 public:
  SloMonitor(int tenant, SloTarget target, SloPolicy policy, double width);

  void observe(double t, double latency, bool completed);
  std::vector<AlertTransition> advance(double t);

  /// End of the live window: the next virtual time a seal (and alert
  /// evaluation) is due.
  double live_end() const { return live_begin_ + width_; }

  int tenant() const { return tenant_; }
  const SloTarget& target() const { return target_; }
  AlertState state() const { return state_; }

  std::uint64_t good() const { return good_total_; }
  std::uint64_t bad() const { return bad_total_; }
  /// Lifetime fraction of in-SLO outcomes (1.0 before any traffic).
  double attainment() const;
  /// Burn rates at the last evaluation.
  double burn_short() const { return burn_short_; }
  double burn_long() const { return burn_long_; }

 private:
  struct Win {
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
  };

  double burn_over(std::size_t k) const;
  std::vector<AlertTransition> evaluate(double t);
  void seal_one();

  int tenant_;
  SloTarget target_;
  SloPolicy policy_;
  double width_;
  double live_begin_ = 0;
  Win live_;
  std::deque<Win> wins_;          ///< newest at back
  std::uint64_t buffered_ = 0;    ///< outcomes held across wins_ (idle test)
  std::uint64_t good_total_ = 0;
  std::uint64_t bad_total_ = 0;
  AlertState state_ = AlertState::Ok;
  int clean_ = 0;
  double burn_short_ = 0;
  double burn_long_ = 0;
};

/// Flight-recorder sizing and sampling. The ring is allocated once at
/// construction (pooled storage; recording never allocates), names are
/// interned to 32-bit ids, and non-critical events keep only a
/// deterministic 1-in-`sample_every` subsample chosen by hashing the
/// event sequence number with the seed (SplitMix64) -- independent of
/// wall clock and identical across reruns.
struct FlightRecorderConfig {
  std::size_t capacity = 4096;
  std::uint64_t sample_every = 4;
  std::uint64_t seed = 0x5eedULL;
  double window = 5.0;  ///< dump horizon, virtual seconds
};

/// One pooled flight-recorder slot. 48 bytes, no owned memory.
struct FlightEvent {
  double t = 0;
  double dur = 0;
  std::uint64_t seq = 0;
  Category cat = Category::Fft;
  std::uint32_t name = 0;  ///< interned; FlightRecorder::name()
  std::int32_t tenant = -1;
};

/// Bounded ring of recent events; see FlightRecorderConfig.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig cfg);

  /// Interns `name`, returning a stable id (idempotent per string).
  std::uint32_t intern(const std::string& name);
  const std::string& name(std::uint32_t id) const;

  /// Offers one event. Critical events (faults, alerts, errors) always
  /// record; others pass the seeded subsample. Inline: the common case
  /// (sampled out) is a hash and a branch.
  void record(double t, double dur, Category cat, std::uint32_t name,
              std::int32_t tenant = -1, bool critical = false) {
    const std::uint64_t seq = seen_++;
    if (!critical && !keep(seq)) return;
    FlightEvent e;
    e.t = t;
    e.dur = dur;
    e.seq = seq;
    e.cat = cat;
    e.name = name;
    e.tenant = tenant;
    if (ring_.size() < cfg_.capacity) {
      ring_.push_back(e);
    } else {
      ring_[next_] = e;
    }
    next_ = (next_ + 1) % cfg_.capacity;
    used_ = used_ < cfg_.capacity ? used_ + 1 : cfg_.capacity;
    ++recorded_;
  }

  std::uint64_t seen() const { return seen_; }
  std::uint64_t recorded() const { return recorded_; }
  std::size_t capacity() const { return cfg_.capacity; }
  double window() const { return cfg_.window; }

  /// Retained events overlapping [now - window, now], in time order.
  std::vector<FlightEvent> last_window(double now) const;

  /// Dumps last_window(now) as a standalone Chrome trace-event JSON
  /// document (one process named `label`, one thread per tenant).
  void write_chrome(std::ostream& os, double now,
                    const std::string& label) const;

 private:
  /// SplitMix64 finalizer (the same avalanche common/random.hpp uses for
  /// stream splitting): hashes the event sequence number into the seeded
  /// sampling decision with no wall-clock or global-entropy input.
  static std::uint64_t mix64(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  bool keep(std::uint64_t seq) const {
    if (cfg_.sample_every <= 1) return true;
    return mix64(cfg_.seed ^ seq) % cfg_.sample_every == 0;
  }

  FlightRecorderConfig cfg_;
  std::vector<FlightEvent> ring_;
  std::size_t next_ = 0;   ///< ring slot the next record lands in
  std::size_t used_ = 0;   ///< live slots (== capacity once wrapped)
  std::uint64_t seen_ = 0;
  std::uint64_t recorded_ = 0;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
};

/// Facade configuration. Telemetry is always-on by default; `enabled =
/// false` turns every call into a no-op so the serve loop needs no
/// branches at call sites.
struct TelemetryConfig {
  bool enabled = true;
  /// Machine id this telemetry belongs to (-1 = standalone server). The
  /// cluster tier (src/cluster) gives every shard its own tagged
  /// instance; the tag rides on every SLO monitor and series in the
  /// snapshot so dashboards can attribute a burn to the machine that
  /// caused it.
  int machine = -1;
  double window = 0.5;            ///< virtual seconds per window
  std::size_t keep_windows = 128; ///< sealed windows retained per series
  SloPolicy slo;
  /// Applied to tenants with no tenant_slo entry; latency <= 0 leaves
  /// such tenants unmonitored.
  SloTarget default_slo;
  std::map<int, SloTarget> tenant_slo;
  FlightRecorderConfig recorder;
  /// Snapshot JSON output path; empty falls back to the
  /// PARFFT_TELEMETRY_SNAPSHOT environment variable (empty = no file).
  std::string snapshot_path;
  /// Flight-dump path prefix ("<prefix><n>.json"); empty falls back to
  /// the PARFFT_FLIGHT_DUMP environment variable (empty = no dumps).
  std::string flight_path;
};

/// Owns the windowed series, the per-tenant SLO monitors and the flight
/// recorder of one serving run. Single-threaded, like the event loop
/// that feeds it.
class Telemetry {
 public:
  /// Interned handle to a series, resolved once and then observed
  /// through with no string hashing -- the hot-path API for the event
  /// loop (the acceptance budget is a <= 1.05 wall-clock overhead ratio,
  /// which per-event string lookups blow on their own).
  using SeriesId = std::uint32_t;
  /// Sentinel for "not interned yet" slots in id caches.
  static constexpr SeriesId kNoSeries = 0xffffffffu;

  explicit Telemetry(TelemetryConfig cfg);

  const TelemetryConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled; }
  double now() const { return now_; }
  /// Machine tag of every series/SLO monitor here (-1 = standalone).
  int machine() const { return cfg_.machine; }

  /// Interns the named series, creating it on first use. Valid for the
  /// lifetime of the Telemetry object.
  SeriesId series_id(const std::string& name);
  /// The named series, created on first use. The reference is
  /// invalidated when a new series is created; hold a SeriesId instead
  /// if series may still appear.
  WindowedSeries& series(const std::string& name);
  const WindowedSeries* find_series(const std::string& name) const;
  /// Sorted (name, series) view for exporters.
  std::vector<std::pair<std::string, const WindowedSeries*>> all_series()
      const;

  /// Records `x` at virtual time `t` into the named series (no-op when
  /// disabled).
  void observe(const std::string& name, double t, double x);
  /// Hot-path overload: no string lookup, just an indexed observe.
  void observe(SeriesId id, double t, double x) {
    if (!cfg_.enabled) return;
    if (t > now_) now_ = t;
    pool_[id].observe(t, x);
  }

  /// Feeds one exchange phase's FlowSim link statistics: per-link-class
  /// utilization (achieved bytes/s over capacity) and phase bytes become
  /// windowed series ("link/<class>/utilization", "exchange/bytes").
  void observe_exchange(const ExchangeRecord& rec);

  /// One terminal request outcome: updates the tenant's SLO monitor and
  /// the latency/outcome series. `completed` false = terminal failure
  /// (always out of SLO).
  void on_request(double t, int tenant, double latency, bool completed);

  /// True when advance(t) would do real work (a window boundary has
  /// passed). The event loop calls this every iteration, so it is an
  /// inline compare; advance() itself stays correct without it.
  bool due(double t) const { return cfg_.enabled && t >= seal_due_; }

  /// Advances every series and SLO monitor to virtual time `t`, sealing
  /// windows. Returns alert transitions fired by the seals (also kept in
  /// alerts()).
  std::vector<AlertTransition> advance(double t);

  /// The tenant's monitor, created on first use from tenant_slo /
  /// default_slo. Null when the tenant is unmonitored or telemetry is
  /// disabled.
  SloMonitor* slo(int tenant);
  const std::map<int, SloMonitor>& slos() const { return slos_; }
  const std::vector<AlertTransition>& alerts() const { return alerts_; }

  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  /// Records a flight event (no-op when disabled).
  void flight(double t, double dur, Category cat, const std::string& name,
              std::int32_t tenant = -1, bool critical = false);
  /// Hot-path overload taking a pre-interned name id (see intern()).
  void flight(double t, double dur, Category cat, std::uint32_t name_id,
              std::int32_t tenant = -1, bool critical = false) {
    if (!cfg_.enabled) return;
    recorder_.record(t, dur, cat, name_id, tenant, critical);
  }
  /// Interns a flight-event name once so the per-event record skips the
  /// string table entirely.
  std::uint32_t intern(const std::string& name) {
    return recorder_.intern(name);
  }

  /// Dumps the recorder's last window to "<flight prefix><n>.json" and
  /// returns the path ("" when no prefix is configured or disabled).
  /// `reason` lands in the trace label.
  std::string dump_flight(const std::string& reason, double t);
  const std::vector<std::string>& flight_dumps() const { return dumps_; }

  /// Snapshot JSON (schema "parfft-telemetry-v1"; see
  /// docs/observability.md) of every series, SLO monitor and the
  /// recorder, rendered by tools/parfft_top. Defined in
  /// export_snapshot.cpp.
  void write_snapshot(std::ostream& os) const;
  /// Writes the snapshot to the configured path; false when none is set.
  bool write_snapshot_file() const;

  /// Resolved output paths (config value or environment fallback).
  std::string snapshot_path() const;
  std::string flight_prefix() const;

 private:
  TelemetryConfig cfg_;
  double now_ = 0;
  /// Series pool: index_ maps name -> slot in pool_/pool_names_. Vector
  /// storage keeps advance() a linear scan and makes SeriesId a stable
  /// 32-bit handle (references into pool_ move on growth; ids do not).
  std::vector<WindowedSeries> pool_;
  std::vector<std::string> pool_names_;
  std::map<std::string, SeriesId> index_;
  /// Next virtual time any window boundary can pass: advance() calls
  /// before this are one comparison (the event loop advances every
  /// iteration; windows seal rarely).
  double seal_due_ = 0;
  /// Pre-interned hot series (valid when enabled).
  SeriesId lat_id_ = 0;
  SeriesId outcome_id_ = 0;
  std::vector<SeriesId> tenant_lat_;          ///< per-tenant latency series
  std::map<std::string, SeriesId> link_ids_;  ///< link-class utilization memo
  std::map<int, SloMonitor> slos_;
  std::vector<AlertTransition> alerts_;
  FlightRecorder recorder_;
  std::vector<std::string> dumps_;
};

/// One combined "parfft-telemetry-v1" document over many machine-tagged
/// Telemetry instances (the cluster router's per-shard telemetry): the
/// merged "series" object carries every shard's series under a
/// "machine/<id>/" prefix, "slo"/"alerts" entries carry a "machine"
/// field, the recorder counters aggregate, and a "machines" array gives
/// one summary section per machine. Single-machine snapshots from
/// Telemetry::write_snapshot stay valid under the same schema; this
/// adds the per-machine dimension. Defined in export_snapshot.cpp.
void write_cluster_snapshot(std::ostream& os,
                            const std::vector<const Telemetry*>& machines);

}  // namespace parfft::obs
