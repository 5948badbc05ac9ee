#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "obs/export.hpp"

namespace parfft::obs {

// ------------------------------------------------------------------ series

WindowedSeries::WindowedSeries(double width, std::size_t keep,
                               const LogLinearHistogram& proto)
    : width_(width), keep_(keep), proto_(proto), overall_(proto) {
  PARFFT_CHECK(width > 0, "windowed series needs a positive window width");
  PARFFT_CHECK(keep >= 1, "windowed series keeps at least one window");
  proto_.clear();
  overall_.clear();
  live_.begin = 0;
  live_.end = width_;
  live_.hist = proto_;
}

void WindowedSeries::seal_one() {
  const double end = live_.end;
  sealed_.push_back(std::move(live_));
  while (sealed_.size() > keep_) {
    // The run total only needs windows the ring is about to forget;
    // retained ones fold in lazily at overall(). Keeps sealing at move
    // speed on the hot path.
    overall_.merge(sealed_.front().hist);
    sealed_.pop_front();
  }
  live_.begin = end;
  live_.end = end + width_;
  live_.hist = proto_;
}

void WindowedSeries::advance_slow(double t) {
  // Fast-forward: when t is so far ahead that every window the seal loop
  // would produce gets evicted again (a series created late in a run, or
  // one idle for many windows), skip straight to the window containing
  // t, backfilling keep_ empty sealed windows. Identical observable
  // state to the loop, without O(t / width) seals.
  const auto crossed =
      static_cast<std::uint64_t>((t - live_.begin) / width_);
  if (crossed > keep_) {
    seal_one();  // the window that may hold data survives via overall_
    for (const WindowStats& w : sealed_) overall_.merge(w.hist);
    sealed_.clear();
    const double base =
        live_.begin + static_cast<double>(crossed - keep_ - 1) * width_;
    for (std::size_t k = 0; k < keep_; ++k) {
      WindowStats w;
      w.begin = base + static_cast<double>(k) * width_;
      w.end = w.begin + width_;
      w.hist = proto_;
      sealed_.push_back(w);
    }
    live_.begin = sealed_.back().end;
    live_.end = live_.begin + width_;
    live_.hist = proto_;
  }
  while (live_.end <= t) seal_one();
}

LogLinearHistogram WindowedSeries::overall() const {
  LogLinearHistogram out = overall_;
  for (const WindowStats& w : sealed_) out.merge(w.hist);
  out.merge(live_.hist);
  return out;
}

std::vector<const WindowStats*> WindowedSeries::last(std::size_t k) const {
  std::vector<const WindowStats*> out;
  out.reserve(k);
  if (k > 0) out.push_back(&live_);
  for (auto it = sealed_.rbegin(); it != sealed_.rend() && out.size() < k;
       ++it)
    out.push_back(&*it);
  return out;
}

// --------------------------------------------------------------------- slo

const char* alert_state_name(AlertState s) {
  switch (s) {
    case AlertState::Ok: return "ok";
    case AlertState::Warning: return "warning";
    case AlertState::Page: return "page";
  }
  return "?";
}

SloMonitor::SloMonitor(int tenant, SloTarget target, SloPolicy policy,
                       double width)
    : tenant_(tenant), target_(target), policy_(policy), width_(width) {
  PARFFT_CHECK(width > 0, "slo monitor needs a positive window width");
  PARFFT_CHECK(target.objective > 0 && target.objective < 1,
               "slo objective must be in (0, 1)");
  PARFFT_CHECK(policy.short_windows >= 1 &&
                   policy.long_windows >= policy.short_windows,
               "slo policy horizons: 1 <= short <= long");
  PARFFT_CHECK(policy.clear_after >= 1, "slo clear_after must be >= 1");
}

void SloMonitor::observe(double t, double latency, bool completed) {
  // Outcomes bin into the live window (forward-keyed, like
  // WindowedSeries). Sealing happens only in advance() so no alert
  // transition can fire -- and be lost -- inside an observe call; the
  // event loop advances to `t` before feeding outcomes at `t`.
  (void)t;
  const bool good = completed && latency <= target_.latency;
  if (good) {
    ++live_.good;
    ++good_total_;
  } else {
    ++live_.bad;
    ++bad_total_;
  }
}

double SloMonitor::attainment() const {
  const std::uint64_t total = good_total_ + bad_total_;
  if (total == 0) return 1.0;
  return static_cast<double>(good_total_) / static_cast<double>(total);
}

double SloMonitor::burn_over(std::size_t k) const {
  std::uint64_t good = 0, bad = 0;
  std::size_t taken = 0;
  for (auto it = wins_.rbegin(); it != wins_.rend() && taken < k;
       ++it, ++taken) {
    good += it->good;
    bad += it->bad;
  }
  const std::uint64_t total = good + bad;
  if (total == 0) return 0.0;
  const double error_rate =
      static_cast<double>(bad) / static_cast<double>(total);
  const double budget = std::max(1.0 - target_.objective, 1e-12);
  return error_rate / budget;
}

void SloMonitor::seal_one() {
  buffered_ += live_.good + live_.bad;
  wins_.push_back(live_);
  live_ = Win{};
  live_begin_ += width_;
  const std::size_t keep =
      static_cast<std::size_t>(policy_.long_windows) + 1;
  while (wins_.size() > keep) {
    buffered_ -= wins_.front().good + wins_.front().bad;
    wins_.pop_front();
  }
}

std::vector<AlertTransition> SloMonitor::evaluate(double t) {
  std::vector<AlertTransition> out;
  burn_short_ = burn_over(static_cast<std::size_t>(policy_.short_windows));
  burn_long_ = burn_over(static_cast<std::size_t>(policy_.long_windows));
  AlertState want = AlertState::Ok;
  // Multi-window condition: both the fast and the slow horizon must
  // burn hot, so a single bad window cannot page but a sustained burn
  // pages within one short horizon.
  if (burn_short_ >= policy_.page_burn && burn_long_ >= policy_.page_burn) {
    want = AlertState::Page;
  } else if (burn_short_ >= policy_.warn_burn &&
             burn_long_ >= policy_.warn_burn) {
    want = AlertState::Warning;
  }
  if (static_cast<int>(want) > static_cast<int>(state_)) {
    // Escalate immediately; hysteresis only delays the all-clear.
    out.push_back({t, tenant_, state_, want, burn_short_, burn_long_});
    state_ = want;  // parfft-lint: allow(alert-transitions)
    clean_ = 0;
  } else if (static_cast<int>(want) < static_cast<int>(state_)) {
    ++clean_;
    if (clean_ >= policy_.clear_after) {
      out.push_back({t, tenant_, state_, want, burn_short_, burn_long_});
      state_ = want;  // parfft-lint: allow(alert-transitions)
      clean_ = 0;
    }
  } else {
    clean_ = 0;
  }
  return out;
}

std::vector<AlertTransition> SloMonitor::advance(double t) {
  std::vector<AlertTransition> out;
  // Fast-forward an idle monitor (fresh, or long since drained): with no
  // buffered outcomes, no live outcomes and a clean Ok state, every
  // skipped evaluation sees burn 0 and changes nothing, so the seal loop
  // can jump. This makes lazily-created monitors O(1) instead of
  // O(t / width) on their first advance.
  if (state_ == AlertState::Ok && clean_ == 0 && buffered_ == 0 &&
      live_.good + live_.bad == 0 && live_begin_ + width_ <= t) {
    const std::size_t keep =
        static_cast<std::size_t>(policy_.long_windows) + 1;
    const auto crossed =
        static_cast<std::uint64_t>((t - live_begin_) / width_);
    if (crossed > keep) {
      wins_.assign(std::min<std::size_t>(keep, wins_.size() + crossed),
                   Win{});
      live_begin_ += static_cast<double>(crossed) * width_;
      burn_short_ = 0;
      burn_long_ = 0;
    }
  }
  while (live_begin_ + width_ <= t) {
    const double edge = live_begin_ + width_;
    seal_one();
    auto fired = evaluate(edge);
    out.insert(out.end(), fired.begin(), fired.end());
  }
  return out;
}

// ---------------------------------------------------------------- recorder

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg) : cfg_(cfg) {
  PARFFT_CHECK(cfg.capacity >= 1, "flight recorder needs capacity >= 1");
  PARFFT_CHECK(cfg.window > 0, "flight recorder needs a positive window");
  // Pooled: the only event allocation ever. reserve (not resize) so
  // constructing a recorder never pays for zero-filling slots it may
  // never use -- the ring grows by push until it wraps.
  ring_.reserve(cfg.capacity);
  names_.push_back("");  // id 0 = unnamed
}

std::uint32_t FlightRecorder::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

const std::string& FlightRecorder::name(std::uint32_t id) const {
  PARFFT_CHECK(id < names_.size(), "flight recorder: unknown name id");
  return names_[id];
}

std::vector<FlightEvent> FlightRecorder::last_window(double now) const {
  const double horizon = now - cfg_.window;
  std::vector<FlightEvent> out;
  out.reserve(used_);
  for (std::size_t i = 0; i < used_; ++i) {
    const FlightEvent& e = ring_[i];
    if (e.t + e.dur >= horizon) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  return out;
}

void FlightRecorder::write_chrome(std::ostream& os, double now,
                                  const std::string& label) const {
  constexpr double kMicro = 1e6;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"args\":"
     << "{\"name\":\"" << json_escape(label) << "\"}}";
  const std::vector<FlightEvent> events = last_window(now);
  // One thread track per tenant (tid 0 = server-wide events).
  std::map<std::int32_t, int> tids;
  tids[-1] = 0;
  for (const FlightEvent& e : events)
    if (tids.find(e.tenant) == tids.end())
      tids.emplace(e.tenant, static_cast<int>(tids.size()));
  for (const auto& [tenant, tid] : tids) {
    os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
       << tid << ",\"args\":{\"name\":\""
       << (tenant < 0 ? std::string("server")
                      : "tenant " + std::to_string(tenant))
       << "\"}}";
  }
  for (const FlightEvent& e : events) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << tids.at(e.tenant)
       << ",\"ts\":" << e.t * kMicro << ",\"dur\":" << e.dur * kMicro
       << ",\"cat\":\"" << category_name(e.cat) << "\",\"name\":\""
       << json_escape(name(e.name)) << "\",\"args\":{\"seq\":" << e.seq
       << "}}";
  }
  os << "\n]}\n";
}

// ------------------------------------------------------------------ facade

Telemetry::Telemetry(TelemetryConfig cfg)
    : cfg_(std::move(cfg)),
      recorder_(cfg_.enabled
                    ? cfg_.recorder
                    // Disabled telemetry keeps a one-slot ring so the
                    // object is cheap to carry around unused.
                    : FlightRecorderConfig{1, cfg_.recorder.sample_every,
                                           cfg_.recorder.seed,
                                           cfg_.recorder.window}) {
  if (cfg_.enabled) {
    lat_id_ = series_id("serve/latency");
    outcome_id_ = series_id("serve/outcome");
  }
}

Telemetry::SeriesId Telemetry::series_id(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<SeriesId>(pool_.size());
  pool_.emplace_back(cfg_.window, cfg_.keep_windows);
  pool_names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

WindowedSeries& Telemetry::series(const std::string& name) {
  return pool_[series_id(name)];
}

const WindowedSeries* Telemetry::find_series(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &pool_[it->second];
}

std::vector<std::pair<std::string, const WindowedSeries*>>
Telemetry::all_series() const {
  std::vector<std::pair<std::string, const WindowedSeries*>> out;
  out.reserve(index_.size());
  // index_ iterates name-sorted, so exports are deterministic.
  for (const auto& [name, id] : index_) out.emplace_back(name, &pool_[id]);
  return out;
}

void Telemetry::observe(const std::string& name, double t, double x) {
  if (!cfg_.enabled) return;
  observe(series_id(name), t, x);
}

void Telemetry::observe_exchange(const ExchangeRecord& rec) {
  if (!cfg_.enabled) return;
  observe("exchange/bytes", rec.begin, rec.bytes_total);
  observe("exchange/seconds", rec.begin, rec.duration);
  // Per-link-class achieved utilization: bytes carried over the phase
  // against what the link could have carried in that time.
  std::map<std::string, std::pair<double, double>> cls;  // carried, possible
  for (const LinkUsage& l : rec.links) {
    auto& [carried, possible] = cls[l.cls];
    carried += l.bytes;
    possible += l.capacity * rec.duration;
  }
  for (const auto& [name, cp] : cls) {
    if (cp.second <= 0) continue;
    auto it = link_ids_.find(name);
    if (it == link_ids_.end())
      it = link_ids_
               .emplace(name, series_id("link/" + name + "/utilization"))
               .first;
    observe(it->second, rec.begin, cp.first / cp.second);
  }
}

SloMonitor* Telemetry::slo(int tenant) {
  if (!cfg_.enabled) return nullptr;
  auto it = slos_.find(tenant);
  if (it != slos_.end()) return &it->second;
  SloTarget target = cfg_.default_slo;
  if (const auto t = cfg_.tenant_slo.find(tenant); t != cfg_.tenant_slo.end())
    target = t->second;
  if (target.latency <= 0) return nullptr;
  it = slos_
           .emplace(tenant, SloMonitor(tenant, target, cfg_.slo, cfg_.window))
           .first;
  return &it->second;
}

void Telemetry::on_request(double t, int tenant, double latency,
                           bool completed) {
  if (!cfg_.enabled) return;
  if (completed) {
    observe(lat_id_, t, latency);
    if (tenant >= 0) {
      // Per-tenant latency series, interned once per tenant.
      const auto idx = static_cast<std::size_t>(tenant);
      if (idx >= tenant_lat_.size())
        tenant_lat_.resize(idx + 1, kNoSeries);
      if (tenant_lat_[idx] == kNoSeries)
        tenant_lat_[idx] =
            series_id("tenant/" + std::to_string(tenant) + "/latency");
      observe(tenant_lat_[idx], t, latency);
    }
  }
  observe(outcome_id_, t, completed ? 1.0 : 0.0);
  if (SloMonitor* m = slo(tenant)) m->observe(t, latency, completed);
}

std::vector<AlertTransition> Telemetry::advance(double t) {
  if (!cfg_.enabled) return {};
  if (t > now_) now_ = t;
  // The event loop advances every iteration but windows seal rarely:
  // until the next boundary this is one comparison.
  if (t < seal_due_) return {};
  for (auto& s : pool_) s.advance(t);
  std::vector<AlertTransition> fired;
  for (auto& [tenant, m] : slos_) {
    auto f = m.advance(t);
    fired.insert(fired.end(), f.begin(), f.end());
  }
  // Next boundary: the earliest live-window end anywhere (grid-aligned,
  // but computed from the actual windows so FP drift can never skip a
  // seal). Series created later start behind `t` and catch up on their
  // first observe, so they cannot be due earlier than this.
  seal_due_ = (std::floor(t / cfg_.window) + 1.0) * cfg_.window;
  for (const auto& s : pool_) seal_due_ = std::min(seal_due_, s.live().end);
  for (const auto& [tenant, m] : slos_)
    seal_due_ = std::min(seal_due_, m.live_end());
  alerts_.insert(alerts_.end(), fired.begin(), fired.end());
  return fired;
}

void Telemetry::flight(double t, double dur, Category cat,
                       const std::string& name, std::int32_t tenant,
                       bool critical) {
  if (!cfg_.enabled) return;
  recorder_.record(t, dur, cat, recorder_.intern(name), tenant, critical);
}

std::string Telemetry::snapshot_path() const {
  if (!cfg_.snapshot_path.empty()) return cfg_.snapshot_path;
  const char* env = std::getenv("PARFFT_TELEMETRY_SNAPSHOT");
  return env ? env : "";
}

std::string Telemetry::flight_prefix() const {
  if (!cfg_.flight_path.empty()) return cfg_.flight_path;
  const char* env = std::getenv("PARFFT_FLIGHT_DUMP");
  return env ? env : "";
}

std::string Telemetry::dump_flight(const std::string& reason, double t) {
  if (!cfg_.enabled) return "";
  const std::string prefix = flight_prefix();
  if (prefix.empty()) return "";
  const std::string path =
      prefix + std::to_string(dumps_.size()) + ".json";
  std::ofstream os(path);
  if (!os) return "";
  recorder_.write_chrome(os, t, "flight: " + reason);
  dumps_.push_back(path);
  return path;
}

bool Telemetry::write_snapshot_file() const {
  const std::string path = snapshot_path();
  if (path.empty() || !cfg_.enabled) return false;
  std::ofstream os(path);
  if (!os) return false;
  write_snapshot(os);
  return true;
}

}  // namespace parfft::obs
