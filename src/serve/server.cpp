#include "serve/server.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/paranoid.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace parfft::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

LatencySummary summarize(const obs::LogLinearHistogram& h) {
  LatencySummary s;
  s.min = h.min();
  s.p50 = h.quantile(0.50);
  s.p95 = h.quantile(0.95);
  s.p99 = h.quantile(0.99);
  s.p999 = h.quantile(0.999);
  s.mean = h.mean();
  s.max = h.max();
  return s;
}

void LatencySummary::verify(const std::string& what) const {
  PARFFT_CHECK(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= p999 &&
                   p999 <= max,
               what + ": quantiles not ordered min <= p50 <= p95 <= p99 <= "
                      "p999 <= max");
}

void ServeReport::verify() const {
  PARFFT_CHECK(completed + failed + cancelled == offered,
               "serve report: completed + failed + cancelled != offered");
  // Every terminal outcome was reached by some submission attempt; the
  // attempt traffic (first submissions + retries) can only exceed the
  // terminal count, never undershoot it.
  PARFFT_CHECK(offered + retries >= completed + failed + cancelled,
               "serve report: fewer attempts than terminal outcomes");
  PARFFT_CHECK(admitted <= offered + retries,
               "serve report: more primaries admitted than submitted");
  PARFFT_CHECK(deadline_met <= completed,
               "serve report: deadline_met exceeds completions");
  PARFFT_CHECK(shed <= failed, "serve report: shed requests not all failed");
  PARFFT_CHECK(latencies.size() == completed,
               "serve report: latency samples != completions");
  PARFFT_CHECK(recovery_times.size() <= crashes,
               "serve report: more recoveries than crashes");
  PARFFT_CHECK(makespan >= 0 && busy_time >= 0 && downtime >= 0,
               "serve report: negative time aggregate");
  // The single executor cannot be busy longer than the run lasted; allow
  // rounding slack from the fluid repricing arithmetic.
  PARFFT_CHECK(busy_time <= makespan * (1.0 + 1e-9) + 1e-9,
               "serve report: busy_time exceeds makespan");
  latency.verify("serve report latency");
  queue_wait.verify("serve report queue_wait");
  // Per-tenant sections (absent on hand-built reports) obey the same
  // conservation identity tenant by tenant and sum to the run totals.
  if (!tenants.empty()) {
    std::uint64_t t_off = 0, t_comp = 0, t_fail = 0, t_canc = 0, t_shed = 0;
    for (const TenantReport& t : tenants) {
      PARFFT_CHECK(t.completed + t.failed + t.cancelled == t.offered,
                   "serve report: tenant completed + failed + cancelled != "
                   "offered");
      PARFFT_CHECK(t.shed <= t.failed,
                   "serve report: tenant shed requests not all failed");
      t.latency.verify("serve report tenant latency");
      PARFFT_CHECK(t.latency.max <= latency.max,
                   "serve report: tenant latency max exceeds the run's");
      t_off += t.offered;
      t_comp += t.completed;
      t_fail += t.failed;
      t_canc += t.cancelled;
      t_shed += t.shed;
    }
    PARFFT_CHECK(t_off == offered && t_comp == completed &&
                     t_fail == failed && t_canc == cancelled && t_shed == shed,
                 "serve report: tenant sections do not sum to run totals");
  }
}

/// The resumable event loop: every local run() used to keep, promoted to
/// members so an external driver (the cluster router) can interleave
/// many engines on one deterministic virtual clock. service() replays
/// the loop body at the current instant until it reaches a fixpoint;
/// next_event() is the former next-event computation, unchanged.
struct Server::Engine {
  Server& srv;
  Workload& workload;
  obs::RunTrace* run;
  obs::Telemetry& tel;
  Batcher batcher;
  const FaultPlan& faults;
  const RetryPolicy& retry;
  ServeReport rep;
  const double setup_before;  ///< plan-cache setup paid before this run

  // Hot-path telemetry handles, interned once per run: the per-event
  // cost inside the loop is an indexed observe / ring write, never a
  // string construction or map<string> lookup (that is what keeps the
  // measured obs.trace_overhead_ratio inside its budget).
  bool tel_on;
  obs::Telemetry::SeriesId sid_queue = obs::Telemetry::kNoSeries;
  obs::Telemetry::SeriesId sid_batch = obs::Telemetry::kNoSeries;
  obs::Telemetry::SeriesId sid_nic = obs::Telemetry::kNoSeries;
  std::uint32_t fl_req = 0;
  std::uint32_t fl_failed = 0;
  std::uint32_t fl_shed = 0;
  std::uint32_t fl_backoff = 0;
  std::uint32_t fl_cancelled = 0;  // lazily interned; see cancel_queued()
  std::map<int, std::uint32_t> fl_dispatch;  // per batch shape

  // Per-tenant terminal accounting. Kept on the event loop's own
  // counters -- never on the telemetry monitors -- so the per-tenant
  // report sections are byte-identical whether telemetry is enabled.
  struct TenantAgg {
    std::uint64_t offered = 0, completed = 0, failed = 0, cancelled = 0,
                  shed = 0;
    std::uint64_t in_slo = 0;  ///< completed within the tenant's target
    obs::LogLinearHistogram lat;
  };
  std::map<int, TenantAgg> tenant_agg;

  double last_blackout_dump = -1;  // one flight dump per blackout window

  obs::LogLinearHistogram lat_hist;   ///< run latency, completed requests
  obs::LogLinearHistogram wait_hist;  ///< run queue wait, completed requests
  InFlight flight;
  bool busy = false;
  bool up = true;           // executor alive
  double restart_at = kInf;
  double last_crash = 0;
  bool awaiting_recovery = false;
  std::size_t crash_idx = 0;
  double now = 0;

  // Live submissions: an id is present while its one copy is queued or
  // executing, gone once terminal or awaiting a retry.
  enum class State { Queued, Running };
  std::map<std::uint64_t, State> live;

  // Pending resubmissions, ordered by fire time. An id here is never live.
  std::set<std::pair<double, std::uint64_t>> retry_q;
  std::map<std::uint64_t, Request> retry_req;

  Engine(Server& s, Workload& w)
      : srv(s),
        workload(w),
        run(obs::Session::global().begin_run(s.cfg_.label, /*nranks=*/1,
                                             s.cfg_.trace)),
        tel(*s.tel_),
        batcher(s.cfg_.batching),
        faults(s.cfg_.faults),
        retry(s.cfg_.retry),
        setup_before(s.cache_.setup_charged()),
        tel_on(tel.enabled()) {
    rep.offered = workload.offered();
    sid_queue = tel_on ? tel.series_id("serve/queue_depth")
                       : obs::Telemetry::kNoSeries;
    sid_batch = tel_on ? tel.series_id("serve/batch_size")
                       : obs::Telemetry::kNoSeries;
    sid_nic = tel_on ? tel.series_id("serve/nic_scale")
                     : obs::Telemetry::kNoSeries;
    fl_req = tel.intern("req");
    fl_failed = tel.intern("failed");
    fl_shed = tel.intern("shed");
    fl_backoff = tel.intern("backoff");
  }

  const ServerConfig& cfg() const { return srv.cfg_; }
  PlanCache& cache() { return srv.cache_; }

  obs::SloTarget tenant_target(int tenant) const {
    const auto it = cfg().telemetry.tenant_slo.find(tenant);
    return it != cfg().telemetry.tenant_slo.end() ? it->second
                                                  : cfg().telemetry.default_slo;
  }

  // Alert transitions fired by a telemetry advance: record each edge as
  // an obs span and a critical flight event; a page dumps the recorder.
  void handle_alerts(const std::vector<obs::AlertTransition>& fired) {
    for (const obs::AlertTransition& a : fired) {
      const std::string name = "tenant " + std::to_string(a.tenant) + ": " +
                               obs::alert_state_name(a.from) + " -> " +
                               obs::alert_state_name(a.to);
      tel.flight(a.t, 0.0, obs::Category::Alert, name, a.tenant,
                 /*critical=*/true);
      if (run)
        run->tracer.complete(0, obs::Category::Alert, name, a.t, 0.0,
                             {{"burn_short", a.burn_short},
                              {"burn_long", a.burn_long}});
      if (a.to == obs::AlertState::Page) tel.dump_flight("page", a.t);
    }
  }

  bool queued(std::uint64_t id) const {
    const auto it = live.find(id);
    return it != live.end() && it->second == State::Queued;
  }

  // External withdrawal of a queued request (the cluster router
  // cancelling the losing copy of a cross-shard hedge): terminal as
  // `cancelled`, never dispatched here, no SLO charge. Cold path -- the
  // flight-event name is interned on first use so runs that never cancel
  // keep an identical intern table.
  bool cancel_queued(std::uint64_t id, double t) {
    if (!queued(id)) return false;
    std::optional<Request> r = batcher.remove(id);
    PARFFT_ASSERT(r.has_value());
    live.erase(id);
    ++rep.cancelled;
    ++tenant_agg[r->tenant].cancelled;
    if (fl_cancelled == 0) fl_cancelled = tel.intern("cancelled");
    tel.flight(t, 0.0, obs::Category::Request, fl_cancelled, r->tenant);
    workload.on_complete(*r, t);
    return true;
  }

  // Terminal failure or resubmission after a failed attempt at `t`.
  void fail_or_retry(const Request& r, double t) {
    bool terminal = r.attempt >= retry.max_attempts;
    double when = 0;
    if (!terminal) {
      when = t + retry_backoff(retry, r.id, r.attempt + 1);
      // Retrying past the deadline cannot produce an in-deadline
      // completion: give up now instead of burning attempts.
      if (r.deadline > 0 && when >= r.deadline) terminal = true;
    }
    if (terminal) {
      ++rep.failed;
      ++tenant_agg[r.tenant].failed;
      tel.on_request(t, r.tenant,
                     t - (r.submitted >= 0 ? r.submitted : r.arrival),
                     /*completed=*/false);
      tel.flight(t, 0.0, obs::Category::Request, fl_failed, r.tenant,
                 /*critical=*/true);
      workload.on_complete(r, t);
      return;
    }
    Request nr = r;
    nr.attempt += 1;
    nr.arrival = when;
    nr.dispatch = -1;
    nr.completion = -1;
    ++rep.retries;
    retry_q.insert({when, nr.id});
    retry_req[nr.id] = nr;
    tel.flight(t, when - t, obs::Category::Retry, fl_backoff, r.tenant);
    if (run)
      run->tracer.complete(0, obs::Category::Retry, "backoff", t, when - t,
                           {{"attempt", static_cast<double>(nr.attempt)}});
  }

  void complete(Request& r, double t) {
    r.completion = t;
    PARFFT_PARANOID_ASSERT(r.completion >= r.submitted);
    PARFFT_PARANOID_ASSERT(r.dispatch < 0 || r.completion >= r.dispatch);
    live.erase(r.id);
    rep.latencies.push_back(r.latency());
    lat_hist.observe(r.latency());
    wait_hist.observe(r.queue_wait());
    ++rep.completed;
    if (r.met_deadline()) ++rep.deadline_met;
    TenantAgg& ta = tenant_agg[r.tenant];
    ++ta.completed;
    ta.lat.observe(r.latency());
    const obs::SloTarget target = tenant_target(r.tenant);
    if (target.latency > 0 && r.latency() <= target.latency) ++ta.in_slo;
    tel.on_request(t, r.tenant, r.latency(), /*completed=*/true);
    tel.flight(r.arrival, t - r.arrival, obs::Category::Request, fl_req,
               r.tenant);
    if (run) {
      if (r.dispatch > r.arrival)
        run->tracer.complete(0, obs::Category::Wait, "queued", r.arrival,
                             r.dispatch - r.arrival);
      run->tracer.complete(
          0, obs::Category::Request, "req", r.arrival, r.latency(),
          {{"tenant", static_cast<double>(r.tenant)},
           {"shape", static_cast<double>(r.shape_id)}});
    }
    workload.on_complete(r, t);
  }

  void finish_flight() {
    PARFFT_PARANOID_ASSERT(flight.done >= flight.start);
    PARFFT_PARANOID_ASSERT(flight.done >= flight.setup_end);
    now = std::max(now, flight.done);
    for (Request& r : flight.batch.requests) complete(r, flight.done);
    if (run)
      run->metrics.observe("serve/batch_size",
                           static_cast<double>(flight.batch.size()));
    rep.busy_time += flight.done - flight.start;
    if (awaiting_recovery) {
      rep.recovery_times.push_back(flight.done - last_crash);
      awaiting_recovery = false;
    }
    busy = false;
  }

  void admit(Request r) {
    if (r.submitted < 0) {
      r.submitted = r.arrival;
      if (retry.deadline > 0) r.deadline = r.submitted + retry.deadline;
      ++tenant_agg[r.tenant].offered;
    }
    if (faults.in_blackout(r.arrival)) {
      ++rep.dropped;
      tel.flight(r.arrival, 0.0, obs::Category::Fault, "blackout_drop",
                 r.tenant, /*critical=*/true);
      // The fault layer fired a blackout: freeze one flight dump per
      // window, at the first drop that reveals it.
      for (const BlackoutWindow& w : faults.blackouts()) {
        if (r.arrival >= w.begin && r.arrival < w.end) {
          if (w.begin > last_blackout_dump) {
            last_blackout_dump = w.begin;
            tel.dump_flight("blackout", r.arrival);
          }
          break;
        }
      }
      fail_or_retry(r, r.arrival);
      return;
    }
    const bool full =
        cfg().queue_limit > 0 && batcher.pending() >= cfg().queue_limit;
    if (full) {
      ++rep.rejected;
      // Fail fast (and let the retry policy, if any, resubmit): a
      // closed-loop client's rejected request is over and the client
      // moves on to its next round.
      fail_or_retry(r, r.arrival);
      return;
    }
    ++rep.admitted;
    live[r.id] = State::Queued;
    const double arrival = r.arrival;
    batcher.push(std::move(r));
    tel.observe(sid_queue, arrival, static_cast<double>(batcher.pending()));
    if (run)
      run->counter_sample("serve/queue_depth", arrival,
                          static_cast<double>(batcher.pending()));
  }

  // Advance the in-flight work fraction to `t` at the current pricing.
  void advance_work(double t) {
    const double cut = std::max(t, flight.setup_end);
    if (cut > flight.mark && flight.exec > 0)
      flight.work += (cut - flight.mark) / flight.exec;
    flight.mark = cut;
  }

  // A degradation boundary crossed mid-flight: bank progress at the old
  // pricing, reprice the remainder against the new fabric state.
  void reprice(double t, double scale) {
    advance_work(t);
    flight.work = std::min(flight.work, 1.0);
    flight.exec = flight.plan->exec_time(flight.batch.size(), scale);
    flight.scale = scale;
    flight.done = flight.mark + (1.0 - flight.work) * flight.exec;
    tel.observe(sid_nic, t, scale);
    tel.flight(t, 0.0, obs::Category::Fault, "reprice", -1,
               /*critical=*/true);
  }

  void crash(const CrashEvent& c) {
    ++rep.crashes;
    tel.flight(c.at, c.restart_delay, obs::Category::Fault, "crash", -1,
               /*critical=*/true);
    tel.dump_flight("crash", c.at);
    if (run)
      run->tracer.complete(0, obs::Category::Fault, "crash", c.at,
                           c.restart_delay);
    if (busy) {
      advance_work(c.at);
      // Sub-chunks whose results streamed off the device before the crash
      // (the Fig. 13 pipeline delivers per chunk) still complete; the
      // rest of the batch aborts mid-transform.
      int delivered = 0;
      if (c.at >= flight.setup_end)
        delivered = flight.plan->profile(flight.batch.size())
                        .delivered(flight.work);
      for (int i = 0; i < flight.batch.size(); ++i) {
        Request& r = flight.batch.requests[static_cast<std::size_t>(i)];
        if (i < delivered) {
          complete(r, c.at);
        } else {
          live.erase(r.id);
          ++rep.aborted;
          fail_or_retry(r, c.at);
        }
      }
      rep.busy_time += c.at - flight.start;
      busy = false;
    }
    // The queue dies with the executor: hand every queued request back to
    // its client with a retryable status instead of dropping it silently.
    for (Batch& b : batcher.flush()) {
      for (Request& r : b.requests) {
        live.erase(r.id);
        ++rep.aborted;
        fail_or_retry(r, c.at);
      }
    }
    // Device state is gone; every resident plan re-pays its setup spike
    // after recovery.
    cache().invalidate_all();
    up = false;
    restart_at = c.at + c.restart_delay;
    rep.downtime += c.restart_delay;
    last_crash = c.at;
    awaiting_recovery = true;
  }

  void dispatch(Batch&& b) {
    PlanCache::Lookup look =
        cache().acquire(cfg().shapes[static_cast<std::size_t>(b.shape_id)]);
    const double scale = faults.nic_scale_at(now);
    const double exec = look.plan->exec_time(b.size(), scale);
    for (Request& r : b.requests) {
      r.dispatch = now;
      live[r.id] = State::Running;
    }
    flight.batch = std::move(b);
    flight.start = now;
    flight.setup = look.setup_charge;
    flight.setup_end = now + look.setup_charge;
    flight.exec = exec;
    flight.scale = scale;
    flight.work = 0;
    flight.mark = flight.setup_end;
    flight.done = flight.setup_end + exec;
    flight.plan = look.plan;
    PARFFT_PARANOID_ASSERT(flight.setup_end >= now &&
                           flight.done >= flight.setup_end);
    busy = true;
    ++rep.batches;
    tel.observe(sid_batch, now, static_cast<double>(flight.batch.size()));
    tel.observe(sid_nic, now, scale);
    auto fd = fl_dispatch.find(flight.batch.shape_id);
    if (fd == fl_dispatch.end())
      fd = fl_dispatch
               .emplace(flight.batch.shape_id,
                        tel.intern("dispatch/" +
                                   std::to_string(flight.batch.shape_id)))
               .first;
    tel.flight(now, flight.done - now, obs::Category::Transform, fd->second);
    if (run) {
      run->tracer.complete(
          0, obs::Category::Transform,
          shape_key(cfg().cluster,
                    cfg().shapes[static_cast<std::size_t>(
                        flight.batch.shape_id)]),
          now, flight.done - now,
          {{"batch", static_cast<double>(flight.batch.size())},
           {"plan_setup", look.setup_charge},
           {"cache_hit", look.hit ? 1.0 : 0.0},
           {"nic_scale", scale}});
    }
  }

  /// One pass of the former loop body at the current instant; true when
  /// a dispatch made the executor busy and the pass must be re-run (the
  /// old `continue`) before the next-event computation is valid.
  bool service_once() {
    // Seal telemetry windows up to the event instant before any of its
    // events are observed, so every observation at `now` lands in the
    // window containing `now` and alert evaluations never see the
    // future.
    if (tel.due(now)) handle_alerts(tel.advance(now));
    if (!up && restart_at <= now) {
      up = true;
      restart_at = kInf;
    }
    if (busy && flight.done <= now) finish_flight();
    if (busy) {
      const double scale = faults.nic_scale_at(now);
      if (scale != flight.scale) reprice(now, scale);
    }
    while (crash_idx < faults.crashes().size() &&
           faults.crashes()[crash_idx].at <= now) {
      crash(faults.crashes()[crash_idx]);
      ++crash_idx;
    }
    while (auto t = workload.peek()) {
      if (*t > now) break;
      admit(workload.pop());
    }
    while (!retry_q.empty() && retry_q.begin()->first <= now) {
      const std::uint64_t id = retry_q.begin()->second;
      retry_q.erase(retry_q.begin());
      auto it = retry_req.find(id);
      PARFFT_ASSERT(it != retry_req.end());
      Request r = it->second;
      retry_req.erase(it);
      admit(std::move(r));
    }
    if (up && !busy && !batcher.empty()) {
      // No more company can arrive once arrivals and retries are exhausted
      // (closed-loop clients only re-submit on completion), so waiting out
      // max_delay would be pure idle time: drain.
      const bool drain = workload.exhausted() && retry_q.empty();
      while (!busy && !batcher.empty()) {
        Batch b = batcher.pop(now, drain);
        if (b.size() == 0) break;
        std::vector<Request> keep;
        keep.reserve(b.requests.size());
        for (Request& r : b.requests) {
          // Each id has one copy, so whatever the batcher pops is live.
          PARFFT_PARANOID_ASSERT(queued(r.id));
          if (cfg().shed_expired && r.deadline > 0 && now >= r.deadline) {
            // Deadline-aware shedding: executing an already-late request
            // wastes capacity the queue behind it needs. Terminal -- no
            // retry can beat a deadline that has passed.
            live.erase(r.id);
            ++rep.shed;
            ++rep.failed;
            TenantAgg& ta = tenant_agg[r.tenant];
            ++ta.shed;
            ++ta.failed;
            tel.on_request(now, r.tenant, now - r.submitted,
                           /*completed=*/false);
            tel.flight(now, 0.0, obs::Category::Request, fl_shed, r.tenant,
                       /*critical=*/true);
            workload.on_complete(r, now);
            continue;
          }
          keep.push_back(r);
        }
        if (keep.empty()) continue;
        b.requests = std::move(keep);
        dispatch(std::move(b));
      }
      if (busy) return true;
    }
    return false;
  }

  void service() {
    while (service_once()) {
    }
  }

  /// The next instant any internal event fires (the former next-event
  /// computation); infinity when the engine is drained.
  double next_event() const {
    const bool work_pending = busy || !batcher.empty() ||
                              workload.peek().has_value() || !retry_q.empty();
    double next = kInf;
    if (busy) {
      next = flight.done;
      if (auto b = faults.next_degrade_boundary_after(now))
        next = std::min(next, *b);
    }
    if (auto t = workload.peek()) next = std::min(next, *t);
    if (!retry_q.empty()) next = std::min(next, retry_q.begin()->first);
    if (up && !busy && !batcher.empty())
      next = std::min(next, std::max(now, batcher.next_deadline()));
    if (!up && work_pending) next = std::min(next, restart_at);
    if (work_pending && crash_idx < faults.crashes().size())
      next = std::min(next, faults.crashes()[crash_idx].at);
    // Never report an event in the past: a feeder-fed shard that sat
    // idle through a scheduled crash fires it late, at the instant work
    // finally arrives, and the resulting restart_at can already be due.
    // Re-servicing the current instant handles it; standalone workloads
    // never take this path (arrivals are always visible via peek(), so
    // crashes fire on time).
    return next < now ? now : next;
  }

  ServeReport finalize() {
    PARFFT_ASSERT(batcher.empty() && !busy);
    PARFFT_ASSERT(retry_q.empty() && retry_req.empty() && live.empty());
    // External feeders only know their final offered count once the
    // driver has routed everything; standalone workloads report a
    // constant, so the refresh is a no-op for them.
    rep.offered = workload.offered();
    PARFFT_ASSERT(rep.completed + rep.failed + rep.cancelled == rep.offered);

    // A crash's scheduled downtime past the end of useful work is not
    // service time lost.
    if (!up) rep.downtime -= restart_at - now;

    rep.makespan = now;
    rep.throughput = rep.makespan > 0
                         ? static_cast<double>(rep.completed) / rep.makespan
                         : 0.0;
    rep.goodput = rep.makespan > 0
                      ? static_cast<double>(rep.deadline_met) / rep.makespan
                      : 0.0;
    rep.utilization = rep.makespan > 0 ? rep.busy_time / rep.makespan : 0.0;
    rep.mean_batch = rep.batches > 0 ? static_cast<double>(rep.completed) /
                                           static_cast<double>(rep.batches)
                                     : 0.0;
    rep.retry_amplification =
        rep.offered > 0
            ? static_cast<double>(rep.offered + rep.retries) /
                  static_cast<double>(rep.offered)
            : 0.0;
    rep.latency = summarize(lat_hist);
    rep.queue_wait = summarize(wait_hist);
    if (!rep.recovery_times.empty()) {
      double sum = 0;
      for (double v : rep.recovery_times) sum += v;
      rep.mean_recovery = sum / static_cast<double>(rep.recovery_times.size());
    }
    rep.cache_hits = cache().hits();
    rep.cache_misses = cache().misses();
    rep.cache_evictions = cache().evictions();
    rep.cache_invalidations = cache().invalidations();
    rep.setup_charged = cache().setup_charged();

    // Close out telemetry: seal every window the run spanned (plus the
    // exchange-phase link statistics core recorded, when tracing), then
    // lift the per-tenant sections into the report.
    if (run)
      for (const obs::ExchangeRecord& rec : run->exchanges())
        tel.observe_exchange(rec);
    handle_alerts(tel.advance(now));
    for (const auto& [tenant, ta] : tenant_agg) {
      TenantReport tr;
      tr.tenant = tenant;
      tr.offered = ta.offered;
      tr.completed = ta.completed;
      tr.failed = ta.failed;
      tr.cancelled = ta.cancelled;
      tr.shed = ta.shed;
      tr.latency = summarize(ta.lat);
      const obs::SloTarget target = tenant_target(tenant);
      if (target.latency > 0) {
        tr.slo_latency = target.latency;
        tr.slo_objective = target.objective;
        const std::uint64_t terminal = ta.completed + ta.failed;
        tr.attainment = terminal > 0 ? static_cast<double>(ta.in_slo) /
                                           static_cast<double>(terminal)
                                     : 1.0;
      }
      if (const auto it = tel.slos().find(tenant); it != tel.slos().end()) {
        tr.burn_short = it->second.burn_short();
        tr.burn_long = it->second.burn_long();
        tr.state = obs::alert_state_name(it->second.state());
      }
      for (const obs::AlertTransition& a : tel.alerts())
        if (a.tenant == tenant) ++tr.alerts;
      rep.tenants.push_back(std::move(tr));
    }
    rep.alert_log = tel.alerts();
    rep.flight_dumps = tel.flight_dumps();
    tel.write_snapshot_file();
    if (run) {
      // Fault windows as timeline spans (clipped to the run), so the
      // Perfetto view shows degraded/blackout stretches under the request
      // and transform tracks.
      for (const DegradeWindow& w : faults.degrades()) {
        if (w.begin >= rep.makespan) break;
        run->tracer.complete(0, obs::Category::Fault, "degraded", w.begin,
                             std::min(w.end, rep.makespan) - w.begin,
                             {{"nic_scale", w.nic_scale}});
      }
      for (const BlackoutWindow& w : faults.blackouts()) {
        if (w.begin >= rep.makespan) break;
        run->tracer.complete(0, obs::Category::Fault, "blackout", w.begin,
                             std::min(w.end, rep.makespan) - w.begin);
      }
    }
    PARFFT_IF_PARANOID(rep.verify());
    if (run) publish_metrics(run->metrics);
    return rep;
  }

  /// The run's serve/* trace metrics, all read off the finished report:
  /// the report is the one ledger and the registry a view of it. Counters
  /// that never fired are left out, so a fault-free summary lists no
  /// fault rows.
  void publish_metrics(obs::MetricsRegistry& m) const {
    m.counter("serve/completed").add(static_cast<double>(rep.completed));
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"serve/failed", rep.failed},     {"serve/cancelled", rep.cancelled},
        {"serve/rejected", rep.rejected}, {"serve/dropped", rep.dropped},
        {"serve/aborted", rep.aborted},   {"serve/shed", rep.shed},
        {"serve/retries", rep.retries},   {"serve/crashes", rep.crashes},
        {"serve/batches", rep.batches}};
    for (const auto& [name, n] : counts)
      if (n > 0) m.counter(name).add(static_cast<double>(n));
    // The cache totals span every run of this Server; the setup paid is
    // this run's share of them.
    const double setup = rep.setup_charged - setup_before;
    if (setup > 0) m.counter("serve/plan_setup_seconds").add(setup);
    m.gauge("serve/throughput").set(rep.throughput);
    m.gauge("serve/goodput").set(rep.goodput);
    m.gauge("serve/utilization").set(rep.utilization);
    m.gauge("serve/retry_amplification").set(rep.retry_amplification);
    m.gauge("serve/downtime_seconds").set(rep.downtime);
    m.gauge("serve/cache_hits").set(static_cast<double>(rep.cache_hits));
    m.gauge("serve/cache_misses").set(static_cast<double>(rep.cache_misses));
    for (double v : rep.latencies) m.observe("serve/latency_seconds", v);
    for (double v : rep.recovery_times) m.observe("serve/recovery_seconds", v);
  }
};

Server::Server(ServerConfig cfg, std::shared_ptr<PlanCatalog> catalog)
    : cfg_(std::move(cfg)),
      cache_(catalog ? std::move(catalog)
                     : std::make_shared<PlanCatalog>(cfg_.cluster),
             cfg_.cache_capacity, cfg_.cache_eviction_window) {
  PARFFT_CHECK(!cfg_.shapes.empty(), "server needs a non-empty shape catalog");
  for (const JobShape& s : cfg_.shapes)
    PARFFT_CHECK(shape_key(cache_.catalog().cluster, s) ==
                     shape_key(cfg_.cluster, s),
                 "server: plan catalog is bound to a different cluster");
  PARFFT_CHECK(cfg_.retry.max_attempts >= 1,
               "retry.max_attempts counts the first attempt; must be >= 1");
}

Server::~Server() = default;

void Server::begin(Workload& workload) {
  tel_ = std::make_unique<obs::Telemetry>(cfg_.telemetry);
  eng_ = std::make_unique<Engine>(*this, workload);
  eng_->service();
}

double Server::next_event_time() const {
  PARFFT_ASSERT(eng_ != nullptr);
  return eng_->next_event();
}

void Server::advance_to(double t) {
  PARFFT_ASSERT(eng_ != nullptr);
  PARFFT_ASSERT(t >= eng_->now);
  eng_->now = t;
  eng_->service();
}

double Server::now() const { return eng_ ? eng_->now : 0.0; }

bool Server::executor_up_at(double t) const {
  return eng_ ? (eng_->up || eng_->restart_at <= t) : true;
}

std::size_t Server::queue_depth() const {
  return eng_ ? eng_->batcher.pending() : 0;
}

std::size_t Server::in_flight() const {
  return eng_ && eng_->busy
             ? static_cast<std::size_t>(eng_->flight.batch.size())
             : 0;
}

bool Server::queued(std::uint64_t id) const {
  return eng_ != nullptr && eng_->queued(id);
}

bool Server::cancel_queued(std::uint64_t id, double t) {
  PARFFT_ASSERT(eng_ != nullptr);
  return eng_->cancel_queued(id, t);
}

void Server::set_batch_max_delay(double max_delay) {
  PARFFT_ASSERT(eng_ != nullptr);
  eng_->batcher.set_max_delay(max_delay);
}

ServeReport Server::finish() {
  PARFFT_ASSERT(eng_ != nullptr);
  ServeReport rep = eng_->finalize();
  eng_.reset();
  return rep;
}

ServeReport Server::run(Workload& workload) {
  begin(workload);
  while (true) {
    const double next = eng_->next_event();
    if (next == kInf) break;
    advance_to(next);
  }
  return finish();
}

}  // namespace parfft::serve
