/// \file cluster.cpp
/// The cluster router: request placement across machine shards, global
/// admission, front-end fault handling, the survival layer (circuit
/// breakers, hedged cross-shard failover, brownout admission, rolling
/// drains) and the one virtual clock every shard advances on.
///
/// Scheduling discipline (the whole determinism argument): each outer
/// iteration finds the earliest pending instant t across (a) the global
/// workload's next arrival, (b) the spool's next release and (c) every
/// shard's next internal event -- plus, with the survival layer on,
/// pending drain starts, restart-hold expiries and hedge timers -- then
/// either routes everything due at t or advances the due shards to t,
/// never both in one pass, because handing a shard an arrival can
/// unlock an earlier internal event (a crash scheduled while the shard
/// sat idle) that must fire first. A shard is therefore never advanced
/// past an arrival it has not been handed, and a one-machine cluster
/// replays the standalone serve::Server event order exactly.
///
/// Hedged failover accounting: a hedged request has TWO shard-level
/// placements (the primary and one speculative copy on another shard)
/// but exactly ONE cluster-level outcome. Each copy is an ordinary
/// request to its shard -- shard conservation stays local -- and the
/// router classifies the pair's terminal callbacks: the first completion
/// is forwarded (first result wins, the still-queued loser is withdrawn
/// via Server::cancel_queued), every other outcome is suppressed as
/// wasted / cancelled / duplicate-failed, so hedges_placed ==
/// hedge_wasted + hedge_cancelled + hedge_dup_failed and the global
/// identity completed + failed == offered survives duplication.

#include "cluster/cluster.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/paranoid.hpp"
#include "common/random.hpp"
#include "obs/telemetry.hpp"

namespace parfft::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// An arrival held at the router through a front-end blackout
/// (AdmissionConfig::FrontendDown::Spool), re-admitted at `release`.
struct Spooled {
  serve::Request req;
  double release = 0;
};

/// The router-fed request source one shard's engine pulls from. Local
/// emptiness does not mean the run is over -- exhausted() consults the
/// global workload and the router's spool, so a shard idles (instead of
/// draining its batcher early) while more traffic can still be routed
/// its way.
class Feeder final : public serve::Workload {
 public:
  /// Terminal-outcome tap: (machine, request, now). When set, the router
  /// classifies every terminal outcome (breaker feedback, hedge
  /// duplicate suppression) before -- or instead of -- forwarding it to
  /// the global workload; when unset, outcomes forward directly.
  using Terminal = std::function<void(int, const serve::Request&, double)>;

  Feeder(serve::Workload& global, const std::deque<Spooled>& spool,
         int machine)
      : global_(&global), spool_(&spool), machine_(machine) {}

  void set_on_terminal(Terminal cb) { cb_ = std::move(cb); }

  /// Router-side: hand this shard an arrival (times non-decreasing).
  void push(serve::Request r) { q_.push_back(std::move(r)); }
  /// Routed but not yet admitted by the shard's engine.
  std::size_t backlog() const { return q_.size(); }

  std::optional<double> peek() const override {
    if (q_.empty()) return std::nullopt;
    return q_.front().arrival;
  }
  serve::Request pop() override {
    PARFFT_ASSERT(!q_.empty());
    serve::Request r = std::move(q_.front());
    q_.pop_front();
    return r;
  }
  void on_complete(const serve::Request& r, double now) override {
    if (cb_) {
      cb_(machine_, r, now);
      return;
    }
    global_->on_complete(r, now);
  }
  /// Requests routed here so far: the shard's offered count, so each
  /// shard's conservation identity stays local to what it was handed.
  std::uint64_t offered() const override { return routed_; }
  bool done() const override { return q_.empty(); }
  bool exhausted() const override {
    return q_.empty() && !global_->peek().has_value() && spool_->empty();
  }

  void count_routed() { ++routed_; }

 private:
  serve::Workload* global_;
  const std::deque<Spooled>* spool_;
  int machine_;
  Terminal cb_;
  std::deque<serve::Request> q_;
  std::uint64_t routed_ = 0;
};

/// A sticky shape-affinity pin. `home` is where the shape first landed
/// (and warmed); `current` is where placements go now -- they diverge
/// after a failover and re-converge when the home shard becomes
/// placeable again (SurvivalConfig::affinity_repin) or when a drain
/// hands the pin to a successor.
struct Pin {
  int current = 0;
  int home = 0;
};

/// Rolling-drain lifecycle of one machine.
enum class DrainPhase {
  None,      ///< normal placement
  Draining,  ///< no new placements; finishing queued + in-flight work
  Held,      ///< handover done; waiting out the restart hold
  Done,      ///< restarted and back in placement
};

/// A primary placement waiting for its hedge deadline.
struct PendingHedge {
  serve::Request req;  ///< the request as routed (pre-admission fields)
  int primary = 0;
};

/// One hedged pair's router-side state, kept until the run ends (ids
/// are unique, so stale entries are inert).
struct HedgeState {
  double first_arrival = 0;  ///< the original routed arrival (latency base)
  int primary = -1;
  int secondary = -1;
  bool forwarded = false;  ///< one outcome already counted + forwarded
  int terminals = 0;       ///< terminal callbacks seen for this id
};

}  // namespace

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::Hash: return "hash";
    case Placement::Load: return "load";
    case Placement::Affinity: return "affinity";
  }
  return "?";
}

struct Cluster::Shard {
  Shard(serve::ServerConfig cfg, std::shared_ptr<serve::PlanCatalog> catalog)
      : server(std::move(cfg), std::move(catalog)) {}

  serve::Server server;
  std::unique_ptr<Feeder> feeder;  ///< live during run()
  std::uint64_t routed = 0;        ///< this run (placements incl. hedges)
  std::uint64_t warm_routed = 0;   ///< this run
};

Cluster::Cluster(ClusterOptions opt)
    : opt_(std::move(opt)),
      catalog_(std::make_shared<serve::PlanCatalog>(opt_.shard.cluster)) {
  PARFFT_CHECK(opt_.machines >= 1, "cluster: need at least one machine");
  for (const DrainEvent& d : opt_.survival.drains)
    PARFFT_CHECK(d.machine >= 0 && d.machine < opt_.machines,
                 "cluster: drain event names a machine outside the cluster");
  for (int m = 0; m < opt_.machines; ++m) {
    serve::ServerConfig cfg = opt_.shard;
    const std::string mid = std::to_string(m);
    cfg.label = opt_.label;
    cfg.label += "/m";
    cfg.label += mid;
    cfg.faults = opt_.faults.machine(m);
    cfg.telemetry.machine = m;
    // Shards must not clobber one snapshot file; the combined document
    // goes to ClusterOptions::snapshot_path instead.
    cfg.telemetry.snapshot_path.clear();
    if (!cfg.telemetry.flight_path.empty()) {
      cfg.telemetry.flight_path += "m";
      cfg.telemetry.flight_path += mid;
      cfg.telemetry.flight_path += "_";
    }
    shards_.push_back(std::make_unique<Shard>(std::move(cfg), catalog_));
  }
}

Cluster::~Cluster() = default;

ClusterReport Cluster::run(serve::Workload& workload) {
  const int n = opt_.machines;
  const SurvivalConfig& surv = opt_.survival;
  const bool survival_on = surv.any();
  const bool breakers_on = surv.breaker.enabled;
  const bool hedging_on = surv.hedge.enabled;
  ClusterReport rep;
  rep.machines = n;
  rep.placement = opt_.placement;

  std::deque<Spooled> spool;
  /// Spool-pacing position per blackout window (keyed by window begin).
  std::map<double, std::size_t> spool_counts;
  std::map<int, Pin> affinity;  ///< shape_id -> pinned shard
  double clock = 0;

  for (int m = 0; m < n; ++m) {
    Shard& s = *shards_[m];
    s.feeder = std::make_unique<Feeder>(workload, spool, m);
    s.routed = 0;
    s.warm_routed = 0;
    s.server.begin(*s.feeder);
  }

  // ---- Survival-layer state -------------------------------------------
  // Every transition goes through log_transition: appended to the run's
  // survival log AND emitted as a critical obs Alert flight event on the
  // affected machine (all machines for cluster-wide brownout changes).
  auto log_transition = [&](double t, int machine, const char* kind,
                            const std::string& detail) {
    rep.survival_log.push_back({t, machine, kind, detail});
    std::string name = kind;
    name += ": ";
    name += detail;
    if (machine >= 0) {
      if (obs::Telemetry* tp = shards_[machine]->server.telemetry_mut())
        tp->flight(t, 0.0, obs::Category::Alert, name, /*tenant=*/-1,
                   /*critical=*/true);
      return;
    }
    for (auto& s : shards_)
      if (obs::Telemetry* tp = s->server.telemetry_mut())
        tp->flight(t, 0.0, obs::Category::Alert, name, /*tenant=*/-1,
                   /*critical=*/true);
  };

  std::vector<ShardBreaker> breakers;
  if (breakers_on) {
    breakers.reserve(static_cast<std::size_t>(n));
    for (int m = 0; m < n; ++m) breakers.emplace_back(surv.breaker, m);
    for (int m = 0; m < n; ++m)
      breakers[static_cast<std::size_t>(m)].on_transition =
          [&, m](double t, BreakerState from, BreakerState to) {
            std::string detail = breaker_state_name(from);
            detail += " -> ";
            detail += breaker_state_name(to);
            log_transition(t, m, "breaker", detail);
            if (to == BreakerState::Open) ++rep.breaker_trips;
          };
  }
  auto breaker_at = [&](int m) -> ShardBreaker& {
    return breakers[static_cast<std::size_t>(m)];
  };
  // A shard whose own SLO monitors page is sick even before it produces
  // hard failures: fence it off.
  auto paging = [&](int m) {
    const obs::Telemetry* tp = shards_[m]->server.telemetry();
    if (!tp) return false;
    for (const auto& [tenant, mon] : tp->slos())
      if (mon.state() == obs::AlertState::Page) return true;
    return false;
  };

  BrownoutController brownout(surv.brownout);
  const double base_delay = opt_.shard.batching.max_delay;
  brownout.on_transition = [&](double t, int from, int to) {
    std::string detail = "stage ";
    detail += std::to_string(from);
    detail += " -> ";
    detail += std::to_string(to);
    log_transition(t, /*machine=*/-1, "brownout", detail);
    // Stage 2 trades batching efficiency for deadline headroom: shrink
    // every shard's coalescing window while the burn is this bad.
    if (from < 2 && to >= 2)
      for (auto& s : shards_)
        s->server.set_batch_max_delay(base_delay *
                                      surv.brownout.batch_delay_factor);
    if (from >= 2 && to < 2)
      for (auto& s : shards_) s->server.set_batch_max_delay(base_delay);
    rep.brownout_peak_stage = std::max(rep.brownout_peak_stage, to);
  };
  // The burn signal: worst tenant across all shards, min of the short
  // and long windows (the same two-window rule the SLO pager uses, so
  // brownout and paging agree on what "on fire" means). Inert (0) when
  // telemetry or SLO targets are off.
  auto aggregate_burn = [&]() {
    double worst = 0;
    for (auto& s : shards_) {
      const obs::Telemetry* tp = s->server.telemetry();
      if (!tp) continue;
      for (const auto& [tenant, mon] : tp->slos())
        worst = std::max(worst, std::min(mon.burn_short(), mon.burn_long()));
    }
    return worst;
  };

  std::vector<DrainPhase> phase(static_cast<std::size_t>(n),
                                DrainPhase::None);
  std::vector<double> hold_until(static_cast<std::size_t>(n), kInf);
  std::vector<double> drain_hold(static_cast<std::size_t>(n), 0);
  std::vector<int> drain_succ(static_cast<std::size_t>(n), -1);
  std::vector<DrainEvent> drain_sched = surv.drains;
  std::stable_sort(drain_sched.begin(), drain_sched.end(),
                   [](const DrainEvent& a, const DrainEvent& b) {
                     return a.at < b.at;
                   });
  std::size_t drain_idx = 0;
  auto draining = [&](int m) {
    const DrainPhase p = phase[static_cast<std::size_t>(m)];
    return p == DrainPhase::Draining || p == DrainPhase::Held;
  };

  // Pending hedge timers keyed (fire time, id); hedged-pair state by id.
  std::map<std::pair<double, std::uint64_t>, PendingHedge> hedge_timers;
  std::map<std::uint64_t, HedgeState> hedge_state;
  // Set around a Server::cancel_queued call so the re-entrant terminal
  // callback it triggers is classified as the hedge cancellation it is.
  std::optional<std::uint64_t> cancelling;

  // ---- Placement ------------------------------------------------------
  // A machine takes new placements while its executor is (or will be,
  // by the restart already scheduled) up at t and it is not inside its
  // own blackout window.
  auto healthy = [&](int m, double t) {
    return shards_[m]->server.executor_up_at(t) &&
           !opt_.faults.machine(m).in_blackout(t);
  };
  // Queue depth the router sees: batcher backlog plus requests routed
  // but not yet admitted by the shard's engine.
  auto depth = [&](int m) {
    return shards_[m]->server.queue_depth() + shards_[m]->feeder->backlog();
  };
  auto load = [&](int m) { return depth(m) + shards_[m]->server.in_flight(); };
  // Placement gate: healthy, not draining, and (when breakers are on)
  // admitted by the shard's breaker. A paging shard's closed breaker
  // trips here, at placement time -- before the placement lands.
  auto placeable = [&](int m, double t, std::uint64_t id) {
    if (!healthy(m, t) || draining(m)) return false;
    if (!breakers_on) return true;
    if (surv.breaker.trip_on_page &&
        breaker_at(m).state() == BreakerState::Closed && paging(m))
      breaker_at(m).trip(t);
    return breaker_at(m).allows(t, id);
  };
  // Least-loaded machine, lowest id on ties, degrading through four
  // candidate classes: placeable; healthy but breaker-blocked; not
  // draining; anyone (the request queues there and waits out the
  // recovery, exactly as a standalone server would). With the survival
  // layer off the first and last classes are the original two.
  auto least_loaded = [&](double t, std::uint64_t id) {
    int best = -1;
    std::size_t best_load = 0;
    for (int pass = 0; pass < 4 && best < 0; ++pass)
      for (int m = 0; m < n; ++m) {
        if (pass == 0 && !placeable(m, t, id)) continue;
        if (pass == 1 && (!healthy(m, t) || draining(m))) continue;
        if (pass == 2 && draining(m)) continue;
        if (best < 0 || load(m) < best_load) {
          best = m;
          best_load = load(m);
        }
      }
    return best;
  };

  const bool repin_on = survival_on && surv.affinity_repin;
  auto pick = [&](const serve::Request& r, double t) {
    switch (opt_.placement) {
      case Placement::Hash: {
        // SplitMix-mixed id so adjacent ids spray, modulo machine count.
        const int h = static_cast<int>(Rng(r.id).split(0).seed() %
                                       static_cast<std::uint64_t>(n));
        if (placeable(h, t, r.id)) return h;
        for (int k = 1; k < n; ++k) {
          const int m = (h + k) % n;
          if (placeable(m, t, r.id)) {
            ++rep.failovers;
            return m;
          }
        }
        // No placeable machine: fall back to any healthy non-draining
        // one (breaker-blocked beats down), else stay put and wait out
        // recovery.
        for (int k = 0; k < n; ++k) {
          const int m = (h + k) % n;
          if (healthy(m, t) && !draining(m)) {
            if (m != h) ++rep.failovers;
            return m;
          }
        }
        return h;
      }
      case Placement::Load:
        return least_loaded(t, r.id);
      case Placement::Affinity: {
        if (auto it = affinity.find(r.shape_id); it != affinity.end()) {
          Pin& p = it->second;
          // A pin driven off its home by a failover returns the moment
          // the home shard is placeable again: the home cache is still
          // the warmest (or gets re-warmed fastest), and without the
          // re-pin a recovered machine never wins its traffic back.
          if (repin_on && p.current != p.home && placeable(p.home, t, r.id)) {
            p.current = p.home;
            ++rep.affinity_repins;
            log_transition(t, p.home, "affinity",
                           "shape " + std::to_string(r.shape_id) +
                               " re-pinned to home shard");
          }
          if (placeable(p.current, t, r.id)) return p.current;
          const int m = least_loaded(t, r.id);
          if (m != p.current && placeable(m, t, r.id)) {
            // Re-pin: the failover target warms this shape up, so the
            // pin follows the plans (home remembers where it came from).
            ++rep.failovers;
            p.current = m;
          }
          return p.current;
        }
        const int m = least_loaded(t, r.id);
        affinity.emplace(r.shape_id, Pin{m, m});
        return m;
      }
    }
    return 0;
  };

  auto place_on = [&](int m, serve::Request r) {
    Shard& s = *shards_[m];
    if (s.server.plan_cache().warm(s.server.config().shapes[r.shape_id]))
      ++s.warm_routed;
    ++s.routed;
    if (breakers_on && breaker_at(m).state() == BreakerState::HalfOpen) {
      breaker_at(m).record_probe();
      ++rep.breaker_probes;
    }
    s.feeder->count_routed();
    s.feeder->push(std::move(r));
  };

  auto place = [&](serve::Request r, double t) {
    const int m = pick(r, t);
    // Arm the hedge timer at placement: if the request is still queued
    // on m when it fires, a copy goes to another shard.
    if (hedging_on)
      hedge_timers.emplace(std::make_pair(t + surv.hedge.hedge_after, r.id),
                           PendingHedge{r, m});
    place_on(m, std::move(r));
  };

  auto route = [&](serve::Request r, double t) {
    const serve::FaultPlan& fe = opt_.faults.frontend();
    if (fe.in_blackout(t)) {
      if (opt_.admission.frontend_down ==
          AdmissionConfig::FrontendDown::Spool) {
        double release = t;
        for (const serve::BlackoutWindow& w : fe.blackouts())
          if (w.begin <= t && t < w.end) {
            release = w.end;
            // Paced re-admission: the k-th request spooled in this
            // window releases in batch k / spool_drain_batch, one
            // spool_drain_interval apart, instead of the whole spool
            // landing as one burst at the blackout's end (which blows
            // through the very queue limits admission is there to
            // protect). Releases are non-decreasing within the window,
            // so the spool deque stays ordered.
            if (opt_.admission.spool_drain_batch > 0) {
              const std::size_t k = spool_counts[w.begin]++;
              release += static_cast<double>(
                             k / opt_.admission.spool_drain_batch) *
                         opt_.admission.spool_drain_interval;
            }
            break;
          }
        r.arrival = release;
        ++rep.spooled;
        spool.push_back({std::move(r), release});
        return;
      }
      ++rep.frontend_shed;
      workload.on_complete(r, t);
      return;
    }
    if (surv.brownout.enabled) {
      // Staged brownout: stage 1 sheds low-priority tenants, stage 2
      // additionally shrinks batching delay (in the stage-transition
      // hook), stage 3 sheds everything. Hysteresis lives in the
      // controller.
      const int stage = brownout.evaluate(t, aggregate_burn());
      if (stage >= 3 ||
          (stage >= 1 && r.tenant >= surv.brownout.low_priority_from)) {
        ++rep.frontend_shed;
        ++rep.brownout_shed;
        workload.on_complete(r, t);
        return;
      }
    }
    if (opt_.admission.global_queue_limit > 0) {
      std::size_t total = 0;
      for (int m = 0; m < n; ++m) total += depth(m);
      if (total >= opt_.admission.global_queue_limit) {
        ++rep.frontend_shed;
        workload.on_complete(r, t);
        return;
      }
    }
    place(std::move(r), t);
  };

  // ---- Terminal-outcome classification --------------------------------
  // Installed on every feeder when the survival layer is on. Feeds the
  // breakers, and -- when hedging -- counts cluster-level outcomes here
  // (first result of a hedged pair wins; the rest are suppressed) rather
  // than by summing shard reports, which would double-count pairs.
  if (survival_on) {
    auto on_terminal = [&](int machine, const serve::Request& r, double now) {
      const bool is_cancel = cancelling && *cancelling == r.id;
      if (breakers_on && !is_cancel) {
        if (r.completion >= 0)
          breaker_at(machine).on_success(now);
        else
          breaker_at(machine).on_failure(now);
      }
      if (!hedging_on) {
        workload.on_complete(r, now);
        return;
      }
      if (is_cancel) {
        // The loser of a hedged pair, withdrawn while queued; the
        // winner was already forwarded.
        ++rep.hedge_cancelled;
        return;
      }
      const auto hs = hedge_state.find(r.id);
      if (hs == hedge_state.end()) {
        // Not hedged: the shard outcome IS the cluster outcome.
        if (r.completion >= 0) {
          ++rep.completed;
          if (r.met_deadline()) ++rep.deadline_met;
          rep.latencies.push_back(r.latency());
        } else {
          ++rep.failed;
        }
        workload.on_complete(r, now);
        return;
      }
      HedgeState& h = hs->second;
      ++h.terminals;
      if (r.completion >= 0) {
        if (h.forwarded) {
          // Both copies ran to completion; the second result is
          // discarded (the duplicated work is the price of the hedge).
          ++rep.hedge_wasted;
          return;
        }
        h.forwarded = true;
        if (machine == h.secondary) ++rep.hedge_wins;
        ++rep.completed;
        if (r.met_deadline()) ++rep.deadline_met;
        // Cluster-level latency runs from the ORIGINAL routed arrival,
        // not the copy's re-anchored submission -- hedging must not
        // flatter the tail by resetting the clock.
        rep.latencies.push_back(now - h.first_arrival);
        workload.on_complete(r, now);
        const int other = machine == h.primary ? h.secondary : h.primary;
        if (other >= 0 && shards_[other]->server.queued(r.id)) {
          cancelling = r.id;
          shards_[other]->server.cancel_queued(r.id, now);
          cancelling.reset();
        }
        return;
      }
      if (h.forwarded || h.terminals < 2) {
        // A failed copy whose sibling already won, or whose sibling is
        // still in play: not a cluster-level failure.
        ++rep.hedge_dup_failed;
        return;
      }
      // Both copies failed: the second failure is the pair's outcome.
      ++rep.failed;
      workload.on_complete(r, now);
    };
    for (auto& s : shards_) s->feeder->set_on_terminal(on_terminal);
  }

  // ---- Main loop ------------------------------------------------------
  while (true) {
    double t = kInf;
    if (auto a = workload.peek()) t = std::min(t, *a);
    if (!spool.empty()) t = std::min(t, spool.front().release);
    for (auto& s : shards_) t = std::min(t, s->server.next_event_time());
    if (drain_idx < drain_sched.size())
      t = std::min(t, drain_sched[drain_idx].at);
    for (int m = 0; m < n; ++m)
      if (phase[static_cast<std::size_t>(m)] == DrainPhase::Held)
        t = std::min(t, hold_until[static_cast<std::size_t>(m)]);
    // Hedge timers never extend the run: once nothing else is pending,
    // no request can still be queued anywhere and every timer is stale.
    if (t == kInf) break;
    if (hedging_on && !hedge_timers.empty())
      t = std::min(t, hedge_timers.begin()->first.first);
    clock = std::max(clock, t);

    // Drain lifecycle first: placement decisions at t must already see
    // a machine that starts draining (or rejoins) at t.
    while (drain_idx < drain_sched.size() && drain_sched[drain_idx].at <= t) {
      const DrainEvent& d = drain_sched[drain_idx++];
      auto& ph = phase[static_cast<std::size_t>(d.machine)];
      if (ph != DrainPhase::None) continue;  // one drain per machine per run
      ph = DrainPhase::Draining;
      drain_hold[static_cast<std::size_t>(d.machine)] = d.restart_hold;
      drain_succ[static_cast<std::size_t>(d.machine)] = d.successor;
      ++rep.drains;
      log_transition(t, d.machine, "drain",
                     "placement stopped; draining in-flight work");
    }
    for (int m = 0; m < n; ++m) {
      auto& ph = phase[static_cast<std::size_t>(m)];
      if (ph == DrainPhase::Held &&
          hold_until[static_cast<std::size_t>(m)] <= t) {
        ph = DrainPhase::Done;
        hold_until[static_cast<std::size_t>(m)] = kInf;
        log_transition(t, m, "drain", "restart hold over; rejoined placement");
      }
    }
    // Handover: a draining machine that has finished everything hands
    // its sticky pins and plan-cache warm list to a successor, then
    // holds out for the restart window.
    for (int m = 0; m < n; ++m) {
      if (phase[static_cast<std::size_t>(m)] != DrainPhase::Draining)
        continue;
      Shard& s = *shards_[m];
      if (s.feeder->backlog() > 0 || s.server.queue_depth() > 0 ||
          s.server.in_flight() > 0)
        continue;
      int succ = drain_succ[static_cast<std::size_t>(m)];
      if (succ == m || succ >= n ||
          (succ >= 0 && (!healthy(succ, t) || draining(succ))))
        succ = -1;
      if (succ < 0) {
        std::size_t succ_load = 0;
        for (int k = 0; k < n; ++k) {
          if (k == m || !healthy(k, t) || draining(k)) continue;
          if (succ < 0 || load(k) < succ_load) {
            succ = k;
            succ_load = load(k);
          }
        }
      }
      std::uint64_t moved = 0, preloaded = 0;
      if (succ >= 0) {
        for (auto& [shape, pin] : affinity)
          if (pin.current == m) {
            pin.current = succ;
            ++moved;
          }
        rep.drain_handovers += moved;
        // MRU-first so the successor inherits the hottest plans even if
        // its cache fills before the list is exhausted.
        for (const serve::JobShape& shape :
             s.server.plan_cache().resident_shapes())
          if (shards_[succ]->server.plan_cache_mut().preload(shape)) {
            ++preloaded;
            ++rep.cache_preloads;
          }
      }
      // The restart loses device state either way.
      s.server.plan_cache_mut().invalidate_all();
      phase[static_cast<std::size_t>(m)] = DrainPhase::Held;
      hold_until[static_cast<std::size_t>(m)] =
          t + drain_hold[static_cast<std::size_t>(m)];
      std::string detail = "drained; handed ";
      detail += std::to_string(moved);
      detail += " pins / ";
      detail += std::to_string(preloaded);
      detail += " plans to ";
      detail += succ >= 0 ? "m" + std::to_string(succ) : "nobody";
      log_transition(t, m, "drain", detail);
    }

    // Route everything due at t before advancing anyone: a shard must
    // never move past an arrival it has not been handed.
    bool routed_any = false;
    while (!spool.empty() && spool.front().release <= t) {
      Spooled sp = std::move(spool.front());
      spool.pop_front();
      route(std::move(sp.req), sp.release);
      routed_any = true;
    }
    while (true) {
      const std::optional<double> a = workload.peek();
      if (!a || *a > t) break;
      route(workload.pop(), *a);
      routed_any = true;
    }
    // Due hedge timers: a request still queued on its primary past the
    // hedge deadline gets a speculative copy on the least-loaded OTHER
    // placeable shard; stale timers (dispatched, terminal, never
    // admitted) just drop out.
    while (hedging_on && !hedge_timers.empty() &&
           hedge_timers.begin()->first.first <= t) {
      auto node = hedge_timers.extract(hedge_timers.begin());
      const PendingHedge& ph = node.mapped();
      const std::uint64_t id = node.key().second;
      if (!shards_[ph.primary]->server.queued(id)) continue;
      int sec = -1;
      std::size_t sec_load = 0;
      for (int m = 0; m < n; ++m) {
        if (m == ph.primary || !placeable(m, t, id)) continue;
        if (sec < 0 || load(m) < sec_load) {
          sec = m;
          sec_load = load(m);
        }
      }
      if (sec < 0) continue;  // nowhere better to run the copy
      serve::Request c = ph.req;
      c.arrival = t;
      c.submitted = -1;
      c.dispatch = -1;
      c.completion = -1;
      c.attempt = 1;
      hedge_state.emplace(
          id, HedgeState{ph.req.arrival, ph.primary, sec, false, 0});
      ++rep.hedges_placed;
      place_on(sec, std::move(c));
      routed_any = true;
    }
    // Routing can unlock a shard event earlier than t (a crash scheduled
    // while the shard sat idle with nothing pending); recompute the
    // horizon before advancing anyone.
    if (routed_any) continue;

    for (auto& s : shards_) {
      if (s->server.next_event_time() <= t) {
        s->server.advance_to(t);
        // Clock-skew invariants: a serviced shard sits exactly on the
        // chosen instant and never runs ahead of the router's clock.
        PARFFT_PARANOID_ASSERT(s->server.now() == t);
        PARFFT_PARANOID_ASSERT(s->server.now() <= clock);
      }
    }
  }
  PARFFT_ASSERT(spool.empty());

  rep.offered = workload.offered();
  std::uint64_t placements = 0, warm = 0;
  for (int m = 0; m < n; ++m) {
    Shard& s = *shards_[m];
    serve::ServeReport sr = s.server.finish();
    s.feeder.reset();

    MachineSlice slice;
    slice.machine = m;
    slice.routed = s.routed;
    slice.warm_routed = s.warm_routed;
    placements += s.routed;
    warm += s.warm_routed;
    if (!hedging_on) {
      // Without hedging every shard outcome is a distinct request, so
      // the cluster totals are plain shard sums (the original
      // aggregation, byte-identical). With hedging they were counted by
      // the terminal classifier above, pair-deduplicated.
      rep.completed += sr.completed;
      rep.failed += sr.failed;
      rep.deadline_met += sr.deadline_met;
      rep.latencies.insert(rep.latencies.end(), sr.latencies.begin(),
                           sr.latencies.end());
    }
    rep.crashes += sr.crashes;
    rep.makespan = std::max(rep.makespan, sr.makespan);
    slice.report = std::move(sr);
    rep.per_machine.push_back(std::move(slice));
  }
  rep.routed = placements - rep.hedges_placed;
  rep.failed += rep.frontend_shed;
  rep.makespan = std::max(rep.makespan, clock);
  rep.throughput = rep.makespan > 0
                       ? static_cast<double>(rep.completed) / rep.makespan
                       : 0.0;
  rep.goodput = rep.makespan > 0
                    ? static_cast<double>(rep.deadline_met) / rep.makespan
                    : 0.0;
  rep.affinity_hit_rate =
      placements > 0
          ? static_cast<double>(warm) / static_cast<double>(placements)
          : 0.0;
  obs::LogLinearHistogram lat;
  for (double v : rep.latencies) lat.observe(v);
  rep.latency = serve::summarize(lat);

  PARFFT_IF_PARANOID(rep.verify());

  if (!opt_.snapshot_path.empty()) {
    std::ofstream f(opt_.snapshot_path);
    std::string msg = "cluster: cannot open snapshot path ";
    msg += opt_.snapshot_path;
    PARFFT_CHECK(static_cast<bool>(f), msg);
    write_snapshot(f);
  }
  return rep;
}

void Cluster::write_snapshot(std::ostream& os) const {
  std::vector<const obs::Telemetry*> tels;
  for (const auto& s : shards_)
    if (s->server.telemetry()) tels.push_back(s->server.telemetry());
  obs::write_cluster_snapshot(os, tels);
}

}  // namespace parfft::cluster
