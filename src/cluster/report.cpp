/// \file report.cpp
/// ClusterReport conservation checks and JSON export. Kept apart from
/// cluster.cpp: the router never needs iostream formatting, and the
/// verify() identities double as the subsystem's executable spec
/// (tests/test_invariants.cpp breaks each one on purpose).

#include <cmath>
#include <ostream>

#include "cluster/cluster.hpp"
#include "common/error.hpp"

namespace parfft::cluster {

void ClusterReport::verify() const {
  PARFFT_CHECK(machines >= 1, "cluster report: no machines");
  PARFFT_CHECK(per_machine.size() == static_cast<std::size_t>(machines),
               "cluster report: per-machine slice count != machines");

  std::uint64_t routed_sum = 0, completed_sum = 0, failed_sum = 0;
  std::uint64_t met_sum = 0, crash_sum = 0, warm_sum = 0, cancelled_sum = 0;
  for (const MachineSlice& s : per_machine) {
    // Every shard must satisfy the single-machine identities on its own
    // slice of traffic before the global ones can mean anything.
    s.report.verify();
    PARFFT_CHECK(s.routed == s.report.offered,
                 "cluster report: a shard's routed count != its offered");
    PARFFT_CHECK(s.warm_routed <= s.routed,
                 "cluster report: warm placements exceed placements");
    PARFFT_CHECK(s.report.makespan <= makespan,
                 "cluster report: a shard outran the cluster makespan");
    routed_sum += s.routed;
    completed_sum += s.report.completed;
    failed_sum += s.report.failed;
    met_sum += s.report.deadline_met;
    crash_sum += s.report.crashes;
    warm_sum += s.warm_routed;
    cancelled_sum += s.report.cancelled;
  }

  // Global admission conservation: every generated request was either
  // placed on exactly one shard or terminally shed at the front end,
  // and the shard totals roll up without loss or double counting. A
  // hedged request places TWICE but ends ONCE: shard placements exceed
  // distinct routed requests by exactly hedges_placed, and each pair's
  // surplus terminal outcome is suppressed as exactly one of wasted
  // (loser completed), cancelled (loser withdrawn while queued) or
  // duplicate-failed (loser failed). With the survival layer off every
  // hedge counter is zero and these are the original identities.
  PARFFT_CHECK(routed_sum == routed + hedges_placed,
               "cluster report: shard placements != routed + hedges placed");
  PARFFT_CHECK(offered == routed + frontend_shed,
               "cluster report: offered != routed + frontend shed");
  PARFFT_CHECK(completed_sum == completed + hedge_wasted,
               "cluster report: shard completions != completed + wasted");
  PARFFT_CHECK(cancelled_sum == hedge_cancelled,
               "cluster report: shard cancellations != hedge cancellations");
  PARFFT_CHECK(failed + hedge_dup_failed == failed_sum + frontend_shed,
               "cluster report: failed + duplicate failures != shard "
               "failures + frontend shed");
  PARFFT_CHECK(completed + failed == offered,
               "cluster report: completed + failed != offered");
  PARFFT_CHECK(hedges_placed ==
                   hedge_wasted + hedge_cancelled + hedge_dup_failed,
               "cluster report: a hedged pair without exactly one "
               "suppressed outcome");
  PARFFT_CHECK(hedge_wins <= hedges_placed,
               "cluster report: hedge wins exceed hedges placed");
  PARFFT_CHECK(brownout_shed <= frontend_shed,
               "cluster report: brownout shed exceeds frontend shed");
  PARFFT_CHECK(brownout_peak_stage >= 0 && brownout_peak_stage <= 3,
               "cluster report: brownout stage outside 0..3");
  PARFFT_CHECK(deadline_met <= completed,
               "cluster report: deadline_met exceeds completed");
  // The router counts a hedged pair's deadline from the winning copy;
  // shards additionally count wasted copies, so the shard sum brackets
  // the cluster figure (equality without hedging).
  PARFFT_CHECK(deadline_met <= met_sum &&
                   met_sum <= deadline_met + hedge_wasted,
               "cluster report: shard deadline_met outside hedge bounds");
  PARFFT_CHECK(crashes == crash_sum,
               "cluster report: crashes != sum over shards");
  PARFFT_CHECK(latencies.size() == completed,
               "cluster report: latency samples != completions");
  latency.verify("cluster report latency");

  PARFFT_CHECK(makespan >= 0, "cluster report: negative makespan");
  PARFFT_CHECK(affinity_hit_rate >= 0.0 && affinity_hit_rate <= 1.0,
               "cluster report: affinity hit rate outside [0, 1]");
  if (routed + hedges_placed > 0)
    PARFFT_CHECK(std::fabs(affinity_hit_rate -
                           static_cast<double>(warm_sum) /
                               static_cast<double>(routed + hedges_placed)) <
                     1e-9,
                 "cluster report: affinity hit rate != warm / placements");
  if (makespan > 0) {
    PARFFT_CHECK(std::fabs(throughput * makespan -
                           static_cast<double>(completed)) < 1e-6,
                 "cluster report: throughput inconsistent with completed");
    PARFFT_CHECK(std::fabs(goodput * makespan -
                           static_cast<double>(deadline_met)) < 1e-6,
                 "cluster report: goodput inconsistent with deadline_met");
  }
}

void ClusterReport::write_json(std::ostream& os) const {
  os << '{';
  os << "\"machines\":" << machines << ",\"placement\":\""
     << placement_name(placement) << '"';
  os << ",\"offered\":" << offered << ",\"routed\":" << routed
     << ",\"frontend_shed\":" << frontend_shed << ",\"spooled\":" << spooled
     << ",\"failovers\":" << failovers;
  os << ",\"completed\":" << completed << ",\"failed\":" << failed
     << ",\"deadline_met\":" << deadline_met << ",\"crashes\":" << crashes;
  os << ",\"makespan\":" << makespan << ",\"throughput\":" << throughput
     << ",\"goodput\":" << goodput
     << ",\"affinity_hit_rate\":" << affinity_hit_rate;
  os << ",\"hedges_placed\":" << hedges_placed
     << ",\"hedge_wins\":" << hedge_wins
     << ",\"hedge_wasted\":" << hedge_wasted
     << ",\"hedge_cancelled\":" << hedge_cancelled
     << ",\"hedge_dup_failed\":" << hedge_dup_failed;
  os << ",\"brownout_shed\":" << brownout_shed
     << ",\"brownout_peak_stage\":" << brownout_peak_stage
     << ",\"breaker_trips\":" << breaker_trips
     << ",\"breaker_probes\":" << breaker_probes;
  os << ",\"drains\":" << drains
     << ",\"drain_handovers\":" << drain_handovers
     << ",\"cache_preloads\":" << cache_preloads
     << ",\"affinity_repins\":" << affinity_repins;
  os << ',';
  serve::write_latency_json(os, "latency", latency);
  os << ",\"per_machine\":[";
  for (std::size_t i = 0; i < per_machine.size(); ++i) {
    const MachineSlice& s = per_machine[i];
    if (i) os << ',';
    os << "{\"machine\":" << s.machine << ",\"routed\":" << s.routed
       << ",\"warm_routed\":" << s.warm_routed << ",\"report\":";
    s.report.write_json(os);
    os << '}';
  }
  os << ']';
  os << ",\"survival_log\":[";
  for (std::size_t i = 0; i < survival_log.size(); ++i) {
    const SurvivalEvent& e = survival_log[i];
    if (i) os << ',';
    os << "{\"t\":" << e.t << ",\"machine\":" << e.machine << ",\"kind\":\""
       << e.kind << "\",\"detail\":\"" << e.detail << "\"}";
  }
  os << "]}";
}

}  // namespace parfft::cluster
