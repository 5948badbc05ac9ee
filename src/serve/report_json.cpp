/// \file report_json.cpp
/// ServeReport -> JSON. Kept apart from server.cpp: the event loop never
/// needs iostream formatting, and perf tooling (bench/perf_baseline,
/// tools/perfdiff) is the only consumer of this shape.

#include <ostream>

#include "serve/server.hpp"

namespace parfft::serve {

void write_latency_json(std::ostream& os, const char* key,
                        const LatencySummary& l) {
  os << '"' << key << "\":{\"min\":" << l.min << ",\"p50\":" << l.p50
     << ",\"p95\":" << l.p95 << ",\"p99\":" << l.p99
     << ",\"p999\":" << l.p999 << ",\"mean\":" << l.mean
     << ",\"max\":" << l.max << '}';
}

void ServeReport::write_json(std::ostream& os) const {
  os << '{';
  os << "\"offered\":" << offered << ",\"admitted\":" << admitted
     << ",\"completed\":" << completed << ",\"failed\":" << failed
     << ",\"cancelled\":" << cancelled
     << ",\"rejected\":" << rejected << ",\"dropped\":" << dropped
     << ",\"aborted\":" << aborted << ",\"shed\":" << shed
     << ",\"retries\":" << retries << ",\"crashes\":" << crashes
     << ",\"batches\":" << batches;
  os << ",\"makespan\":" << makespan << ",\"busy_time\":" << busy_time
     << ",\"downtime\":" << downtime << ",\"throughput\":" << throughput
     << ",\"goodput\":" << goodput << ",\"deadline_met\":" << deadline_met
     << ",\"utilization\":" << utilization << ",\"mean_batch\":" << mean_batch
     << ",\"retry_amplification\":" << retry_amplification;
  os << ',';
  write_latency_json(os, "latency", latency);
  os << ',';
  write_latency_json(os, "queue_wait", queue_wait);
  os << ",\"mean_recovery\":" << mean_recovery
     << ",\"recoveries\":" << recovery_times.size();
  os << ",\"cache_hits\":" << cache_hits
     << ",\"cache_misses\":" << cache_misses
     << ",\"cache_evictions\":" << cache_evictions
     << ",\"cache_invalidations\":" << cache_invalidations
     << ",\"setup_charged\":" << setup_charged;
  os << ",\"tenants\":[";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantReport& t = tenants[i];
    if (i) os << ',';
    os << "{\"tenant\":" << t.tenant << ",\"offered\":" << t.offered
       << ",\"completed\":" << t.completed << ",\"failed\":" << t.failed
       << ",\"cancelled\":" << t.cancelled << ",\"shed\":" << t.shed
       << ',';
    write_latency_json(os, "latency", t.latency);
    os << ",\"slo_latency\":" << t.slo_latency
       << ",\"slo_objective\":" << t.slo_objective
       << ",\"attainment\":" << t.attainment
       << ",\"burn_short\":" << t.burn_short
       << ",\"burn_long\":" << t.burn_long << ",\"state\":\"" << t.state
       << "\",\"alerts\":" << t.alerts << '}';
  }
  os << ']';
  os << ",\"alerts\":[";
  for (std::size_t i = 0; i < alert_log.size(); ++i) {
    const obs::AlertTransition& a = alert_log[i];
    if (i) os << ',';
    os << "{\"t\":" << a.t << ",\"tenant\":" << a.tenant << ",\"from\":\""
       << obs::alert_state_name(a.from) << "\",\"to\":\""
       << obs::alert_state_name(a.to)
       << "\",\"burn_short\":" << a.burn_short
       << ",\"burn_long\":" << a.burn_long << '}';
  }
  os << ']';
  os << ",\"flight_dumps\":" << flight_dumps.size();
  os << '}';
}

}  // namespace parfft::serve
