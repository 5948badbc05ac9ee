#include <array>
#include <map>
#include <ostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/export.hpp"

namespace parfft::obs {

namespace {

struct CategoryAgg {
  std::size_t count = 0;
  double total = 0;     ///< summed over every rank
  double max_rank = 0;  ///< busiest rank's per-rank total
};

}  // namespace

void write_run_summary(std::ostream& os, const RunTrace& run) {
  os << "== " << run.label() << " (" << run.nranks() << " ranks) ==\n\n";

  // Span breakdown per category.
  std::map<Category, CategoryAgg> agg;
  for (int r = 0; r < run.nranks(); ++r) {
    std::map<Category, double> rank_total;
    for (const Span& s : run.tracer.spans(r)) {
      CategoryAgg& a = agg[s.cat];
      ++a.count;
      a.total += s.dur;
      rank_total[s.cat] += s.dur;
    }
    for (const auto& [cat, t] : rank_total) {
      CategoryAgg& a = agg[cat];
      a.max_rank = std::max(a.max_rank, t);
    }
  }
  if (!agg.empty()) {
    Table t({"category", "spans", "total(all ranks)", "busiest rank"});
    for (const auto& [cat, a] : agg)
      t.add_row({category_name(cat), std::to_string(a.count),
                 format_time(a.total), format_time(a.max_rank)});
    t.print(os);
    os << "\n";
  }

  const auto counters = run.metrics.counters();
  if (!counters.empty()) {
    Table t({"counter", "value"});
    for (const auto& [name, v] : counters)
      t.add_row({name, name.find("bytes") != std::string::npos
                           ? format_bytes(v)
                           : format_fixed(v, 3)});
    t.print(os);
    os << "\n";
  }

  const auto gauges = run.metrics.gauges();
  if (!gauges.empty()) {
    Table t({"gauge", "value"});
    for (const auto& [name, v] : gauges) t.add_row({name, format_fixed(v, 4)});
    t.print(os);
    os << "\n";
  }

  const auto hists = run.metrics.histograms();
  if (!hists.empty()) {
    Table t({"histogram", "count", "min", "p50", "p99", "max"});
    for (const auto& [name, h] : hists) {
      const auto fmt = [&](double v) {
        if (name.find("bytes") != std::string::npos) return format_bytes(v);
        if (name.find("seconds") != std::string::npos) return format_time(v);
        return format_fixed(v, 2);
      };
      t.add_row({name, std::to_string(h.count()), fmt(h.min()),
                 fmt(h.quantile(0.50)), fmt(h.quantile(0.99)), fmt(h.max())});
    }
    t.print(os);
    os << "\n";
  }
}

}  // namespace parfft::obs
