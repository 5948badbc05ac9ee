#include "obs/metrics.hpp"

namespace parfft::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

void MetricsRegistry::observe(const std::string& name, double x) {
  std::lock_guard lk(mu_);
  histograms_[name].observe(x);
}

std::vector<std::pair<std::string, double>> MetricsRegistry::counters() const {
  std::lock_guard lk(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  std::lock_guard lk(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, LogLinearHistogram>>
MetricsRegistry::histograms() const {
  std::lock_guard lk(mu_);
  return {histograms_.begin(), histograms_.end()};
}

}  // namespace parfft::obs
