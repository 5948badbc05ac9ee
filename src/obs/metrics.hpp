#pragma once
/// \file metrics.hpp
/// Minimal metrics registry: monotonically growing counters, last/peak
/// gauges and LogLinearHistogram distributions, keyed by name. The FFT
/// layers feed it with bytes sent per rank, message-size distributions,
/// reshape fan-out degrees and FlowSim link-utilization figures;
/// exporters render it as counter tracks (Chrome JSON) or summary tables.
///
/// All mutators are thread-safe: the registry serializes name lookup.
/// Counters and gauges use atomics, so a caller holding a reference
/// updates them without a lock; histograms are fed inside observe(),
/// under the registry mutex.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace parfft::obs {

namespace detail {
/// Portable atomic add for doubles (fetch_add on floating atomics is
/// C++20; CAS keeps us independent of library support).
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
inline void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// A monotonically accumulating value (bytes sent, calls made).
class Counter {
 public:
  void add(double v) { detail::atomic_add(v_, v); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// A point-in-time value; set() overwrites, set_max() keeps the peak.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void set_max(double v) { detail::atomic_max(v_, v); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Name -> metric map. Lookup creates on first use; returned references
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Feeds `x` into the named histogram, created on first use.
  void observe(const std::string& name, double x);

  /// Sorted (name, value) snapshots for exporters.
  std::vector<std::pair<std::string, double>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, LogLinearHistogram>> histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, LogLinearHistogram> histograms_;
};

}  // namespace parfft::obs
