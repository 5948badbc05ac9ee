#pragma once
/// \file histogram.hpp
/// The repo's one quantile estimator. Every latency, size and count
/// distribution -- the MetricsRegistry histograms of a traced run, the
/// serve/cluster report summaries and the live telemetry windows -- is
/// a LogLinearHistogram, so their quantiles agree and all clamp to the
/// observed [min, max].

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace parfft::obs {

/// Streaming histogram with log-linear buckets: each power-of-two octave
/// of the value axis is split into `sub` equal linear sub-buckets, so a
/// bucket's relative width is at most 1/sub regardless of the value
/// range, and the bucket index is pure integer math on the double's bit
/// pattern -- deterministic across platforms. Values at or below `lo`
/// collapse into the `lo` bucket (below a microsecond is noise for this
/// repo's latencies, and a size or count that small is zero).
///
/// min(), max(), count() and sum() are exact. quantile() linearly
/// interpolates inside the winning bucket and clamps to the exact
/// observed [min, max], so no quantile ever exceeds the data and
/// quantile(q) is non-decreasing in q. Error: at most one bucket width,
/// i.e. 1/sub relative (3.1% at the default sub = 32) in the worst case;
/// on smooth populations the interpolation keeps it under 1/(2*sub).
///
/// Buckets live sparse in a flat vector sorted by index (a population
/// touches a few dozen buckets per octave at most), so observe() is a
/// binary search over contiguous ints -- nanoseconds, no tree nodes, no
/// per-observation allocation once a bucket exists.
class LogLinearHistogram {
 public:
  explicit LogLinearHistogram(double lo = 1e-6, int sub = 32);

  /// Inline and allocation-free once a bucket exists: the serve event
  /// loop calls this several times per request, so it must cost
  /// nanoseconds, not a libm call plus a tree walk.
  void observe(double x) {
    const int idx = bucket_index(x);
    // Sorted flat vector: binary search over contiguous ints.
    auto it = buckets_.begin();
    auto n = buckets_.size();
    while (n > 0) {
      const auto half = n / 2;
      if (it[static_cast<std::ptrdiff_t>(half)].first < idx) {
        it += static_cast<std::ptrdiff_t>(half + 1);
        n -= half + 1;
      } else {
        n = half;
      }
    }
    if (it != buckets_.end() && it->first == idx) {
      it->second += 1;
    } else {
      buckets_.insert(it, {idx, 1});
    }
    if (n_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }
    ++n_;
    sum_ += x;
  }

  /// Fold another histogram with identical (lo, sub) geometry into this.
  void merge(const LogLinearHistogram& other);
  void clear();

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Value below which a fraction `q` (in [0, 1]) of observations fall.
  /// Linear interpolation within the winning bucket; 0 when empty.
  double quantile(double q) const;

  /// Sorted (bucket lower bound, count) pairs, for exporters.
  std::vector<std::pair<double, std::uint64_t>> buckets() const;

  double lo() const { return lo_; }
  int sub() const { return sub_; }

 private:
  /// The log-linear bucket of `x`: octave (IEEE-754 exponent, as frexp
  /// would report it) times sub_, plus the linear sub-bucket from the
  /// top mantissa bits. Pure integer math on the double's bit pattern --
  /// deterministic across platforms and far cheaper than frexp. Requires
  /// lo_ normal (enforced in the constructor) so the clamp can never
  /// leave a subnormal behind.
  int bucket_index(double x) const {
    if (!(x > lo_)) x = lo_;  // also catches NaN
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    const int e = static_cast<int>((bits >> 52) & 0x7ffu) - 1022;
    const std::uint64_t frac = bits & 0xfffffffffffffULL;
    const int s =
        static_cast<int>((frac * static_cast<std::uint64_t>(sub_)) >> 52);
    return e * sub_ + s;
  }
  double bucket_lower(int idx) const;
  double bucket_upper(int idx) const;

  double lo_;
  int sub_;
  std::vector<std::pair<int, std::uint64_t>> buckets_;  ///< sorted by index
  std::uint64_t n_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace parfft::obs
