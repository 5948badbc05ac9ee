#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace parfft::obs {

LogLinearHistogram::LogLinearHistogram(double lo, int sub)
    : lo_(lo), sub_(sub) {
  // lo must be a normal double: bucket_index() reads the IEEE-754
  // exponent field directly, which is only the octave for normals.
  PARFFT_CHECK(lo >= 2.2250738585072014e-308,
               "log-linear histogram needs a normal lo > 0");
  PARFFT_CHECK(sub >= 1 && sub <= 2048,
               "log-linear histogram needs 1 <= sub <= 2048");
}

double LogLinearHistogram::bucket_lower(int idx) const {
  // Floor division so negative octaves (values < 1) round toward the
  // octave that produced them.
  int e = idx / sub_;
  int s = idx % sub_;
  if (s < 0) {
    s += sub_;
    e -= 1;
  }
  const double m = 0.5 + 0.5 * static_cast<double>(s) / static_cast<double>(sub_);
  return std::ldexp(m, e);
}

double LogLinearHistogram::bucket_upper(int idx) const {
  return bucket_lower(idx + 1);
}

void LogLinearHistogram::merge(const LogLinearHistogram& other) {
  PARFFT_CHECK(sub_ == other.sub_ &&
                   bucket_index(other.lo_) == bucket_index(lo_),
               "log-linear histogram merge needs identical geometry");
  for (const auto& [idx, c] : other.buckets_) {
    const auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), idx,
        [](const std::pair<int, std::uint64_t>& b, int i) {
          return b.first < i;
        });
    if (it != buckets_.end() && it->first == idx) {
      it->second += c;
    } else {
      buckets_.insert(it, {idx, c});
    }
  }
  if (other.n_ > 0) {
    if (n_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  n_ += other.n_;
  sum_ += other.sum_;
}

void LogLinearHistogram::clear() {
  buckets_.clear();
  n_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

double LogLinearHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n_);
  std::uint64_t cum = 0;
  for (const auto& [idx, c] : buckets_) {
    if (static_cast<double>(cum + c) >= target) {
      // Linear interpolation inside the winning bucket: assume its
      // observations are evenly spread over [lower, upper).
      const double lower = bucket_lower(idx);
      const double upper = bucket_upper(idx);
      const double within =
          c > 0 ? (target - static_cast<double>(cum)) / static_cast<double>(c)
                : 0.0;
      const double v = lower + within * (upper - lower);
      return std::clamp(v, min_, max_);
    }
    cum += c;
  }
  return max_;
}

std::vector<std::pair<double, std::uint64_t>> LogLinearHistogram::buckets()
    const {
  std::vector<std::pair<double, std::uint64_t>> out;
  out.reserve(buckets_.size());
  for (const auto& [idx, c] : buckets_) out.emplace_back(bucket_lower(idx), c);
  return out;
}

}  // namespace parfft::obs
