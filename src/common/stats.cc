#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wimpy {

void OnlineStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void OnlineStats::Reset() { *this = OnlineStats(); }

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double PercentileTracker::Percentile(double q) const {
  // NaN, not 0: a zero p99 from an empty tracker would vacuously pass any
  // SLO gate. Callers that feed bench JSON must check empty() first.
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  // Only the two order statistics the interpolation reads are placed:
  // after nth_element everything past `lo` is >= it, so the next order
  // statistic is the minimum of that tail. Same values as a full sort.
  const auto lo_it = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples_.begin(), lo_it, samples_.end());
  const double lo_value = *lo_it;
  const double hi_value = lo_it + 1 == samples_.end()
                              ? lo_value
                              : *std::min_element(lo_it + 1, samples_.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

void TimeWeightedAverage::Set(double t, double value) {
  if (!has_start_) {
    has_start_ = true;
    start_time_ = t;
    last_time_ = t;
    value_ = value;
    return;
  }
  assert(t >= last_time_);
  integral_ += value_ * (t - last_time_);
  last_time_ = t;
  value_ = value;
}

double TimeWeightedAverage::IntegralUntil(double t) const {
  if (!has_start_) return 0.0;
  assert(t >= last_time_);
  return integral_ + value_ * (t - last_time_);
}

double TimeWeightedAverage::AverageUntil(double t) const {
  if (!has_start_) return 0.0;
  const double span = t - start_time_;
  if (span <= 0.0) return value_;
  return IntegralUntil(t) / span;
}

}  // namespace wimpy
