#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wmlp {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const int64_t n = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(n);
  mean_ += delta * static_cast<double>(other.count_) / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = n;
}

double RunningStat::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStat::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::ci95_halfwidth() const {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double StdDev(std::span<const double> xs) {
  RunningStat rs;
  for (double x : xs) rs.Add(x);
  return rs.stddev();
}

double Percentile(std::vector<double> xs, double q) {
  WMLP_CHECK(!xs.empty());
  WMLP_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double GeoMean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double logsum = 0.0;
  for (double x : xs) {
    WMLP_CHECK(x > 0.0);
    logsum += std::log(x);
  }
  return std::exp(logsum / static_cast<double>(xs.size()));
}

double BucketQuantile(std::span<const uint64_t> counts,
                      std::span<const double> bounds, bool pow2, double q) {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double c = static_cast<double>(counts[b]);
    if (seen + c >= target) {
      double lo = 0.0;
      double hi = 0.0;
      if (pow2) {
        lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
        hi = std::ldexp(1.0, static_cast<int>(b) + 1);
      } else {
        lo = b == 0 ? 0.0 : bounds[b - 1];
        // The overflow bucket has no upper edge: report its lower edge.
        hi = b < bounds.size() ? bounds[b] : lo;
      }
      const double frac = (target - seen) / c;
      return lo + frac * (hi - lo);
    }
    seen += c;
  }
  return 0.0;  // unreachable: the last non-empty bucket reaches the total
}

}  // namespace wmlp
