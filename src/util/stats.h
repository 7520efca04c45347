// Streaming and batch statistics used by the experiment harness.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace wmlp {

// Welford's online algorithm: numerically stable mean/variance.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  int64_t count() const { return count_; }
  double mean() const;
  double variance() const;  // sample variance (n-1); 0 if count < 2
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  // Half-width of the ~95% normal confidence interval for the mean.
  double ci95_halfwidth() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Batch helpers.
double Mean(std::span<const double> xs);
double StdDev(std::span<const double> xs);
// q in [0, 1]; linear interpolation between order statistics.
double Percentile(std::vector<double> xs, double q);
// Geometric mean; all xs must be > 0.
double GeoMean(std::span<const double> xs);

// The one bucket-quantile rule for every histogram in the tree
// (LatencyHistogram, the time-series sampler's window deltas, wmlp_stats).
// Bucket edges: with `pow2`, bucket b holds [2^b, 2^{b+1}) and bucket 0
// starts at 0 (`bounds` unused); otherwise bucket b holds
// (bounds[b-1], bounds[b]], bucket 0 starts at 0, and the last bucket is
// the overflow above bounds.back(). The rank q * total (q clamped to
// [0, 1]) falls in the first non-empty bucket whose cumulative count
// reaches it, and the result interpolates linearly across that bucket.
// The overflow bucket has no upper edge, so it reports its lower edge.
// Returns 0 when every bucket is empty.
double BucketQuantile(std::span<const uint64_t> counts,
                      std::span<const double> bounds, bool pow2, double q);

}  // namespace wmlp
