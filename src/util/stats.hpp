// stats.hpp — descriptive statistics for measurement analysis.
//
// The paper presents its results as whisker (box) plots, histograms and
// averages (§6).  This module computes exactly those summaries: Tukey box
// statistics (quartiles, IQR fences, outliers), quantiles with linear
// interpolation, streaming moments (Welford), and the fixed-width bucket
// math behind the metrics layer's histograms.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace upin::util {

/// Streaming mean/variance accumulator (Welford's algorithm) — numerically
/// stable for long measurement campaigns.
class RunningMoments {
 public:
  void add(double sample) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile with linear interpolation between order statistics
/// (the "linear"/type-7 definition used by numpy and matplotlib).
/// `q` in [0,1].  Asserts on an empty sample.
[[nodiscard]] double quantile(std::span<const double> samples, double q);

[[nodiscard]] double mean(std::span<const double> samples);
[[nodiscard]] double stddev(std::span<const double> samples);
[[nodiscard]] double median(std::span<const double> samples);

/// Tukey box-plot statistics: quartiles, whiskers at the most extreme
/// samples within 1.5×IQR of the box, and the outliers beyond them.
struct BoxStats {
  std::size_t count = 0;
  double minimum = 0.0;
  double maximum = 0.0;
  double mean = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double iqr = 0.0;
  double whisker_low = 0.0;
  double whisker_high = 0.0;
  std::vector<double> outliers;
};

/// Compute box statistics.  Asserts on an empty sample.
[[nodiscard]] BoxStats box_stats(std::span<const double> samples);

/// Fixed-width bucket math of the metrics layer (obs::LatencyHistogram).  Samples outside [lo, lo + width*bins) are
/// clamped into the edge bins.  Non-finite input is guarded: NaN and -inf
/// land in bin 0, +inf in the last bin — the cast of an unbounded offset
/// to an index would otherwise be undefined behaviour.
[[nodiscard]] std::size_t bucket_index(double lo, double width,
                                       std::size_t bins,
                                       double sample) noexcept;

}  // namespace upin::util
