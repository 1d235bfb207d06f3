#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace upin::util {

void RunningMoments::add(double sample) noexcept {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double RunningMoments::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningMoments::stddev() const noexcept {
  return std::sqrt(variance());
}

double quantile(std::span<const double> samples, double q) {
  assert(!samples.empty());
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[upper] - sorted[lower]);
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double stddev(std::span<const double> samples) {
  RunningMoments moments;
  for (const double s : samples) moments.add(s);
  return moments.stddev();
}

double median(std::span<const double> samples) {
  return quantile(samples, 0.5);
}

BoxStats box_stats(std::span<const double> samples) {
  assert(!samples.empty());
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());

  BoxStats stats;
  stats.count = sorted.size();
  stats.minimum = sorted.front();
  stats.maximum = sorted.back();
  stats.mean = mean(sorted);
  stats.q1 = quantile(sorted, 0.25);
  stats.median = quantile(sorted, 0.5);
  stats.q3 = quantile(sorted, 0.75);
  stats.iqr = stats.q3 - stats.q1;

  const double fence_low = stats.q1 - 1.5 * stats.iqr;
  const double fence_high = stats.q3 + 1.5 * stats.iqr;

  // Whiskers reach the most extreme samples inside the fences.
  stats.whisker_low = stats.q1;
  stats.whisker_high = stats.q3;
  for (const double s : sorted) {
    if (s >= fence_low) {
      stats.whisker_low = s;
      break;
    }
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= fence_high) {
      stats.whisker_high = *it;
      break;
    }
  }
  for (const double s : sorted) {
    if (s < fence_low || s > fence_high) stats.outliers.push_back(s);
  }
  return stats;
}

std::size_t bucket_index(double lo, double width, std::size_t bins,
                         double sample) noexcept {
  if (bins == 0) return 0;
  if (std::isnan(sample)) return 0;
  const double offset = (sample - lo) / width;
  if (!(offset > 0.0)) return 0;  // at-or-below lo, and -inf
  if (offset >= static_cast<double>(bins)) return bins - 1;  // above hi, +inf
  return static_cast<std::size_t>(offset);
}

}  // namespace upin::util
