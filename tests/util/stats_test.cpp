// Tests for util/stats: moments, quantiles, Tukey boxes, histograms.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace upin::util {
namespace {

TEST(RunningMoments, SingleSample) {
  RunningMoments m;
  m.add(4.0);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_DOUBLE_EQ(m.mean(), 4.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.min(), 4.0);
  EXPECT_DOUBLE_EQ(m.max(), 4.0);
}

TEST(RunningMoments, KnownVariance) {
  RunningMoments m;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
}

TEST(RunningMoments, MatchesBatchStddev) {
  const std::vector<double> xs{1.5, 2.5, 8.0, -3.0, 0.0};
  RunningMoments m;
  for (const double x : xs) m.add(x);
  EXPECT_NEAR(m.stddev(), stddev(xs), 1e-12);
}

TEST(RunningMoments, NumericalStabilityWithLargeOffset) {
  RunningMoments m;
  for (int i = 0; i < 1000; ++i) m.add(1e9 + (i % 2));
  EXPECT_NEAR(m.variance(), 0.25025, 1e-3);
}

TEST(Quantile, MedianOddAndEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Quantile, Extremes) {
  const std::vector<double> xs{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 17.5);  // type-7
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 32.5);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.1), 7.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.9), 7.0);
}

TEST(Quantile, ClampsQOutsideUnit) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 2.0), 2.0);
}

TEST(Quantile, IsMonotoneInQ) {
  const std::vector<double> xs{3.0, 9.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  double previous = quantile(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double current = quantile(xs, q);
    EXPECT_GE(current, previous);
    previous = current;
  }
}

TEST(Mean, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(BoxStats, SimpleDataset) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const BoxStats box = box_stats(xs);
  EXPECT_EQ(box.count, 9u);
  EXPECT_DOUBLE_EQ(box.median, 5.0);
  EXPECT_DOUBLE_EQ(box.q1, 3.0);
  EXPECT_DOUBLE_EQ(box.q3, 7.0);
  EXPECT_DOUBLE_EQ(box.iqr, 4.0);
  EXPECT_DOUBLE_EQ(box.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 9.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(BoxStats, DetectsOutliers) {
  std::vector<double> xs{10, 11, 12, 13, 14, 15, 16, 100, -50};
  const BoxStats box = box_stats(xs);
  ASSERT_EQ(box.outliers.size(), 2u);
  EXPECT_DOUBLE_EQ(box.outliers.front(), -50.0);
  EXPECT_DOUBLE_EQ(box.outliers.back(), 100.0);
  // Whiskers stop at the most extreme non-outlier samples.
  EXPECT_DOUBLE_EQ(box.whisker_low, 10.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 16.0);
}

TEST(BoxStats, ConstantData) {
  const std::vector<double> xs{5, 5, 5, 5};
  const BoxStats box = box_stats(xs);
  EXPECT_DOUBLE_EQ(box.iqr, 0.0);
  EXPECT_DOUBLE_EQ(box.whisker_low, 5.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 5.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(BoxStats, SingleSample) {
  const std::vector<double> xs{3.5};
  const BoxStats box = box_stats(xs);
  EXPECT_EQ(box.count, 1u);
  EXPECT_DOUBLE_EQ(box.median, 3.5);
  EXPECT_DOUBLE_EQ(box.minimum, 3.5);
  EXPECT_DOUBLE_EQ(box.maximum, 3.5);
}

TEST(BoxStats, InvariantOrdering) {
  const std::vector<double> xs{9.0, 2.7, 3.1, 8.4, 5.5, 1.2, 7.7, 4.4};
  const BoxStats box = box_stats(xs);
  EXPECT_LE(box.minimum, box.whisker_low);
  EXPECT_LE(box.whisker_low, box.q1);
  EXPECT_LE(box.q1, box.median);
  EXPECT_LE(box.median, box.q3);
  EXPECT_LE(box.q3, box.whisker_high);
  EXPECT_LE(box.whisker_high, box.maximum);
}

TEST(BucketIndex, EmptyLayoutIsBinZero) {
  EXPECT_EQ(bucket_index(0.0, 1.0, 0, 5.0), 0u);
}

TEST(BucketIndex, SingleBinSwallowsEverything) {
  EXPECT_EQ(bucket_index(0.0, 10.0, 1, -3.0), 0u);
  EXPECT_EQ(bucket_index(0.0, 10.0, 1, 5.0), 0u);
  EXPECT_EQ(bucket_index(0.0, 10.0, 1, 99.0), 0u);
}

TEST(BucketIndex, BoundariesLandInUpperBin) {
  // [0,10) in 5 bins of width 2: an exact edge belongs to the bin above.
  EXPECT_EQ(bucket_index(0.0, 2.0, 5, 0.0), 0u);
  EXPECT_EQ(bucket_index(0.0, 2.0, 5, 2.0), 1u);
  EXPECT_EQ(bucket_index(0.0, 2.0, 5, 4.0), 2u);
  EXPECT_EQ(bucket_index(0.0, 2.0, 5, 9.999), 4u);
  EXPECT_EQ(bucket_index(0.0, 2.0, 5, 10.0), 4u);  // clamped at hi
}

TEST(BucketIndex, NonFiniteGuard) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bucket_index(0.0, 2.0, 5, inf), 4u);
  EXPECT_EQ(bucket_index(0.0, 2.0, 5, -inf), 0u);
  EXPECT_EQ(bucket_index(0.0, 2.0, 5, std::nan("")), 0u);
}

}  // namespace
}  // namespace upin::util
