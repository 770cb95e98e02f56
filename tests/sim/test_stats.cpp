#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace resex::sim {
namespace {

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(Welford, SingleValue) {
  Welford w;
  w.add(4.0);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_DOUBLE_EQ(w.mean(), 4.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 4.0);
  EXPECT_DOUBLE_EQ(w.max(), 4.0);
}

TEST(Welford, KnownMeanAndVariance) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
  EXPECT_DOUBLE_EQ(w.sum(), 40.0);
}

TEST(Samples, PercentilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(90.0), 90.1, 1e-9);
}

TEST(Samples, PercentileOutOfRangeThrows) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(101.0), std::invalid_argument);
}

TEST(Samples, EmptyPercentileIsZero) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
}

TEST(Samples, AddAfterPercentileInvalidatesCache) {
  Samples s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(5.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(5.0);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.bin(5), 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, UnderOverflowCounted) {
  Histogram h(10.0, 20.0, 5);
  h.add(9.0);
  h.add(20.0);  // hi edge counts as overflow (half-open range)
  h.add(25.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BinEdgesAndCenters) {
  Histogram h(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 50.0);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 87.5);
}

TEST(SlidingWindow, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindow(0), std::invalid_argument);
}

TEST(SlidingWindow, MeanOverPartialFill) {
  SlidingWindow w(10);
  w.add(2.0);
  w.add(4.0);
  EXPECT_EQ(w.count(), 2u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

TEST(SlidingWindow, EvictsOldestWhenFull) {
  SlidingWindow w(3);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  w.add(10.0);  // evicts 1.0
  EXPECT_EQ(w.count(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
}

TEST(SlidingWindow, StddevMatchesSample) {
  SlidingWindow w(5);
  for (double x : {2.0, 4.0, 4.0, 4.0, 6.0}) w.add(x);
  EXPECT_NEAR(w.stddev(), std::sqrt(2.0), 1e-12);
}

}  // namespace
}  // namespace resex::sim
