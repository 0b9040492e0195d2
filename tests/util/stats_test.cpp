#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/util/rng.h"

namespace cloudcache {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.sum(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // Unbiased.
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(3);
  RunningStats whole, left, right;
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextGaussian() * 3 + 1;
    whole.Add(x);
    (i % 2 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(2.0);
  const double mean = a.mean();
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.mean(), mean);
  b.Merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_EQ(b.mean(), mean);
}

TEST(RunningStatsTest, StableOverManySamples) {
  RunningStats s;
  for (int i = 0; i < 1'000'000; ++i) s.Add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(TimeSeriesTest, AppendsAndReads) {
  TimeSeries ts;
  ts.Add(0.0, 1.0);
  ts.Add(1.0, 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.Last(), 2.0);
  EXPECT_EQ(ts.times()[0], 0.0);
  EXPECT_EQ(ts.values()[1], 2.0);
}

TEST(TimeSeriesTest, EmptyLastIsZero) {
  TimeSeries ts;
  EXPECT_EQ(ts.Last(), 0.0);
}

TEST(TimeSeriesTest, DownsampleKeepsEndpoints) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) ts.Add(i, i * 2.0);
  TimeSeries down = ts.Downsample(10);
  EXPECT_EQ(down.size(), 10u);
  EXPECT_EQ(down.times().front(), 0.0);
  EXPECT_EQ(down.times().back(), 999.0);
  EXPECT_EQ(down.values().back(), 1998.0);
}

TEST(TimeSeriesTest, DownsampleNoOpWhenSmall) {
  TimeSeries ts;
  ts.Add(0, 1);
  ts.Add(1, 2);
  EXPECT_EQ(ts.Downsample(10).size(), 2u);
}

TEST(TimeSeriesTest, BoundedSeriesNeverExceedsItsCapacity) {
  TimeSeries ts(8);
  for (int i = 0; i < 1000; ++i) {
    ts.Add(i, -i);
    ASSERT_LE(ts.size(), 8u) << "after offer " << i;
    // Decimation keeps the first point and the newest one.
    EXPECT_EQ(ts.times().front(), 0.0);
    EXPECT_EQ(ts.times().back(), static_cast<double>(i));
    EXPECT_EQ(ts.Last(), static_cast<double>(-i));
  }
  EXPECT_EQ(ts.offered(), 1000u);
  EXPECT_GT(ts.stride_level(), 0u);
}

TEST(TimeSeriesTest, DecimationKeepsTheStrideEvenlySpaced) {
  TimeSeries ts(8);
  for (int i = 0; i < 77; ++i) ts.Add(i, 0.0);
  // Every kept point but the newest sits on the series' own stride.
  const double stride = static_cast<double>(1u << ts.stride_level());
  for (size_t k = 0; k + 1 < ts.size(); ++k) {
    EXPECT_EQ(ts.times()[k], static_cast<double>(k) * stride) << k;
  }
  EXPECT_EQ(ts.times().back(), 76.0);
}

TEST(TimeSeriesTest, SeriesWithinCapacityKeepsEveryPoint) {
  TimeSeries ts(8);
  for (int i = 0; i < 8; ++i) ts.Add(i, i);
  EXPECT_EQ(ts.size(), 8u);
  EXPECT_EQ(ts.stride_level(), 0u);
}

TEST(TimeSeriesTest, RestoreRefusesPartsNoSeriesCouldReach) {
  TimeSeries ts(8);
  for (int i = 0; i < 20; ++i) ts.Add(i, i);
  TimeSeries twin(8);
  // Wrong offer count for the points and stride.
  EXPECT_FALSE(twin.RestoreRaw(ts.times(), ts.values(), ts.stride_level(),
                               ts.offered() + 4));
  // Over capacity.
  std::vector<double> many(9, 0.0);
  EXPECT_FALSE(twin.RestoreRaw(many, many, 0, 9));
  // Unequal lengths.
  EXPECT_FALSE(twin.RestoreRaw({0.0}, {}, 0, 1));
  EXPECT_EQ(twin.size(), 0u);
  EXPECT_TRUE(twin.RestoreRaw(ts.times(), ts.values(), ts.stride_level(),
                              ts.offered()));
}

}  // namespace
}  // namespace cloudcache
