#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace pdxbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(PercentileTest, RefusesAnEmptySample) {
  EXPECT_FALSE(Percentile({}, 50).has_value());
  EXPECT_FALSE(Percentile({}, 50, /*min_beyond=*/0).has_value());
}

TEST(PercentileTest, NearestRank) {
  // Rank ceil(0.5 * 20) = 10 -> value 10, with 10 samples beyond it.
  EXPECT_EQ(Percentile(Ramp(20), 50), 10.0);
  // Without the refusal rule the definition still holds at the edges.
  EXPECT_EQ(Percentile(Ramp(20), 100, 0), 20.0);
  EXPECT_EQ(Percentile(Ramp(20), 0.1, 0), 1.0);
  EXPECT_EQ(Percentile({7.0}, 99, 0), 7.0);
}

TEST(PercentileTest, RefusesWithoutTenSamplesBeyond) {
  // p99 of 1000 samples is rank 990, with exactly 10 beyond it.
  EXPECT_EQ(Percentile(Ramp(1000), 99), 990.0);
  // One sample fewer leaves only 9 beyond rank 990.
  EXPECT_FALSE(Percentile(Ramp(999), 99).has_value());
  EXPECT_FALSE(Percentile(Ramp(19), 50).has_value());
}

TEST(PercentileTest, RankHasNoRoundingDrift) {
  // 0.99 * 1100 is 1089 in exact arithmetic but not in binary floating
  // point; the rank must still be 1089.
  EXPECT_EQ(Percentile(Ramp(1100), 99), 1089.0);
}

TEST(PercentileTest, IgnoresInputOrder) {
  std::vector<double> v = Ramp(40);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 75), 30.0);
}

TEST(TailPercentileTest, FallsBackToTheHighestSupportedPercentile) {
  // 200 samples: p99 (rank 198) has 2 beyond, p95 (rank 190) has 10.
  std::optional<Tail> tail = TailPercentile(Ramp(200), 99);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->pct, 95.0);
  EXPECT_EQ(tail->value, 190.0);
  // Never above the target.
  tail = TailPercentile(Ramp(100000), 95);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->pct, 95.0);
  EXPECT_FALSE(TailPercentile(Ramp(15), 99).has_value());
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  Quartiles q = QuartilesOf(Ramp(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = QuartilesOf({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  q = QuartilesOf({5});
  EXPECT_EQ(q.q1, 5.0);
  EXPECT_EQ(q.q3, 5.0);
}

TEST(PairWinTest, TiesCountForNeitherSide) {
  std::vector<double> parent = {10, 10, 10, 10};
  std::vector<double> change = {9, 10, 11, 8};
  EXPECT_DOUBLE_EQ(PairWinFraction(parent, change, /*lower_is_better=*/true),
                   0.5);
  EXPECT_DOUBLE_EQ(PairWinFraction(parent, change, /*lower_is_better=*/false),
                   0.25);
  EXPECT_EQ(PairWinFraction({}, {}, true), 0.0);
}

}  // namespace
}  // namespace pdxbench
