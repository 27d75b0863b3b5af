#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "util/rng.h"

namespace vanet {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng{5};
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// State captures every internal field, so bit-equality of two
// accumulators is state equality.
bool bitIdentical(const RunningStats& a, const RunningStats& b) {
  const RunningStats::State sa = a.state();
  const RunningStats::State sb = b.state();
  const auto bits = [](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  return sa.count == sb.count && bits(sa.mean) == bits(sb.mean) &&
         bits(sa.m2) == bits(sb.m2) && bits(sa.sum) == bits(sb.sum) &&
         bits(sa.min) == bits(sb.min) && bits(sa.max) == bits(sb.max);
}

RunningStats sampled(std::uint64_t seed, int n, double mean, double sd) {
  Rng rng{seed};
  RunningStats s;
  for (int i = 0; i < n; ++i) s.add(rng.normal(mean, sd));
  return s;
}

TEST(RunningStatsTest, MergeIdentityIsExact) {
  // Merging an empty accumulator, from either side, is bit-exact: the
  // shard pipeline relies on empty partial summaries being no-ops.
  const RunningStats a = sampled(7, 257, 1.5, 0.3);
  RunningStats left = a;
  left.merge(RunningStats());
  EXPECT_TRUE(bitIdentical(left, a));
  RunningStats right;
  right.merge(a);
  EXPECT_TRUE(bitIdentical(right, a));
}

TEST(RunningStatsTest, MergeIsAssociativeWithinTolerance) {
  const RunningStats a = sampled(11, 100, -2.0, 1.0);
  const RunningStats b = sampled(12, 300, 5.0, 0.5);
  const RunningStats c = sampled(13, 50, 0.0, 3.0);
  RunningStats ab = a;
  ab.merge(b);
  ab.merge(c);  // (a + b) + c
  RunningStats bc = b;
  bc.merge(c);
  RunningStats abc = a;
  abc.merge(bc);  // a + (b + c)
  EXPECT_EQ(ab.count(), abc.count());
  EXPECT_NEAR(ab.mean(), abc.mean(), 1e-13 * std::abs(ab.mean()) + 1e-15);
  EXPECT_NEAR(ab.variance(), abc.variance(),
              1e-12 * ab.variance() + 1e-15);
  EXPECT_DOUBLE_EQ(ab.min(), abc.min());
  EXPECT_DOUBLE_EQ(ab.max(), abc.max());
  EXPECT_DOUBLE_EQ(ab.sum(), abc.sum());
}

TEST(RunningStatsTest, MergeEquivalentToPooledAdd) {
  // The parallel-variance formula must agree with one accumulator that
  // saw every sample, up to rounding of the same scale as the values.
  Rng rng{17};
  RunningStats pooled;
  RunningStats parts[4];
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.normal(10.0, 4.0);
    pooled.add(x);
    parts[i % 4].add(x);
  }
  RunningStats merged = parts[0];
  for (int p = 1; p < 4; ++p) merged.merge(parts[p]);
  EXPECT_EQ(merged.count(), pooled.count());
  EXPECT_NEAR(merged.mean(), pooled.mean(), 1e-12 * std::abs(pooled.mean()));
  EXPECT_NEAR(merged.variance(), pooled.variance(),
              1e-10 * pooled.variance());
  EXPECT_NEAR(merged.sum(), pooled.sum(), 1e-12 * std::abs(pooled.sum()));
  EXPECT_DOUBLE_EQ(merged.min(), pooled.min());
  EXPECT_DOUBLE_EQ(merged.max(), pooled.max());
}

TEST(RunningStatsTest, StateRoundTripIsBitExact) {
  const RunningStats a = sampled(23, 999, 0.25, 7.0);
  EXPECT_TRUE(bitIdentical(RunningStats::fromState(a.state()), a));
  // Empty accumulators round-trip to empty (min/max sentinels restored).
  const RunningStats empty;
  const RunningStats back = RunningStats::fromState(empty.state());
  EXPECT_EQ(back.count(), 0u);
  RunningStats merged = back;
  merged.merge(a);
  EXPECT_TRUE(bitIdentical(merged, a));
}

TEST(RunningStatsTest, ConfidenceIntervalBasics) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.confidence95(), 0.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.confidence95(), 0.0);  // n < 2
  s.add(3.0);
  // n=2: t(1)=12.706, sd=sqrt(2), se=1 -> CI = 12.706.
  EXPECT_NEAR(s.confidence95(), 12.706, 1e-9);
  EXPECT_NEAR(s.stderrOfMean(), 1.0, 1e-12);
}

TEST(RunningStatsTest, ConfidenceShrinksWithSamples) {
  Rng rng{21};
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10; ++i) small.add(rng.normal(0.0, 1.0));
  for (int i = 0; i < 1000; ++i) large.add(rng.normal(0.0, 1.0));
  EXPECT_GT(small.confidence95(), large.confidence95());
  // Large n: CI ~ 1.96 / sqrt(n).
  EXPECT_NEAR(large.confidence95(), 1.96 * large.stddev() / std::sqrt(1000.0),
              1e-9);
}

TEST(SeriesAccumulatorTest, GrowsOnDemand) {
  SeriesAccumulator acc;
  acc.add(5, 1.0);
  EXPECT_EQ(acc.size(), 6u);
  EXPECT_EQ(acc.at(5).count(), 1u);
  EXPECT_EQ(acc.at(0).count(), 0u);
}

TEST(SeriesAccumulatorTest, MeansPerIndex) {
  SeriesAccumulator acc;
  acc.add(0, 1.0);
  acc.add(0, 0.0);
  acc.add(1, 1.0);
  const auto means = acc.means();
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 0.5);
  EXPECT_DOUBLE_EQ(means[1], 1.0);
}

TEST(SeriesAccumulatorTest, CellsRoundTripPreservesMergeBehaviour) {
  SeriesAccumulator acc;
  acc.add(0, 1.0);
  acc.add(0, 0.0);
  acc.add(3, 0.5);
  const SeriesAccumulator back = SeriesAccumulator::fromCells(acc.cells());
  ASSERT_EQ(back.size(), acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    EXPECT_EQ(back.at(i).count(), acc.at(i).count());
    EXPECT_DOUBLE_EQ(back.at(i).mean(), acc.at(i).mean());
  }
}

}  // namespace
}  // namespace vanet
