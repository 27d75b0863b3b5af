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

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(-5.0);  // clamps to bin 0
  h.add(50.0);  // clamps to bin 9
  EXPECT_EQ(h.binCount(0), 2u);
  EXPECT_EQ(h.binCount(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.binLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.binHigh(0), 2.0);
  EXPECT_DOUBLE_EQ(h.binLow(4), 8.0);
  EXPECT_DOUBLE_EQ(h.binHigh(4), 10.0);
}

TEST(HistogramTest, QuantileOfUniformData) {
  Histogram h(0.0, 1.0, 100);
  Rng rng{3};
  for (int i = 0; i < 100000; ++i) {
    h.add(rng.uniform());
  }
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
}

TEST(HistogramTest, FarOutOfRangeValuesClampWithoutOverflow) {
  // The bin index is clamped in the double domain *before* the integer
  // cast: values whose scaled position exceeds any integer type (and
  // +-infinity) must land in the edge bins, not invoke UB.
  Histogram h(0.0, 1.0, 4);
  h.add(1e300);
  h.add(-1e300);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.binCount(0), 2u);
  EXPECT_EQ(h.binCount(3), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, NanSamplesAreDroppedNotCounted) {
  Histogram h(0.0, 1.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.total(), 0u);
  for (std::size_t bin = 0; bin < h.bins(); ++bin) {
    EXPECT_EQ(h.binCount(bin), 0u);
  }
  // Real samples around a dropped NaN keep their quantiles: total_ and
  // the bin mass must stay consistent.
  h.add(0.3);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(0.3);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_NEAR(h.quantile(1.0), 0.5, 1e-12);  // high edge of bin [0.25,0.5)
}

TEST(HistogramTest, QuantileSkipsEmptyBins) {
  // Mass only in bins 0 and 5 of [0,10): the boundary between the two
  // halves of the data falls where bins 1..4 are empty. The quantile
  // must never report the low edge of an empty bin.
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(0.5);
  h.add(5.5);
  h.add(5.5);
  // q=0.5 -> target 2 = all of bin 0: the high edge of bin 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  // q=0.75 -> halfway into bin 5, not somewhere in the empty gap.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 5.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 6.0);
}

TEST(HistogramTest, QuantileZeroStartsAtFirstNonEmptyBin) {
  // Regression: q=0 has target 0, which every prefix (including the
  // empty one) satisfies -- the old walk returned lo_ even when bin 0
  // held nothing. It must report where the data starts.
  Histogram h(0.0, 10.0, 10);
  h.add(5.5);
  h.add(6.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  // And an entirely empty histogram still reports the range's low edge.
  const Histogram empty(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 2.0);
}

TEST(HistogramTest, SparseQuantilesPinned) {
  // A single-sample histogram: every quantile lives inside the one
  // occupied bin.
  Histogram h(0.0, 8.0, 8);
  h.add(3.2);  // bin 3 = [3,4)
  for (const double q : {0.0, 0.25, 0.5, 0.99}) {
    EXPECT_GE(h.quantile(q), 3.0) << "q=" << q;
    EXPECT_LE(h.quantile(q), 4.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(HistogramTest, RenderContainsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string text = h.render();
  EXPECT_NE(text.find("1"), std::string::npos);
  EXPECT_NE(text.find("2"), std::string::npos);
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
