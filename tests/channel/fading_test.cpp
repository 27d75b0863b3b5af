#include "channel/fading.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/stats.h"

namespace vanet::channel {
namespace {

TEST(NoFadingTest, AlwaysZero) {
  NoFading model;
  Rng rng{1};
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(model.sampleDb(rng), 0.0);
  }
}

TEST(RayleighTest, UnitMeanPower) {
  RayleighFading model;
  Rng rng{2};
  double sumLinear = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sumLinear += std::pow(10.0, model.sampleDb(rng) / 10.0);
  }
  EXPECT_NEAR(sumLinear / n, 1.0, 0.02);
}

TEST(RayleighTest, DeepFadeProbability) {
  // P(power < 0.1) = 1 - e^-0.1 ~ 0.0952 for Exp(1) power.
  RayleighFading model;
  Rng rng{3};
  int deep = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (model.sampleDb(rng) < -10.0) ++deep;
  }
  EXPECT_NEAR(static_cast<double>(deep) / n, 1.0 - std::exp(-0.1), 0.005);
}

TEST(RicianTest, UnitMeanPower) {
  RicianFading model(6.0);
  Rng rng{4};
  double sumLinear = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sumLinear += std::pow(10.0, model.sampleDb(rng) / 10.0);
  }
  EXPECT_NEAR(sumLinear / n, 1.0, 0.02);
}

TEST(RicianTest, LargerKMeansLessVariance) {
  Rng rng{5};
  RicianFading mild(1.0);
  RicianFading strong(20.0);
  RunningStats mildDb;
  RunningStats strongDb;
  for (int i = 0; i < 50000; ++i) {
    mildDb.add(mild.sampleDb(rng));
    strongDb.add(strong.sampleDb(rng));
  }
  EXPECT_LT(strongDb.stddev(), mildDb.stddev());
}

TEST(RicianTest, KZeroBehavesLikeRayleigh) {
  // K=0 Rician is Rayleigh: compare deep-fade rates statistically.
  RicianFading rician(0.0);
  Rng rng{6};
  int deep = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rician.sampleDb(rng) < -10.0) ++deep;
  }
  EXPECT_NEAR(static_cast<double>(deep) / n, 1.0 - std::exp(-0.1), 0.006);
}

TEST(NakagamiTest, UnitMeanPower) {
  NakagamiFading model(2.0);
  Rng rng{8};
  double sumLinear = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sumLinear += std::pow(10.0, model.sampleDb(rng) / 10.0);
  }
  EXPECT_NEAR(sumLinear / n, 1.0, 0.02);
}

TEST(NakagamiTest, MOneMatchesRayleighDeepFades) {
  // Nakagami m=1 is Rayleigh: deep-fade probability must match.
  NakagamiFading model(1.0);
  Rng rng{9};
  int deep = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (model.sampleDb(rng) < -10.0) ++deep;
  }
  EXPECT_NEAR(static_cast<double>(deep) / n, 1.0 - std::exp(-0.1), 0.006);
}

TEST(NakagamiTest, LargerMLessVariance) {
  Rng rng{10};
  NakagamiFading mild(4.0);
  NakagamiFading harsh(0.6);
  RunningStats mildDb;
  RunningStats harshDb;
  for (int i = 0; i < 50000; ++i) {
    mildDb.add(mild.sampleDb(rng));
    harshDb.add(harsh.sampleDb(rng));
  }
  EXPECT_LT(mildDb.stddev(), harshDb.stddev());
}

TEST(NakagamiTest, SubRayleighIsHarsherThanRayleigh) {
  // m = 0.6 must produce more deep fades than Rayleigh (m = 1).
  Rng rng{11};
  NakagamiFading harsh(0.6);
  NakagamiFading rayleigh(1.0);
  int harshDeep = 0;
  int rayleighDeep = 0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    if (harsh.sampleDb(rng) < -10.0) ++harshDeep;
    if (rayleigh.sampleDb(rng) < -10.0) ++rayleighDeep;
  }
  EXPECT_GT(harshDeep, rayleighDeep);
}

TEST(FadingMaxGainTest, NoFadingIsZeroRicianAndNakagamiAreUnbounded) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(NoFading{}.maxGainDb(), 0.0);
  EXPECT_EQ(RicianFading{5.0}.maxGainDb(), kInf);
  EXPECT_EQ(NakagamiFading{3.0}.maxGainDb(), kInf);
}

TEST(FadingMaxGainTest, RayleighBoundsTheSmallestUniforms) {
  // The largest gains come from the smallest draws: the 2^20 smallest
  // positive uniforms, through the scalar and the batched transform.
  const RayleighFading model;
  const double bound = model.maxGainDb();
  EXPECT_NEAR(bound, 15.65, 0.01);
  constexpr std::size_t kCount = std::size_t{1} << 20;
  std::vector<double> draws(kCount);
  for (std::size_t k = 0; k < kCount; ++k) {
    draws[k] = static_cast<double>(k + 1) * 0x1.0p-53;
  }
  std::vector<double> gains(kCount);
  model.gainFromDrawBatch(draws.data(), gains.data(), kCount);
  for (std::size_t k = 0; k < kCount; ++k) {
    ASSERT_LE(model.gainFromDraw(draws[k]), bound) << draws[k];
    ASSERT_LE(gains[k], bound) << draws[k];
  }
}

TEST(FadingMaxGainTest, RayleighBoundsRandomDraws) {
  const RayleighFading model;
  const double bound = model.maxGainDb();
  Rng rng{12};
  std::vector<double> gains(1'000'000);
  model.sampleDbBatch(rng, gains.data(), gains.size());
  for (const double gain : gains) ASSERT_LE(gain, bound);
  for (int i = 0; i < 100'000; ++i) ASSERT_LE(model.sampleDb(rng), bound);
}

/// drawBatch then gainFromDrawBatch (or gainFromDraw per draw) must equal
/// sampleDbBatch bit for bit and leave the stream at the same position.
void expectDrawThenTransformMatchesSample(const FadingModel& model) {
  Rng sampled{13};
  Rng drawn{13};
  for (const std::size_t n : {0, 1, 3, 8, 11, 64}) {
    std::vector<double> expected(n);
    std::vector<double> draws(n);
    std::vector<double> gains(n);
    model.sampleDbBatch(sampled, expected.data(), n);
    model.drawBatch(drawn, draws.data(), n);
    model.gainFromDrawBatch(draws.data(), gains.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(gains[i], expected[i]) << "receiver " << i << " of " << n;
      EXPECT_EQ(model.gainFromDraw(draws[i]), expected[i]);
    }
  }
  EXPECT_EQ(sampled.normal(), drawn.normal());
  EXPECT_EQ(sampled.next(), drawn.next());
}

TEST(FadingDrawTest, DrawThenTransformEqualsSampleDbBatch) {
  expectDrawThenTransformMatchesSample(RayleighFading{});
  expectDrawThenTransformMatchesSample(NoFading{});
  expectDrawThenTransformMatchesSample(RicianFading{5.0});
  expectDrawThenTransformMatchesSample(NakagamiFading{3.0});
}

TEST(NakagamiDeathTest, RejectsTooSmallM) {
  EXPECT_DEATH(NakagamiFading(0.3), "at least 0.5");
}

TEST(RicianDeathTest, RejectsNegativeK) {
  EXPECT_DEATH(RicianFading(-1.0), "non-negative");
}

}  // namespace
}  // namespace vanet::channel
