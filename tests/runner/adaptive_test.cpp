/// \file adaptive_test.cpp
/// Adaptive (CI95-targeted) replication: the wave schedule, the stop
/// rule, and the determinism guarantees -- byte-identity across thread
/// counts and shard processes -- plus the adaptive header of the partial
/// format.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/partial_binary.h"

namespace vanet::runner {
namespace {

/// Registers (once) a synthetic scenario whose "m" metric noise is
/// controlled by the "noise" param: 0 reports a constant, anything else
/// spreads samples by a seed hash -- so convergence behaviour is exactly
/// steerable per grid point.
const std::string& noiseScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "adaptive-test-noise",
        "constant or seed-noisy metric, no simulation",
        {{"noise", 0.0, "0 = constant metric, else noise amplitude"}},
        [](const JobContext& context) {
          JobResult result;
          const double noise = context.params.get("noise", 0.0);
          result.metrics["m"] =
              10.0 + noise * static_cast<double>(context.seed % 1000u);
          result.rounds = 1;
          return result;
        }});
    return std::string("adaptive-test-noise");
  }();
  return name;
}

CampaignConfig adaptiveConfig(double targetCi, int minReps, int maxReps) {
  CampaignConfig config;
  config.scenario = noiseScenario();
  config.masterSeed = 2008;
  config.targetRelativeCi95 = targetCi;
  config.minReplications = minReps;
  config.maxReplications = maxReps;
  config.targetMetric = "m";  // the synthetic scenario has no default
  return config;
}

TEST(AdaptiveTest, ConvergesAtMinWhenTight) {
  // A constant metric has CI95 == 0 from the second sample on: the
  // point must stop exactly at the floor, leaving the rest of the
  // budget unspent.
  CampaignConfig config = adaptiveConfig(0.05, 4, 64);
  config.base.set("noise", 0.0);
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].replications, 4);
  EXPECT_DOUBLE_EQ(result.points[0].achievedCi95, 0.0);
  EXPECT_EQ(result.jobCount, 4u);
  EXPECT_EQ(result.totalJobs, 64u);  // the budget, not the spend
  EXPECT_EQ(result.waves, 1);
}

TEST(AdaptiveTest, HitsMaxWhenNoisy) {
  // An unattainable target drives the point through every doubling wave
  // to the cap: 2, 4, 8, 16 covered replications = 4 waves.
  CampaignConfig config = adaptiveConfig(1e-9, 2, 16);
  config.base.set("noise", 1.0);
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].replications, 16);
  EXPECT_GT(result.points[0].achievedCi95, 0.0);
  EXPECT_EQ(result.jobCount, 16u);
  EXPECT_EQ(result.waves, 4);
}

TEST(AdaptiveTest, NeverStopsOnASingleSample) {
  // minReplications = 1: after wave 0 every point has one sample, whose
  // confidence95() is 0 -- which must read "no interval yet", not
  // "target met". The constant point converges at the next barrier.
  CampaignConfig config = adaptiveConfig(0.5, 1, 8);
  config.base.set("noise", 0.0);
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].replications, 2);
  EXPECT_EQ(result.waves, 2);
}

TEST(AdaptiveTest, MixedGridStopsPerPoint) {
  // noise=0 converges at the floor while noise=1 runs to the cap -- the
  // whole purpose of adaptivity: cheap points stop burning budget.
  CampaignConfig config = adaptiveConfig(0.05, 2, 16);
  config.grid.add("noise", {0.0, 1.0});
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].replications, 2);
  EXPECT_EQ(result.points[1].replications, 16);
  EXPECT_EQ(result.jobCount, 18u);
  // The emitted summaries carry reps used and achieved CI.
  const std::string json = campaignPointsJson(result);
  EXPECT_NE(json.find("\"replications\":2"), std::string::npos);
  EXPECT_NE(json.find("\"replications\":16"), std::string::npos);
  EXPECT_NE(json.find("\"achieved_ci95\":"), std::string::npos);
  const std::string csv = campaignCsv(result);
  EXPECT_NE(csv.find("m_ci95"), std::string::npos);
}

TEST(AdaptiveTest, StoppedPointRanTheFixedCountSeedPrefix) {
  // Seeds derive from the global (point, replication) index with the
  // *cap* as stride: an adaptive point that stopped at r replications
  // folded exactly the first r streams of the budgeted layout. Rebuild
  // that fold by hand from the plan and compare states bit for bit.
  CampaignConfig config = adaptiveConfig(1e-9, 3, 8);
  config.base.set("noise", 1.0);  // never converges: runs all 8
  const CampaignResult maxed = runCampaign(config);
  ASSERT_EQ(maxed.points[0].replications, 8);

  const CampaignPlan plan = buildPlan(config);
  RunningStats expected;
  for (int rep = 0; rep < 8; ++rep) {
    const JobSpec spec = plan.pointJob(0, rep);
    EXPECT_EQ(spec.globalIndex, static_cast<std::size_t>(rep));
    JobContext context;
    context.params = plan.jobParams(spec);
    context.seed = spec.seed;
    context.replication = spec.replication;
    context.jobIndex = spec.globalIndex;
    expected.add(plan.scenario().run(context).metrics.at("m"));
  }
  const RunningStats::State a = maxed.points[0].metrics.at("m").state();
  const RunningStats::State b = expected.state();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.m2, b.m2);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
}

TEST(AdaptiveTest, ByteIdenticalAcrossThreads) {
  CampaignConfig config = adaptiveConfig(0.2, 2, 32);
  config.grid.add("noise", {0.0, 0.001, 1.0});
  config.threads = 1;
  const CampaignResult serial = runCampaign(config);
  const std::string referenceJson = campaignPointsJson(serial);
  const std::string referenceCsv = campaignCsv(serial);
  for (const int threads : {2, 8}) {
    config.threads = threads;
    const CampaignResult parallel = runCampaign(config);
    EXPECT_EQ(campaignPointsJson(parallel), referenceJson);
    EXPECT_EQ(campaignCsv(parallel), referenceCsv);
  }
}

TEST(AdaptiveTest, RealScenarioByteIdenticalAcrossThreads) {
  // The acceptance shape on a real simulation: urban campaign with the
  // scenario's default target metric (pdr) resolved from the registry.
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.targetRelativeCi95 = 0.1;
  config.minReplications = 2;
  config.maxReplications = 6;
  config.base.set("rounds", 1);
  config.base.set("cars", 2);
  config.grid.add("speed_kmh", {20.0, 30.0});
  config.threads = 1;
  const CampaignResult serial = runCampaign(config);
  EXPECT_EQ(serial.targetMetric, "pdr");
  config.threads = 4;
  const CampaignResult parallel = runCampaign(config);
  EXPECT_EQ(campaignPointsJson(serial), campaignPointsJson(parallel));
  EXPECT_EQ(campaignCsv(serial), campaignCsv(parallel));
}

TEST(AdaptiveTest, TwoShardsMergeBitIdenticalToSingleProcess) {
  // Shards exchange nothing: every point's wave trajectory runs wholly
  // inside its shard, so folding the partials reproduces the unsharded
  // bytes exactly.
  CampaignConfig config = adaptiveConfig(0.2, 2, 32);
  config.grid.add("noise", {0.0, 0.001, 1.0, 2.0});
  config.threads = 1;
  const CampaignResult reference = runCampaign(config);

  config.threads = 2;
  std::vector<CampaignPartial> partials;
  for (int shard = 0; shard < 2; ++shard) {
    config.shard = Shard{shard, 2};
    const CampaignResult result = runCampaign(config);
    partials.push_back(parseCampaignPartialBinary(
        campaignPartialBinary(campaignPartial(result))));
  }
  const CampaignResult merged = resultFromPartials(std::move(partials));
  EXPECT_EQ(campaignPointsJson(merged), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(merged), campaignCsv(reference));
  EXPECT_EQ(merged.jobCount, reference.jobCount);
  // The executed wave count is reconstructed from the per-point stop
  // points, so merged artefact headers match the unsharded run's.
  EXPECT_EQ(merged.waves, reference.waves);
  EXPECT_DOUBLE_EQ(merged.targetRelativeCi95, 0.2);
  EXPECT_EQ(merged.targetMetric, "m");
}

TEST(AdaptiveTest, PartialRoundTripCarriesAdaptiveHeader) {
  CampaignConfig config = adaptiveConfig(0.1, 2, 8);
  config.base.set("noise", 1.0);
  const CampaignResult result = runCampaign(config);
  const std::string bytes = campaignPartialBinary(campaignPartial(result));
  const CampaignPartial parsed = parseCampaignPartialBinary(bytes);
  EXPECT_EQ(campaignPartialBinary(parsed), bytes);  // byte-stable round trip
  EXPECT_DOUBLE_EQ(parsed.targetRelativeCi95, 0.1);
  EXPECT_EQ(parsed.minReplications, 2);
  EXPECT_EQ(parsed.maxReplications, 8);
  EXPECT_EQ(parsed.targetMetric, "m");
  ASSERT_EQ(parsed.points.size(), 1u);
  EXPECT_EQ(parsed.points[0].achievedCi95, result.points[0].achievedCi95);
  EXPECT_GT(parsed.points[0].achievedCi95, 0.0);
}

TEST(AdaptiveTest, MergeRejectsMismatchedStopRules) {
  CampaignConfig config = adaptiveConfig(0.2, 2, 8);
  config.grid.add("noise", {0.0, 1.0});
  config.shard = Shard{0, 2};
  const CampaignPartial shard0 = campaignPartial(runCampaign(config));
  config.targetRelativeCi95 = 0.3;  // different stop rule
  config.shard = Shard{1, 2};
  const CampaignPartial foreign = campaignPartial(runCampaign(config));
  EXPECT_THROW(mergeCampaignPartials({shard0, foreign}), std::runtime_error);
}

TEST(AdaptiveTest, ZeroMeanConvergesOnlyWhenDegenerate) {
  // Relative width is undefined at mean 0: a constant-zero metric is
  // degenerate (CI 0) and stops at the floor; a noisy zero-mean metric
  // must run to the cap instead of dividing by zero.
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "adaptive-test-zero-mean",
        "zero-mean metric, noise param as amplitude",
        {{"noise", 0.0, "amplitude"}},
        [](const JobContext& context) {
          JobResult result;
          // Alternating sign by replication: every even-sized prefix has
          // mean exactly 0 with a positive CI -- the zero-mean case the
          // stop rule must refuse to divide by.
          const double sign = context.replication % 2 == 0 ? 1.0 : -1.0;
          result.metrics["m"] = context.params.get("noise", 0.0) * sign;
          result.rounds = 1;
          return result;
        }});
    return std::string("adaptive-test-zero-mean");
  }();
  CampaignConfig config;
  config.scenario = name;
  config.masterSeed = 2008;
  config.targetRelativeCi95 = 0.5;
  config.minReplications = 2;
  config.maxReplications = 8;
  config.targetMetric = "m";
  config.base.set("noise", 0.0);
  CampaignResult constant = runCampaign(config);
  EXPECT_EQ(constant.points[0].replications, 2);
  // +-1 alternating: every wave barrier sees mean exactly 0 with CI > 0,
  // so the rule must run to the cap instead of dividing by zero.
  config.base.set("noise", 1.0);
  CampaignResult noisy = runCampaign(config);
  EXPECT_EQ(noisy.points[0].replications, 8);
}

TEST(AdaptiveTest, ValidatesConfig) {
  CampaignConfig config = adaptiveConfig(0.1, 0, 8);
  EXPECT_THROW(buildPlan(config), std::invalid_argument);  // min < 1
  config = adaptiveConfig(0.1, 8, 4);
  EXPECT_THROW(buildPlan(config), std::invalid_argument);  // max < min
  config = adaptiveConfig(0.1, 2, 8);
  config.targetMetric.clear();  // no scenario default either
  EXPECT_THROW(buildPlan(config), std::invalid_argument);
  // An urban campaign resolves the registered default ("pdr").
  CampaignConfig urban;
  urban.scenario = "urban";
  urban.targetRelativeCi95 = 0.1;
  urban.minReplications = 2;
  urban.maxReplications = 4;
  EXPECT_EQ(buildPlan(urban).targetMetric(), "pdr");
}

TEST(AdaptiveTest, WaveScheduleDoublesToTheCap) {
  CampaignConfig config = adaptiveConfig(0.1, 3, 20);
  const CampaignPlan plan = buildPlan(config);
  EXPECT_TRUE(plan.adaptive());
  EXPECT_EQ(plan.waveEndReplication(0), 3);
  EXPECT_EQ(plan.waveEndReplication(1), 6);
  EXPECT_EQ(plan.waveEndReplication(2), 12);
  EXPECT_EQ(plan.waveEndReplication(3), 20);  // capped, not 24
  EXPECT_EQ(plan.waveEndReplication(9), 20);
  EXPECT_EQ(plan.replications(), 20);  // the cap is the seed stride
  // Fixed-count plans are one wave.
  CampaignConfig fixed;
  fixed.scenario = noiseScenario();
  fixed.replications = 5;
  const CampaignPlan fixedPlan = buildPlan(fixed);
  EXPECT_FALSE(fixedPlan.adaptive());
  EXPECT_EQ(fixedPlan.waveEndReplication(0), 5);
}

TEST(AdaptiveTest, AccumulatorEnforcesPerPointReplicationOrder) {
  CampaignConfig config = adaptiveConfig(0.1, 2, 4);
  config.grid.add("noise", {0.0, 1.0});
  const CampaignPlan plan = buildPlan(config);
  CampaignAccumulator accumulator(plan);
  JobResult result;
  result.metrics["m"] = 1.0;
  result.rounds = 1;
  accumulator.fold(0, 0, result);
  accumulator.fold(1, 0, result);  // other point may interleave
  EXPECT_THROW(accumulator.fold(0, 2, result), std::logic_error);  // gap
  EXPECT_THROW(accumulator.fold(0, 0, result), std::logic_error);  // repeat
  accumulator.fold(0, 1, result);
  EXPECT_EQ(accumulator.foldedJobs(), 3u);
}

}  // namespace
}  // namespace vanet::runner
