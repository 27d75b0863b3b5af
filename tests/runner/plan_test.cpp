#include "runner/plan.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace vanet::runner {
namespace {

CampaignConfig gridCampaign() {
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 3;
  config.base.set("rounds", 1);
  config.grid.add("speed_kmh", {20.0, 30.0}).add("coop", {0.0, 1.0});
  return config;
}

TEST(PlanTest, ExpandsGridAndLayout) {
  const CampaignPlan plan = buildPlan(gridCampaign());
  ASSERT_EQ(plan.points().size(), 4u);
  EXPECT_EQ(plan.totalJobCount(), 12u);
  EXPECT_EQ(plan.shardJobCount(), 12u);  // default shard runs everything
  // speed varies slowest, coop fastest; defaults resolve into params.
  EXPECT_DOUBLE_EQ(plan.points()[0].params.get("speed_kmh", 0), 20.0);
  EXPECT_DOUBLE_EQ(plan.points()[1].params.get("coop", -1), 1.0);
  EXPECT_DOUBLE_EQ(plan.points()[2].params.get("speed_kmh", 0), 30.0);
  EXPECT_TRUE(plan.points()[0].params.has("gossip"));
  for (std::size_t p = 0; p < plan.points().size(); ++p) {
    EXPECT_EQ(plan.points()[p].gridIndex, p);
  }
}

TEST(PlanTest, JobsAreGridMajorWithDerivedSeeds) {
  const CampaignPlan plan = buildPlan(gridCampaign());
  for (std::size_t i = 0; i < plan.shardJobCount(); ++i) {
    const JobSpec job = plan.shardJob(i);
    EXPECT_EQ(job.globalIndex, i);
    EXPECT_EQ(job.pointIndex, i / 3);
    EXPECT_EQ(job.replication, static_cast<int>(i % 3));
    EXPECT_EQ(job.seed, Rng::deriveStreamSeed(2008, i));
  }
}

TEST(PlanTest, ShardsPartitionPointsRoundRobin) {
  CampaignConfig config = gridCampaign();
  std::set<std::size_t> covered;
  std::set<std::uint64_t> globals;
  for (int shard = 0; shard < 3; ++shard) {
    config.shard = Shard{shard, 3};
    const CampaignPlan plan = buildPlan(config);
    for (const std::size_t p : plan.shardPointIndices()) {
      EXPECT_EQ(p % 3u, static_cast<std::size_t>(shard));
      EXPECT_TRUE(covered.insert(p).second) << "point in two shards";
    }
    // Shard jobs keep their full-campaign indices (and therefore their
    // unsharded RNG streams).
    for (std::size_t i = 0; i < plan.shardJobCount(); ++i) {
      const JobSpec job = plan.shardJob(i);
      EXPECT_EQ(job.globalIndex, job.pointIndex * 3 +
                                     static_cast<std::size_t>(job.replication));
      EXPECT_EQ(job.seed, Rng::deriveStreamSeed(2008, job.globalIndex));
      EXPECT_TRUE(globals.insert(job.globalIndex).second);
    }
  }
  EXPECT_EQ(covered.size(), 4u);   // every point in exactly one shard
  EXPECT_EQ(globals.size(), 12u);  // every job in exactly one shard
}

TEST(PlanTest, MoreShardsThanPointsLeavesSomeEmpty) {
  CampaignConfig config = gridCampaign();
  config.shard = Shard{5, 6};
  const CampaignPlan plan = buildPlan(config);
  EXPECT_TRUE(plan.shardPointIndices().empty());
  EXPECT_EQ(plan.shardJobCount(), 0u);
  EXPECT_EQ(plan.totalJobCount(), 12u);
}

TEST(PlanTest, CasesExpandCaseMajor) {
  CampaignConfig config;
  config.scenario = "urban";
  config.replications = 1;
  config.base.set("rounds", 1);
  config.cases = {{"plain", {{"coop", 0.0}}}, {"c-arq", {{"coop", 1.0}}}};
  config.grid.add("speed_kmh", {20.0, 30.0});
  const CampaignPlan plan = buildPlan(config);
  ASSERT_EQ(plan.points().size(), 4u);
  EXPECT_EQ(plan.points()[0].caseName, "plain");
  EXPECT_EQ(plan.points()[2].caseName, "c-arq");
  EXPECT_DOUBLE_EQ(plan.points()[2].params.get("coop", -1), 1.0);
  EXPECT_DOUBLE_EQ(plan.points()[3].params.get("speed_kmh", 0), 30.0);
}

TEST(PlanTest, ValidatesInputs) {
  CampaignConfig config = gridCampaign();
  config.scenario = "no-such-scenario";
  EXPECT_THROW(buildPlan(config), std::invalid_argument);

  config = gridCampaign();
  config.replications = 0;
  EXPECT_THROW(buildPlan(config), std::invalid_argument);

  config = gridCampaign();
  config.shard = Shard{2, 2};  // index out of range
  EXPECT_THROW(buildPlan(config), std::invalid_argument);
  config.shard = Shard{0, 0};
  EXPECT_THROW(buildPlan(config), std::invalid_argument);
  config.shard = Shard{-1, 2};
  EXPECT_THROW(buildPlan(config), std::invalid_argument);
}

/// buildPlan's message for `config`, or "" when it plans.
std::string planError(const CampaignConfig& config) {
  try {
    buildPlan(config);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(PlanTest, UndeclaredParamNamesAreRejectedWithAHint) {
  // A typo'd name would otherwise run the default silently and add a
  // column to the campaign CSV: base, case override and axis alike.
  CampaignConfig config = gridCampaign();
  config.base.set("roundz", 2);
  std::string error = planError(config);
  EXPECT_NE(error.find("scenario \"urban\" declares no param \"roundz\" "
                       "(base); did you mean \"rounds\"?"),
            std::string::npos)
      << error;

  config = gridCampaign();
  config.cases = {{"plain", {{"coop", 0.0}}}, {"fast", {{"sped_kmh", 60.0}}}};
  error = planError(config);
  EXPECT_NE(error.find("\"sped_kmh\" (case \"fast\"); did you mean "
                       "\"speed_kmh\"?"),
            std::string::npos)
      << error;

  config = gridCampaign();
  config.grid.add("gosip", {0.0, 1.0});
  error = planError(config);
  EXPECT_NE(error.find("\"gosip\" (grid axis); did you mean \"gossip\"?"),
            std::string::npos)
      << error;

  // Nothing close: the bare rejection, no misleading hint.
  config = gridCampaign();
  config.base.set("doppler_hz", 2.0);
  error = planError(config);
  EXPECT_NE(error.find("declares no param \"doppler_hz\" (base)"),
            std::string::npos)
      << error;
  EXPECT_EQ(error.find("did you mean"), std::string::npos) << error;

  // Declared names of another scenario are undeclared here.
  config = gridCampaign();
  config.base.set("aps", 2);
  EXPECT_NE(planError(config).find("\"aps\""), std::string::npos);
}

}  // namespace
}  // namespace vanet::runner
