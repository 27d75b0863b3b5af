#include "runner/accumulate.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/partial_binary.h"
#include "testing/partial_text.h"

namespace vanet::runner {
namespace {

/// A small urban campaign that exercises every serialized payload:
/// Table 1 rows, per-flow figures, protocol totals and scalar metrics.
CampaignConfig urbanCampaign() {
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 2;
  config.threads = 2;
  config.base.set("rounds", 2);
  config.base.set("cars", 2);
  config.grid.add("speed_kmh", {20.0, 30.0}).add("coop", {0.0, 1.0});
  return config;
}

std::string allFigureCsvs(const CampaignResult& result) {
  std::string out;
  for (const GridPointSummary& point : result.points) {
    for (const auto& [flow, figure] : point.figures) {
      out += "# p" + std::to_string(point.gridIndex) + " f" +
             std::to_string(flow) + "\n";
      out += figureSeriesCsv(figure);
    }
  }
  return out;
}

TEST(AccumulateTest, TwoShardsMergeBitIdenticalToSingleProcess) {
  CampaignConfig config = urbanCampaign();
  config.threads = 1;
  const CampaignResult reference = runCampaign(config);

  config.threads = 2;
  std::vector<CampaignPartial> partials;
  for (int shard = 0; shard < 2; ++shard) {
    config.shard = Shard{shard, 2};
    const CampaignResult result = runCampaign(config);
    EXPECT_EQ(result.points.size(), 2u);  // 4 points round-robin over 2
    EXPECT_EQ(result.jobCount, 4u);
    EXPECT_EQ(result.totalJobs, 8u);
    // Byte round trip, exactly as two processes would exchange them.
    partials.push_back(parseCampaignPartialBinary(
        campaignPartialBinary(campaignPartial(result))));
  }
  const CampaignResult merged = resultFromPartials(std::move(partials));
  EXPECT_EQ(merged.points.size(), 4u);
  EXPECT_EQ(campaignPointsJson(merged), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(merged), campaignCsv(reference));
  EXPECT_EQ(allFigureCsvs(merged), allFigureCsvs(reference));
}

TEST(AccumulateTest, ShardOrderGivenToMergeDoesNotMatter) {
  CampaignConfig config = urbanCampaign();
  std::vector<CampaignPartial> partials;
  for (int shard = 1; shard >= 0; --shard) {  // reversed on purpose
    config.shard = Shard{shard, 2};
    partials.push_back(campaignPartial(runCampaign(config)));
  }
  const CampaignResult merged = resultFromPartials(std::move(partials));
  config.shard = Shard{};
  EXPECT_EQ(campaignPointsJson(merged),
            campaignPointsJson(runCampaign(config)));
}

TEST(AccumulateTest, EmptyShardsRoundTripAndMerge) {
  // More shards than points: the surplus shard writes an empty (but
  // valid) partial, and the merge still reassembles the full grid.
  CampaignConfig config = urbanCampaign();
  std::vector<CampaignPartial> partials;
  for (int shard = 0; shard < 6; ++shard) {
    config.shard = Shard{shard, 6};
    partials.push_back(parseCampaignPartialBinary(
        campaignPartialBinary(campaignPartial(runCampaign(config)))));
  }
  EXPECT_TRUE(partials[4].points.empty());
  const CampaignResult merged = resultFromPartials(std::move(partials));
  config.shard = Shard{};
  config.threads = 1;
  EXPECT_EQ(campaignPointsJson(merged),
            campaignPointsJson(runCampaign(config)));
}

TEST(AccumulateTest, MergeValidatesShardSets) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const CampaignPartial shard0 = campaignPartial(runCampaign(config));
  config.shard = Shard{1, 2};
  const CampaignPartial shard1 = campaignPartial(runCampaign(config));

  EXPECT_THROW(mergeCampaignPartials({}), std::runtime_error);
  // Missing shard 1.
  EXPECT_THROW(mergeCampaignPartials({shard0}), std::runtime_error);
  // Duplicate shard 0.
  EXPECT_THROW(mergeCampaignPartials({shard0, shard0}), std::runtime_error);
  // Shards from different campaigns: the error names the field.
  config.masterSeed = 2009;
  const CampaignPartial foreign = campaignPartial(runCampaign(config));
  try {
    mergeCampaignPartials({shard0, foreign});
    FAIL() << "a foreign shard must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 1/2 disagrees on master seed"),
              std::string::npos)
        << what;
  }
  // A shard that lost a point leaves the grid incomplete.
  CampaignPartial shortShard0 = shard0;
  shortShard0.points.pop_back();
  try {
    mergeCampaignPartials({shortShard0, shard1});
    FAIL() << "an incomplete grid must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("hold 3 of 4 grid points"), std::string::npos)
        << what;
  }
  // The healthy set still merges.
  EXPECT_EQ(mergeCampaignPartials({shard0, shard1}).size(), 4u);
}

TEST(AccumulateTest, MergeErrorsNameShardSpecAndSourceFile) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const CampaignResult result = runCampaign(config);
  const std::string path = ::testing::TempDir() + "/culprit_shard0.vpart";
  ASSERT_TRUE(writeCampaignPartial(path, campaignPartial(result)));

  // A partial read back from disk remembers its file; merge failures
  // must point the operator at that file, not just an index.
  const CampaignPartial fromFile = readCampaignPartial(path);
  EXPECT_EQ(fromFile.sourcePath, path);
  try {
    mergeCampaignPartials({fromFile, fromFile});
    FAIL() << "duplicate shard set must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }

  // In-memory partials (no file) degrade to the bare shard spec.
  const CampaignPartial inMemory = campaignPartial(result);
  try {
    mergeCampaignPartials({inMemory});
    FAIL() << "incomplete shard set must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_EQ(what.find(" from '"), std::string::npos) << what;
  }
}

/// A version-2 JSON partial as builds before the binary-only format
/// wrote it (one point, one metric).
constexpr const char* kJsonV2Partial = R"({
"format":"vanet-campaign-partial",
"version":2,
"scenario":"urban",
"master_seed":2008,
"shard_index":0,
"shard_count":1,
"replications":2,
"target_ci":0,
"min_replications":0,
"max_replications":0,
"target_metric":"",
"grid_points":1,
"job_count":2,
"points":[
 {"grid_index":0,"case":"","replications":2,"rounds":4,"achieved_ci95":0,"params":{"rounds":2},"table1":{"rounds":0,"rows":[]},"figures":[],"totals":{"requests":[0],"request_seqs":[0],"coop_data":[0],"suppressed":[0],"hellos":[0],"buffered":[0],"medium":{"tx":0,"delivered":0,"below_sensitivity":0,"collided":0,"channel_error":0,"burst_lost":0,"half_duplex_missed":0,"corrupt_delivered":0}},"metrics":{"pdr":[2,0.625,0.03125,1.25,0.5,0.75]}}
]
}
)";

TEST(AccumulateTest, LegacyJsonPartialFailsByNameOnEveryReadPath) {
  const std::string path = ::testing::TempDir() + "/legacy_v2.json";
  std::ofstream(path) << kJsonV2Partial;
  const auto expectNamed = [&path](const std::function<void()>& read) {
    try {
      read();
      FAIL() << "a JSON partial must not be accepted";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("not a binary campaign partial"), std::string::npos)
          << what;
    }
  };
  expectNamed([&path] { readCampaignPartial(path); });
  expectNamed([&path] { resultFromPartialFiles({path}); });
  CampaignConfig resume = urbanCampaign();
  resume.checkpointPath = path;
  resume.resume = true;
  expectNamed([&resume] { runCampaign(resume); });
}

TEST(AccumulateTest, ReadErrorsNameFileAndByteOffset) {
  // The failing file is always named, together with the byte offset of
  // the damage.
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const std::string good = ::testing::TempDir() + "/bin_ok.part";
  ASSERT_TRUE(writeCampaignPartial(good,
                                   campaignPartial(runCampaign(config))));
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  const std::string truncated = ::testing::TempDir() + "/bin_cut.part";
  std::ofstream(truncated, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  try {
    readCampaignPartial(truncated);
    FAIL() << "truncated binary partial must not parse";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(truncated), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

TEST(AccumulateTest, MergeFilesReportsTheUnreadableFile) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const std::string good = ::testing::TempDir() + "/merge_ok.part";
  ASSERT_TRUE(writeCampaignPartial(good,
                                   campaignPartial(runCampaign(config))));
  const std::string missing = ::testing::TempDir() + "/merge_gone.part";
  try {
    resultFromPartialFiles({good, missing});
    FAIL() << "missing shard file must not merge";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(missing), std::string::npos)
        << error.what();
  }
}

TEST(AccumulateTest, DirectoryIsRejectedByName) {
  const std::string dir = ::testing::TempDir() + "/partials_dir";
  std::filesystem::create_directories(dir);
  for (const auto& read : std::vector<std::function<void()>>{
           [&dir] { readCampaignPartial(dir); },
           [&dir] { resultFromPartialFiles({dir}); }}) {
    try {
      read();
      FAIL() << "a directory must not read as a partial";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("cannot read " + dir + ": ", 0), 0u) << what;
    }
  }
}

TEST(AccumulateTest, PartialFileWriteReadRoundTrip) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const CampaignResult result = runCampaign(config);
  const std::string path = ::testing::TempDir() + "/shard0.vpart";
  ASSERT_TRUE(writeCampaignPartial(path, campaignPartial(result)));
  CampaignPartial back = readCampaignPartial(path);
  EXPECT_EQ(back.sourcePath, path);
  back.sourcePath.clear();
  EXPECT_EQ(testing::partialText(back),
            testing::partialText(campaignPartial(result)));
  EXPECT_THROW(readCampaignPartial(path + ".missing"), std::runtime_error);
}

TEST(AccumulateTest, Int64RoundsSurviveSerialization) {
  // A summary with > 2^31 simulated rounds round-trips unclipped.
  GridPointSummary point;
  point.gridIndex = 0;
  point.replications = 1;
  point.rounds = 3000000000LL;
  CampaignPartial partial;
  partial.scenario = "synthetic";
  partial.shard = Shard{0, 1};
  partial.replications = 1;
  partial.totalPoints = 1;
  partial.totalJobs = 1;
  partial.points.push_back(std::move(point));
  const CampaignPartial back =
      parseCampaignPartialBinary(campaignPartialBinary(partial));
  ASSERT_EQ(back.points.size(), 1u);
  EXPECT_EQ(back.points[0].rounds, 3000000000LL);
}

}  // namespace
}  // namespace vanet::runner
