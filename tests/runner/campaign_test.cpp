#include "runner/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>

#include "obs/manifest.h"
#include "runner/emit.h"
#include "util/json.h"
#include "util/rng.h"

namespace vanet::runner {
namespace {

/// A small but real campaign: 2x2 urban grid, 2 replications, tiny rounds.
CampaignConfig tinyUrbanCampaign() {
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 2;
  config.base.set("rounds", 2);
  config.base.set("cars", 2);
  config.grid.add("speed_kmh", {20.0, 30.0}).add("coop", {0.0, 1.0});
  return config;
}

TEST(CampaignTest, RunsEveryJobAndMergesPerPoint) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 1;
  const CampaignResult result = runCampaign(config);
  EXPECT_EQ(result.jobCount, 8u);  // 4 grid points x 2 replications
  ASSERT_EQ(result.points.size(), 4u);
  for (const GridPointSummary& point : result.points) {
    EXPECT_EQ(point.replications, 2);
    EXPECT_EQ(point.rounds, 4);  // 2 replications x 2 rounds
    EXPECT_EQ(point.table1.rounds, 4);
    EXPECT_EQ(point.table1.rows.size(), 2u);  // 2 cars
    // Each job contributes one sample per scalar metric.
    EXPECT_EQ(point.metrics.at("pct_lost_before").count(), 2u);
  }
  EXPECT_GE(result.wallSeconds, 0.0);
  EXPECT_GT(result.jobsPerSecond, 0.0);
}

TEST(CampaignTest, TwoThreadsProduceByteIdenticalMergedStats) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 1;
  const CampaignResult serial = runCampaign(config);
  config.threads = 2;
  const CampaignResult parallel = runCampaign(config);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 2);
  // The emitted artefacts render every merged statistic at full precision,
  // so string equality is bit-identity of the merged campaign.
  EXPECT_EQ(campaignPointsJson(serial), campaignPointsJson(parallel));
  EXPECT_EQ(campaignCsv(serial), campaignCsv(parallel));
}

TEST(CampaignTest, FigureSeriesMergeByteIdenticalAcrossThreads) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 1;
  const CampaignResult serial = runCampaign(config);
  config.threads = 2;
  const CampaignResult parallel = runCampaign(config);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    // The urban scenario reports one figure per car; merged in job order
    // they render byte-identically no matter how many threads ran.
    ASSERT_EQ(serial.points[p].figures.size(), 2u);
    ASSERT_EQ(parallel.points[p].figures.size(), 2u);
    for (const auto& [flow, figure] : serial.points[p].figures) {
      EXPECT_EQ(figureSeriesCsv(figure),
                figureSeriesCsv(parallel.points[p].figures.at(flow)));
    }
  }
}

TEST(CampaignTest, CasesExpandCaseMajorAndLandInSummaries) {
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 1;
  config.threads = 2;
  config.base.set("rounds", 1);
  config.base.set("cars", 2);
  config.cases = {{"plain", {{"coop", 0.0}}}, {"c-arq", {{"coop", 1.0}}}};
  config.grid.add("speed_kmh", {20.0, 30.0});
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.points.size(), 4u);  // 2 cases x 2 grid points
  EXPECT_EQ(result.points[0].caseName, "plain");
  EXPECT_DOUBLE_EQ(result.points[0].params.get("coop", -1), 0.0);
  EXPECT_DOUBLE_EQ(result.points[0].params.get("speed_kmh", 0), 20.0);
  EXPECT_EQ(result.points[1].caseName, "plain");
  EXPECT_DOUBLE_EQ(result.points[1].params.get("speed_kmh", 0), 30.0);
  EXPECT_EQ(result.points[2].caseName, "c-arq");
  EXPECT_DOUBLE_EQ(result.points[2].params.get("coop", -1), 1.0);
  // The case column appears in the CSV and JSON only for case campaigns.
  const std::string csv = campaignCsv(result);
  EXPECT_EQ(csv.rfind("grid_index,case,replications,total_rounds", 0), 0u);
  EXPECT_NE(campaignPointsJson(result).find("\"case\":\"c-arq\""),
            std::string::npos);
}

TEST(CampaignTest, CaseOverridesBeatBaseAndLoseToAxes) {
  CampaignConfig config;
  config.scenario = "urban";
  config.replications = 1;
  config.threads = 1;
  config.base.set("rounds", 1);
  config.base.set("cars", 2);
  config.base.set("max_coop", 4);
  config.cases = {{"capped", {{"max_coop", 2.0}, {"gossip", 1.0}}}};
  config.grid.add("gossip", {0.0});
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.points.size(), 1u);
  // case beats base...
  EXPECT_DOUBLE_EQ(result.points[0].params.get("max_coop", -1), 2.0);
  // ...but the swept axis beats the case.
  EXPECT_DOUBLE_EQ(result.points[0].params.get("gossip", -1), 0.0);
}

TEST(CampaignTest, MasterSeedChangesResults) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 2;
  const CampaignResult a = runCampaign(config);
  config.masterSeed = 2009;
  const CampaignResult b = runCampaign(config);
  EXPECT_NE(campaignPointsJson(a), campaignPointsJson(b));
}

TEST(CampaignTest, ReplicationsUseDistinctSeeds) {
  // The per-job stream seeds are a pure function of (master, index) and
  // must not collide across a realistic campaign size.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t job = 0; job < 10000; ++job) {
    seeds.insert(Rng::deriveStreamSeed(2008, job));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(CampaignTest, GridPointsKeepDeclarationOrder) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 2;
  const CampaignResult result = runCampaign(config);
  // speed_kmh varies slowest (declared first), coop fastest.
  EXPECT_DOUBLE_EQ(result.points[0].params.get("speed_kmh", 0), 20.0);
  EXPECT_DOUBLE_EQ(result.points[0].params.get("coop", -1), 0.0);
  EXPECT_DOUBLE_EQ(result.points[1].params.get("coop", -1), 1.0);
  EXPECT_DOUBLE_EQ(result.points[2].params.get("speed_kmh", 0), 30.0);
  EXPECT_DOUBLE_EQ(result.points[3].params.get("coop", -1), 1.0);
}

TEST(CampaignTest, ScenarioDefaultsResolveIntoPointParams) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 2;
  const CampaignResult result = runCampaign(config);
  // "gossip" was never set by the campaign; the registered default lands
  // in the resolved params so emitted rows are self-describing.
  EXPECT_TRUE(result.points[0].params.has("gossip"));
  EXPECT_EQ(result.points[0].params.getInt("rounds", -1), 2);
}

TEST(CampaignTest, WorkerExceptionPropagates) {
  const std::string name = "campaign-test-throws";
  if (ScenarioRegistry::global().find(name) == nullptr) {
    ScenarioRegistry::global().add(ScenarioInfo{
        name,
        "always throws",
        {},
        [](const JobContext&) -> JobResult {
          throw std::runtime_error("job failed");
        }});
  }
  CampaignConfig config;
  config.scenario = name;
  config.replications = 3;
  // One worker, so job 0 deterministically fails first and the message
  // is stable enough to assert on.
  config.threads = 1;
  // The propagated error names the exact job -- global index, grid
  // point, replication -- so the operator can re-run it in isolation.
  try {
    runCampaign(config);
    FAIL() << "throwing scenario must fail the campaign";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("campaign job 0"), std::string::npos) << what;
    EXPECT_NE(what.find("grid point 0"), std::string::npos) << what;
    EXPECT_NE(what.find("replication 0"), std::string::npos) << what;
    EXPECT_NE(what.find("job failed"), std::string::npos) << what;
  }
}

TEST(CampaignTest, EngineCountsOutOfRangeThrowBeforeAnyJob) {
  // threads < 0 used to run on every core and haltAfterWaves == 0 halted
  // after one wave; both now fail naming the field, with no job run.
  static std::atomic<int> jobsRun{0};
  const std::string name = "campaign-test-counts-jobs";
  if (ScenarioRegistry::global().find(name) == nullptr) {
    ScenarioRegistry::global().add(ScenarioInfo{
        name, "counts its jobs", {}, [](const JobContext&) {
          ++jobsRun;
          JobResult result;
          result.rounds = 1;
          return result;
        }});
  }
  CampaignConfig config;
  config.scenario = name;
  config.replications = 3;
  config.threads = 1;
  const auto expectRejected = [](const CampaignConfig& bad,
                                 const std::string& field) {
    try {
      runCampaign(bad);
      FAIL() << field << " out of range must not run";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  CampaignConfig negativeThreads = config;
  negativeThreads.threads = -3;
  expectRejected(negativeThreads, "threads");
  CampaignConfig zeroWaves = config;
  zeroWaves.haltAfterWaves = 0;
  zeroWaves.checkpointPath = ::testing::TempDir() + "/zero_waves.ckpt";
  expectRejected(zeroWaves, "haltAfterWaves");
  EXPECT_EQ(jobsRun.load(), 0);
  EXPECT_FALSE(std::filesystem::exists(zeroWaves.checkpointPath));

  // The control: 0 threads (all cores) and a negative halt count (run to
  // completion) keep their meaning.
  config.threads = 0;
  config.haltAfterWaves = -1;
  EXPECT_EQ(runCampaign(config).jobCount, 3u);
  EXPECT_EQ(jobsRun.load(), 3);
}

TEST(CampaignTest, BadParamValuesFailNamingTheParam) {
  // Values the models cannot run -- a negative or huge round count hangs
  // the round loop, others trip internal asserts, 2.5 cars would run as
  // 2 -- must fail their job with an error naming the param and the
  // value, before any model is built.
  struct BadValue {
    const char* scenario;
    const char* param;
    double value;
  };
  const BadValue cases[] = {
      {"urban", "rounds", -5},        {"urban", "rounds", 1e10},
      {"urban", "cars", 0},           {"urban", "cars", 2.5},
      {"urban", "speed_kmh", 0},      {"urban", "speed_kmh", -3},
      {"urban", "pkts_per_s", 0},     {"urban", "gap_seconds", -4},
      {"urban", "gap_seconds", 0},    {"urban", "repeat", 0},
      {"urban", "batch", 0},          {"urban", "c2c_exponent", 0},
      {"urban", "selection", 1.5},    {"highway", "aps", 0},
      {"highway", "cars", 0},         {"highway", "speed_kmh", 0},
      {"highway", "road_length", 10}, {"highway_file", "aps", 0},
      {"highway_file", "file", 0},
  };
  for (const BadValue& bad : cases) {
    CampaignConfig config;
    config.scenario = bad.scenario;
    config.threads = 1;
    config.base.set("rounds", 1);
    config.base.set(bad.param, bad.value);
    const std::string label = std::string(bad.scenario) + " " + bad.param +
                              "=" + json::num(bad.value);
    try {
      runCampaign(config);
      ADD_FAILURE() << label << " ran";
    } catch (const std::exception& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(std::string(bad.param) + " must be"),
                std::string::npos)
          << label << ": " << what;
      EXPECT_NE(what.find("got " + json::num(bad.value)), std::string::npos)
          << label << ": " << what;
    }
  }
}

TEST(CampaignEmitTest, WritesOneFigureCsvPerPointAndFlow) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 2;
  const CampaignResult result = runCampaign(config);
  const std::string dir = ::testing::TempDir();
  // 4 grid points x 2 flows; multi-point campaigns embed the grid index.
  EXPECT_EQ(writeCampaignFigureCsvs(dir, "camp", result), 8u);
  std::ifstream in(dir + "/camp_p2_flow1.csv");
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "packet,rx_car1_mean,rx_car1_ci95,rx_car2_mean,rx_car2_ci95,"
            "after_coop_mean,after_coop_ci95,joint_mean,joint_ci95,joint_n");
}

TEST(CampaignEmitTest, CsvHasHeaderAndOneRowPerPoint) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 2;
  const CampaignResult result = runCampaign(config);
  const std::string csv = campaignCsv(result);
  const std::size_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, 1u + result.points.size());
  EXPECT_EQ(csv.rfind("grid_index,replications,total_rounds", 0), 0u);
  EXPECT_NE(csv.find("pct_lost_after_mean"), std::string::npos);
}

TEST(CampaignEmitTest, ArtefactWritersDropManifestSidecars) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 2;
  const CampaignResult result = runCampaign(config);
  const std::string path = ::testing::TempDir() + "/sidecar_probe.json";
  ASSERT_TRUE(writeCampaignJson(path, result));

  std::ifstream in(obs::manifestPathFor(path));
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const json::Value manifest = json::parse(text);
  EXPECT_EQ(manifest.at("format").asString(), "vanet-run-manifest");
  EXPECT_EQ(manifest.at("artifact").asString(), path);
  EXPECT_EQ(manifest.at("scenario").asString(), "urban");
  EXPECT_EQ(manifest.at("master_seed").asUInt64(), 2008u);
  EXPECT_EQ(manifest.at("threads").asInt64(), 2);
  const std::vector<json::Value>& points = manifest.at("points").asArray();
  ASSERT_EQ(points.size(), result.points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_EQ(points[p].at("grid_index").asUInt64(),
              result.points[p].gridIndex);
    EXPECT_EQ(points[p].at("replications").asInt64(),
              result.points[p].replications);
  }
  // The sidecar is a *separate* file: the artefact bytes stay the pure
  // render of the result, so byte-diff determinism checks are untouched.
  std::ifstream artefact(path);
  std::string artefactText((std::istreambuf_iterator<char>(artefact)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(artefactText, campaignJson(result));
}

TEST(CampaignEmitTest, WritersReportAFullDisk) {
  // A one-point result renders every artefact far below the stream
  // buffer size, so a full disk shows only when the file is closed; each
  // writer must still report it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  CampaignResult result;
  result.scenario = "synthetic";
  result.replications = 1;
  result.totalPoints = 1;
  result.totalJobs = 1;
  GridPointSummary point;
  point.replications = 1;
  point.rounds = 1;
  point.metrics["pdr"].add(0.5);
  result.points.push_back(point);

  const std::string link = ::testing::TempDir() + "/full_disk_artefact";
  std::filesystem::remove(link);
  std::filesystem::create_symlink("/dev/full", link);
  EXPECT_FALSE(writeCampaignCsv(link, result));
  EXPECT_FALSE(writeCampaignJson(link, result));
  EXPECT_FALSE(writeFigureCsv(link, trace::FlowFigure{}));
  EXPECT_FALSE(writeCampaignPartial(link, campaignPartial(result)));
  std::filesystem::remove(link);
}

TEST(CampaignEmitTest, JsonCarriesHeaderAndPoints) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 2;
  const CampaignResult result = runCampaign(config);
  const std::string json = campaignJson(result);
  EXPECT_NE(json.find("\"scenario\":\"urban\""), std::string::npos);
  EXPECT_NE(json.find("\"master_seed\":2008"), std::string::npos);
  EXPECT_NE(json.find("\"points\":["), std::string::npos);
  EXPECT_NE(json.find("\"pct_lost_after\""), std::string::npos);
  EXPECT_NE(json.find("\"table1\""), std::string::npos);
}

}  // namespace
}  // namespace vanet::runner
