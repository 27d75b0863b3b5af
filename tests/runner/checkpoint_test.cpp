/// \file checkpoint_test.cpp
/// Per-wave checkpoint/resume: a campaign killed at a wave barrier and
/// restarted from its checkpoint file must emit byte-identical final
/// artefacts -- across thread counts and shard merges -- a checkpoint
/// must never be mistaken for a finished shard partial, and a damaged or
/// unwritable checkpoint must fail loudly instead of losing work.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/partial_binary.h"
#include "util/binio.h"

namespace vanet::runner {
namespace {

/// Jobs the noise scenario has run, so a test can prove that a failed
/// resume simulated nothing.
std::atomic<int> gNoiseJobs{0};

/// Same synthetic scenario the adaptive tests use: "noise" = 0 reports a
/// constant metric (converges at the floor), anything else spreads
/// samples by a seed hash (runs to the cap under a tight target).
const std::string& noiseScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "checkpoint-test-noise",
        "constant or seed-noisy metric, no simulation",
        {{"noise", 0.0, "0 = constant metric, else noise amplitude"},
         {"extra", 0.0, "unused; a second axis for sharding"}},
        [](const JobContext& context) {
          gNoiseJobs.fetch_add(1, std::memory_order_relaxed);
          JobResult result;
          const double noise = context.params.get("noise", 0.0);
          result.metrics["m"] =
              10.0 + noise * static_cast<double>(context.seed % 1000u);
          result.rounds = 1;
          return result;
        }});
    return std::string("checkpoint-test-noise");
  }();
  return name;
}

/// An adaptive campaign with a mixed grid: one point stops at the floor,
/// the noisy ones double through every wave to the cap (4 barriers).
CampaignConfig mixedAdaptive() {
  CampaignConfig config;
  config.scenario = noiseScenario();
  config.masterSeed = 2008;
  config.targetRelativeCi95 = 1e-9;
  config.minReplications = 2;
  config.maxReplications = 16;
  config.targetMetric = "m";
  config.grid.add("noise", {0.0, 1.0, 2.0});
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(CheckpointTest, HaltAfterWaveWritesResumableCheckpoint) {
  const CampaignResult reference = runCampaign(mixedAdaptive());

  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/halt1.ckpt";
  config.haltAfterWaves = 1;
  const CampaignResult halted = runCampaign(config);
  EXPECT_TRUE(halted.halted);
  EXPECT_TRUE(halted.points.empty());  // fold state lives in the file

  // The checkpoint is a binary partial carrying the resume trailer,
  // marked incomplete.
  const CampaignPartial checkpoint =
      readCampaignPartial(config.checkpointPath);
  EXPECT_EQ(slurp(config.checkpointPath).rfind("VNETPART", 0), 0u);
  EXPECT_TRUE(checkpoint.hasCheckpoint);
  EXPECT_FALSE(checkpoint.checkpointComplete);
  EXPECT_EQ(checkpoint.checkpointCoveredReps, 2);  // wave 0 covers min=2

  // Restarting from it finishes the campaign byte-identically.
  config.haltAfterWaves = -1;
  config.resume = true;
  const CampaignResult resumed = runCampaign(config);
  EXPECT_FALSE(resumed.halted);
  EXPECT_EQ(campaignPointsJson(resumed), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(resumed), campaignCsv(reference));
  // The final barrier rewrote the checkpoint as complete.
  EXPECT_TRUE(readCampaignPartial(config.checkpointPath).checkpointComplete);
}

TEST(CheckpointTest, HaltWithoutACheckpointFailsBeforeAnyJob) {
  // A halted run returns no points, so without a checkpoint its waves
  // would be simulated and thrown away.
  CampaignConfig config = mixedAdaptive();
  config.haltAfterWaves = 1;
  gNoiseJobs = 0;
  try {
    runCampaign(config);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("checkpoint"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(gNoiseJobs.load(), 0);
}

TEST(CheckpointTest, EveryInterruptionPointResumesByteIdentical) {
  const CampaignResult reference = runCampaign(mixedAdaptive());
  const std::string refJson = campaignPointsJson(reference);
  // Kill after wave 1, 2, 3 in turn: each restart must converge to the
  // same bytes no matter where the first process died.
  for (int killAfter = 1; killAfter <= 3; ++killAfter) {
    CampaignConfig config = mixedAdaptive();
    config.checkpointPath = ::testing::TempDir() + "/kill" +
                            std::to_string(killAfter) + ".ckpt";
    config.haltAfterWaves = killAfter;
    ASSERT_TRUE(runCampaign(config).halted) << killAfter;
    config.haltAfterWaves = -1;
    config.resume = true;
    const CampaignResult resumed = runCampaign(config);
    EXPECT_EQ(campaignPointsJson(resumed), refJson) << killAfter;
  }
}

TEST(CheckpointTest, ResumeIsByteIdenticalAcrossThreads) {
  CampaignConfig config = mixedAdaptive();
  config.threads = 1;
  const CampaignResult reference = runCampaign(config);

  // Die single-threaded, resume on 4 workers: the fold state in the
  // checkpoint is execution-order independent.
  config.checkpointPath = ::testing::TempDir() + "/threads.ckpt";
  config.haltAfterWaves = 2;
  ASSERT_TRUE(runCampaign(config).halted);
  config.haltAfterWaves = -1;
  config.resume = true;
  config.threads = 4;
  const CampaignResult resumed = runCampaign(config);
  EXPECT_EQ(campaignPointsJson(resumed), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(resumed), campaignCsv(reference));
}

TEST(CheckpointTest, ShardedResumesMergeByteIdentical) {
  CampaignConfig config = mixedAdaptive();
  config.grid.add("extra", {0.0, 1.0});  // 6 points over 2 shards
  const CampaignResult reference = runCampaign(config);

  // Each shard process dies at wave 1, resumes, and writes its binary
  // partial; the merged artefacts match the uninterrupted run.
  std::vector<std::string> partialPaths;
  for (int shard = 0; shard < 2; ++shard) {
    CampaignConfig sharded = config;
    sharded.shard = Shard{shard, 2};
    sharded.checkpointPath = ::testing::TempDir() + "/shard" +
                             std::to_string(shard) + ".ckpt";
    sharded.haltAfterWaves = 1;
    ASSERT_TRUE(runCampaign(sharded).halted) << shard;
    sharded.haltAfterWaves = -1;
    sharded.resume = true;
    const CampaignResult result = runCampaign(sharded);
    const std::string path = ::testing::TempDir() + "/shard" +
                             std::to_string(shard) + ".part";
    ASSERT_TRUE(writeCampaignPartial(path, campaignPartial(result)));
    partialPaths.push_back(path);
  }
  const CampaignResult merged = resultFromPartialFiles(partialPaths);
  EXPECT_EQ(campaignPointsJson(merged), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(merged), campaignCsv(reference));
}

TEST(CheckpointTest, ResumeFromCompleteCheckpointReplaysNothing) {
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/complete.ckpt";
  const CampaignResult reference = runCampaign(config);
  ASSERT_TRUE(readCampaignPartial(config.checkpointPath).checkpointComplete);
  // Resuming a finished campaign runs zero further jobs and reproduces
  // the same points.
  config.resume = true;
  const CampaignResult resumed = runCampaign(config);
  EXPECT_EQ(resumed.waves, 0);
  EXPECT_EQ(campaignPointsJson(resumed), campaignPointsJson(reference));
}

TEST(CheckpointTest, ResumeValidatesTheCheckpoint) {
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/validate.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  config.haltAfterWaves = -1;
  config.resume = true;

  // A checkpoint from a different campaign must be refused field by
  // field, not silently folded into the wrong run.
  CampaignConfig foreign = config;
  foreign.masterSeed = 9999;
  try {
    runCampaign(foreign);
    FAIL() << "foreign checkpoint must not resume";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("checkpoint describes a different campaign"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(config.checkpointPath), std::string::npos) << what;
  }

  // --resume without a checkpoint path is a usage error.
  CampaignConfig pathless = config;
  pathless.checkpointPath.clear();
  EXPECT_THROW(runCampaign(pathless), std::invalid_argument);

  // A missing checkpoint file fails loudly instead of starting over.
  CampaignConfig missing = config;
  missing.checkpointPath = ::testing::TempDir() + "/no_such.ckpt";
  EXPECT_THROW(runCampaign(missing), std::runtime_error);

  // A finished shard partial is not a checkpoint.
  CampaignConfig donor = mixedAdaptive();
  const std::string partialPath = ::testing::TempDir() + "/finished.part";
  ASSERT_TRUE(writeCampaignPartial(partialPath,
                                   campaignPartial(runCampaign(donor))));
  CampaignConfig wrongKind = config;
  wrongKind.checkpointPath = partialPath;
  try {
    runCampaign(wrongKind);
    FAIL() << "a shard partial must not pass as a checkpoint";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("not a checkpoint"),
              std::string::npos)
        << error.what();
  }
}

TEST(CheckpointTest, TruncatedCheckpointFailsResumeBeforeAnyJob) {
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/intact.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  const std::string bytes = slurp(config.checkpointPath);

  // Prologue: magic (8), version (4) and section count (4), then one
  // 24-byte table entry {id, flags, offset u64, length u64} per section:
  // header, checkpoint, points.
  const std::size_t table = 16;
  const std::size_t header = table + 3 * 24;
  util::BinReader pointsEntry(
      std::string_view(bytes).substr(table + 2 * 24 + 8, 8));
  const std::size_t points = pointsEntry.u64("points section offset");
  ASSERT_LT(points + 8 + 10, bytes.size());
  const std::size_t cuts[] = {
      0,                 // empty file
      7,                 // inside the magic
      table + 10,        // inside the section table
      header + 5,        // inside the header section
      points + 8 + 10,   // inside the first point record
      bytes.size() - 1,  // one byte short of the checksum
  };
  for (const std::size_t cut : cuts) {
    CampaignConfig resume = mixedAdaptive();
    resume.checkpointPath = ::testing::TempDir() + "/cut" +
                            std::to_string(cut) + ".ckpt";
    std::ofstream(resume.checkpointPath, std::ios::binary)
        << bytes.substr(0, cut);
    resume.resume = true;
    gNoiseJobs = 0;
    try {
      runCampaign(resume);
      ADD_FAILURE() << "checkpoint cut at " << cut << " resumed";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind(resume.checkpointPath + ": ", 0), 0u) << what;
      EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    }
    EXPECT_EQ(gNoiseJobs.load(), 0) << "cut at " << cut;
  }
}

TEST(CheckpointTest, FailedCheckpointWriteKeepsThePreviousCheckpoint) {
  namespace fs = std::filesystem;
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/full_disk.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  const std::string before = slurp(config.checkpointPath);

  // The next barrier's checkpoint fits the stream buffer, so writing it
  // to a full disk fails only when FILE.tmp is closed. That failure must
  // stop the run before the rename replaces the intact checkpoint.
  const std::string tmp = config.checkpointPath + ".tmp";
  fs::remove(tmp);
  fs::create_symlink("/dev/full", tmp);
  config.haltAfterWaves = -1;
  config.resume = true;
  EXPECT_THROW(runCampaign(config), std::runtime_error);
  fs::remove(tmp);

  EXPECT_TRUE(fs::is_regular_file(fs::symlink_status(config.checkpointPath)));
  // Read at most one byte past the old size: had the symlink been renamed
  // over the checkpoint, reads from /dev/full would never end.
  std::ifstream in(config.checkpointPath, std::ios::binary);
  std::string after(before.size() + 1, '\0');
  in.read(after.data(), static_cast<std::streamsize>(after.size()));
  after.resize(static_cast<std::size_t>(in.gcount()));
  EXPECT_EQ(after, before);
}

TEST(CheckpointTest, UnfinishedCheckpointIsNotAMergeableShard) {
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/notashard.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  const CampaignPartial checkpoint =
      readCampaignPartial(config.checkpointPath);
  try {
    mergeCampaignPartials({checkpoint});
    FAIL() << "an unfinished checkpoint must not merge as a shard";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(
        std::string(error.what()).find("unfinished wave checkpoint"),
        std::string::npos)
        << error.what();
  }
}

TEST(CheckpointTest, CheckpointRoundTripsThroughTheBinaryFormat) {
  // The checkpoint trailer itself survives serialize -> parse ->
  // serialize bit for bit (it rides the v3 CHECKPOINT section).
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/roundtrip.ckpt";
  config.haltAfterWaves = 2;
  ASSERT_TRUE(runCampaign(config).halted);
  const std::string bytes = slurp(config.checkpointPath);
  const CampaignPartial parsed = parseCampaignPartialBinary(bytes);
  EXPECT_TRUE(parsed.hasCheckpoint);
  EXPECT_EQ(parsed.checkpointCoveredReps, 4);  // waves 0+1 cover 2, 4
  EXPECT_EQ(campaignPartialBinary(parsed), bytes);
}

}  // namespace
}  // namespace vanet::runner
