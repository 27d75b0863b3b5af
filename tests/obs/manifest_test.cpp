#include "obs/manifest.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/json.h"

namespace vanet::obs {
namespace {

RunManifest fullManifest() {
  RunManifest manifest;
  manifest.artifact = "out/campaign.json";
  manifest.tool = "example_campaign_sweep";
  manifest.args = {"--seed=2008", "--threads=2", "--out=out"};
  manifest.gitRev = "abc1234";
  manifest.buildFlags = "Release sanitize=OFF";
  manifest.scenario = "highway";
  manifest.masterSeed = 2008;
  manifest.threads = 2;
  manifest.shardIndex = 1;
  manifest.shardCount = 3;
  manifest.targetCi = 0.05;
  manifest.targetMetric = "pct_lost_after";
  manifest.wallSeconds = 1.25;
  manifest.jobsPerSecond = 12.5;
  manifest.specPath = "specs/table1.json";
  manifest.specDigest = 0xdeadbeefcafef00dULL;
  manifest.points = {{0, 4, 0.031}, {1, 8, 0.049}};
  return manifest;
}

TEST(ObsManifestTest, RoundTripsEveryField) {
  const RunManifest original = fullManifest();
  const json::Value parsed = json::parse(manifestJson(original));
  EXPECT_EQ(parsed.at("format").asString(), "vanet-run-manifest");
  EXPECT_EQ(parsed.at("version").asInt64(), 1);
  EXPECT_EQ(parsed.at("artifact").asString(), original.artifact);
  EXPECT_EQ(parsed.at("tool").asString(), original.tool);
  std::vector<std::string> args;
  for (const json::Value& arg : parsed.at("args").asArray()) {
    args.push_back(arg.asString());
  }
  EXPECT_EQ(args, original.args);
  EXPECT_EQ(parsed.at("git_rev").asString(), original.gitRev);
  EXPECT_EQ(parsed.at("build_flags").asString(), original.buildFlags);
  EXPECT_EQ(parsed.at("scenario").asString(), original.scenario);
  EXPECT_EQ(parsed.at("master_seed").asUInt64(), original.masterSeed);
  EXPECT_EQ(parsed.at("threads").asInt64(), original.threads);
  EXPECT_EQ(parsed.at("shard_index").asInt64(), original.shardIndex);
  EXPECT_EQ(parsed.at("shard_count").asInt64(), original.shardCount);
  EXPECT_DOUBLE_EQ(parsed.at("target_ci").asDouble(), original.targetCi);
  EXPECT_EQ(parsed.at("target_metric").asString(), original.targetMetric);
  EXPECT_DOUBLE_EQ(parsed.at("wall_seconds").asDouble(),
                   original.wallSeconds);
  EXPECT_DOUBLE_EQ(parsed.at("jobs_per_second").asDouble(),
                   original.jobsPerSecond);
  EXPECT_EQ(parsed.at("spec_path").asString(), original.specPath);
  EXPECT_EQ(parsed.at("spec_digest").asString(), "deadbeefcafef00d");
  const std::vector<json::Value>& points = parsed.at("points").asArray();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[1].at("grid_index").asUInt64(), 1u);
  EXPECT_EQ(points[1].at("replications").asInt64(), 8);
  EXPECT_DOUBLE_EQ(points[1].at("achieved_ci95").asDouble(), 0.049);
}

TEST(ObsManifestTest, SidecarPathAppendsSuffix) {
  EXPECT_EQ(manifestPathFor("out/campaign.csv"),
            "out/campaign.csv.manifest.json");
}

TEST(ObsManifestTest, SetRunIdentityCapturesToolBasenameAndArgs) {
  const char* argv[] = {"/usr/local/bin/my_tool", "--seed=1", "--progress"};
  setRunIdentity(3, argv);
  EXPECT_EQ(runTool(), "my_tool");
  ASSERT_EQ(runArgs().size(), 2u);
  EXPECT_EQ(runArgs()[0], "--seed=1");
  EXPECT_EQ(runArgs()[1], "--progress");

  RunManifest manifest = manifestForArtifact("a.json");
  EXPECT_EQ(manifest.artifact, "a.json");
  EXPECT_EQ(manifest.tool, "my_tool");
  EXPECT_EQ(manifest.args.size(), 2u);
  EXPECT_FALSE(manifest.gitRev.empty());
  EXPECT_FALSE(manifest.buildFlags.empty());
}

TEST(ObsManifestTest, WriteSidecarLandsNextToArtifactAndParses) {
  const std::string artifact = ::testing::TempDir() + "/manifest_probe.json";
  RunManifest manifest = fullManifest();
  manifest.artifact = artifact;
  ASSERT_TRUE(writeManifestSidecar(manifest));

  std::ifstream in(manifestPathFor(artifact));
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const json::Value parsed = json::parse(text);
  EXPECT_EQ(parsed.at("artifact").asString(), artifact);
  EXPECT_EQ(parsed.at("scenario").asString(), "highway");

  // Unwritable sidecar directory: warn-and-false, never throw -- the
  // artefact write must not fail because its provenance could not land.
  manifest.artifact = ::testing::TempDir() + "/no_such_dir/x.json";
  EXPECT_FALSE(writeManifestSidecar(manifest));
}

TEST(ObsManifestTest, SidecarOnAFullDiskReportsFailure) {
  // A sidecar is far below the stream buffer size, so its write fails
  // only when the file is closed; that failure must still reach the
  // caller.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  RunManifest manifest = fullManifest();
  manifest.artifact = ::testing::TempDir() + "/full_disk_probe.csv";
  const std::string sidecar = manifestPathFor(manifest.artifact);
  std::filesystem::remove(sidecar);
  std::filesystem::create_symlink("/dev/full", sidecar);
  EXPECT_FALSE(writeManifestSidecar(manifest));
  std::filesystem::remove(sidecar);
}

TEST(ObsManifestTest, SetRunSpecFlowsIntoEveryManifest) {
  setRunSpec("specs/ablation_speed.json", 0x0123456789abcdefULL);
  EXPECT_EQ(runSpecPath(), "specs/ablation_speed.json");
  EXPECT_EQ(runSpecDigest(), 0x0123456789abcdefULL);

  const RunManifest manifest = manifestForArtifact("b.csv");
  EXPECT_EQ(manifest.specPath, "specs/ablation_speed.json");
  EXPECT_EQ(manifest.specDigest, 0x0123456789abcdefULL);

  // The digest renders as a 16-hex-digit string (not a JSON number:
  // 64-bit values do not survive double rounding).
  const json::Value parsed = json::parse(manifestJson(manifest));
  EXPECT_EQ(parsed.at("spec_path").asString(), "specs/ablation_speed.json");
  EXPECT_EQ(parsed.at("spec_digest").asString(), "0123456789abcdef");

  setRunSpec("", 0);  // reset for the other tests in this binary
}

}  // namespace
}  // namespace vanet::obs
