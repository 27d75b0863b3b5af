/// \file plugin_scenario_test.cpp
/// Out-of-library scenario registration: a translation unit the vanet
/// library knows nothing about adds a scenario to the global registry
/// (at static init, exactly as a plug-in would), and a campaign spec
/// naming it parses, plans, runs, and emits artefacts end to end.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "runner/campaign.h"
#include "runner/registry.h"
#include "runner/spec.h"

namespace vanet::runner {
namespace {

/// The plug-in: registered at static-initialization time, before main,
/// with its own default target metric and emit list.
const bool kPluginScenarioRegistered = [] {
  ScenarioRegistry::global().add({
      "plugin-echo",
      "test plug-in: echoes its parameters as metrics",
      {{"gain", 2.0, "multiplier applied to the replication index"},
       {"rounds", 1.0, "rounds per job (unused, present for the common base)"}},
      [](const JobContext& job) {
        JobResult result;
        result.metrics["echo"] =
            job.params.get("gain", 0.0) * (1.0 + job.replication);
        result.metrics["pdr"] = 1.0;
        result.rounds = 1;
        return result;
      },
      /*defaultTargetMetric=*/"echo",
      /*defaultEmit=*/{"campaign_csv"},
  });
  return true;
}();

TEST(PluginScenarioTest, RegistrationRunsBeforeMain) {
  ASSERT_TRUE(kPluginScenarioRegistered);
  const ScenarioInfo* info = ScenarioRegistry::global().find("plugin-echo");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->defaultTargetMetric, "echo");
  EXPECT_EQ(info->defaultEmit, std::vector<std::string>{"campaign_csv"});
  // The registry's listings and defaults() see it like any built-in.
  EXPECT_NE(registeredScenarioList().find("plugin-echo"), std::string::npos);
  EXPECT_DOUBLE_EQ(
      ScenarioRegistry::global().defaults("plugin-echo").get("gain", 0.0),
      2.0);
}

TEST(PluginScenarioTest, SpecDrivenCampaignRunsEndToEnd) {
  // Specs for plug-in scenarios parse anywhere (the registry is only
  // consulted at plan time), so this text could ship in any repo.
  const std::string text =
      "{\n"
      "  \"format\": \"vanet-campaign-spec\",\n"
      "  \"version\": 1,\n"
      "  \"name\": \"plugin_echo\",\n"
      "  \"scenario\": \"plugin-echo\",\n"
      "  \"seed\": 42,\n"
      "  \"replications\": 2,\n"
      "  \"base\": {\"gain\": 3},\n"
      "  \"grid\": [{\"axis\": \"gain\", \"values\": [1, 3]}]\n"
      "}\n";
  const CampaignSpec spec = parseCampaignSpec(text);
  EXPECT_EQ(spec.scenario, "plugin-echo");

  CampaignConfig config = campaignConfigFromSpec(spec);
  config.threads = 1;
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.points.size(), 2u);
  // replications 1 and 2 of gain g average to g * 1.5.
  EXPECT_DOUBLE_EQ(result.points[0].metrics.at("echo").mean(), 1.5);
  EXPECT_DOUBLE_EQ(result.points[1].metrics.at("echo").mean(), 4.5);

  // The scenario's defaultEmit drives the artefact list.
  const std::vector<SpecEmit> emits = resolvedEmits(spec);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].kind, "campaign_csv");
  EXPECT_EQ(emits[0].name, "plugin_echo");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "vanet_plugin_spec_test")
          .string();
  std::filesystem::create_directories(dir);
  std::vector<std::string> written;
  ASSERT_TRUE(writeSpecArtifacts(spec, result, dir, written));
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], dir + "/plugin_echo_campaign.csv");
  std::ifstream in(written[0]);
  EXPECT_TRUE(in.good());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vanet::runner
