/// \file invariance_test.cpp
/// The tentpole contract of the observability layer: instrumentation is
/// out-of-band. Result bytes must be identical with the registry enabled
/// or disabled, and the work-counting counters (sim.*, mac.*) must read
/// the same no matter how the jobs were scheduled, because they count
/// the workload, not the schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/counters.h"
#include "runner/campaign.h"
#include "runner/emit.h"

namespace vanet::runner {
namespace {

CampaignConfig tinyUrbanCampaign() {
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

/// The infostation file download: 8 APs, so most frames reach receivers
/// that cannot hear (deferred fades) and every AP<->AP link is planned
/// once per round (cached means).
CampaignConfig tinyHighwayFileCampaign() {
  CampaignConfig config;
  config.scenario = "highway_file";
  config.masterSeed = 2008;
  config.replications = 1;
  config.threads = 2;
  config.base.set("rounds", 2);
  config.base.set("aps", 8);
  config.base.set("cars", 3);
  config.base.set("file", 20);
  config.grid.add("coop", {0.0, 1.0});
  return config;
}

/// The deterministic slice of a snapshot: counters that tally simulation
/// work. Timers and scheduling counters (util.reorder.stalls) are
/// explicitly not here -- they measure this run, not the workload.
std::string workCounters(const obs::Snapshot& snapshot) {
  std::string out;
  for (const obs::CounterValue& counter : snapshot.counters) {
    const bool deterministic =
        counter.name.rfind("sim.", 0) == 0 ||
        counter.name.rfind("mac.", 0) == 0 ||
        counter.name == "campaign.jobs_run";
    if (!deterministic) continue;
    out += counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  return out;
}

TEST(ObsInvarianceTest, ResultBytesIdenticalWithObsOnOffAndProgress) {
  CampaignConfig config = tinyUrbanCampaign();
  obs::setEnabled(true);
  const CampaignResult withObs = runCampaign(config);

  obs::setEnabled(false);
  const CampaignResult withoutObs = runCampaign(config);
  obs::setEnabled(true);

  // --progress only writes rate-limited lines to stderr.
  config.progress = true;
  const CampaignResult withProgress = runCampaign(config);

  EXPECT_EQ(campaignPointsJson(withObs), campaignPointsJson(withoutObs));
  EXPECT_EQ(campaignCsv(withObs), campaignCsv(withoutObs));
  EXPECT_EQ(campaignPointsJson(withObs), campaignPointsJson(withProgress));
}

/// Runs `config` serially, then at 2 threads: the work counters must not
/// move.
void expectWorkCountersEqualAcrossScheduleAxes(CampaignConfig config,
                                               const std::string& jobsRun) {
  config.threads = 1;
  obs::resetAll();
  runCampaign(config);
  const obs::Snapshot snapshot = obs::takeSnapshot();
  const std::string serial = workCounters(snapshot);
  ASSERT_NE(serial.find("campaign.jobs_run=" + jobsRun + "\n"),
            std::string::npos)
      << serial;
  ASSERT_NE(serial.find("sim.events_dispatched="), std::string::npos);
  ASSERT_NE(serial.find("mac.frames_delivered="), std::string::npos);
  // The total still counts every drop; the causes split it.
  std::uint64_t causes = 0;
  for (const char* cause :
       {"half_duplex", "below_sensitivity", "collision", "channel_error",
        "burst"}) {
    causes += snapshot.counter(std::string("mac.frames_dropped.") + cause);
  }
  EXPECT_EQ(causes, snapshot.counter("mac.frames_dropped"));

  config.threads = 2;
  obs::resetAll();
  runCampaign(config);
  EXPECT_EQ(workCounters(obs::takeSnapshot()), serial);
}

TEST(ObsInvarianceTest, WorkCountersEqualAcrossScheduleAxes) {
  expectWorkCountersEqualAcrossScheduleAxes(tinyUrbanCampaign(), "8");
  expectWorkCountersEqualAcrossScheduleAxes(tinyHighwayFileCampaign(), "2");
  // The highway campaign took both cheap paths.
  const obs::Snapshot highway = obs::takeSnapshot();
  EXPECT_GT(highway.counter("mac.links_deferred"), 0u);
  EXPECT_GT(highway.counter("mac.links_cached"), 0u);
  EXPECT_GT(highway.counter("mac.frames_dropped.below_sensitivity"), 0u);
  EXPECT_GT(highway.counter("mac.frames_dropped.half_duplex"), 0u);
}

TEST(ObsInvarianceTest, ShardCountersSumToTheFullRun) {
  CampaignConfig config = tinyUrbanCampaign();
  obs::resetAll();
  runCampaign(config);
  const obs::Snapshot full = obs::takeSnapshot();

  // The two shards partition the job set, so per-counter totals add up.
  config.shard = Shard{0, 2};
  obs::resetAll();
  runCampaign(config);
  const obs::Snapshot first = obs::takeSnapshot();

  config.shard = Shard{1, 2};
  obs::resetAll();
  runCampaign(config);
  const obs::Snapshot second = obs::takeSnapshot();

  for (const obs::CounterValue& counter : full.counters) {
    const bool deterministic = counter.name.rfind("sim.", 0) == 0 ||
                               counter.name.rfind("mac.", 0) == 0 ||
                               counter.name == "campaign.jobs_run";
    if (!deterministic) continue;
    EXPECT_EQ(first.counter(counter.name) + second.counter(counter.name),
              counter.value)
        << counter.name;
  }
}

}  // namespace
}  // namespace vanet::runner
