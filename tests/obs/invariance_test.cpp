/// \file invariance_test.cpp
/// The tentpole contract of the observability layer: instrumentation is
/// out-of-band. Result bytes must be identical with the registry enabled
/// or disabled, and the work-counting counters (sim.*, mac.*) must read
/// the same no matter how the jobs were scheduled, because they count
/// the workload, not the schedule.

#include <gtest/gtest.h>

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

TEST(ObsInvarianceTest, WorkCountersEqualAcrossScheduleAxes) {
  CampaignConfig config = tinyUrbanCampaign();
  config.threads = 1;
  obs::resetAll();
  runCampaign(config);
  const std::string serial = workCounters(obs::takeSnapshot());
  ASSERT_NE(serial.find("campaign.jobs_run=8"), std::string::npos);
  ASSERT_NE(serial.find("sim.events_dispatched="), std::string::npos);
  ASSERT_NE(serial.find("mac.frames_delivered="), std::string::npos);

  config.threads = 2;
  obs::resetAll();
  runCampaign(config);
  EXPECT_EQ(workCounters(obs::takeSnapshot()), serial);

  config.roundThreads = 2;
  obs::resetAll();
  runCampaign(config);
  EXPECT_EQ(workCounters(obs::takeSnapshot()), serial);
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
