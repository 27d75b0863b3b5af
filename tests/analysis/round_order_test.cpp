/// \file round_order_test.cpp
/// Round-order invariance of the experiment fold layer: outcomes arriving
/// in any permutation through the reorder window must merge to exactly the
/// serial reference, and the experiment/campaign drivers must be
/// bit-identical at --round-threads 1 vs N.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/experiment.h"
#include "analysis/round.h"
#include "analysis/serialize.h"
#include "runner/campaign.h"
#include "runner/emit.h"
#include "trace/serialize.h"
#include "util/reorder.h"
#include "util/thread_pool.h"

namespace vanet::analysis {
namespace {

UrbanExperimentConfig tinyUrbanConfig() {
  UrbanExperimentConfig config;
  config.rounds = 4;
  config.seed = 7;
  return config;
}

/// Serial reference: the exact fold run() performs, round by round.
struct UrbanReference {
  trace::Table1Data table1;
  std::map<FlowId, trace::FlowFigure> figures;
  ProtocolTotals totals;
};

UrbanReference urbanSerialReference(const UrbanExperiment& experiment,
                                    int rounds) {
  trace::Table1Accumulator table1;
  trace::FigureAccumulator figures;
  UrbanReference reference;
  for (int round = 0; round < rounds; ++round) {
    UrbanRoundOutcome outcome = experiment.runRound(round);
    table1.addRound(outcome.trace);
    figures.addRound(outcome.trace);
    reference.totals.merge(outcome.totals);
  }
  reference.table1 = table1.data();
  reference.figures = figures.flows();
  return reference;
}

std::string figuresJson(const std::map<FlowId, trace::FlowFigure>& figures) {
  std::string out;
  for (const auto& [flow, figure] : figures) {
    out += trace::flowFigureToJson(figure);
    out += "\n";
  }
  return out;
}

TEST(RoundOrderTest, PermutedArrivalThroughWindowMatchesSerialReference) {
  const UrbanExperimentConfig config = tinyUrbanConfig();
  const UrbanExperiment experiment(config);
  const UrbanReference reference =
      urbanSerialReference(experiment, config.rounds);

  // Deliver the rounds through the reorder window in a scrambled arrival
  // order (as a racing pool would): the accumulators must see them in
  // round order and produce byte-identical aggregates.
  std::vector<UrbanRoundOutcome> outcomes;
  for (int round = 0; round < config.rounds; ++round) {
    outcomes.push_back(experiment.runRound(round));
  }
  trace::Table1Accumulator table1;
  trace::FigureAccumulator figures;
  ProtocolTotals totals;
  util::ReorderWindow<UrbanRoundOutcome> window(
      static_cast<std::size_t>(config.rounds),
      static_cast<std::size_t>(config.rounds),
      [&](std::size_t, UrbanRoundOutcome& outcome) {
        table1.addRound(outcome.trace);
        figures.addRound(outcome.trace);
        totals.merge(outcome.totals);
      });
  std::size_t claimed = 0;
  for (int round = 0; round < config.rounds; ++round) {
    ASSERT_TRUE(window.claim(claimed));
  }
  for (const std::size_t arrival : {2u, 0u, 3u, 1u}) {
    window.complete(arrival, std::move(outcomes[arrival]));
  }
  window.rethrowIfFailed();
  EXPECT_EQ(window.folded(), static_cast<std::size_t>(config.rounds));

  EXPECT_EQ(trace::table1ToJson(table1.data()),
            trace::table1ToJson(reference.table1));
  EXPECT_EQ(figuresJson(figures.flows()), figuresJson(reference.figures));
  EXPECT_EQ(protocolTotalsToJson(totals),
            protocolTotalsToJson(reference.totals));
}

TEST(RoundOrderTest, UrbanRunIsBitIdenticalAcrossRoundWorkerCounts) {
  // Give the shared budget room so the parallel path genuinely runs
  // multi-threaded even on small CI machines.
  util::ThreadBudget::global().setLimit(8);
  UrbanExperimentConfig config = tinyUrbanConfig();
  config.roundThreads = 1;
  const UrbanExperimentResult serial = UrbanExperiment(config).run();
  EXPECT_EQ(serial.roundWorkers, 1);
  for (const int workers : {2, 4}) {
    config.roundThreads = workers;
    const UrbanExperimentResult parallel = UrbanExperiment(config).run();
    EXPECT_EQ(parallel.roundWorkers, workers);
    EXPECT_EQ(trace::table1ToJson(serial.table1),
              trace::table1ToJson(parallel.table1))
        << workers;
    EXPECT_EQ(figuresJson(serial.figures), figuresJson(parallel.figures))
        << workers;
    EXPECT_EQ(protocolTotalsToJson(serial.totals),
              protocolTotalsToJson(parallel.totals))
        << workers;
  }
  util::ThreadBudget::global().setLimit(0);
}

TEST(RoundOrderTest, HighwayRunIsBitIdenticalAcrossRoundWorkerCounts) {
  util::ThreadBudget::global().setLimit(8);
  HighwayExperimentConfig config;
  config.scenario.apCount = 2;
  config.scenario.roadLengthMetres = 2000.0;
  config.scenario.firstApArc = 600.0;
  config.carq.fileSizeSeqs = 60;
  config.rounds = 3;
  config.seed = 5;
  config.roundThreads = 1;
  const HighwayExperimentResult serial = HighwayExperiment(config).run();
  config.roundThreads = 3;
  const HighwayExperimentResult parallel = HighwayExperiment(config).run();
  util::ThreadBudget::global().setLimit(0);

  EXPECT_EQ(trace::table1ToJson(serial.table1),
            trace::table1ToJson(parallel.table1));
  EXPECT_EQ(protocolTotalsToJson(serial.totals),
            protocolTotalsToJson(parallel.totals));
  ASSERT_EQ(serial.cars.size(), parallel.cars.size());
  for (const auto& [car, serialCar] : serial.cars) {
    const HighwayCarResult& parallelCar = parallel.cars.at(car);
    EXPECT_EQ(serialCar.completedRounds, parallelCar.completedRounds);
    EXPECT_EQ(trace::runningStatsToJson(serialCar.apVisitsToComplete),
              trace::runningStatsToJson(parallelCar.apVisitsToComplete));
    EXPECT_EQ(trace::runningStatsToJson(serialCar.timeToCompleteSeconds),
              trace::runningStatsToJson(parallelCar.timeToCompleteSeconds));
  }
}

TEST(RoundOrderTest, RoundEngineDegradesToInlineWhenBudgetIsExhausted) {
  // Saturate the budget: a non-forced round engine must fall back to the
  // calling thread alone -- and still produce the same bytes.
  util::ThreadBudget& budget = util::ThreadBudget::global();
  const int hog = budget.acquire(budget.limit(), /*force=*/true);
  UrbanExperimentConfig config = tinyUrbanConfig();
  config.rounds = 2;
  config.roundThreads = 4;
  const UrbanExperimentResult starved = UrbanExperiment(config).run();
  budget.release(hog);
  EXPECT_EQ(starved.roundWorkers, 1);

  config.roundThreads = 1;
  const UrbanExperimentResult serial = UrbanExperiment(config).run();
  EXPECT_EQ(trace::table1ToJson(starved.table1),
            trace::table1ToJson(serial.table1));
}

TEST(RoundOrderTest, CampaignRoundThreadsKeepMergedBytesIdentical) {
  util::ThreadBudget::global().setLimit(8);
  runner::CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 2;
  config.threads = 1;
  config.base.set("rounds", 2);
  config.base.set("cars", 2);
  config.roundThreads = 1;
  const runner::CampaignResult serial = runner::runCampaign(config);
  config.roundThreads = 4;
  const runner::CampaignResult parallel = runner::runCampaign(config);
  util::ThreadBudget::global().setLimit(0);
  EXPECT_EQ(runner::campaignPointsJson(serial),
            runner::campaignPointsJson(parallel));
  EXPECT_EQ(runner::campaignCsv(serial), runner::campaignCsv(parallel));
}

}  // namespace
}  // namespace vanet::analysis
