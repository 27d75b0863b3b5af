/// \file round_order_test.cpp
/// The experiment fold layer's contract: run() equals the in-order fold
/// of runRound(0..rounds-1). The benchmark's round workloads rely on it
/// when they time runRound and fold the outcomes themselves.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/experiment.h"
#include "analysis/serialize.h"
#include "trace/serialize.h"

namespace vanet::analysis {
namespace {

std::string figuresJson(const std::map<FlowId, trace::FlowFigure>& figures) {
  std::string out;
  for (const auto& [flow, figure] : figures) {
    out += trace::flowFigureToJson(figure);
    out += "\n";
  }
  return out;
}

TEST(RoundOrderTest, UrbanRunIsTheInOrderFoldOfItsRounds) {
  UrbanExperimentConfig config;
  config.rounds = 4;
  config.seed = 7;
  UrbanExperiment experiment(config);

  trace::Table1Accumulator table1;
  trace::FigureAccumulator figures;
  ProtocolTotals totals;
  for (int round = 0; round < config.rounds; ++round) {
    const UrbanRoundOutcome outcome = experiment.runRound(round);
    table1.addRound(outcome.trace);
    figures.addRound(outcome.trace);
    totals.merge(outcome.totals);
  }

  const UrbanExperimentResult result = experiment.run();
  EXPECT_EQ(result.rounds, config.rounds);
  EXPECT_EQ(trace::table1ToJson(result.table1),
            trace::table1ToJson(table1.data()));
  EXPECT_EQ(figuresJson(result.figures), figuresJson(figures.flows()));
  EXPECT_EQ(protocolTotalsToJson(result.totals), protocolTotalsToJson(totals));
}

TEST(RoundOrderTest, HighwayRunIsTheInOrderFoldOfItsRounds) {
  HighwayExperimentConfig config;
  config.scenario.apCount = 2;
  config.scenario.roadLengthMetres = 2000.0;
  config.scenario.firstApArc = 600.0;
  config.carq.fileSizeSeqs = 60;
  config.rounds = 3;
  config.seed = 5;
  HighwayExperiment experiment(config);

  trace::Table1Accumulator table1;
  ProtocolTotals totals;
  std::map<NodeId, HighwayCarResult> cars;
  for (int round = 0; round < config.rounds; ++round) {
    const HighwayRoundOutcome outcome = experiment.runRound(round);
    table1.addRound(outcome.trace);
    totals.merge(outcome.totals);
    for (const HighwayCarRound& record : outcome.cars) {
      HighwayCarResult& car = cars[record.car];
      car.car = record.car;
      if (record.visitsAtComplete >= 0) {
        ++car.completedRounds;
        car.apVisitsToComplete.add(record.visitsAtComplete);
        car.timeToCompleteSeconds.add(record.completeAtSeconds);
      }
    }
  }

  const HighwayExperimentResult result = experiment.run();
  EXPECT_EQ(result.rounds, config.rounds);
  EXPECT_EQ(trace::table1ToJson(result.table1),
            trace::table1ToJson(table1.data()));
  EXPECT_EQ(protocolTotalsToJson(result.totals), protocolTotalsToJson(totals));
  ASSERT_EQ(result.cars.size(), cars.size());
  int completed = 0;
  for (const auto& [id, expected] : cars) {
    const HighwayCarResult& car = result.cars.at(id);
    EXPECT_EQ(car.car, expected.car);
    EXPECT_EQ(car.completedRounds, expected.completedRounds);
    EXPECT_EQ(trace::runningStatsToJson(car.apVisitsToComplete),
              trace::runningStatsToJson(expected.apVisitsToComplete));
    EXPECT_EQ(trace::runningStatsToJson(car.timeToCompleteSeconds),
              trace::runningStatsToJson(expected.timeToCompleteSeconds));
    completed += car.completedRounds;
  }
  // The per-car records carry completions, not only empty entries.
  EXPECT_GT(completed, 0);
}

}  // namespace
}  // namespace vanet::analysis
