#pragma once

/// Renders every field of a campaign partial through the library's text
/// renderers (table1ToJson, flowFigureToJson, protocolTotalsToJson,
/// runningStatsToJson): an oracle for partial round trips that does not
/// depend on the binary encoding under test, so a field the writer and
/// reader both dropped still shows up as a difference.

#include <string>

#include "analysis/serialize.h"
#include "runner/accumulate.h"
#include "trace/serialize.h"
#include "util/json.h"

namespace vanet::testing {

inline std::string partialText(const runner::CampaignPartial& partial) {
  std::string out = partial.scenario + " seed=" +
                    std::to_string(partial.masterSeed) + " shard=" +
                    std::to_string(partial.shard.index) + "/" +
                    std::to_string(partial.shard.count) + " reps=" +
                    std::to_string(partial.replications) + " target=" +
                    json::num(partial.targetRelativeCi95) + " " +
                    std::to_string(partial.minReplications) + ".." +
                    std::to_string(partial.maxReplications) + " " +
                    partial.targetMetric + " points=" +
                    std::to_string(partial.totalPoints) + " jobs=" +
                    std::to_string(partial.totalJobs) + " checkpoint=" +
                    std::to_string(partial.hasCheckpoint) + "," +
                    std::to_string(partial.checkpointCoveredReps) + "," +
                    std::to_string(partial.checkpointComplete) + "\n";
  for (const runner::GridPointSummary& point : partial.points) {
    out += std::to_string(point.gridIndex) + " " + point.caseName + " " +
           std::to_string(point.replications) + " " +
           std::to_string(point.rounds) + " " +
           json::num(point.achievedCi95) + "\n";
    for (const auto& [name, value] : point.params.values()) {
      out += " param " + name + "=" + json::num(value) + "\n";
    }
    out += " " + trace::table1ToJson(point.table1) + "\n";
    for (const auto& [flow, figure] : point.figures) {
      out += " flow " + std::to_string(flow) + " " +
             trace::flowFigureToJson(figure) + "\n";
    }
    out += " " + analysis::protocolTotalsToJson(point.totals) + "\n";
    for (const auto& [name, stats] : point.metrics) {
      out += " metric " + name + "=" + trace::runningStatsToJson(stats) + "\n";
    }
  }
  return out;
}

}  // namespace vanet::testing
