#include "runner/emit.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "analysis/csv.h"
#include "obs/manifest.h"
#include "util/file.h"
#include "util/json.h"
#include "util/log.h"

namespace vanet::runner {
namespace {

/// Shortest round-trip, locale-independent double rendering (see
/// json::num): equal bit patterns render to equal text, so byte
/// comparison of emitted artefacts is a bit-identity check on the
/// underlying stats.
using json::num;
using json::quote;

void appendStats(std::string& out, const RunningStats& stats) {
  out += "{\"count\":" + std::to_string(stats.count());
  out += ",\"mean\":" + num(stats.mean());
  out += ",\"stddev\":" + num(stats.stddev());
  out += ",\"ci95\":" + num(stats.confidence95());
  out += ",\"min\":" + num(stats.min());
  out += ",\"max\":" + num(stats.max());
  out += ",\"sum\":" + num(stats.sum());
  out += "}";
}

/// Sorted union of metric names over every grid point.
std::set<std::string> metricNames(const CampaignResult& result) {
  std::set<std::string> names;
  for (const GridPointSummary& point : result.points) {
    for (const auto& [name, stats] : point.metrics) {
      names.insert(name);
    }
  }
  return names;
}

bool anyCaseNames(const CampaignResult& result) {
  for (const GridPointSummary& point : result.points) {
    if (!point.caseName.empty()) return true;
  }
  return false;
}

}  // namespace

void writeCampaignArtifactManifest(const std::string& path,
                                   const CampaignResult& result) {
  obs::RunManifest manifest = obs::manifestForArtifact(path);
  manifest.scenario = result.scenario;
  manifest.masterSeed = result.masterSeed;
  manifest.threads = result.threads;
  manifest.shardIndex = result.shard.index;
  manifest.shardCount = result.shard.count;
  manifest.targetCi = result.targetRelativeCi95;
  manifest.targetMetric = result.targetMetric;
  manifest.wallSeconds = result.wallSeconds;
  manifest.jobsPerSecond = result.jobsPerSecond;
  manifest.points.reserve(result.points.size());
  for (const GridPointSummary& point : result.points) {
    manifest.points.push_back(obs::ManifestPoint{
        point.gridIndex, point.replications, point.achievedCi95});
  }
  obs::writeManifestSidecar(manifest);
}

std::string campaignCsv(const CampaignResult& result) {
  const std::set<std::string> metrics = metricNames(result);
  // Swept axes vary by point only through params; emit every resolved
  // param so a row is self-describing.
  std::set<std::string> paramNames;
  for (const GridPointSummary& point : result.points) {
    for (const auto& [name, value] : point.params.values()) {
      paramNames.insert(name);
    }
  }

  // "total_rounds" = simulated rounds merged into the row (the resolved
  // per-replication "rounds" param appears among the param columns). The
  // "case" column only exists for campaigns that declared cases, so
  // case-less campaigns keep their historical layout.
  const bool withCases = anyCaseNames(result);
  std::vector<std::string> headers{"grid_index"};
  if (withCases) headers.push_back("case");
  headers.push_back("replications");
  headers.push_back("total_rounds");
  for (const std::string& name : paramNames) headers.push_back(name);
  // mean/stddev/ci95 per metric: the ci95 column is the achieved 95 %
  // half-width -- what an adaptive campaign's stop rule judged, and the
  // error bar the paper's tables quote either way.
  for (const std::string& name : metrics) {
    headers.push_back(name + "_mean");
    headers.push_back(name + "_stddev");
    headers.push_back(name + "_ci95");
  }

  std::vector<std::vector<std::string>> rows;
  rows.reserve(result.points.size());
  for (const GridPointSummary& point : result.points) {
    std::vector<std::string> row{std::to_string(point.gridIndex)};
    if (withCases) row.push_back(point.caseName);
    row.push_back(std::to_string(point.replications));
    row.push_back(std::to_string(point.rounds));
    for (const std::string& name : paramNames) {
      row.push_back(point.params.has(name) ? num(point.params.get(name, 0.0))
                                           : std::string());
    }
    for (const std::string& name : metrics) {
      const auto it = point.metrics.find(name);
      if (it != point.metrics.end()) {
        row.push_back(num(it->second.mean()));
        row.push_back(num(it->second.stddev()));
        row.push_back(num(it->second.confidence95()));
      } else {
        row.emplace_back();
        row.emplace_back();
        row.emplace_back();
      }
    }
    rows.push_back(std::move(row));
  }
  return analysis::renderCsv(headers, rows);
}

bool writeCampaignCsv(const std::string& path, const CampaignResult& result) {
  if (!util::writeFile(path, campaignCsv(result))) {
    LOG_ERROR("cannot write " << path);
    return false;
  }
  writeCampaignArtifactManifest(path, result);
  return true;
}

std::string campaignPointsJson(const CampaignResult& result) {
  std::string out = "[";
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const GridPointSummary& point = result.points[p];
    if (p > 0) out += ",";
    out += "\n  {\"grid_index\":" + std::to_string(point.gridIndex);
    if (!point.caseName.empty()) {
      out += ",\"case\":" + quote(point.caseName);
    }
    out += ",\"replications\":" + std::to_string(point.replications);
    out += ",\"rounds\":" + std::to_string(point.rounds);
    if (!result.targetMetric.empty()) {
      out += ",\"achieved_ci95\":" + num(point.achievedCi95);
    }
    out += ",\"params\":{";
    bool first = true;
    for (const auto& [name, value] : point.params.values()) {
      if (!first) out += ",";
      first = false;
      out += quote(name) + ":" + num(value);
    }
    out += "},\"table1\":[";
    for (std::size_t r = 0; r < point.table1.rows.size(); ++r) {
      const trace::Table1Row& row = point.table1.rows[r];
      if (r > 0) out += ",";
      out += "{\"car\":" + std::to_string(row.car);
      out += ",\"tx_by_ap\":";
      appendStats(out, row.txByAp);
      out += ",\"lost_before\":";
      appendStats(out, row.lostBefore);
      out += ",\"lost_after\":";
      appendStats(out, row.lostAfter);
      out += ",\"lost_joint\":";
      appendStats(out, row.lostJoint);
      out += ",\"pct_lost_before\":";
      appendStats(out, row.pctLostBefore);
      out += ",\"pct_lost_after\":";
      appendStats(out, row.pctLostAfter);
      out += ",\"pct_lost_joint\":";
      appendStats(out, row.pctLostJoint);
      out += "}";
    }
    out += "],\"metrics\":{";
    first = true;
    for (const auto& [name, stats] : point.metrics) {
      if (!first) out += ",";
      first = false;
      out += quote(name) + ":";
      appendStats(out, stats);
    }
    out += "}}";
  }
  out += "\n]";
  return out;
}

std::string campaignJson(const CampaignResult& result) {
  std::string out = "{\n";
  out += "\"scenario\":" + quote(result.scenario) + ",\n";
  out += "\"master_seed\":" + std::to_string(result.masterSeed) + ",\n";
  if (result.targetRelativeCi95 > 0.0) {
    out += "\"target_ci\":" + num(result.targetRelativeCi95) + ",\n";
    out += "\"target_metric\":" + quote(result.targetMetric) + ",\n";
    out += "\"min_replications\":" + std::to_string(result.minReplications) +
           ",\n";
    out += "\"max_replications\":" + std::to_string(result.maxReplications) +
           ",\n";
    out += "\"waves\":" + std::to_string(result.waves) + ",\n";
  }
  out += "\"threads\":" + std::to_string(result.threads) + ",\n";
  out += "\"job_count\":" + std::to_string(result.jobCount) + ",\n";
  out += "\"wall_seconds\":" + num(result.wallSeconds) + ",\n";
  out += "\"jobs_per_second\":" + num(result.jobsPerSecond) + ",\n";
  out += "\"points\":" + campaignPointsJson(result) + "\n}\n";
  return out;
}

bool writeCampaignJson(const std::string& path, const CampaignResult& result) {
  if (!util::writeFile(path, campaignJson(result))) {
    LOG_ERROR("cannot write " << path);
    return false;
  }
  writeCampaignArtifactManifest(path, result);
  return true;
}

std::string renderCampaignSummary(const CampaignResult& result,
                                  const SweepGrid& grid) {
  std::ostringstream out;
  out << "campaign: scenario=" << result.scenario
      << " seed=" << result.masterSeed << " jobs=" << result.jobCount
      << " threads=" << result.threads;
  if (result.targetRelativeCi95 > 0.0) {
    out << " target-ci=" << result.targetRelativeCi95 << " ("
        << result.targetMetric << ", " << result.minReplications << ".."
        << result.maxReplications << " reps, " << result.waves << " waves)";
  }
  out << "\n";
  const std::set<std::string> metrics = metricNames(result);
  for (const GridPointSummary& point : result.points) {
    out << "  [" << point.gridIndex << "]";
    if (!point.caseName.empty()) out << " " << point.caseName;
    for (const SweepAxis& axis : grid.axes()) {
      out << " " << axis.name << "=" << point.params.get(axis.name, 0.0);
    }
    out << " (" << point.replications << " repl, " << point.rounds
        << " rounds)";
    if (!result.targetMetric.empty()) {
      char ci[48];
      std::snprintf(ci, sizeof ci, " ci95=%.3g", point.achievedCi95);
      out << ci;
    }
    for (const std::string& name : metrics) {
      const auto it = point.metrics.find(name);
      if (it == point.metrics.end()) continue;
      char cell[64];
      std::snprintf(cell, sizeof cell, " %s=%.2f", name.c_str(),
                    it->second.mean());
      out << cell;
    }
    out << "\n";
  }
  char footer[128];
  std::snprintf(footer, sizeof footer,
                "wall %.2fs, %.2f jobs/s on %d thread(s)\n",
                result.wallSeconds, result.jobsPerSecond, result.threads);
  out << footer;
  return out.str();
}

std::string figureSeriesCsv(const trace::FlowFigure& figure) {
  std::vector<std::string> headers{"packet"};
  // Columns in series-major order; every series pairs mean with the 95 %
  // CI half-width so the CSV plots directly as mean +- CI curves.
  std::vector<const SeriesAccumulator*> series;
  for (const auto& [car, acc] : figure.rxByCar) {
    headers.push_back("rx_car" + std::to_string(car) + "_mean");
    headers.push_back("rx_car" + std::to_string(car) + "_ci95");
    series.push_back(&acc);
  }
  headers.push_back("after_coop_mean");
  headers.push_back("after_coop_ci95");
  series.push_back(&figure.afterCoop);
  headers.push_back("joint_mean");
  headers.push_back("joint_ci95");
  series.push_back(&figure.joint);
  headers.push_back("joint_n");

  std::size_t length = 0;
  for (const SeriesAccumulator* acc : series) {
    length = std::max(length, acc->size());
  }
  std::vector<std::vector<std::string>> rows;
  rows.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    std::vector<std::string> row{std::to_string(i + 1)};
    for (const SeriesAccumulator* acc : series) {
      if (i < acc->size()) {
        row.push_back(num(acc->at(i).mean()));
        row.push_back(num(acc->at(i).confidence95()));
      } else {
        row.emplace_back();
        row.emplace_back();
      }
    }
    row.push_back(std::to_string(
        i < figure.joint.size() ? figure.joint.at(i).count() : 0));
    rows.push_back(std::move(row));
  }
  return analysis::renderCsv(headers, rows);
}

bool writeFigureCsv(const std::string& path, const trace::FlowFigure& figure) {
  if (util::writeFile(path, figureSeriesCsv(figure))) return true;
  LOG_ERROR("cannot write " << path);
  return false;
}

std::size_t writeCampaignFigureCsvs(const std::string& dir,
                                    const std::string& base,
                                    const CampaignResult& result,
                                    std::vector<std::string>* writtenPaths) {
  std::size_t written = 0;
  for (const GridPointSummary& point : result.points) {
    for (const auto& [flow, figure] : point.figures) {
      std::string path = dir + "/" + base;
      if (result.points.size() > 1) {
        path += "_p" + std::to_string(point.gridIndex);
      }
      path += "_flow" + std::to_string(flow) + ".csv";
      if (!writeFigureCsv(path, figure)) return written;
      writeCampaignArtifactManifest(path, result);
      if (writtenPaths != nullptr) writtenPaths->push_back(path);
      ++written;
    }
  }
  return written;
}

}  // namespace vanet::runner
