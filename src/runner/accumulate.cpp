#include "runner/accumulate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/manifest.h"
#include "runner/partial_binary.h"
#include "util/file.h"
#include "util/log.h"

namespace vanet::runner {

CampaignAccumulator::CampaignAccumulator(const CampaignPlan& plan)
    : adaptive_(plan.adaptive()),
      targetRelativeCi95_(plan.targetRelativeCi95()),
      minReplications_(plan.minReplications()),
      maxReplications_(plan.replications()),
      targetMetric_(plan.targetMetric()),
      expectedJobs_(plan.shardJobCount()) {
  points_.reserve(plan.shardPointIndices().size());
  for (const std::size_t p : plan.shardPointIndices()) {
    const PlannedPoint& planned = plan.points()[p];
    GridPointSummary summary;
    summary.gridIndex = planned.gridIndex;
    summary.caseName = planned.caseName;
    summary.params = planned.params;
    points_.push_back(std::move(summary));
  }
}

void CampaignAccumulator::fold(std::size_t shardSlot, int replication,
                               const JobResult& result) {
  if (shardSlot >= points_.size()) {
    throw std::logic_error("campaign fold: shard slot " +
                           std::to_string(shardSlot) + " out of range (" +
                           std::to_string(points_.size()) + " points)");
  }
  GridPointSummary& point = points_[shardSlot];
  // Per-point ascending replications without gaps: merges only combine
  // state within one point, so this ordering (which every backend's
  // wave + window discipline guarantees) is exactly what makes the
  // merged bytes a pure function of the plan.
  if (replication != point.replications) {
    throw std::logic_error(
        "campaign fold out of order: point slot " + std::to_string(shardSlot) +
        " got replication " + std::to_string(replication) + ", expected " +
        std::to_string(point.replications));
  }
  point.table1.merge(result.table1);
  for (const auto& [flow, figure] : result.figures) {
    point.figures[flow].merge(figure);
  }
  point.totals.merge(result.totals);
  for (const auto& [name, value] : result.metrics) {
    point.metrics[name].add(value);
  }
  point.replications += 1;
  point.rounds += result.rounds;
  if (!targetMetric_.empty()) {
    const auto it = point.metrics.find(targetMetric_);
    point.achievedCi95 =
        it != point.metrics.end() ? it->second.confidence95() : 0.0;
  }
  ++folded_;
}

bool CampaignAccumulator::converged(const GridPointSummary& point) const {
  const auto it = point.metrics.find(targetMetric_);
  if (it == point.metrics.end()) return false;  // unevaluable: run to cap
  // One sample has no confidence interval -- confidence95() returns 0
  // below two, which must not read as "target met" (minReplications=1
  // would otherwise stop every point after a single replication).
  if (it->second.count() < 2) return false;
  const double ci = it->second.confidence95();
  const double mean = std::abs(it->second.mean());
  // A zero-mean point has no defined relative width: only a degenerate
  // (zero-CI) sample set counts as converged; anything else runs to the
  // cap rather than stopping on an arbitrary scale.
  if (mean == 0.0) return ci == 0.0;
  return ci / mean <= targetRelativeCi95_;
}

bool CampaignAccumulator::pointDone(std::size_t shardSlot) const {
  const GridPointSummary& point = points_.at(shardSlot);
  if (!adaptive_) {
    return point.replications >= maxReplications_;
  }
  if (point.replications < minReplications_) return false;
  return point.replications >= maxReplications_ || converged(point);
}

bool CampaignAccumulator::complete() const noexcept {
  if (!adaptive_) return folded_ == expectedJobs_;
  for (std::size_t slot = 0; slot < points_.size(); ++slot) {
    if (!pointDone(slot)) return false;
  }
  return true;
}

std::vector<GridPointSummary> CampaignAccumulator::take() {
  if (!complete()) {
    throw std::logic_error("campaign fold incomplete: " +
                           std::to_string(folded_) + " of " +
                           std::to_string(expectedJobs_) +
                           " planned jobs folded");
  }
  return std::move(points_);
}

void CampaignAccumulator::restore(std::vector<GridPointSummary> points) {
  if (points.size() != points_.size()) {
    throw std::runtime_error(
        "checkpoint restore: " + std::to_string(points.size()) +
        " points, but the plan's shard has " + std::to_string(points_.size()));
  }
  std::size_t folded = 0;
  for (std::size_t slot = 0; slot < points.size(); ++slot) {
    if (points[slot].gridIndex != points_[slot].gridIndex) {
      throw std::runtime_error(
          "checkpoint restore: slot " + std::to_string(slot) +
          " carries grid index " + std::to_string(points[slot].gridIndex) +
          ", plan expects " + std::to_string(points_[slot].gridIndex));
    }
    folded += static_cast<std::size_t>(points[slot].replications);
  }
  points_ = std::move(points);
  folded_ = folded;
}

bool writeCampaignPartial(const std::string& path,
                          const CampaignPartial& partial,
                          PartialFormat /*format*/) {
  if (!util::writeFile(path, campaignPartialBinary(partial))) {
    LOG_ERROR("cannot write " << path);
    return false;
  }
  // Provenance sidecar (best effort; never fails the partial write).
  obs::RunManifest manifest = obs::manifestForArtifact(path);
  manifest.scenario = partial.scenario;
  manifest.masterSeed = partial.masterSeed;
  manifest.shardIndex = partial.shard.index;
  manifest.shardCount = partial.shard.count;
  manifest.targetCi = partial.targetRelativeCi95;
  manifest.targetMetric = partial.targetMetric;
  manifest.points.reserve(partial.points.size());
  for (const GridPointSummary& point : partial.points) {
    manifest.points.push_back(obs::ManifestPoint{
        point.gridIndex, point.replications, point.achievedCi95});
  }
  obs::writeManifestSidecar(manifest);
  return true;
}

CampaignPartial readCampaignPartial(const std::string& path) {
  const std::string bytes = util::readFile(path);  // names the path itself
  try {
    CampaignPartial partial = parseCampaignPartialBinary(bytes);
    partial.sourcePath = path;
    return partial;
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

const char* campaignMismatch(const CampaignPartial& a,
                             const CampaignPartial& b) {
  if (a.scenario != b.scenario) return "scenario";
  if (a.masterSeed != b.masterSeed) return "master seed";
  if (a.shard.count != b.shard.count) return "shard count";
  if (a.replications != b.replications) return "replication cap";
  if (a.targetRelativeCi95 != b.targetRelativeCi95 ||
      a.minReplications != b.minReplications ||
      a.maxReplications != b.maxReplications ||
      a.targetMetric != b.targetMetric) {
    return "adaptive stop rule";
  }
  if (a.totalPoints != b.totalPoints || a.totalJobs != b.totalJobs) {
    return "grid totals";
  }
  return nullptr;
}

namespace {

/// Merge errors must name the culprit: "shard i/N from 'file'" pins
/// exactly which partial (and which file on disk) broke the set.
std::string describePartial(const CampaignPartial& partial) {
  std::string text = "shard " + std::to_string(partial.shard.index) + "/" +
                     std::to_string(partial.shard.count);
  if (!partial.sourcePath.empty()) {
    text += " from '" + partial.sourcePath + "'";
  }
  return text;
}

}  // namespace

std::vector<GridPointSummary> mergeCampaignPartials(
    std::vector<CampaignPartial> partials) {
  if (partials.empty()) {
    throw std::runtime_error("no campaign partials to merge");
  }
  std::sort(partials.begin(), partials.end(),
            [](const CampaignPartial& a, const CampaignPartial& b) {
              return a.shard.index < b.shard.index;
            });
  const CampaignPartial& first = partials.front();
  if (partials.size() != static_cast<std::size_t>(first.shard.count)) {
    throw std::runtime_error(
        "expected " + std::to_string(first.shard.count) +
        " shard partials, got " + std::to_string(partials.size()) +
        " (first: " + describePartial(first) + ")");
  }
  // Every grid point must come from some shard, so a grid larger than
  // the points held is incomplete -- and must not size the allocation
  // below from an unchecked header field. With this check, the loop's
  // range and overlap checks also prove that every point is covered.
  std::size_t held = 0;
  for (const CampaignPartial& partial : partials) {
    held += partial.points.size();
  }
  if (first.totalPoints > held) {
    throw std::runtime_error(
        "the shard partials hold " + std::to_string(held) + " of " +
        std::to_string(first.totalPoints) +
        " grid points: the rest are missing from every shard");
  }
  std::vector<GridPointSummary> merged(first.totalPoints);
  std::vector<bool> filled(first.totalPoints, false);
  for (std::size_t s = 0; s < partials.size(); ++s) {
    CampaignPartial& partial = partials[s];
    // A checkpoint mid-campaign is resume state, not a shard result:
    // folding it in would silently drop every replication past its wave.
    if (partial.hasCheckpoint && !partial.checkpointComplete) {
      throw std::runtime_error(describePartial(partial) +
                               " is an unfinished wave checkpoint (resume "
                               "state), not a finished shard partial");
    }
    if (const char* field = campaignMismatch(partial, first)) {
      throw std::runtime_error("shard partials describe different campaigns (" +
                               describePartial(partial) + " disagrees on " +
                               field + ")");
    }
    if (partial.shard.index != static_cast<int>(s)) {
      throw std::runtime_error(
          "missing or duplicate shard " + std::to_string(s) +
          " in partial set (got " + describePartial(partial) + ")");
    }
    for (GridPointSummary& point : partial.points) {
      if (point.gridIndex >= merged.size()) {
        throw std::runtime_error(
            "partial grid index " + std::to_string(point.gridIndex) +
            " out of range (" + describePartial(partial) + ")");
      }
      if (filled[point.gridIndex]) {
        throw std::runtime_error(
            "grid point " + std::to_string(point.gridIndex) +
            " appears in more than one shard (" + describePartial(partial) +
            ")");
      }
      filled[point.gridIndex] = true;
      merged[point.gridIndex] = std::move(point);
    }
  }
  return merged;
}

}  // namespace vanet::runner
