#include "runner/accumulate.h"

#include <algorithm>
#include <cmath>
#include <memory>
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

int CampaignAccumulator::pointReplications(std::size_t shardSlot) const {
  return points_.at(shardSlot).replications;
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
  PartialBinaryFileReader reader(path);
  CampaignPartial partial = reader.header();
  GridPointSummary point;
  while (reader.nextPoint(point)) {
    partial.points.push_back(std::move(point));
  }
  return partial;
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

/// The campaign-identity fields of a partial, points left behind (so a
/// merger can keep them without copying point payloads).
CampaignPartial identityOf(const CampaignPartial& partial) {
  CampaignPartial header;
  header.scenario = partial.scenario;
  header.masterSeed = partial.masterSeed;
  header.shard = partial.shard;
  header.replications = partial.replications;
  header.targetRelativeCi95 = partial.targetRelativeCi95;
  header.minReplications = partial.minReplications;
  header.maxReplications = partial.maxReplications;
  header.targetMetric = partial.targetMetric;
  header.totalPoints = partial.totalPoints;
  header.totalJobs = partial.totalJobs;
  header.hasCheckpoint = partial.hasCheckpoint;
  header.checkpointCoveredReps = partial.checkpointCoveredReps;
  header.checkpointComplete = partial.checkpointComplete;
  header.sourcePath = partial.sourcePath;
  return header;
}

/// Incremental shard merge shared by the in-memory and streaming entry
/// points: shards announce themselves in ascending index order via
/// beginShard(), then feed points one at a time -- so a binary shard file
/// never needs to materialize its whole point set.
class PartialMerger {
 public:
  explicit PartialMerger(std::size_t partialCount) : total_(partialCount) {}

  void beginShard(const CampaignPartial& header) {
    // A checkpoint mid-campaign is resume state, not a shard result:
    // folding it in would silently drop every replication past its wave.
    if (header.hasCheckpoint && !header.checkpointComplete) {
      throw std::runtime_error(describePartial(header) +
                               " is an unfinished wave checkpoint (resume "
                               "state), not a finished shard partial");
    }
    if (begun_ == 0) {
      first_ = identityOf(header);
      if (total_ != static_cast<std::size_t>(first_.shard.count)) {
        throw std::runtime_error(
            "expected " + std::to_string(first_.shard.count) +
            " shard partials, got " + std::to_string(total_) +
            " (first: " + describePartial(first_) + ")");
      }
      merged_.resize(first_.totalPoints);
      filled_.assign(first_.totalPoints, false);
    } else if (header.scenario != first_.scenario ||
               header.masterSeed != first_.masterSeed ||
               header.replications != first_.replications ||
               header.targetRelativeCi95 != first_.targetRelativeCi95 ||
               header.minReplications != first_.minReplications ||
               header.maxReplications != first_.maxReplications ||
               header.targetMetric != first_.targetMetric ||
               header.totalPoints != first_.totalPoints ||
               header.totalJobs != first_.totalJobs ||
               header.shard.count != first_.shard.count) {
      throw std::runtime_error("shard partials describe different campaigns (" +
                               describePartial(header) + " disagrees)");
    }
    if (header.shard.index != static_cast<int>(begun_)) {
      throw std::runtime_error(
          "missing or duplicate shard " + std::to_string(begun_) +
          " in partial set (got " + describePartial(header) + ")");
    }
    current_ = identityOf(header);
    ++begun_;
  }

  void addPoint(GridPointSummary point) {
    if (point.gridIndex >= merged_.size()) {
      throw std::runtime_error(
          "partial grid index " + std::to_string(point.gridIndex) +
          " out of range (" + describePartial(current_) + ")");
    }
    if (filled_[point.gridIndex]) {
      throw std::runtime_error(
          "grid point " + std::to_string(point.gridIndex) +
          " appears in more than one shard (" + describePartial(current_) +
          ")");
    }
    filled_[point.gridIndex] = true;
    merged_[point.gridIndex] = std::move(point);
  }

  std::vector<GridPointSummary> finish() {
    for (std::size_t p = 0; p < filled_.size(); ++p) {
      if (!filled_[p]) {
        throw std::runtime_error("grid point " + std::to_string(p) +
                                 " is missing from every shard");
      }
    }
    return std::move(merged_);
  }

  /// Identity of the merged set (the first shard's header, points empty).
  const CampaignPartial& first() const noexcept { return first_; }

 private:
  std::size_t total_;
  std::size_t begun_ = 0;
  CampaignPartial first_;
  CampaignPartial current_;
  std::vector<GridPointSummary> merged_;
  std::vector<bool> filled_;
};

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
  PartialMerger merger(partials.size());
  for (CampaignPartial& partial : partials) {
    merger.beginShard(partial);
    for (GridPointSummary& point : partial.points) {
      merger.addPoint(std::move(point));
    }
    partial.points.clear();
  }
  return merger.finish();
}

std::vector<GridPointSummary> mergeCampaignPartialFiles(
    const std::vector<std::string>& paths, CampaignPartial* headerOut) {
  if (paths.empty()) {
    throw std::runtime_error("no campaign partials to merge");
  }
  // Each file opens as a streaming reader: header parsed, points left on
  // disk until the merge pulls them.
  std::vector<std::unique_ptr<PartialBinaryFileReader>> sources;
  sources.reserve(paths.size());
  for (const std::string& path : paths) {
    sources.push_back(std::make_unique<PartialBinaryFileReader>(path));
  }
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) {
              return a->header().shard.index < b->header().shard.index;
            });
  PartialMerger merger(sources.size());
  for (const auto& source : sources) {
    merger.beginShard(source->header());
    GridPointSummary point;
    while (source->nextPoint(point)) {
      merger.addPoint(std::move(point));
    }
  }
  if (headerOut != nullptr) {
    *headerOut = merger.first();
  }
  return merger.finish();
}

}  // namespace vanet::runner
