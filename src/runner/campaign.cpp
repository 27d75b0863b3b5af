#include "runner/campaign.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/counters.h"
#include "obs/progress.h"
#include "runner/partial_binary.h"
#include "util/file.h"

namespace vanet::runner {
namespace {

/// The partial header a checkpoint of this campaign must carry -- also
/// what a loaded checkpoint is validated against before its fold state
/// is trusted.
CampaignPartial partialHeaderForPlan(const CampaignConfig& config,
                                     const CampaignPlan& plan) {
  CampaignPartial header;
  header.scenario = config.scenario;
  header.masterSeed = plan.masterSeed();
  header.shard = plan.shard();
  header.replications = plan.replications();
  if (plan.adaptive()) {
    header.targetRelativeCi95 = plan.targetRelativeCi95();
    header.minReplications = plan.minReplications();
    header.maxReplications = plan.maxReplications();
    header.targetMetric = plan.targetMetric();
  }
  header.totalPoints = plan.points().size();
  header.totalJobs = plan.totalJobCount();
  return header;
}

/// Loads + validates the checkpoint at `path` against this campaign.
CampaignPartial loadCheckpoint(const std::string& path,
                               const CampaignPartial& expected) {
  CampaignPartial checkpoint = readCampaignPartial(path);
  if (!checkpoint.hasCheckpoint) {
    throw std::runtime_error(path +
                             ": not a checkpoint (no resume state; this is a "
                             "finished shard partial)");
  }
  const char* field = campaignMismatch(checkpoint, expected);
  if (field == nullptr && checkpoint.shard.index != expected.shard.index) {
    field = "shard index";
  }
  if (field != nullptr) {
    throw std::runtime_error(path +
                             ": checkpoint describes a different campaign (" +
                             field + " disagrees)");
  }
  return checkpoint;
}

/// Atomic checkpoint write: the complete file lands under a temporary
/// name first, then rename() swaps it in -- a kill or a failed write
/// leaves the previous checkpoint intact, never a torn file. The
/// temporary is closed and checked before the rename: a short write
/// held in the stream buffer fails only at that final flush.
void writeCheckpointAtomically(const std::string& path,
                               const CampaignPartial& checkpoint) {
  const std::string tmp = path + ".tmp";
  if (!util::writeFile(tmp, campaignPartialBinary(checkpoint))) {
    throw std::runtime_error("failed writing the campaign checkpoint to " +
                             tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot move the campaign checkpoint into " +
                             path);
  }
}

}  // namespace

CampaignResult runCampaign(const CampaignConfig& config) {
  // The engine counts the CLI rejects are rejected here too, instead of
  // reading -3 threads as every core or 0 waves as one.
  if (config.threads < 0) {
    throw std::invalid_argument(
        "campaign threads must be >= 0 (0 = all cores), got " +
        std::to_string(config.threads));
  }
  if (config.haltAfterWaves == 0) {
    throw std::invalid_argument(
        "campaign haltAfterWaves must be >= 1 (< 0 runs to completion), "
        "got 0");
  }
  if (config.haltAfterWaves >= 0 && config.checkpointPath.empty()) {
    // A halted run returns no points: without a checkpoint the simulated
    // waves would be thrown away.
    throw std::invalid_argument(
        "campaign halt-after-waves needs a checkpoint path");
  }
  std::unique_ptr<const CampaignPlan> plan;
  {
    OBS_SCOPED_TIMER("campaign.plan");
    plan = std::make_unique<const CampaignPlan>(buildPlan(config));
  }
  CampaignAccumulator accumulator(*plan);

  WaveHooks hooks;
  hooks.haltAfterWaves = config.haltAfterWaves;
  if (config.resume) {
    if (config.checkpointPath.empty()) {
      throw std::invalid_argument("campaign resume needs a checkpoint path");
    }
    CampaignPartial checkpoint = loadCheckpoint(
        config.checkpointPath, partialHeaderForPlan(config, *plan));
    hooks.resumeCoveredReps = checkpoint.checkpointCoveredReps;
    accumulator.restore(std::move(checkpoint.points));
  }
  if (!config.checkpointPath.empty()) {
    hooks.onWaveBarrier = [&config, &plan, &accumulator](
                              int wave, int coveredReps, bool complete) {
      (void)wave;
      CampaignPartial checkpoint = partialHeaderForPlan(config, *plan);
      checkpoint.hasCheckpoint = true;
      checkpoint.checkpointCoveredReps = coveredReps;
      checkpoint.checkpointComplete = complete;
      checkpoint.points = accumulator.foldedPoints();  // barrier: race-free
      writeCheckpointAtomically(config.checkpointPath, checkpoint);
    };
  }

  std::unique_ptr<obs::ProgressReporter> progress;
  if (config.progress) {
    progress = std::make_unique<obs::ProgressReporter>(plan->shardJobCount());
  }
  const ExecutionStats stats =
      executeCampaign(*plan, config.threads, accumulator, progress.get(),
                      hooks);

  OBS_SCOPED_TIMER("campaign.accumulate");
  CampaignResult merged;
  merged.scenario = config.scenario;
  merged.masterSeed = config.masterSeed;
  merged.replications = plan->replications();
  if (plan->adaptive()) {
    merged.targetRelativeCi95 = plan->targetRelativeCi95();
    merged.minReplications = plan->minReplications();
    merged.maxReplications = plan->maxReplications();
    merged.targetMetric = plan->targetMetric();
  }
  merged.waves = stats.waves;
  merged.shard = config.shard;
  merged.threads = stats.threads;
  merged.jobCount = stats.jobsRun;
  merged.totalPoints = plan->points().size();
  merged.totalJobs = plan->totalJobCount();
  merged.peakBufferedResults = stats.peakBufferedResults;
  merged.wallSeconds = stats.wallSeconds;
  merged.jobsPerSecond = stats.wallSeconds > 0.0
                             ? static_cast<double>(merged.jobCount) /
                                   stats.wallSeconds
                             : 0.0;
  merged.halted = stats.halted;
  // A halted run surfaces no summaries: its fold state lives in the
  // checkpoint file, and take() would (correctly) refuse an incomplete
  // fold.
  if (!stats.halted) {
    merged.points = accumulator.take();
  }
  return merged;
}

CampaignPartial campaignPartial(const CampaignResult& result) {
  CampaignPartial partial;
  partial.scenario = result.scenario;
  partial.masterSeed = result.masterSeed;
  partial.shard = result.shard;
  partial.replications = result.replications;
  partial.targetRelativeCi95 = result.targetRelativeCi95;
  partial.minReplications = result.minReplications;
  partial.maxReplications = result.maxReplications;
  partial.targetMetric = result.targetMetric;
  partial.totalPoints = result.totalPoints;
  partial.totalJobs = result.totalJobs;
  partial.points = result.points;
  return partial;
}

CampaignResult resultFromPartials(std::vector<CampaignPartial> partials) {
  if (partials.empty()) {
    throw std::runtime_error("no campaign partials to merge");
  }
  // The identity comes from any one partial (the merge checks that they
  // agree); the points are moved into the merge, never copied.
  const CampaignPartial& header = partials.front();
  CampaignResult merged;
  merged.scenario = header.scenario;
  merged.masterSeed = header.masterSeed;
  merged.replications = header.replications;
  merged.targetRelativeCi95 = header.targetRelativeCi95;
  merged.minReplications = header.minReplications;
  merged.maxReplications = header.maxReplications;
  merged.targetMetric = header.targetMetric;
  merged.shard = Shard{0, 1};  // the merge covers the full grid
  merged.totalPoints = header.totalPoints;
  merged.totalJobs = header.totalJobs;
  merged.points = mergeCampaignPartials(std::move(partials));
  // Jobs actually run across every shard: adaptive points record their
  // stop point, so the sum is exact in both modes. The executed wave
  // count is equally reconstructible -- it is the deepest per-point
  // wave trajectory, and each point's replications pin where it stopped.
  merged.jobCount = 0;
  merged.waves = merged.points.empty() ? 0 : 1;
  for (const GridPointSummary& point : merged.points) {
    merged.jobCount += static_cast<std::size_t>(point.replications);
    if (merged.targetRelativeCi95 > 0.0) {
      // Walk the shared schedule until it covers the point's stop point;
      // the cap bound keeps this finite even for a partial whose point
      // claims more replications than the header's cap.
      int waves = 1;
      for (;;) {
        const int end = waveEndFor(merged.minReplications,
                                   merged.maxReplications, waves - 1);
        if (end >= point.replications || end >= merged.maxReplications) break;
        ++waves;
      }
      merged.waves = std::max(merged.waves, waves);
    }
  }
  return merged;
}

CampaignResult resultFromPartialFiles(const std::vector<std::string>& paths) {
  std::vector<CampaignPartial> partials;
  partials.reserve(paths.size());
  for (const std::string& path : paths) {
    partials.push_back(readCampaignPartial(path));
  }
  return resultFromPartials(std::move(partials));
}

}  // namespace vanet::runner
