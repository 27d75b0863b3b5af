/// \file bench_runner_scaling.cpp
/// Parallel-scaling study of the campaign engine itself: one fixed
/// campaign executed with 1, 2 and N worker threads. Reports wall-clock,
/// jobs/s and speedup per thread count, and verifies that the merged
/// campaign is bit-identical across thread counts (the engine's core
/// guarantee: results depend on (config, master seed) only, never on
/// scheduling).
///
/// Five modes:
///   default     highway speed x coop grid; compares campaignPointsJson()
///   --figures   urban campaign carrying FlowFigure series; compares the
///               emitted figure CSVs (exercises FlowFigure::merge, the
///               path the `figures` emit kind relies on)
///   --shard     splits the campaign into 2 and 3 shards, folds the
///               partials back with the merge pipeline, and compares
///               against the unsharded single-thread run
///   --rounds    round-parallel speedup on a ONE-grid-point campaign
///               (--laps rounds inside a single job): runs the round
///               engine at 1/2/4/N workers and byte-compares Table-1
///               JSON *and* every figure CSV against the serial run
///   --adaptive  CI95-targeted replication (target 0.1, 2..8
///               replications per point): the wave schedule must be a
///               pure function of the fold state, so the adaptive
///               campaign is byte-compared at 1/2/N threads and
///               reassembled from 2 shard processes; also reports the
///               per-point replications used and achieved CI95
/// Every mode exits non-zero if any variant changes the bytes. The
/// default, --figures, --shard and --adaptive campaigns take the shared
/// engine flags plus --repl (default 4), --rounds=N (3) and --cars (3);
/// --rounds mode takes --laps (8), --repl (1), --cars and --seed.

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/partial_binary.h"
#include "runner/spec.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

/// The fixed campaign of the default, --figures, --shard and --adaptive
/// modes: the shared engine flags plus --repl / --rounds / --cars.
vanet::runner::CampaignConfig campaignFromFlags(const vanet::Flags& flags,
                                                std::string scenario) {
  const vanet::CampaignRunFlags run = vanet::campaignRunFlags(flags);
  vanet::runner::CampaignConfig config;
  vanet::runner::applyEngineFlags(run, config);
  config.scenario = std::move(scenario);
  config.masterSeed = run.seed;
  config.replications = flags.getInt("repl", 4);
  config.base.set("rounds", flags.getInt("rounds", 3));
  config.base.set("cars", flags.getInt("cars", 3));
  return config;
}

/// Every figure CSV of the campaign, concatenated in point/flow order:
/// byte equality of this string is bit-identity of every merged series.
std::string allFigureCsvs(const vanet::runner::CampaignResult& result) {
  std::string out;
  for (const vanet::runner::GridPointSummary& point : result.points) {
    for (const auto& [flow, figure] : point.figures) {
      out += "# point " + std::to_string(point.gridIndex) + " flow " +
             std::to_string(flow) + "\n";
      out += vanet::runner::figureSeriesCsv(figure);
    }
  }
  return out;
}

/// Runs the campaign once per shard, serializes each shard's summaries
/// through the partial-result format, and folds them back -- the same
/// round trip two processes and campaign_merge would perform.
vanet::runner::CampaignResult runSharded(vanet::runner::CampaignConfig config,
                                         int shardCount) {
  std::vector<vanet::runner::CampaignPartial> partials;
  partials.reserve(static_cast<std::size_t>(shardCount));
  for (int shard = 0; shard < shardCount; ++shard) {
    config.shard = vanet::runner::Shard{shard, shardCount};
    const vanet::runner::CampaignResult result =
        vanet::runner::runCampaign(config);
    // Round-trip the bytes a shard process would write to disk.
    partials.push_back(vanet::runner::parseCampaignPartialBinary(
        vanet::runner::campaignPartialBinary(
            vanet::runner::campaignPartial(result))));
  }
  return vanet::runner::resultFromPartials(std::move(partials));
}

int runShardMode(vanet::runner::CampaignConfig campaign) {
  campaign.threads = 1;
  campaign.shard = vanet::runner::Shard{};
  const vanet::runner::CampaignResult reference =
      vanet::runner::runCampaign(campaign);
  const std::string referenceJson =
      vanet::runner::campaignPointsJson(reference);
  const std::string referenceCsv = vanet::runner::campaignCsv(reference);

  std::cout << std::left << std::setw(10) << "shards" << std::right
            << std::setw(16) << "identical" << "\n";
  bool allIdentical = true;
  campaign.threads = 2;
  for (const int shards : {2, 3}) {
    const vanet::runner::CampaignResult merged = runSharded(campaign, shards);
    const bool identical =
        vanet::runner::campaignPointsJson(merged) == referenceJson &&
        vanet::runner::campaignCsv(merged) == referenceCsv;
    allIdentical = allIdentical && identical;
    std::cout << std::left << std::setw(10) << shards << std::right
              << std::setw(16) << (identical ? "yes" : "NO") << "\n";
  }
  std::cout << "\nsharded + merged output bit-identical to the 1-process"
               " run: "
            << (allIdentical ? "yes" : "NO") << "\n";
  std::cout << "expected shape: a shard owns whole grid points (round-robin"
               " by index), seeds\nstay derived from the global job index,"
               " and the partial-file round trip is\nexact -- so merging"
               " shard files reproduces the monolithic bytes\n";
  return allIdentical ? 0 : 1;
}

/// --adaptive: the campaign stops each grid point at its CI95 target, so
/// the interesting claim is that the *stop decisions* -- not just the
/// merged stats -- are identical however the jobs are scheduled. Runs
/// the same adaptive campaign at 1, 2 and N threads and as 2 shard
/// processes folded through the partial-file round trip; byte-compares
/// points JSON + campaign CSV of every variant against the serial
/// reference.
int runAdaptiveMode(vanet::runner::CampaignConfig campaign) {
  namespace runner = vanet::runner;
  campaign.threads = 1;
  campaign.shard = runner::Shard{};
  const runner::CampaignResult reference = runner::runCampaign(campaign);
  const std::string referenceJson = runner::campaignPointsJson(reference);
  const std::string referenceCsv = runner::campaignCsv(reference);

  std::cout << "target ci95/|mean| <= " << campaign.targetRelativeCi95
            << " on \"" << reference.targetMetric << "\", "
            << campaign.minReplications << ".." << campaign.maxReplications
            << " replications/point\n\n";
  std::cout << std::left << std::setw(8) << "point" << std::right
            << std::setw(12) << "reps used" << std::setw(14) << "ci95"
            << "\n";
  for (const runner::GridPointSummary& point : reference.points) {
    std::cout << std::left << std::setw(8) << point.gridIndex << std::right
              << std::setw(12) << point.replications << std::setw(14)
              << point.achievedCi95 << "\n";
  }
  std::cout << "\n"
            << reference.jobCount << " of " << reference.totalJobs
            << " budgeted jobs in " << reference.waves << " wave(s)\n\n";

  const int hardware =
      std::max(4, static_cast<int>(std::thread::hardware_concurrency()));
  std::cout << std::left << std::setw(24) << "variant" << std::right
            << std::setw(16) << "identical" << "\n";
  bool allIdentical = true;
  const auto check = [&](const std::string& label,
                         const runner::CampaignResult& result) {
    const bool identical = runner::campaignPointsJson(result) == referenceJson &&
                           runner::campaignCsv(result) == referenceCsv;
    allIdentical = allIdentical && identical;
    std::cout << std::left << std::setw(24) << label << std::right
              << std::setw(16) << (identical ? "yes" : "NO") << "\n";
  };
  for (const int threads : {2, hardware}) {
    campaign.threads = threads;
    check("threads=" + std::to_string(threads), runner::runCampaign(campaign));
  }
  campaign.threads = 2;
  check("2 shards + merge", runSharded(campaign, 2));

  std::cout << "\nadaptive campaign bit-identical across threads and"
               " shards: "
            << (allIdentical ? "yes" : "NO") << "\n";
  std::cout << "expected shape: reps used varies per point (noisy points"
               " replicate further);\nthe identical column must read yes"
               " everywhere -- convergence is evaluated only\nat wave"
               " barriers on fold state that is itself scheduling-invariant\n";
  return allIdentical ? 0 : 1;
}

/// --rounds: a single-point campaign leaves the job axis with nothing to
/// parallelise; all speedup must come from the round engine inside the
/// one experiment. Byte-compares the merged Table-1/metrics JSON and the
/// figure CSVs of every round-worker count against the serial run.
int runRoundsMode(const vanet::Flags& flags) {
  namespace runner = vanet::runner;
  runner::CampaignConfig campaign;
  campaign.scenario = "urban";
  campaign.masterSeed = flags.getUInt64("seed", 2008);
  campaign.replications = flags.getInt("repl", 1);
  campaign.threads = 1;
  campaign.base.set("rounds", flags.getInt("laps", 8));
  campaign.base.set("cars", flags.getInt("cars", 3));

  const int hardware = vanet::util::hardwareThreads();
  std::vector<int> workerCounts{1, 2, 4};
  if (hardware > 4) workerCounts.push_back(hardware);
  // The study measures the engine, not this machine's core count: give
  // the shared budget room for the largest worker count (restored below).
  vanet::util::ThreadBudget& budget = vanet::util::ThreadBudget::global();
  budget.setLimit(*std::max_element(workerCounts.begin(), workerCounts.end()) +
                  1);

  std::cout << "1 grid point x " << campaign.replications
            << " replication(s) x " << campaign.base.get("rounds", 0)
            << " rounds (hardware concurrency: " << hardware << ")\n\n";
  std::cout << std::left << std::setw(14) << "round workers" << std::right
            << std::setw(12) << "wall s" << std::setw(12) << "speedup"
            << std::setw(16) << "identical" << "\n";

  std::string reference;
  double serialWall = 0.0;
  bool allIdentical = true;
  for (const int workers : workerCounts) {
    campaign.roundThreads = workers;
    const runner::CampaignResult result = runner::runCampaign(campaign);
    // Table-1 + protocol totals + metrics land in the points JSON; the
    // figure CSVs carry every per-packet series. Byte equality of both
    // is bit-identity of everything the campaign emits.
    const std::string merged =
        runner::campaignPointsJson(result) + allFigureCsvs(result);
    if (workers == 1) {
      reference = merged;
      serialWall = result.wallSeconds;
    }
    const bool identical = merged == reference;
    allIdentical = allIdentical && identical;
    std::cout << std::left << std::setw(14) << workers << std::right
              << std::fixed << std::setprecision(2) << std::setw(12)
              << result.wallSeconds << std::setw(11)
              << serialWall / result.wallSeconds << "x" << std::setw(16)
              << (identical ? "yes" : "NO") << "\n";
  }
  budget.setLimit(0);  // back to hardware concurrency

  std::cout << "\nround-parallel Table-1 + figure CSVs bit-identical to the"
               " serial run: "
            << (allIdentical ? "yes" : "NO") << "\n";
  std::cout << "expected shape: wall time drops with round workers up to the"
               " core count; the\nidentical column must read yes everywhere"
               " -- every round owns a private RNG\nchild of (seed, round"
               " index) and outcomes fold strictly in round order\n";
  return allIdentical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vanet;
  const Flags flags(argc, argv);
  {
    std::vector<std::string> names = campaignFlagNames();
    names.insert(names.end(), {"repl", "rounds", "cars", "laps", "figures",
                               "adaptive", "max-threads"});
    flags.allowOnly(names);
  }
  const bool figures = flags.getBool("figures", false);
  const bool adaptive = flags.getBool("adaptive", false);
  const bool shardMode = flags.getString("shard", "") == "true";
  // A bare `--rounds` selects the round-engine mode; `--rounds=N` stays
  // the rounds-per-replication knob of the other modes.
  const bool roundsMode = flags.getString("rounds", "") == "true";
  std::cout << (figures    ? "Campaign engine: figure-series merge determinism"
                : adaptive ? "Campaign engine: adaptive (CI95-targeted) "
                             "replication determinism"
                : shardMode ? "Campaign engine: shard + merge determinism"
                : roundsMode ? "Round engine: intra-experiment parallel "
                               "scaling and determinism"
                             : "Campaign engine: parallel scaling and "
                               "determinism")
            << "\n\n";
  if (roundsMode) return runRoundsMode(flags);

  runner::CampaignConfig campaign;
  if (figures) {
    campaign = campaignFromFlags(flags, "urban");
    campaign.grid.add("gossip", {0.0, 1.0});
  } else {
    campaign = campaignFromFlags(flags, "highway");
    campaign.base.set("aps", 1);
    campaign.base.set("road_length", 2400.0);
    campaign.base.set("first_ap_arc", 1200.0);
    campaign.grid.add("speed_kmh", {40.0, 60.0, 80.0, 100.0})
        .add("coop", {0.0, 1.0});
  }

  if (adaptive) {
    // Bounds tuned so a short smoke run genuinely converges some points
    // early and drives others to the cap.
    campaign.targetRelativeCi95 = 0.1;
    campaign.minReplications = 2;
    campaign.maxReplications = 8;
    return runAdaptiveMode(std::move(campaign));
  }

  if (shardMode) return runShardMode(std::move(campaign));

  const int hardware =
      static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> threadCounts{1, 2};
  if (hardware > 2) threadCounts.push_back(hardware);
  const int maxThreads = flags.getInt("max-threads", 0);
  if (maxThreads > 2 && maxThreads != hardware) {
    threadCounts.push_back(maxThreads);
  }

  std::cout << campaign.grid.pointCount() << " grid points x "
            << campaign.replications << " replications = "
            << campaign.grid.pointCount() *
                   static_cast<std::size_t>(campaign.replications)
            << " jobs (hardware concurrency: " << hardware << ")\n\n";
  std::cout << std::left << std::setw(10) << "threads" << std::right
            << std::setw(12) << "wall s" << std::setw(12) << "jobs/s"
            << std::setw(12) << "speedup" << std::setw(16) << "identical"
            << "\n";

  // The reference is the serial run: its single worker claims and folds
  // jobs strictly in index order.
  std::string reference;
  double serialWall = 0.0;
  bool allIdentical = true;
  bool first = true;
  for (const int threads : threadCounts) {
    campaign.threads = threads;
    const runner::CampaignResult result = runner::runCampaign(campaign);
    const std::string merged = figures ? allFigureCsvs(result)
                                       : runner::campaignPointsJson(result);
    if (first) {
      reference = merged;
      serialWall = result.wallSeconds;
    }
    first = false;
    const bool identical = merged == reference;
    allIdentical = allIdentical && identical;
    std::cout << std::left << std::setw(10) << threads << std::right
              << std::fixed << std::setprecision(2) << std::setw(12)
              << result.wallSeconds << std::setw(12) << result.jobsPerSecond
              << std::setw(11) << serialWall / result.wallSeconds << "x"
              << std::setw(16) << (identical ? "yes" : "NO") << "\n";
  }
  std::cout << "\n"
            << (figures ? "figure CSVs" : "merged output")
            << " bit-identical across thread counts: "
            << (allIdentical ? "yes" : "NO") << "\n";
  std::cout << "expected shape: jobs/s scales with threads up to the core"
               " count; the identical\ncolumn must read yes everywhere --"
               " the merge is in job order and every job owns\na private"
               " RNG stream hashed from (master seed, job index)\n";
  return allIdentical ? 0 : 1;
}
