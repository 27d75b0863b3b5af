/// \file vanet_campaign.cpp
/// The spec-driven campaign CLI: one binary runs any study described by
/// a `vanet-campaign-spec` v1 file (see runner/spec.h), so shipping an
/// experiment to N machines means shipping one JSON document -- not a
/// bespoke binary with a flag matrix.
///
///   vanet_campaign run spec.json [--csv=DIR] [engine flags]
///       Runs the spec. The experiment definition (scenario, cases,
///       grid, seed, replication policy, emit list) lives entirely in
///       the spec; the flags steer only the engine:
///         --threads=N --shard=i/N
///         --checkpoint=F --resume --halt-after-waves=K
///         --partial-out=F --progress --log-level=L
///       With --csv=DIR the spec's emit list is written into DIR, every
///       artefact with a manifest sidecar recording the spec path and
///       the digest of its normalized rendering. DIR and the directories
///       of --partial-out and --checkpoint must exist: a missing one
///       fails the run (exit 1) before the first job is simulated.
///       When the spec emits `table1_csv`, every grid point's Table 1
///       and loss summary print after the campaign summary.
///
///   vanet_campaign print spec.json
///       Parses, validates and re-renders the spec in normalized form
///       on stdout. print is a fixed point: printing a printed spec is
///       byte-identical.
///
///   vanet_campaign list
///       Every registered scenario with its parameters, defaults, and
///       default emit kinds.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "analysis/table1.h"
#include "obs/manifest.h"
#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/registry.h"
#include "runner/spec.h"
#include "util/file.h"
#include "util/flags.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vanet_campaign run <spec.json> [--csv=DIR] "
               "[engine flags]\n"
               "       vanet_campaign print <spec.json>\n"
               "       vanet_campaign list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vanet;
  obs::setRunIdentity(argc, argv);
  const Flags flags(argc, argv);
  if (flags.positional().empty()) return usage();
  const std::string& verb = flags.positional()[0];

  if (verb == "list") {
    flags.allowOnly({"log-level"});
    applyLogLevelFlag(flags);
    std::cout << runner::renderScenarioList();
    return 0;
  }

  if (flags.positional().size() != 2) return usage();
  const std::string& specPath = flags.positional()[1];

  if (verb == "print") {
    flags.allowOnly({"log-level"});
    applyLogLevelFlag(flags);
    try {
      std::cout << runner::renderCampaignSpec(
          runner::loadCampaignSpec(specPath));
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (verb != "run") return usage();
  // Engine knobs only: the experiment definition is the spec's. No
  // --seed / --rounds here by design -- edit the spec.
  std::vector<std::string> known = campaignFlagNames();
  known.push_back("csv");
  flags.allowOnly(known);

  runner::CampaignSpec spec;
  try {
    spec = runner::loadCampaignSpec(specPath);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  obs::setRunSpec(specPath, runner::campaignSpecDigest(spec));

  const CampaignRunFlags run = campaignRunFlags(flags);
  runner::CampaignConfig config = runner::campaignConfigFromSpec(spec);
  runner::applyEngineFlags(run, config);

  // Every output location must exist before the first job runs: a
  // missing directory found after the campaign would lose its results.
  const std::string dir = flags.getString("csv", "");
  try {
    if (!dir.empty()) util::requireOutputDir("--csv", dir);
    if (!run.partialOut.empty()) {
      util::requireOutputFile("--partial-out", run.partialOut);
    }
    if (!run.checkpoint.empty()) {
      util::requireOutputFile("--checkpoint", run.checkpoint);
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  if (!spec.title.empty()) {
    std::cout << spec.title << "\n";
    if (!spec.paperRef.empty()) std::cout << spec.paperRef << "\n";
    std::cout << "\n";
  }

  runner::CampaignResult result;
  try {
    result = runner::runCampaign(config);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (result.halted) {
    std::cout << "halted at a wave barrier after " << result.waves
              << " wave(s); the checkpoint file holds the fold state\n";
    return 0;
  }
  std::cout << runner::renderCampaignSummary(result, config.grid);
  const std::vector<runner::SpecEmit> emits = runner::resolvedEmits(spec);
  if (std::any_of(emits.begin(), emits.end(), [](const runner::SpecEmit& e) {
        return e.kind == "table1_csv";
      })) {
    for (const runner::GridPointSummary& point : result.points) {
      std::cout << "\n";
      if (result.points.size() > 1) std::cout << "[" << point.gridIndex << "] ";
      std::cout << analysis::renderTable1(point.table1) << "\n"
                << analysis::renderLossSummary(point.table1);
    }
  }

  if (!run.partialOut.empty()) {
    if (!runner::writeCampaignPartial(run.partialOut,
                                      runner::campaignPartial(result))) {
      return 1;
    }
    std::cout << "wrote " << run.partialOut << "\n";
  }

  if (!dir.empty()) {
    std::vector<std::string> written;
    bool ok = false;
    try {
      ok = runner::writeSpecArtifacts(spec, result, dir, written);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
    for (const std::string& path : written) {
      std::cout << "wrote " << path << "\n";
    }
    if (!ok) return 1;
  }
  return 0;
}
