/// \file campaign_merge.cpp
/// Folds campaign shard partials back into the full campaign result.
/// Each shard process runs `--shard=i/N --partial-out=shard_i.vpart`;
/// this tool validates the set (same campaign, every shard present,
/// full grid coverage) and re-emits the merged artefacts -- byte-for-byte
/// identical to what the single-process run would have written.
///
///   $ ./example_campaign_merge shard_0.vpart shard_1.vpart
///       [--csv=FILE] [--json=FILE] [--figures-dir=DIR --figures-base=B]
///
/// Shard files are binary v3 partials; each is read whole and parsed,
/// and the set is folded by the same merge the in-memory API uses. Any
/// unreadable or damaged file fails by name.
///
/// With no output flags the tool just validates and prints the merged
/// point count (useful as a shard-set integrity check).

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "runner/campaign.h"
#include "runner/emit.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace vanet;
  obs::setRunIdentity(argc, argv);
  const Flags flags(argc, argv);
  flags.allowOnly(
      {"csv", "json", "figures-dir", "figures-base", "log-level"});
  applyLogLevelFlag(flags);
  if (flags.positional().empty()) {
    std::cerr << "usage: campaign_merge SHARD... [--csv=FILE]"
                 " [--json=FILE] [--figures-dir=DIR --figures-base=B]\n";
    return 2;
  }
  // Read every output flag before the merge: a bare or empty one exits 2
  // with nothing written.
  const std::string csvPath = flags.getString("csv", "");
  const std::string jsonPath = flags.getString("json", "");
  const std::string figuresDir = flags.getString("figures-dir", "");
  const std::string base = flags.getString("figures-base", "campaign");

  runner::CampaignResult merged;
  try {
    merged = runner::resultFromPartialFiles(flags.positional());
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  std::cout << "merged " << flags.positional().size() << " shard(s): "
            << merged.scenario << " seed=" << merged.masterSeed << ", "
            << merged.points.size() << " grid points, " << merged.totalJobs
            << " jobs\n";

  bool ok = true;
  if (!csvPath.empty()) {
    if (runner::writeCampaignCsv(csvPath, merged)) {
      std::cout << "wrote " << csvPath << "\n";
    } else {
      ok = false;
    }
  }
  if (!jsonPath.empty()) {
    if (runner::writeCampaignJson(jsonPath, merged)) {
      std::cout << "wrote " << jsonPath << "\n";
    } else {
      ok = false;
    }
  }
  if (!figuresDir.empty()) {
    std::size_t expected = 0;
    for (const runner::GridPointSummary& point : merged.points) {
      expected += point.figures.size();
    }
    const std::size_t written =
        runner::writeCampaignFigureCsvs(figuresDir, base, merged);
    // writeCampaignFigureCsvs stops on the first I/O failure; a short
    // count means missing artefacts, which must fail the exit code.
    if (written != expected) ok = false;
    std::cout << "wrote " << written << " of " << expected
              << " figure CSV(s) under " << figuresDir << "/" << base
              << "*\n";
  }
  return ok ? 0 : 1;
}
