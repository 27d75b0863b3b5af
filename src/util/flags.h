#pragma once

/// \file flags.h
/// Tiny command-line flag parser for the example binaries.
/// Accepts `--name=value`, `--name value` and bare boolean `--name`.
/// Unknown positional arguments are collected in positional().

#include <map>
#include <set>
#include <string>
#include <vector>

namespace vanet {

/// One shard of a partitioned run, as written on the command line:
/// `--shard=i/N` selects shard i of N.
struct ShardSpec {
  int index = 0;
  int count = 1;
};

/// Parsed command line. Lookup is by flag name without the leading dashes.
class Flags {
 public:
  Flags() = default;

  /// Parses argv; later occurrences of a flag override earlier ones.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Typed getters return `fallback` when the flag is absent; they abort
  /// with a clear message when the value does not parse.
  int getInt(const std::string& name, int fallback) const;
  double getDouble(const std::string& name, double fallback) const;
  /// A bare `--name` or an empty `--name=` has no value to use: both
  /// abort naming the flag instead of reading as "true" or as absent.
  std::string getString(const std::string& name, std::string fallback) const;

  /// A bare `--name` or `--name=true|1|yes` is true; `=false|0|no` is false.
  bool getBool(const std::string& name, bool fallback) const;

  /// Parses `--name=i/N` with 0 <= i < N; `fallback` when absent, abort
  /// on a malformed spec (a bare `--name` included).
  ShardSpec getShard(const std::string& name, ShardSpec fallback = {}) const;

  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Rejects (exit 2) any parsed flag whose name is not in `known`, with
  /// a did-you-mean nearest-name hint -- a typo'd `--thread=4` must
  /// not silently run a study with the default. Every binary calls
  /// this once, right after parsing, with its full flag vocabulary
  /// (typically campaignFlagNames() plus its own additions).
  void allowOnly(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;  ///< a bare flag reads "true"
  std::set<std::string> bare_;  ///< flags whose last occurrence was bare
  std::vector<std::string> positional_;
};

/// Applies `--log-level=L` (error|warn|info|debug|trace), which wins over
/// the VANET_LOG environment default; an unknown or missing name exits 2
/// naming the flag. Every binary that accepts the flag calls this right
/// after Flags::allowOnly (campaignRunFlags() calls it for its binaries).
void applyLogLevelFlag(const Flags& flags);

/// The names campaignRunFlags() reads -- the engine vocabulary of
/// `vanet_campaign run`. Append binary-specific names to a copy and pass
/// the result to Flags::allowOnly().
std::vector<std::string> campaignFlagNames();

/// The campaign engine flags (one parser instead of per-binary copies):
///   --threads=N        campaign job workers, the only parallel axis
///                      (0 = hardware concurrency; < 0 exits 2)
///   --shard=i/N        run shard i of N (whole grid points)
///   --partial-out=F    write this shard's binary partial result to F
///   --checkpoint=F     write a binary checkpoint partial to F at every
///                      replication-wave barrier (atomically)
///   --resume           restore the fold state from --checkpoint=F and
///                      continue at the first uncovered wave; the final
///                      artifacts are byte-identical to an uninterrupted
///                      run
///   --halt-after-waves=K  stop after K >= 1 wave barriers, leaving the
///                      fold state in --checkpoint=F (kill simulation
///                      for checkpoint tests; default: run to completion)
///   --progress         live progress lines on stderr (rate-limited,
///                      `progress: `-prefixed; results are unchanged)
///   --log-level=L      error|warn|info|debug|trace; overrides the
///                      VANET_LOG environment variable (default warn)
/// The master seed and the adaptive replication policy are not flags:
/// they are the spec's `seed` and `adaptive` keys (runner/spec.h).
struct CampaignRunFlags {
  int threads = 0;
  ShardSpec shard{};
  std::string partialOut;
  std::string checkpoint;     ///< per-wave checkpoint file; empty = off
  bool resume = false;        ///< restore from `checkpoint` first
  int haltAfterWaves = -1;    ///< stop after K barriers (< 0: run all)
  bool progress = false;
};

/// Reads the shared campaign flags from `flags`. Also *applies*
/// `--log-level` as a side effect, through applyLogLevelFlag().
/// `--threads` < 0 and `--halt-after-waves` < 1 exit 2 naming the flag.
/// `--resume` and `--halt-after-waves` without `--checkpoint` exit 2:
/// neither has any state to read or keep without it.
CampaignRunFlags campaignRunFlags(const Flags& flags);

}  // namespace vanet
