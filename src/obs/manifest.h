#pragma once

/// \file manifest.h
/// Run manifests: the provenance sidecar every emitted artefact gains so
/// a study directory is self-describing. For each JSON/CSV artefact
/// `<out>`, the writer drops `<out>.manifest.json` next to it recording
/// *how the bytes were produced*: git revision and build flags of the
/// binary, the full command line, the master seed, the parallelism axes
/// (threads / shard), wall time, and the per-point replication /
/// achieved-CI table.
///
/// Manifests are out-of-band observability: they are separate files, so
/// the byte-diff determinism checks on the artefacts themselves are
/// untouched, and a failed sidecar write logs a warning without failing
/// the artefact write.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vanet::obs {

/// One grid point's replication accounting inside a manifest.
struct ManifestPoint {
  std::size_t gridIndex = 0;
  int replications = 0;
  double achievedCi95 = 0.0;
};

/// Everything a sidecar records. Fields that a writer cannot know (a
/// shard partial has no wall clock; a merge has no thread count) stay at
/// their zero values and still serialize, so the schema is fixed.
struct RunManifest {
  /// Path of the artefact this manifest describes (as given to the
  /// writer).
  std::string artifact;
  std::string tool;               ///< binary name (argv[0] basename)
  std::vector<std::string> args;  ///< full flag vector (argv[1..])
  std::string gitRev;             ///< compile-time VANET_GIT_REV
  std::string buildFlags;         ///< compile-time VANET_BUILD_FLAGS
  std::string scenario;
  std::uint64_t masterSeed = 0;
  int threads = 0;
  int shardIndex = 0;
  int shardCount = 1;
  /// Adaptive stop rule of the run; 0 / empty when fixed-count.
  double targetCi = 0.0;
  std::string targetMetric;
  double wallSeconds = 0.0;
  double jobsPerSecond = 0.0;
  /// Spec identity of a spec-driven run (vanet_campaign): the spec path
  /// as given on the command line and the FNV-1a-64 digest of the
  /// normalized rendering (runner::campaignSpecDigest). Empty / 0 for
  /// flag-assembled runs.
  std::string specPath;
  std::uint64_t specDigest = 0;
  std::vector<ManifestPoint> points;  ///< in grid order
};

/// Captures the process identity once (call first thing in main). The
/// emitters pick it up from here so deep library code never threads argv
/// around. Safe to skip: on Linux the identity is then captured lazily
/// from /proc/self/cmdline; elsewhere manifests record an empty command
/// line.
void setRunIdentity(int argc, const char* const* argv);

/// argv[0] basename of the captured identity ("" before capture).
const std::string& runTool();

/// argv[1..] of the captured identity.
const std::vector<std::string>& runArgs();

/// Records the campaign spec driving this process (call right after
/// loading it); manifestForArtifact() then stamps every sidecar with the
/// pair, so each artefact names the exact study that produced it.
/// Process-global like setRunIdentity, for the same reason: the emitters
/// sit below the code that knows about spec files.
void setRunSpec(const std::string& specPath, std::uint64_t specDigest);

/// The recorded spec identity ("" / 0 before setRunSpec).
const std::string& runSpecPath();
std::uint64_t runSpecDigest();

/// The git revision / build flags this binary was configured with
/// ("unknown" when built outside the CMake tree).
std::string buildGitRevision();
std::string buildFlagsString();

/// A manifest pre-filled with the process identity (tool, args, git rev,
/// build flags) and `artifact`; the caller fills the campaign fields.
RunManifest manifestForArtifact(const std::string& artifactPath);

/// Deterministic JSON rendering (full precision numbers; fixed key
/// order).
std::string manifestJson(const RunManifest& manifest);

/// `<artifactPath>.manifest.json`.
std::string manifestPathFor(const std::string& artifactPath);

/// Writes the sidecar next to its artefact; false (and a warning log) on
/// I/O failure. Never throws: provenance must not fail the run.
bool writeManifestSidecar(const RunManifest& manifest);

}  // namespace vanet::obs
