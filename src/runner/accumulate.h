#pragma once

/// \file accumulate.h
/// The *accumulate* layer of the campaign pipeline: folds JobResults
/// into per-grid-point summaries strictly in job order, and reads and
/// writes the binary v3 partial files that shard processes exchange
/// (runner/partial_binary.h). Because every RunningStats round-trips its
/// full Welford merge state as raw IEEE-754 payloads, results
/// reassembled from shard files are bit-identical to a single-process
/// run.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/plan.h"
#include "util/stats.h"

namespace vanet::runner {

/// One grid point after merging its replications (in job order).
struct GridPointSummary {
  std::size_t gridIndex = 0;
  std::string caseName;             ///< owning case; empty without cases
  ParamSet params;  ///< fully resolved (defaults+base+case+axes)
  trace::Table1Data table1;         ///< merged over replications
  /// Per-flow figure series, merged over replications in job order
  /// (empty for scenarios without figure traces).
  std::map<FlowId, trace::FlowFigure> figures;
  analysis::ProtocolTotals totals;  ///< merged over replications
  /// Per-metric aggregate over the point's jobs: each job contributes one
  /// sample per metric it reported.
  std::map<std::string, RunningStats> metrics;
  /// Replications actually folded into this point: the fixed count, or --
  /// under adaptive replication -- wherever the CI95 stop rule fired.
  int replications = 0;
  /// Total simulated rounds across replications; 64-bit so
  /// million-replication campaigns cannot overflow.
  std::int64_t rounds = 0;
  /// 95 % CI half-width of the campaign's target metric after the last
  /// fold (the achieved CI the adaptive stop rule judged); 0 when the
  /// campaign has no target metric or fewer than two samples exist.
  double achievedCi95 = 0.0;
};

/// Folds job results into the shard's grid-point summaries. Each point's
/// replications must fold in ascending order without gaps -- exactly the
/// order the executor's waves and reordering window release results --
/// so the merged bytes are a pure function of the plan, never of
/// scheduling. It also owns the adaptive stop rule: pointDone() is a
/// pure function of the folded state, which is what keeps the wave
/// schedule identical at any thread count and across shard processes.
class CampaignAccumulator {
 public:
  explicit CampaignAccumulator(const CampaignPlan& plan);

  /// Folds replication `replication` of the shard's `shardSlot`-th point
  /// (an index into plan.shardPointIndices()). Throws std::logic_error
  /// when the slot is out of range or the replication is not the point's
  /// next one.
  void fold(std::size_t shardSlot, int replication, const JobResult& result);

  std::size_t foldedJobs() const noexcept { return folded_; }

  /// Fixed mode: every planned job folded. Adaptive mode: every point
  /// done (converged or at the replication cap).
  bool complete() const noexcept;

  /// The adaptive stop rule, evaluated at wave barriers: true once the
  /// point folded minReplications samples and either reached the cap or
  /// tightened confidence95/|mean| of the target metric to the target.
  /// Convergence needs at least two samples of the metric (one sample
  /// has no confidence interval); a zero mean converges only with a
  /// zero CI; a point that never reports the target metric runs to the
  /// cap. Always true for fixed campaigns once the fixed count folded.
  bool pointDone(std::size_t shardSlot) const;

  /// The merged summaries, in grid order (the shard's points only).
  /// Throws std::logic_error when the fold is incomplete -- a failed
  /// run must never surface a truncated summary set.
  std::vector<GridPointSummary> take();

  /// Read-only view of the fold state so far, in shard-slot order. Only
  /// meaningful at wave barriers (no worker is folding); this is what
  /// the per-wave checkpoint writer snapshots.
  const std::vector<GridPointSummary>& foldedPoints() const noexcept {
    return points_;
  }

  /// Restores a wave-barrier fold state saved by a checkpoint: `points`
  /// must describe exactly this shard's grid points in slot order (same
  /// gridIndex per slot). Because the summaries round-trip their full
  /// merge state bit-exactly, folding the remaining replications on top
  /// reproduces the uninterrupted run's bytes. Throws std::runtime_error
  /// when the points do not match the plan.
  void restore(std::vector<GridPointSummary> points);

 private:
  bool converged(const GridPointSummary& point) const;

  std::vector<GridPointSummary> points_;
  bool adaptive_ = false;
  double targetRelativeCi95_ = 0.0;
  int minReplications_ = 1;
  int maxReplications_ = 1;
  std::string targetMetric_;
  std::size_t expectedJobs_ = 0;
  std::size_t folded_ = 0;
};

/// A shard's serialized contribution: the campaign identity (so merging
/// validates shards belong together) plus its merged point summaries.
struct CampaignPartial {
  /// Version of the binary encoding (runner/partial_binary.h). Versions
  /// 1 and 2 were JSON encodings; readers reject them.
  static constexpr int kBinaryVersion = 3;

  std::string scenario;
  std::uint64_t masterSeed = 0;
  Shard shard{};
  /// Per-point replication cap of the plan (the fixed count, or
  /// maxReplications for adaptive campaigns).
  int replications = 0;
  /// Adaptive-replication header: all shards of one campaign must agree
  /// on the stop rule. 0 / empty for fixed-count campaigns.
  double targetRelativeCi95 = 0.0;
  int minReplications = 0;
  int maxReplications = 0;
  std::string targetMetric;
  std::size_t totalPoints = 0;  ///< full-grid point count of the plan
  /// Full job-index space of the plan (points x cap; an upper bound for
  /// adaptive campaigns, whose converged points stop early).
  std::size_t totalJobs = 0;
  std::vector<GridPointSummary> points;  ///< this shard's, in grid order
  /// Checkpoint trailer: set when this partial is a per-wave checkpoint
  /// rather than a finished shard contribution. `checkpointCoveredReps`
  /// is the replication prefix every still-open point has folded;
  /// `checkpointComplete` marks the final barrier (the campaign finished
  /// -- resuming just re-emits). Incomplete checkpoints are rejected by
  /// mergeCampaignPartials: they are resume state, not a shard result.
  bool hasCheckpoint = false;
  int checkpointCoveredReps = 0;
  bool checkpointComplete = false;
  /// Where this partial was read from (set by readCampaignPartial; empty
  /// for in-process partials). Never serialized -- it exists so merge
  /// validation errors can name the offending file.
  std::string sourcePath;
};

/// On-disk encoding of a campaign partial. Binary v3 is the only one;
/// the enum stays so call sites that name the encoding keep compiling.
enum class PartialFormat { kBinary };

/// Writes the binary partial to `path`, plus its provenance sidecar;
/// false (and logs) on any I/O failure, including a failed final flush.
bool writeCampaignPartial(const std::string& path,
                          const CampaignPartial& partial,
                          PartialFormat format = PartialFormat::kBinary);

/// Reads the binary partial at `path`: util::readFile, then
/// parseCampaignPartialBinary. Throws std::runtime_error naming the path
/// when the file cannot be read or parsed; parse errors carry the byte
/// offset of the damage. A JSON partial from an older build fails as
/// "not a binary campaign partial".
CampaignPartial readCampaignPartial(const std::string& path);

/// The first campaign-identity field on which two partials disagree --
/// "scenario", "master seed", "shard count", "replication cap",
/// "adaptive stop rule" or "grid totals" -- or nullptr when they
/// describe the same campaign. Shard indices are not compared: the
/// shards of one campaign differ there. The one identity check of both
/// the shard merge and checkpoint resume.
const char* campaignMismatch(const CampaignPartial& a,
                             const CampaignPartial& b);

/// Folds shard partials (any order given; folded in shard order) back
/// into the full grid -- the one merge, behind resultFromPartials and
/// resultFromPartialFiles. Validates that the partials describe the same
/// campaign, that every shard 0..count-1 is present exactly once, that
/// none is an unfinished checkpoint, and that the points cover the full
/// grid without overlap. Throws std::runtime_error on any mismatch. The
/// returned summaries are bit-identical to the single-process run's.
std::vector<GridPointSummary> mergeCampaignPartials(
    std::vector<CampaignPartial> partials);

}  // namespace vanet::runner
