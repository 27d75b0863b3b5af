#pragma once

/// \file stats.h
/// Streaming statistics used by the trace/analysis layers: Welford running
/// moments and per-index series accumulators (one Welford cell per packet
/// number, used for the paper's figures).

#include <cstddef>
#include <limits>
#include <vector>

namespace vanet {

/// Numerically stable running mean / variance (Welford's algorithm).
class RunningStats {
 public:
  /// The full internal merge-state, exposed for serialization: a
  /// round-trip through State reconstructs a bit-identical accumulator,
  /// so merged results computed from deserialized partials match the
  /// in-process computation byte for byte.
  struct State {
    std::size_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningful only when count > 0
    double max = 0.0;  ///< meaningful only when count > 0
  };

  void add(double x) noexcept;

  /// Merges another accumulator (parallel-combining form of Welford).
  void merge(const RunningStats& other) noexcept;

  State state() const noexcept;
  static RunningStats fromState(const State& state) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }

  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Standard error of the mean; 0 when fewer than two samples.
  double stderrOfMean() const noexcept;

  /// Half-width of the 95 % confidence interval of the mean (Student's t
  /// with n-1 degrees of freedom, interpolated); 0 when n < 2.
  double confidence95() const noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A vector of RunningStats cells indexed by an integer key (for example
/// packet sequence number); grows on demand. Produces the mean series used
/// to plot reception probability versus packet number.
class SeriesAccumulator {
 public:
  /// Records `value` for index `i`.
  void add(std::size_t i, double value);

  /// Merges another accumulator cell-wise (parallel-combining form): cell
  /// i of the result carries every sample either side recorded for index
  /// i. The series grows to the longer of the two; merging with an empty
  /// accumulator is the identity.
  void merge(const SeriesAccumulator& other);

  std::size_t size() const noexcept { return cells_.size(); }
  const RunningStats& at(std::size_t i) const;

  /// Mean per index; indexes never touched report 0 with count 0.
  std::vector<double> means() const;

  /// Serialization hooks: the raw cell vector out, and a bit-identical
  /// accumulator back from one.
  const std::vector<RunningStats>& cells() const noexcept { return cells_; }
  static SeriesAccumulator fromCells(std::vector<RunningStats> cells);

 private:
  std::vector<RunningStats> cells_;
};

}  // namespace vanet
