#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.h"

namespace vanet {

void RunningStats::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStats::State RunningStats::state() const noexcept {
  State s;
  s.count = count_;
  s.mean = mean_;
  s.m2 = m2_;
  s.sum = sum_;
  if (count_ > 0) {
    s.min = min_;
    s.max = max_;
  }
  return s;
}

RunningStats RunningStats::fromState(const State& state) noexcept {
  RunningStats stats;
  if (state.count == 0) return stats;
  stats.count_ = state.count;
  stats.mean_ = state.mean;
  stats.m2_ = state.m2;
  stats.sum_ = state.sum;
  stats.min_ = state.min;
  stats.max_ = state.max;
  return stats;
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::stderrOfMean() const noexcept {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

namespace {

/// Two-sided 95 % Student-t quantiles for small n; converges to 1.96.
double tQuantile95(std::size_t degreesOfFreedom) noexcept {
  static constexpr double kTable[] = {
      0.0,  12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
      2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110,
      2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
      2.052, 2.048, 2.045, 2.042};
  if (degreesOfFreedom == 0) return 0.0;
  if (degreesOfFreedom < std::size(kTable)) return kTable[degreesOfFreedom];
  if (degreesOfFreedom < 60) return 2.00;
  if (degreesOfFreedom < 120) return 1.98;
  return 1.96;
}

}  // namespace

double RunningStats::confidence95() const noexcept {
  if (count_ < 2) return 0.0;
  return tQuantile95(count_ - 1) * stderrOfMean();
}

void SeriesAccumulator::add(std::size_t i, double value) {
  if (i >= cells_.size()) {
    cells_.resize(i + 1);
  }
  cells_[i].add(value);
}

void SeriesAccumulator::merge(const SeriesAccumulator& other) {
  if (other.cells_.size() > cells_.size()) {
    cells_.resize(other.cells_.size());
  }
  for (std::size_t i = 0; i < other.cells_.size(); ++i) {
    cells_[i].merge(other.cells_[i]);
  }
}

SeriesAccumulator SeriesAccumulator::fromCells(std::vector<RunningStats> cells) {
  SeriesAccumulator acc;
  acc.cells_ = std::move(cells);
  return acc;
}

const RunningStats& SeriesAccumulator::at(std::size_t i) const {
  VANET_ASSERT(i < cells_.size(), "series index out of range");
  return cells_[i];
}

std::vector<double> SeriesAccumulator::means() const {
  std::vector<double> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    out[i] = cells_[i].mean();
  }
  return out;
}

}  // namespace vanet
