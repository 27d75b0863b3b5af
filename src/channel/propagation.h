#pragma once

/// \file propagation.h
/// Deterministic large-scale path-loss models. All return loss in dB for a
/// transmitter/receiver separation in metres; stochastic terms (shadowing,
/// fading) are layered on top by the composite link model.

#include <cstddef>

namespace vanet::channel {

/// Distance -> mean path loss (dB). Implementations must be monotone
/// non-decreasing in distance.
class PathLossModel {
 public:
  virtual ~PathLossModel() = default;

  /// Path loss in dB at `distanceMetres` (clamped internally to >= 1 m so
  /// co-located nodes do not produce infinities).
  virtual double lossDb(double distanceMetres) const = 0;

  /// Batched lossDb over `n` distances (one transmission's receiver set).
  /// Base implementation: scalar loop. Overrides apply the identical
  /// per-element math, so outputs are bit-identical.
  virtual void lossDbBatch(const double* distanceMetres, double* out,
                           std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = lossDb(distanceMetres[i]);
  }
};

/// Log-distance model: loss(d) = refLoss(d0) + 10 n log10(d / d0).
/// Every scenario builds its AP and car-to-car links from it (exponent
/// ~3 captures the window-mounted AP of the testbed).
class LogDistancePathLoss final : public PathLossModel {
 public:
  /// `referenceLossDb` is the loss at `referenceDistance` metres.
  LogDistancePathLoss(double exponent, double referenceLossDb,
                      double referenceDistance = 1.0);
  double lossDb(double distanceMetres) const override;
  void lossDbBatch(const double* distanceMetres, double* out,
                   std::size_t n) const override;

  double exponent() const noexcept { return exponent_; }

 private:
  double exponent_;
  double slopeDb_;  // 10 * exponent, the log10 multiplier
  double referenceLossDb_;
  double referenceDistance_;
};

}  // namespace vanet::channel
