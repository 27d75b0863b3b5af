#pragma once

/// \file fading.h
/// Small-scale fading sampled independently per frame (block fading: the
/// channel is assumed coherent over one frame and independent across
/// frames, reasonable at vehicular speeds where frames are ~10 ms apart).

#include <cstddef>
#include <limits>

#include "util/rng.h"

namespace vanet::channel {

/// Per-frame fading gain in dB (0 dB mean-power reference).
class FadingModel {
 public:
  virtual ~FadingModel() = default;

  /// Samples the fading gain for one frame.
  virtual double sampleDb(Rng& rng) const = 0;

  /// Samples `n` per-receiver gains in receiver order (one transmission's
  /// batch). Base implementation: scalar loop; overrides must consume
  /// `rng` in exactly the same order.
  virtual void sampleDbBatch(Rng& rng, double* out, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = sampleDb(rng);
  }

  /// An upper bound on every gain this model returns (sampleDb,
  /// sampleDbBatch, gainFromDraw), as computed, not as a mathematical
  /// limit. +inf means no useful bound: the link model then never defers
  /// a receiver's fade.
  virtual double maxGainDb() const {
    return std::numeric_limits<double>::infinity();
  }

  /// The draw half of sampleDbBatch: consumes `rng` exactly as
  /// sampleDbBatch does and keeps one raw draw per receiver, so the
  /// transform can run later, or never, for receivers that cannot decode.
  /// gainFromDraw maps a draw to the gain sampleDbBatch would have
  /// returned, bit for bit. Base implementation: the draw is the gain.
  virtual void drawBatch(Rng& rng, double* draws, std::size_t n) const {
    sampleDbBatch(rng, draws, n);
  }
  virtual double gainFromDraw(double draw) const { return draw; }
  /// Batched gainFromDraw; `out` may alias `draws`.
  virtual void gainFromDrawBatch(const double* draws, double* out,
                                 std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = gainFromDraw(draws[i]);
  }
};

/// No fading: always 0 dB.
class NoFading final : public FadingModel {
 public:
  double sampleDb(Rng&) const override { return 0.0; }
  void sampleDbBatch(Rng&, double* out, std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0;
  }
  double maxGainDb() const override { return 0.0; }
};

/// Rayleigh fading: power gain ~ Exp(1) (unit mean). A draw is the
/// uniform u in (0, 1); its gain is 10 log10(-ln u).
class RayleighFading final : public FadingModel {
 public:
  double sampleDb(Rng& rng) const override;
  void sampleDbBatch(Rng& rng, double* out, std::size_t n) const override;
  /// The gain of the smallest positive uniform, 2^-53 (about +15.65 dB),
  /// plus a margin that absorbs any last-ulp non-monotonicity of vlog.
  double maxGainDb() const override;
  void drawBatch(Rng& rng, double* draws, std::size_t n) const override;
  double gainFromDraw(double draw) const override;
  void gainFromDrawBatch(const double* draws, double* out,
                         std::size_t n) const override;
};

/// Rician fading with K-factor (ratio of line-of-sight to scattered power).
/// K -> 0 degenerates to Rayleigh; large K approaches no fading.
class RicianFading final : public FadingModel {
 public:
  explicit RicianFading(double kFactor);
  double sampleDb(Rng& rng) const override;
  void sampleDbBatch(Rng& rng, double* out, std::size_t n) const override;

  double kFactor() const noexcept { return k_; }

 private:
  double k_;
};

/// Nakagami-m fading (power gain ~ Gamma(m, 1/m), unit mean). m = 1 is
/// Rayleigh; m > 1 models milder vehicular fading; m < 1 (down to 0.5)
/// is harsher than Rayleigh. The common choice for VANET channel studies.
class NakagamiFading final : public FadingModel {
 public:
  /// Requires m >= 0.5.
  explicit NakagamiFading(double m);
  double sampleDb(Rng& rng) const override;
  void sampleDbBatch(Rng& rng, double* out, std::size_t n) const override;

  double m() const noexcept { return m_; }

 private:
  double m_;
};

}  // namespace vanet::channel
