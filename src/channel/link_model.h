#pragma once

/// \file link_model.h
/// The composite link model: large-scale path loss + correlated shadowing
/// + per-frame fading + optional Gilbert–Elliott burst overlay, with the
/// receiver thresholds the radio environment needs (sensitivity, carrier
/// sense, capture).

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "channel/error_model.h"
#include "channel/fading.h"
#include "channel/gilbert_elliott.h"
#include "channel/link_batch.h"
#include "channel/propagation.h"
#include "channel/shadowing.h"
#include "geom/vec2.h"
#include "sim/time.h"
#include "util/flat_hash.h"
#include "util/rng.h"
#include "util/types.h"

namespace vanet::channel {

/// Receiver-side constants of the link budget.
struct LinkBudget {
  double noiseFloorDbm = -94.0;      ///< thermal noise + NF over 22 MHz
  double sensitivityDbm = -96.0;     ///< below this a frame is undetectable
  double carrierSenseDbm = -92.0;    ///< energy-detect threshold for CSMA
  double captureThresholdDb = 8.0;   ///< min SINR to attempt capture
};

/// Abstract link model consumed by the radio environment.
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  /// Mean received power in dBm (path loss + shadowing, no fading): used
  /// for carrier sensing and as the base for per-frame fading draws.
  virtual double meanRxPowerDbm(NodeId tx, geom::Vec2 txPos, double txPowerDbm,
                                NodeId rx, geom::Vec2 rxPos) = 0;

  /// Per-frame faded received power in dBm given the mean.
  virtual double fadedRxPowerDbm(double meanDbm, Rng& rng) = 0;

  /// Frame decode probability at the given post-interference SINR.
  virtual double successProbability(PhyMode mode, double sinrDb,
                                    int bits) const = 0;

  /// Fills `batch.meanDbm()`/`batch.fadedDbm()` for every gathered
  /// receiver of one transmission. The base implementation is the scalar
  /// reference: per receiver in order, meanRxPowerDbm then fadedRxPowerDbm
  /// -- exactly the call (and RNG draw) sequence of a per-receiver loop.
  /// Concrete models may override with staged struct-of-arrays passes, but
  /// must produce bit-identical outputs and identical positions on every
  /// RNG stream (the reference-equivalence tests assert this).
  ///
  /// Contract on known means (LinkBatch::setKnownMean): once a link's
  /// random constants are drawn (shadowing pair constants, at the link's
  /// first plan), its mean is a pure function of the two ids, the two
  /// positions and the tx power. A caller may therefore hand in the mean
  /// an earlier plan of the same link produced, and an implementation may
  /// keep it or recompute it; the base implementation recomputes it.
  /// An override may also defer a receiver's fade (LinkBatch::deferred)
  /// when no gain of its fading model can lift the mean to sensitivity;
  /// the fade is still drawn, in receiver order.
  virtual void planBatch(NodeId tx, geom::Vec2 txPos, double txPowerDbm,
                         LinkBatch& batch, Rng& rng);

  /// Batched successProbability over `n` SINR values (one per surviving
  /// receiver, in receiver order). Base implementation: scalar loop.
  virtual void successProbabilityBatch(PhyMode mode, const double* sinrDb,
                                       int bits, double* pOut,
                                       std::size_t n) const;

  /// Stateful burst-loss overlay for a directed link; default: none.
  /// `frameClass` is an opaque tag supplied by the caller (the MAC passes
  /// its FrameKind) so overlays and test doubles can target frame types;
  /// models are free to ignore it.
  virtual bool burstLoss(NodeId /*tx*/, NodeId /*rx*/, sim::SimTime /*now*/,
                         int /*frameClass*/) {
    return false;
  }

  virtual const LinkBudget& budget() const = 0;
};

/// Standard composition used by all experiments. Owns its parts.
///
/// Infrastructure links (either endpoint id >= kFirstApId) and car-to-car
/// links use distinct path-loss models: the testbed's AP sat behind an
/// office window (large fixed penetration loss), while platoon cars keep
/// street-level line of sight.
class CompositeLinkModel final : public LinkModel {
 public:
  CompositeLinkModel(std::unique_ptr<PathLossModel> infraPathLoss,
                     std::unique_ptr<PathLossModel> carToCarPathLoss,
                     std::unique_ptr<ShadowingProvider> shadowing,
                     std::unique_ptr<FadingModel> fading, LinkBudget budget);

  /// Enables a Gilbert–Elliott overlay on every directed link (each link
  /// gets an independent chain seeded from `rng`).
  void enableBurstOverlay(GilbertElliottParams params, Rng rng);

  double meanRxPowerDbm(NodeId tx, geom::Vec2 txPos, double txPowerDbm,
                        NodeId rx, geom::Vec2 rxPos) override;
  double fadedRxPowerDbm(double meanDbm, Rng& rng) override;
  double successProbability(PhyMode mode, double sinrDb, int bits) const override;

  /// Staged struct-of-arrays pass: distances, path loss (infra/c2c split),
  /// shadowing, mean power (for receivers without a known mean), then
  /// every fading draw and the transform of the receivers that could
  /// decode. Bit-identical to the scalar reference (see
  /// LinkModel::planBatch): every arithmetic expression matches the
  /// scalar composition term for term, and each RNG stream is consumed in
  /// receiver order within its stage.
  void planBatch(NodeId tx, geom::Vec2 txPos, double txPowerDbm,
                 LinkBatch& batch, Rng& rng) override;
  void successProbabilityBatch(PhyMode mode, const double* sinrDb, int bits,
                               double* pOut, std::size_t n) const override;
  bool burstLoss(NodeId tx, NodeId rx, sim::SimTime now,
                 int frameClass) override;
  const LinkBudget& budget() const override { return budget_; }

 private:
  /// Stages 1-4 (distance, path loss, shadowing, mean) over `n`
  /// receivers in struct-of-arrays form; dist/loss/shadow are scratch.
  void planMeans(NodeId tx, geom::Vec2 txPos, double txPowerDbm,
                 const NodeId* rxIds, const double* rxX, const double* rxY,
                 std::size_t n, double* dist, double* loss, double* shadow,
                 double* mean);

  std::unique_ptr<PathLossModel> infraPathLoss_;
  std::unique_ptr<PathLossModel> carToCarPathLoss_;
  std::unique_ptr<ShadowingProvider> shadowing_;
  std::unique_ptr<FadingModel> fading_;
  double fadingMaxGainDb_ = 0.0;  ///< fading_->maxGainDb(), read once
  LinkBudget budget_;
  std::optional<GilbertElliottParams> burstParams_;
  std::optional<Rng> burstRng_;
  // Directed link (tx<<32 | rx) -> chain. Flat hash: the per-frame lookup
  // on survivors sits on the hot path and the old std::map paid a pointer
  // chase per tree level.
  util::FlatMap64<GilbertElliott> burstChains_;
  // planBatch scratch: receiver indices and gathered inputs of a subset
  // (unknown means, decodable fades), kept for their capacity.
  std::vector<std::uint32_t> subIdx_;
  std::vector<NodeId> subIds_;
  std::vector<double> subX_, subY_;
};

}  // namespace vanet::channel
