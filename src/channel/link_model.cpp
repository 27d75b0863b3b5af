#include "channel/link_model.h"

#include "util/assert.h"

namespace vanet::channel {
namespace {

std::uint64_t packLink(NodeId tx, NodeId rx) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tx)) << 32) |
         static_cast<std::uint32_t>(rx);
}

}  // namespace

void LinkModel::planBatch(NodeId tx, geom::Vec2 txPos, double txPowerDbm,
                          LinkBatch& batch, Rng& rng) {
  // Scalar reference path: per receiver in order, mean then faded power --
  // the exact draw order of a per-receiver loop. Kept virtual-call-per-
  // receiver on purpose: it is the behavioural spec batched overrides are
  // tested against.
  const std::size_t n = batch.size();
  double* mean = batch.meanDbm();
  double* faded = batch.fadedDbm();
  for (std::size_t i = 0; i < n; ++i) {
    mean[i] =
        meanRxPowerDbm(tx, txPos, txPowerDbm, batch.rxIds()[i], batch.rxPos(i));
    faded[i] = fadedRxPowerDbm(mean[i], rng);
  }
}

void LinkModel::successProbabilityBatch(PhyMode mode, const double* sinrDb,
                                        int bits, double* pOut,
                                        std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) {
    pOut[i] = successProbability(mode, sinrDb[i], bits);
  }
}

CompositeLinkModel::CompositeLinkModel(
    std::unique_ptr<PathLossModel> infraPathLoss,
    std::unique_ptr<PathLossModel> carToCarPathLoss,
    std::unique_ptr<ShadowingProvider> shadowing,
    std::unique_ptr<FadingModel> fading, LinkBudget budget)
    : infraPathLoss_(std::move(infraPathLoss)),
      carToCarPathLoss_(std::move(carToCarPathLoss)),
      shadowing_(std::move(shadowing)), fading_(std::move(fading)),
      budget_(budget) {
  VANET_ASSERT(infraPathLoss_ != nullptr, "infra path-loss model required");
  VANET_ASSERT(carToCarPathLoss_ != nullptr, "c2c path-loss model required");
  VANET_ASSERT(shadowing_ != nullptr, "shadowing provider required");
  VANET_ASSERT(fading_ != nullptr, "fading model required");
  fadingMaxGainDb_ = fading_->maxGainDb();
}

void CompositeLinkModel::enableBurstOverlay(GilbertElliottParams params, Rng rng) {
  burstParams_ = params;
  burstRng_ = rng;
  burstChains_.clear();
}

double CompositeLinkModel::meanRxPowerDbm(NodeId tx, geom::Vec2 txPos,
                                          double txPowerDbm, NodeId rx,
                                          geom::Vec2 rxPos) {
  const double d = geom::distance(txPos, rxPos);
  const bool infraLink = tx >= kFirstApId || rx >= kFirstApId;
  const PathLossModel& pathLoss =
      infraLink ? *infraPathLoss_ : *carToCarPathLoss_;
  return txPowerDbm - pathLoss.lossDb(d) +
         shadowing_->shadowDb(tx, txPos, rx, rxPos);
}

double CompositeLinkModel::fadedRxPowerDbm(double meanDbm, Rng& rng) {
  return meanDbm + fading_->sampleDb(rng);
}

double CompositeLinkModel::successProbability(PhyMode mode, double sinrDb,
                                              int bits) const {
  return frameSuccessProbability(mode, sinrDb, bits);
}

void CompositeLinkModel::planMeans(NodeId tx, geom::Vec2 txPos,
                                   double txPowerDbm, const NodeId* rxIds,
                                   const double* rxX, const double* rxY,
                                   std::size_t n, double* dist, double* loss,
                                   double* shadow, double* mean) {
  // Stage 1: distances through geom::distance (sqrt of squares), the same
  // expression the scalar path evaluates -- bit-identical and free to
  // auto-vectorize.
  for (std::size_t i = 0; i < n; ++i) {
    dist[i] = geom::distance(txPos, {rxX[i], rxY[i]});
  }

  // Stage 2: path loss, split by link class exactly as the scalar path
  // (infra when either endpoint is an AP).
  if (tx >= kFirstApId) {
    infraPathLoss_->lossDbBatch(dist, loss, n);
  } else {
    carToCarPathLoss_->lossDbBatch(dist, loss, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rxIds[i] >= kFirstApId) loss[i] = infraPathLoss_->lossDb(dist[i]);
    }
  }

  // Stage 3: shadowing, one batched pass. Draws (c2c pair constants) occur
  // in receiver order on the shadowing provider's own stream.
  shadowing_->shadowDbBatch(tx, txPos, rxIds, rxX, rxY, shadow, n);

  // Stage 4: mean power. Same association as the scalar expression
  // (txPower - loss) + shadow.
  for (std::size_t i = 0; i < n; ++i) {
    mean[i] = txPowerDbm - loss[i] + shadow[i];
  }
}

void CompositeLinkModel::planBatch(NodeId tx, geom::Vec2 txPos,
                                   double txPowerDbm, LinkBatch& batch,
                                   Rng& rng) {
  const std::size_t n = batch.size();
  if (n == 0) return;  // no receivers: no draws on any stream
  double* mean = batch.meanDbm();
  double* fade = batch.fadeDb();

  // Stages 1-4 for the receivers whose mean is not known. A known mean
  // belongs to a link planned before, so its pair constant is drawn and
  // skipping it moves no stream; the others keep their receiver order.
  // The compacted means land in the fade scratch, free until stage 5.
  if (batch.knownMeanCount() == 0) {
    planMeans(tx, txPos, txPowerDbm, batch.rxIds(), batch.rxX(), batch.rxY(),
              n, batch.distance(), batch.lossDb(), batch.shadowDb(), mean);
  } else if (batch.knownMeanCount() < n) {
    subIdx_.clear();
    subIds_.clear();
    subX_.clear();
    subY_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (batch.meanKnown(i)) continue;
      subIdx_.push_back(static_cast<std::uint32_t>(i));
      subIds_.push_back(batch.rxIds()[i]);
      subX_.push_back(batch.rxX()[i]);
      subY_.push_back(batch.rxY()[i]);
    }
    const std::size_t m = subIdx_.size();
    planMeans(tx, txPos, txPowerDbm, subIds_.data(), subX_.data(),
              subY_.data(), m, batch.distance(), batch.lossDb(),
              batch.shadowDb(), fade);
    for (std::size_t k = 0; k < m; ++k) mean[subIdx_[k]] = fade[k];
  }

  // Stage 5: every fading draw, in receiver order on the caller's stream.
  // A receiver whose mean plus the largest gain stays below sensitivity
  // cannot decode whatever it drew: it keeps the raw draw (deferred) and
  // skips the transform. Floating-point addition is monotone, so
  // mean + gain <= mean + maxGain < sensitivity holds for the gain it
  // would have got. The others are transformed together and get
  // faded = mean + fade as in the scalar composition.
  double* draw = batch.fadeDraw();
  fading_->drawBatch(rng, draw, n);
  batch.setFading(fading_.get());
  std::uint8_t* deferred = batch.deferred();
  subIdx_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (mean[i] + fadingMaxGainDb_ < budget_.sensitivityDbm) {
      deferred[i] = 1;
    } else {
      fade[subIdx_.size()] = draw[i];
      subIdx_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const std::size_t live = subIdx_.size();
  fading_->gainFromDrawBatch(fade, fade, live);
  double* faded = batch.fadedDbm();
  for (std::size_t k = 0; k < live; ++k) {
    const std::uint32_t i = subIdx_[k];
    faded[i] = mean[i] + fade[k];
  }
}

void CompositeLinkModel::successProbabilityBatch(PhyMode mode,
                                                 const double* sinrDb, int bits,
                                                 double* pOut,
                                                 std::size_t n) const {
  // Batched BER->PER chain; bit-identical to per-element
  // frameSuccessProbability (the LinkModel base-class reference loop).
  frameSuccessProbabilityBatch(mode, sinrDb, bits, pOut, n);
}

bool CompositeLinkModel::burstLoss(NodeId tx, NodeId rx, sim::SimTime now,
                                   int /*frameClass*/) {
  if (!burstParams_.has_value()) return false;
  const std::uint64_t key = packLink(tx, rx);
  if (GilbertElliott* chain = burstChains_.find(key)) {
    return chain->loseFrame(now);
  }
  // Derive a per-link chain seed deterministically from the pair, so chain
  // state is independent of link discovery order.
  Rng chainRng = burstRng_->child(key);
  return burstChains_.findOrEmplace(key, GilbertElliott{*burstParams_, chainRng})
      .loseFrame(now);
}

}  // namespace vanet::channel
