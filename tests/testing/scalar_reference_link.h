#pragma once

/// A link model that forwards every scalar virtual to a wrapped model
/// while inheriting the base-class planBatch / successProbabilityBatch
/// loops: the scalar per-receiver reference path. It never defers a fade
/// and recomputes every known mean, so a stack run through it is the
/// behavioural spec a batched model is compared against.

#include "channel/link_model.h"

namespace vanet::testing {

class ScalarReferenceLink final : public channel::LinkModel {
 public:
  explicit ScalarReferenceLink(channel::LinkModel& inner) : inner_(inner) {}

  double meanRxPowerDbm(NodeId tx, geom::Vec2 txPos, double txPowerDbm,
                        NodeId rx, geom::Vec2 rxPos) override {
    return inner_.meanRxPowerDbm(tx, txPos, txPowerDbm, rx, rxPos);
  }
  double fadedRxPowerDbm(double meanDbm, Rng& rng) override {
    return inner_.fadedRxPowerDbm(meanDbm, rng);
  }
  double successProbability(channel::PhyMode mode, double sinrDb,
                            int bits) const override {
    return inner_.successProbability(mode, sinrDb, bits);
  }
  bool burstLoss(NodeId tx, NodeId rx, sim::SimTime now,
                 int frameClass) override {
    return inner_.burstLoss(tx, rx, now, frameClass);
  }
  const channel::LinkBudget& budget() const override {
    return inner_.budget();
  }

 private:
  channel::LinkModel& inner_;
};

}  // namespace vanet::testing
