#include "mac/radio_environment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "mac/airtime.h"
#include "mac/radio.h"
#include "obs/counters.h"
#include "util/assert.h"
#include "util/vmath.h"

namespace vanet::mac {
namespace {

/// How long finished transmissions are retained for overlap computations.
/// Must exceed the longest frame airtime (1500 B at 1 Mbps is ~12.5 ms).
constexpr sim::SimTime kOverlapWindow = sim::SimTime::millis(50.0);

// dB <-> mW through the shared vmath helpers (one kernel, one documented
// 1e-15 floor) instead of per-call std::pow / std::log10.
double dbmToMilliwatt(double dbm) noexcept { return vmath::dbToLinear(dbm); }
double milliwattToDbm(double mw) noexcept { return vmath::linearToDb(mw); }

/// Adds one delivery's outcome to the obs counters, once per cause.
void countDelivery(const MediumStats& before, const MediumStats& after) {
  const std::uint64_t halfDuplex =
      after.framesHalfDuplexMissed - before.framesHalfDuplexMissed;
  const std::uint64_t belowSensitivity =
      after.framesBelowSensitivity - before.framesBelowSensitivity;
  const std::uint64_t collision = after.framesCollided - before.framesCollided;
  const std::uint64_t channelError =
      after.framesChannelError - before.framesChannelError;
  const std::uint64_t burst = after.framesBurstLost - before.framesBurstLost;
  const std::uint64_t delivered =
      after.framesDelivered - before.framesDelivered;
  const std::uint64_t dropped =
      halfDuplex + belowSensitivity + collision + channelError + burst;
  if (dropped != 0) OBS_COUNT_N("mac.frames_dropped", dropped);
  if (halfDuplex != 0) {
    OBS_COUNT_N("mac.frames_dropped.half_duplex", halfDuplex);
  }
  if (belowSensitivity != 0) {
    OBS_COUNT_N("mac.frames_dropped.below_sensitivity", belowSensitivity);
  }
  if (collision != 0) OBS_COUNT_N("mac.frames_dropped.collision", collision);
  if (channelError != 0) {
    OBS_COUNT_N("mac.frames_dropped.channel_error", channelError);
  }
  if (burst != 0) OBS_COUNT_N("mac.frames_dropped.burst", burst);
  if (delivered != 0) OBS_COUNT_N("mac.frames_delivered", delivered);
}

}  // namespace

const RadioEnvironment::PlannedRx* RadioEnvironment::ActiveTx::planFor(
    const Radio* rx) const {
  const std::size_t slot = rx->envSlot();
  if (slot >= planBySlot.size()) return nullptr;  // attached after planning
  const std::int32_t idx = planBySlot[slot];
  return idx >= 0 ? &plans[static_cast<std::size_t>(idx)] : nullptr;
}

RadioEnvironment::PlannedRx* RadioEnvironment::ActiveTx::planFor(
    const Radio* rx) {
  return const_cast<PlannedRx*>(std::as_const(*this).planFor(rx));
}

double RadioEnvironment::ActiveTx::fadedDbm(PlannedRx& plan) {
  if (plan.deferred) {
    // The scalar kernels of the batched transform: the same bits the link
    // model would have written at planning time.
    plan.fadedDbm = plan.meanDbm + fading->gainFromDraw(plan.fadeDraw);
    plan.deferred = false;
  }
  return plan.fadedDbm;
}

void RadioEnvironment::ActiveTx::rebuildSlotIndex(std::size_t slotCount) {
  planBySlot.assign(slotCount, -1);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    planBySlot[plans[i].rx->envSlot()] = static_cast<std::int32_t>(i);
  }
}

RadioEnvironment::RadioEnvironment(sim::Simulator& sim, channel::LinkModel& link,
                                   Rng rng)
    : sim_(sim), link_(link), rng_(rng) {}

void RadioEnvironment::attach(Radio* radio) {
  VANET_ASSERT(radio != nullptr, "cannot attach a null radio");
  radio->setEnvSlot(radios_.size());
  radios_.push_back(radio);
  staticPos_.push_back(radio->isStatic() ? std::optional(radio->position())
                                         : std::nullopt);
  resetStaticMeans();
}

void RadioEnvironment::detach(Radio* radio) {
  const auto it = std::find(radios_.begin(), radios_.end(), radio);
  if (it == radios_.end()) return;
  staticPos_.erase(staticPos_.begin() + (it - radios_.begin()));
  radios_.erase(it);
  for (std::size_t slot = 0; slot < radios_.size(); ++slot) {
    radios_[slot]->setEnvSlot(slot);
  }
  resetStaticMeans();
  // Forget any planned delivery to the detached radio and re-key the
  // surviving plans against the renumbered slots (recent_ records are
  // still consulted by interference lookups of *other* receivers).
  const auto scrub = [&](ActiveTx* tx) {
    std::erase_if(tx->plans,
                  [radio](const PlannedRx& p) { return p.rx == radio; });
    tx->rebuildSlotIndex(radios_.size());
  };
  for (ActiveTx* tx : active_) scrub(tx);
  for (ActiveTx* tx : recent_) scrub(tx);
}

void RadioEnvironment::resetStaticMeans() {
  staticMeanDbm_.assign(radios_.size() * radios_.size(),
                        std::numeric_limits<double>::quiet_NaN());
}

RadioEnvironment::ActiveTx* RadioEnvironment::acquireTx() {
  if (!freeTx_.empty()) {
    ActiveTx* tx = freeTx_.back();
    freeTx_.pop_back();
    return tx;  // beginTransmission overwrites its plans, keeping capacity
  }
  pool_.push_back(std::make_unique<ActiveTx>());
  return pool_.back().get();
}

sim::SimTime RadioEnvironment::beginTransmission(Radio& src, Frame frame,
                                                 channel::PhyMode mode) {
  ActiveTx* tx = acquireTx();
  tx->id = nextFrameId_++;
  tx->src = src.id();
  frame.frameId = tx->id;
  tx->frame = std::move(frame);
  tx->mode = mode;
  tx->start = sim_.now();
  tx->end = sim_.now() + frameAirtime(mode, tx->frame.bytes);

  // Gather every other radio into the struct-of-arrays batch (receiver
  // order = attach order, as the scalar loop iterated), plan all links in
  // staged passes, then scatter into the per-transmission plan records.
  // A link between two static radios hands in the mean its first plan
  // produced (NaN until then, and always for a moving receiver): the
  // first plan draws the link's pair constant at its first encounter, as
  // an uncached run would.
  const std::size_t slots = radios_.size();
  const std::optional<geom::Vec2>& srcStaticPos = staticPos_[src.envSlot()];
  const geom::Vec2 txPos = srcStaticPos ? *srcStaticPos : src.position();
  double* staticRow =
      srcStaticPos ? &staticMeanDbm_[src.envSlot() * slots] : nullptr;
  batch_.resize(slots - 1);
  std::size_t i = 0;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const Radio* rx = radios_[slot];
    if (rx == &src) continue;
    const std::optional<geom::Vec2>& staticPos = staticPos_[slot];
    batch_.setReceiver(i, rx->id(), staticPos ? *staticPos : rx->position());
    if (staticRow != nullptr && !std::isnan(staticRow[slot])) {
      batch_.setKnownMean(i, staticRow[slot]);
    }
    ++i;
  }
  OBS_COUNT_N("mac.link_evaluations", batch_.size());
  if (batch_.knownMeanCount() != 0) {
    OBS_COUNT_N("mac.links_cached", batch_.knownMeanCount());
  }
  link_.planBatch(src.id(), txPos, src.txPowerDbm(), batch_, rng_);

  tx->fading = batch_.fading();
  tx->plans.resize(batch_.size());
  tx->planBySlot.assign(slots, -1);
  const double* mean = batch_.meanDbm();
  const double* faded = batch_.fadedDbm();
  const double* draw = batch_.fadeDraw();
  const std::uint8_t* deferred = batch_.deferred();
  std::size_t deferredCount = 0;
  i = 0;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    Radio* rx = radios_[slot];
    if (rx == &src) continue;
    if (staticRow != nullptr && staticPos_[slot].has_value()) {
      staticRow[slot] = mean[i];
    }
    tx->planBySlot[slot] = static_cast<std::int32_t>(i);
    tx->plans[i] = PlannedRx{rx, mean[i], faded[i], draw[i], deferred[i] != 0};
    deferredCount += deferred[i];
    ++i;
  }
  if (deferredCount != 0) OBS_COUNT_N("mac.links_deferred", deferredCount);

  active_.push_back(tx);
  // Wake consolidated-backoff MACs now that the sensed-busy state may
  // have changed. Snapshot first: every listener removes itself from
  // mediumListeners_ while reacting.
  if (!mediumListeners_.empty()) {
    listenerScratch_ = mediumListeners_;
    for (MediumActivityListener* listener : listenerScratch_) {
      listener->onMediumActivity();
    }
  }
  ++stats_.framesTransmitted;
  // Raw-pointer capture: fits the scheduler's handler cell. The pool owns
  // `tx` for the environment's lifetime, and the record cannot be recycled
  // before this event runs (recycling only happens once the record ages
  // out of recent_, 50 ms *after* delivery).
  sim_.scheduleAt(tx->end, [this, tx] { deliver(tx); });
  return tx->end;
}

void RadioEnvironment::collectOverlap(const ActiveTx& tx) {
  overlap_.clear();
  for (ActiveTx* other : active_) {
    if (other->id != tx.id && other->start < tx.end && tx.start < other->end) {
      overlap_.push_back(other);
    }
  }
  for (ActiveTx* other : recent_) {
    if (other->id != tx.id && other->start < tx.end && tx.start < other->end) {
      overlap_.push_back(other);
    }
  }
}

double RadioEnvironment::interferenceDbmFromOverlap(const Radio* rx) {
  double totalMw = 0.0;
  for (ActiveTx* other : overlap_) {
    if (PlannedRx* plan = other->planFor(rx)) {
      totalMw += dbmToMilliwatt(other->fadedDbm(*plan));
    }
  }
  return totalMw > 0.0 ? milliwattToDbm(totalMw)
                       : -std::numeric_limits<double>::infinity();
}

void RadioEnvironment::pruneRecent() {
  const sim::SimTime horizon = sim_.now() - kOverlapWindow;
  std::erase_if(recent_, [&](ActiveTx* tx) {
    if (tx->end >= horizon) return false;
    freeTx_.push_back(tx);  // recycle: no pending event references it
    return true;
  });
}

void RadioEnvironment::deliver(ActiveTx* tx) {
  // Move from in-flight to recent before evaluating receivers, so the frame
  // no longer contributes to carrier sensing but still counts as
  // interference for overlapping frames.
  std::erase(active_, tx);
  recent_.push_back(tx);
  pruneRecent();

  // Batch-occupancy histogram: how many receiver plans this delivery
  // processes at once, i.e. how full the SIMD lanes of the batched
  // pipeline run. Visible in any campaign's counter snapshot.
  {
    const std::size_t occupancy = tx->plans.size();
    if (occupancy <= 1) {
      OBS_COUNT("mac.batch_size_1");
    } else if (occupancy <= 4) {
      OBS_COUNT("mac.batch_size_2_4");
    } else if (occupancy <= 8) {
      OBS_COUNT("mac.batch_size_5_8");
    } else {
      OBS_COUNT("mac.batch_size_9plus");
    }
  }

  const channel::LinkBudget& budget = link_.budget();
  const int bits = frameBits(tx->frame.bytes);
  const double noiseMw = dbmToMilliwatt(budget.noiseFloorDbm);
  const MediumStats before = stats_;

  // Stage 1 -- gates, one pass over the contiguous plan array: half-duplex,
  // sensitivity, capture-vs-interference. No RNG is consumed here, so
  // hoisting the gates off the per-receiver draw loop cannot reorder any
  // stream. Receiver callbacks have not run yet either: MACs never
  // transmit synchronously from a delivery (the CSMA kick schedules a
  // timer), so gate inputs cannot depend on this stage's outcome order.
  // A deferred plan is below sensitivity by construction (its mean plus
  // the largest fade is), so it fails that gate without its fade.
  //
  // The overlap set is a property of the transmission, not the receiver:
  // it is built once, when the first receiver passes the sensitivity gate
  // (active_ then recent_, the accumulation order of the interference
  // sum). In the common no-overlap case every receiver then reuses one
  // noise-only denominator instead of paying a log10 each (x + 0.0 == x
  // for the positive noiseMw, so the shared value is bit-identical to the
  // per-receiver computation).
  bool haveOverlap = false;
  double noiseOnlyDbm = 0.0;
  survivorIdx_.clear();
  survivorSinrDb_.clear();
  for (std::size_t i = 0; i < tx->plans.size(); ++i) {
    const PlannedRx& plan = tx->plans[i];
    if (plan.rx->transmittedDuring(tx->start, tx->end)) {
      ++stats_.framesHalfDuplexMissed;
      continue;
    }
    if (plan.deferred || plan.fadedDbm < budget.sensitivityDbm) {
      ++stats_.framesBelowSensitivity;
      continue;
    }
    if (!haveOverlap) {
      collectOverlap(*tx);
      noiseOnlyDbm = milliwattToDbm(noiseMw);
      haveOverlap = true;
    }
    double sinrDb;
    if (overlap_.empty()) {
      sinrDb = plan.fadedDbm - noiseOnlyDbm;
    } else {
      const double interferenceDbm = interferenceDbmFromOverlap(plan.rx);
      const double interferenceMw = std::isinf(interferenceDbm)
                                        ? 0.0
                                        : dbmToMilliwatt(interferenceDbm);
      sinrDb = plan.fadedDbm - milliwattToDbm(noiseMw + interferenceMw);
      if (interferenceMw > 0.0 && sinrDb < budget.captureThresholdDb) {
        ++stats_.framesCollided;
        continue;
      }
    }
    survivorIdx_.push_back(static_cast<std::uint32_t>(i));
    survivorSinrDb_.push_back(sinrDb);
  }

  if (!survivorIdx_.empty()) {
    // Stage 2 -- decode probabilities for all survivors, batched (pure
    // function of SINR; no draws).
    survivorPSuccess_.resize(survivorIdx_.size());
    link_.successProbabilityBatch(tx->mode, survivorSinrDb_.data(), bits,
                                  survivorPSuccess_.data(),
                                  survivorIdx_.size());
  }

  // Stage 3 -- conditional draws and delivery, in receiver order: the
  // decode bernoulli on the environment stream, then the burst-chain
  // advance, exactly the per-survivor sequence of the scalar loop.
  for (std::size_t k = 0; k < survivorIdx_.size(); ++k) {
    const PlannedRx& plan = tx->plans[survivorIdx_[k]];
    Radio* rx = plan.rx;
    const double sinrDb = survivorSinrDb_[k];
    if (!rng_.bernoulli(survivorPSuccess_[k])) {
      ++stats_.framesChannelError;
      // The frame was detected (preamble robust, above sensitivity) but
      // the payload failed: radios that opted in receive it with its
      // SINR so they can soft-combine copies (C-ARQ/FC).
      if (rx->wantsCorruptFrames()) {
        ++stats_.framesCorruptDelivered;
        rx->onFrameCorrupted(tx->frame,
                             RxInfo{tx->src, plan.fadedDbm, sinrDb, sim_.now()});
      }
      continue;
    }
    if (link_.burstLoss(tx->src, rx->id(), sim_.now(),
                        static_cast<int>(tx->frame.kind))) {
      ++stats_.framesBurstLost;
      continue;
    }
    ++stats_.framesDelivered;
    rx->onFrameDelivered(tx->frame,
                         RxInfo{tx->src, plan.fadedDbm, sinrDb, sim_.now()});
  }
  countDelivery(before, stats_);
}

void RadioEnvironment::addMediumListener(MediumActivityListener* listener) {
  mediumListeners_.push_back(listener);
}

void RadioEnvironment::removeMediumListener(
    MediumActivityListener* listener) noexcept {
  std::erase(mediumListeners_, listener);
}

bool RadioEnvironment::channelBusy(const Radio& sensor) const {
  if (sensor.transmitting()) return true;
  const double threshold = link_.budget().carrierSenseDbm;
  for (const ActiveTx* tx : active_) {
    if (tx->src == sensor.id()) continue;
    if (const PlannedRx* plan = tx->planFor(&sensor)) {
      if (plan->meanDbm >= threshold) return true;
    }
  }
  return false;
}

sim::SimTime RadioEnvironment::channelBusyUntil(const Radio& sensor) const {
  sim::SimTime until = sim_.now();
  if (sensor.transmitting()) until = std::max(until, sensor.transmitUntil());
  const double threshold = link_.budget().carrierSenseDbm;
  for (const ActiveTx* tx : active_) {
    if (tx->src == sensor.id()) continue;
    if (const PlannedRx* plan = tx->planFor(&sensor)) {
      if (plan->meanDbm >= threshold) until = std::max(until, tx->end);
    }
  }
  return until;
}

}  // namespace vanet::mac
