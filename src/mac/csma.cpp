#include "mac/csma.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace vanet::mac {

CsmaMac::CsmaMac(sim::Simulator& sim, RadioEnvironment& environment,
                 Radio& radio, MacConfig config, Rng rng)
    : sim_(sim), environment_(environment), radio_(radio), config_(config),
      rng_(rng) {
  VANET_ASSERT(config_.cwMin >= 0, "contention window must be non-negative");
}

CsmaMac::~CsmaMac() {
  // Same lifetime convention as Radio::~Radio: the environment outlives
  // the MACs attached to it.
  if (listening_) environment_.removeMediumListener(this);
}

void CsmaMac::setRxHandler(Radio::RxCallback callback) {
  radio_.setRxCallback(std::move(callback));
}

void CsmaMac::setCorruptRxHandler(Radio::RxCallback callback) {
  radio_.setCorruptRxCallback(std::move(callback));
}

void CsmaMac::enqueue(Frame frame, channel::PhyMode mode) {
  if (queue_.size() >= config_.maxQueue) {
    ++drops_;
    return;
  }
  queue_.push_back(Pending{std::move(frame), mode});
  if (state_ == State::kIdle) {
    kick();
  }
}

void CsmaMac::kick() {
  if (state_ != State::kIdle || queue_.empty()) return;
  if (environment_.channelBusy(radio_)) {
    retryLater();
    return;
  }
  state_ = State::kDifs;
  timer_ = sim_.scheduleAfter(config_.difs, [this] { onDifsElapsed(); });
}

void CsmaMac::retryLater() {
  // Re-attempt shortly after the sensed busy condition is due to end. The
  // small epsilon avoids re-kicking at the exact boundary instant where the
  // ending transmission still counts as active.
  const sim::SimTime when =
      std::max(environment_.channelBusyUntil(radio_), sim_.now()) +
      sim::SimTime::micros(15.0);
  state_ = State::kIdle;
  timer_ = sim_.scheduleAt(when, [this] { kick(); });
}

void CsmaMac::onDifsElapsed() {
  if (environment_.channelBusy(radio_)) {
    retryLater();
    return;
  }
  if (!backoffInProgress_) {
    slotsRemaining_ = rng_.uniformInt(0, config_.cwMin);
    backoffInProgress_ = true;
  }
  state_ = State::kBackoff;
  if (slotsRemaining_ == 0) {
    startTransmission();
    return;
  }
  beginBackoffWait();
}

void CsmaMac::onSlotElapsed() {
  if (environment_.channelBusy(radio_)) {
    // Freeze the counter; resume with the same residual backoff after the
    // medium clears and a fresh DIFS passes.
    retryLater();
    return;
  }
  --slotsRemaining_;
  if (slotsRemaining_ <= 0) {
    startTransmission();
    return;
  }
  // Idle again after a busy spell: go back to sleeping the residual
  // countdown on one timer.
  beginBackoffWait();
}

void CsmaMac::beginBackoffWait() {
  backoffAnchor_ = sim_.now();
  environment_.addMediumListener(this);
  listening_ = true;
  timer_ = sim_.scheduleAfter(config_.slot * slotsRemaining_,
                              [this] { onBackoffElapsed(); });
}

void CsmaMac::onBackoffElapsed() {
  // Nothing entered the air since the anchor (activity would have
  // demoted this wait to per-slot stepping), so every slot boundary
  // passed with an idle medium and the countdown is spent.
  environment_.removeMediumListener(this);
  listening_ = false;
  slotsRemaining_ = 0;
  startTransmission();
}

void CsmaMac::onMediumActivity() {
  if (!listening_) return;
  environment_.removeMediumListener(this);
  listening_ = false;
  sim_.cancel(timer_);
  // Boundaries strictly before now passed an idle medium (this call is
  // the first activity since the anchor): count them down, then resume
  // per-slot stepping at the next boundary, which senses the new
  // transmission exactly as the per-slot formulation would have.
  const std::int64_t elapsedNs = (sim_.now() - backoffAnchor_).ns();
  const std::int64_t slotNs = config_.slot.ns();
  const std::int64_t passed = elapsedNs > 0 ? (elapsedNs - 1) / slotNs : 0;
  slotsRemaining_ -= static_cast<int>(passed);
  timer_ = sim_.scheduleAt(backoffAnchor_ + config_.slot * (passed + 1),
                           [this] { onSlotElapsed(); });
}

void CsmaMac::startTransmission() {
  VANET_ASSERT(!queue_.empty(), "attempt with empty queue");
  backoffInProgress_ = false;
  Pending next = std::move(queue_.front());
  queue_.pop_front();
  state_ = State::kTransmitting;
  radio_.transmit(std::move(next.frame), next.mode);
  ++sent_;
  const sim::SimTime done = radio_.transmitUntil() + sim::SimTime::micros(1.0);
  timer_ = sim_.scheduleAt(done, [this] {
    state_ = State::kIdle;
    kick();
  });
}

}  // namespace vanet::mac
