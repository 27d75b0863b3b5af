#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "obs/counters.h"
#include "util/assert.h"

namespace vanet::sim {

EventId Simulator::scheduleAt(SimTime at, std::function<void()> fn) {
  VANET_ASSERT(at >= now_, "cannot schedule an event in the past");
  VANET_ASSERT(fn != nullptr, "event handler must be callable");
  std::size_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = slots_.size();
    VANET_ASSERT(slot <= 0xffffffffu, "event slot space exhausted");
    slots_.emplace_back();
  }
  Slot& cell = slots_[slot];
  cell.fn = std::move(fn);
  cell.live = true;
  ++liveCount_;
  const EventId id =
      (static_cast<EventId>(cell.generation) << 32) | static_cast<EventId>(slot);
  queue_.push_back(Entry{at, nextSeq_++, id});
  std::push_heap(queue_.begin(), queue_.end(), EntryLater{});
  return id;
}

EventId Simulator::scheduleAfter(SimTime delay, std::function<void()> fn) {
  VANET_ASSERT(delay >= SimTime::zero(), "delay must be non-negative");
  return scheduleAt(now_ + delay, std::move(fn));
}

void Simulator::releaseSlot(std::size_t slot) noexcept {
  Slot& cell = slots_[slot];
  ++cell.generation;
  if (cell.generation == 0) cell.generation = 1;  // keep ids non-zero
  freeSlots_.push_back(static_cast<std::uint32_t>(slot));
}

void Simulator::cancel(EventId id) {
  const std::size_t slot = slotOf(id);
  if (slot >= slots_.size() || slots_[slot].generation != generationOf(id) ||
      !slots_[slot].live) {
    return;  // already fired or cancelled
  }
  // Release the closure eagerly (it may pin resources); the queue entry is
  // discarded lazily and the slot recycled when the entry surfaces or the
  // queue compacts.
  slots_[slot].fn = nullptr;
  slots_[slot].live = false;
  --liveCount_;
  OBS_COUNT("sim.events_cancelled");
  ++cancelledInQueue_;
  maybeCompact();
}

void Simulator::maybeCompact() {
  if (cancelledInQueue_ <= kCompactionSlack || cancelledInQueue_ <= liveCount_) {
    return;
  }
  OBS_COUNT("sim.queue_compactions");
  const auto live =
      std::remove_if(queue_.begin(), queue_.end(), [this](const Entry& entry) {
        const std::size_t slot = slotOf(entry.id);
        if (slots_[slot].generation == generationOf(entry.id) &&
            slots_[slot].live) {
          return false;
        }
        releaseSlot(slot);
        return true;
      });
  queue_.erase(live, queue_.end());
  // Capacity is kept: steady schedule-cancel churn would otherwise pay a
  // free/realloc cycle per compaction. It stays bounded by the largest
  // pre-compaction queue, which the compaction keeps O(pending).
  std::make_heap(queue_.begin(), queue_.end(), EntryLater{});
  cancelledInQueue_ = 0;
}

bool Simulator::popNextLive(Entry& out) {
  while (!queue_.empty()) {
    const Entry top = queue_.front();
    const std::size_t slot = slotOf(top.id);
    if (slots_[slot].generation != generationOf(top.id) || !slots_[slot].live) {
      std::pop_heap(queue_.begin(), queue_.end(), EntryLater{});
      queue_.pop_back();  // cancelled; discard lazily
      if (slots_[slot].generation == generationOf(top.id)) releaseSlot(slot);
      if (cancelledInQueue_ > 0) --cancelledInQueue_;
      continue;
    }
    out = top;
    return true;
  }
  return false;
}

void Simulator::dispatch(const Entry& entry) {
  // `entry` is the live top popNextLive just returned.
  std::pop_heap(queue_.begin(), queue_.end(), EntryLater{});
  queue_.pop_back();
  const std::size_t slot = slotOf(entry.id);
  std::function<void()> fn = std::move(slots_[slot].fn);
  slots_[slot].fn = nullptr;
  slots_[slot].live = false;
  --liveCount_;
  releaseSlot(slot);
  VANET_ASSERT(entry.at >= now_, "event queue must be monotone");
  now_ = entry.at;
  ++executed_;
  fn();
}

void Simulator::countDispatched() {
  OBS_COUNT_N("sim.events_dispatched", executed_ - counted_);
  counted_ = executed_;
}

bool Simulator::step() {
  Entry entry;
  if (!popNextLive(entry)) return false;
  dispatch(entry);
  countDispatched();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  Entry entry;
  while (!stopped_ && popNextLive(entry)) dispatch(entry);
  countDispatched();
}

void Simulator::runUntil(SimTime until) {
  stopped_ = false;
  Entry entry;
  while (!stopped_ && popNextLive(entry) && entry.at <= until) {
    dispatch(entry);
  }
  countDispatched();
  if (!stopped_ && now_ < until) {
    now_ = until;
  }
}

}  // namespace vanet::sim
