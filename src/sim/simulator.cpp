#include "sim/simulator.h"

#include <algorithm>

#include "obs/counters.h"

namespace vanet::sim {

std::uint32_t Simulator::enqueue(SimTime at) {
  VANET_ASSERT(at >= now_, "cannot schedule an event in the past");
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    VANET_ASSERT(slots_.size() < 0xffffffffu, "event slot space exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  // Every queued entry was inserted earlier, so the new one goes in front
  // of (fires after) all entries at the same time.
  std::size_t pos = pending_.size();
  while (pos > 0 && pending_[pos - 1].at <= at) --pos;
  pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(pos),
                  Entry{at, slot});
  return slot;
}

void Simulator::releaseSlot(std::uint32_t slot) noexcept {
  Slot& cell = slots_[slot];
  ++cell.generation;
  if (cell.generation == 0) cell.generation = 1;  // keep ids non-zero
  freeSlots_.push_back(slot);
}

void Simulator::cancel(EventId id) {
  if (!isPending(id)) return;  // already fired or cancelled
  const auto slot = static_cast<std::uint32_t>(id);  // the low 32 bits
  pending_.erase(std::find_if(
      pending_.begin(), pending_.end(),
      [slot](const Entry& entry) { return entry.slot == slot; }));
  releaseSlot(slot);
  OBS_COUNT("sim.events_cancelled");
}

void Simulator::dispatchNext() {
  const Entry entry = pending_.back();
  pending_.pop_back();
  // Copied out first: the handler may schedule into the slot it frees, and
  // scheduling may grow slots_.
  Handler handler = slots_[entry.slot].handler;
  releaseSlot(entry.slot);
  VANET_ASSERT(entry.at >= now_, "event queue must be monotone");
  now_ = entry.at;
  ++executed_;
  handler.invoke(handler.bytes);
}

void Simulator::countDispatched() {
  OBS_COUNT_N("sim.events_dispatched", executed_ - counted_);
  counted_ = executed_;
}

bool Simulator::step() {
  if (pending_.empty()) return false;
  dispatchNext();
  countDispatched();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !pending_.empty()) dispatchNext();
  countDispatched();
}

void Simulator::runUntil(SimTime until) {
  stopped_ = false;
  while (!stopped_ && !pending_.empty() && pending_.back().at <= until) {
    dispatchNext();
  }
  countDispatched();
  if (!stopped_ && now_ < until) {
    now_ = until;
  }
}

}  // namespace vanet::sim
