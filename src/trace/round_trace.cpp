#include "trace/round_trace.h"

#include <algorithm>

#include "util/assert.h"

namespace vanet::trace {
namespace {

/// Tx-time sentinel for a seq that was never sent; no reachable
/// simulation time equals it.
constexpr sim::SimTime kNeverSent = sim::SimTime::max();

}  // namespace

RoundTrace::RoundTrace(std::vector<NodeId> carIds) : carIds_(std::move(carIds)) {
  VANET_ASSERT(!carIds_.empty(), "a round needs at least one car");
  for (const NodeId car : carIds_) intern(car);
  carSlots_ = slots_.size();
}

std::size_t RoundTrace::slotOf(NodeId id) const noexcept {
  std::size_t slot = 0;
  while (slot < slots_.size() && slots_[slot].id != id) ++slot;
  return slot;
}

const RoundTrace::Slot* RoundTrace::find(NodeId id) const noexcept {
  const std::size_t slot = slotOf(id);
  return slot < slots_.size() ? &slots_[slot] : nullptr;
}

std::size_t RoundTrace::intern(NodeId id) {
  const std::size_t slot = slotOf(id);
  if (slot == slots_.size()) slots_.emplace_back().id = id;
  return slot;
}

bool RoundTrace::overheardIn(const Slot& car, std::size_t flowSlot,
                             SeqNo seq) {
  return flowSlot < car.overheard.size() &&
         car.overheard[flowSlot].contains(seq);
}

void RoundTrace::recordApTx(FlowId flow, SeqNo seq, int copy, sim::SimTime at) {
  if (copy != 0) return;  // retransmissions do not advance the tx log
  VANET_ASSERT(seq >= 1, "sequence numbers start at 1");
  Slot& slot = slots_[intern(flow)];
  const auto index = static_cast<std::size_t>(seq);
  if (index >= slot.txAt.size()) slot.txAt.resize(index + 1, kNeverSent);
  if (slot.txAt[index] != kNeverSent) return;  // the first copy wins
  slot.txAt[index] = at;
  ++slot.txCount;
  slot.maxSeqTx = std::max(slot.maxSeqTx, seq);
}

void RoundTrace::recordOverhear(NodeId car, FlowId flow, SeqNo seq,
                                sim::SimTime at) {
  const std::size_t flowSlot = intern(flow);
  Slot& slot = slots_[intern(car)];  // after both interns: no reallocation
  if (flowSlot >= slot.overheard.size()) slot.overheard.resize(flowSlot + 1);
  slot.overheard[flowSlot].insert(seq);
  // Order-insensitive min/max so traces can be assembled out of order.
  slot.firstAnyRx = slot.firstAnyRx ? std::min(*slot.firstAnyRx, at) : at;
  slot.lastAnyRx = std::max(slot.lastAnyRx, at);
  if (flow == car) {
    slot.firstOwnRx = slot.firstOwnRx ? std::min(*slot.firstOwnRx, at) : at;
    auto& times = slot.ownRxTimes;
    times.insert(std::upper_bound(times.begin(), times.end(), at), at);
  }
}

void RoundTrace::recordRecovered(NodeId car, SeqNo seq, sim::SimTime) {
  slots_[intern(car)].recovered.insert(seq);
}

bool RoundTrace::wasOverheard(NodeId car, FlowId flow, SeqNo seq) const {
  const Slot* slot = find(car);
  return slot != nullptr && overheardIn(*slot, slotOf(flow), seq);
}

bool RoundTrace::anyOverheard(FlowId flow, SeqNo seq) const {
  const std::size_t flowSlot = slotOf(flow);
  const auto cars = slots_.begin() + static_cast<std::ptrdiff_t>(carSlots_);
  return std::any_of(slots_.begin(), cars, [&](const Slot& car) {
    return overheardIn(car, flowSlot, seq);
  });
}

bool RoundTrace::wasRecovered(NodeId car, SeqNo seq) const {
  const Slot* slot = find(car);
  return slot != nullptr && slot->recovered.contains(seq);
}

std::optional<sim::SimTime> RoundTrace::txTime(FlowId flow, SeqNo seq) const {
  const Slot* slot = find(flow);
  if (slot == nullptr || seq < 1) return std::nullopt;
  const auto index = static_cast<std::size_t>(seq);
  if (index >= slot->txAt.size() || slot->txAt[index] == kNeverSent) {
    return std::nullopt;
  }
  return slot->txAt[index];
}

SeqNo RoundTrace::maxSeqTransmitted(FlowId flow) const {
  const Slot* slot = find(flow);
  return slot != nullptr ? slot->maxSeqTx : 0;
}

std::optional<std::pair<sim::SimTime, sim::SimTime>>
RoundTrace::associationWindow(NodeId car) const {
  const Slot* slot = find(car);
  if (slot == nullptr || !slot->firstOwnRx) return std::nullopt;
  return std::make_pair(*slot->firstOwnRx, slot->lastAnyRx);
}

std::vector<SeqNo> RoundTrace::seqsTransmittedDuring(FlowId flow,
                                                     sim::SimTime from,
                                                     sim::SimTime to) const {
  std::vector<SeqNo> out;
  const Slot* slot = find(flow);
  if (slot == nullptr) return out;
  for (std::size_t seq = 1; seq < slot->txAt.size(); ++seq) {
    const sim::SimTime at = slot->txAt[seq];
    if (at != kNeverSent && at >= from && at <= to) {
      out.push_back(static_cast<SeqNo>(seq));
    }
  }
  return out;
}

std::optional<sim::SimTime> RoundTrace::firstOverhearTime(NodeId car) const {
  const Slot* slot = find(car);
  return slot != nullptr ? slot->firstAnyRx : std::nullopt;
}

const std::vector<sim::SimTime>& RoundTrace::directRxTimes(NodeId car) const {
  static const std::vector<sim::SimTime> kNone;
  const Slot* slot = find(car);
  return slot != nullptr ? slot->ownRxTimes : kNone;
}

std::size_t RoundTrace::txCount(FlowId flow) const {
  const Slot* slot = find(flow);
  return slot != nullptr ? slot->txCount : 0;
}

}  // namespace vanet::trace
