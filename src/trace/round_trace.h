#pragma once

/// \file round_trace.h
/// Per-round packet capture, equivalent to the paper's tcpdump traces on
/// each laptop plus the AP transmission log. The analysis layer derives
/// Table 1 and Figures 3-8 from these records alone, mirroring the
/// paper's post-processing methodology.
///
/// Storage is dense: ids are interned into slots (the platoon's cars
/// first, in `carIds` order; flows are car ids, so a slot serves both
/// roles), and per-flow / per-(car, flow) state is indexed by SeqNo. Seqs
/// start at 1 and stay dense per flow within a round, so a round's trace
/// costs O(max seq) per flow.

#include <optional>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/seq_set.h"
#include "util/types.h"

namespace vanet::trace {

/// Record of everything observable in one experiment round.
class RoundTrace {
 public:
  /// `carIds` lists the platoon members (flow ids equal car ids).
  explicit RoundTrace(std::vector<NodeId> carIds);

  // ------------------------------------------------------------ recording

  /// AP transmitted (flow, seq); copies > 0 are blind retransmissions.
  void recordApTx(FlowId flow, SeqNo seq, int copy, sim::SimTime at);

  /// `car` decoded an AP data frame of `flow` (own or overheard).
  void recordOverhear(NodeId car, FlowId flow, SeqNo seq, sim::SimTime at);

  /// `car` recovered an own-flow packet through cooperation.
  void recordRecovered(NodeId car, SeqNo seq, sim::SimTime at);

  // ------------------------------------------------------------- queries

  const std::vector<NodeId>& carIds() const noexcept { return carIds_; }

  /// True when `car` decoded (flow, seq) directly from the AP.
  bool wasOverheard(NodeId car, FlowId flow, SeqNo seq) const;

  /// True when any platoon member decoded (flow, seq) from the AP — the
  /// paper's "joint reception in car 1, 2 or 3".
  bool anyOverheard(FlowId flow, SeqNo seq) const;

  bool wasRecovered(NodeId car, SeqNo seq) const;

  /// Time of the first transmission (copy 0) of (flow, seq); nullopt when
  /// never transmitted.
  std::optional<sim::SimTime> txTime(FlowId flow, SeqNo seq) const;

  /// Largest sequence number transmitted for `flow` (0 when none).
  SeqNo maxSeqTransmitted(FlowId flow) const;

  /// Association window of `car`: from its first own-flow reception to the
  /// last AP frame it decoded (any flow), the paper's "Tx by the AP"
  /// accounting window. nullopt when the car never received its own flow.
  std::optional<std::pair<sim::SimTime, sim::SimTime>> associationWindow(
      NodeId car) const;

  /// Sequence numbers of `flow` first-transmitted inside [from, to].
  std::vector<SeqNo> seqsTransmittedDuring(FlowId flow, sim::SimTime from,
                                           sim::SimTime to) const;

  /// First time `car` decoded any AP frame; nullopt when it never did.
  std::optional<sim::SimTime> firstOverhearTime(NodeId car) const;

  /// Sorted reception times of `car`'s own flow (direct only).
  const std::vector<sim::SimTime>& directRxTimes(NodeId car) const;

  /// Total first-copy transmissions for `flow`.
  std::size_t txCount(FlowId flow) const;

 private:
  /// Everything recorded about one interned id, as a flow and as a car.
  struct Slot {
    NodeId id = 0;
    // As a flow: first-copy tx time by seq, with a "never sent" sentinel.
    std::vector<sim::SimTime> txAt;
    std::size_t txCount = 0;
    SeqNo maxSeqTx = 0;
    // As a car.
    std::vector<util::SeqSet> overheard;  ///< by flow slot
    util::SeqSet recovered;
    std::optional<sim::SimTime> firstAnyRx;
    sim::SimTime lastAnyRx{};
    std::optional<sim::SimTime> firstOwnRx;
    std::vector<sim::SimTime> ownRxTimes;  ///< sorted
  };

  /// Slot index of `id`; slots_.size() when it is neither a car nor was
  /// ever recorded.
  std::size_t slotOf(NodeId id) const noexcept;
  const Slot* find(NodeId id) const noexcept;
  /// Slot index of `id`, interning it when first seen.
  std::size_t intern(NodeId id);
  static bool overheardIn(const Slot& car, std::size_t flowSlot, SeqNo seq);

  std::vector<NodeId> carIds_;
  std::vector<Slot> slots_;
  std::size_t carSlots_ = 0;  ///< slots_[0, carSlots_) are the platoon's
};

}  // namespace vanet::trace
