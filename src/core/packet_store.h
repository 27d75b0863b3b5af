#pragma once

/// \file packet_store.h
/// Per-car packet bookkeeping: which own-flow packets arrived directly,
/// which were recovered through cooperation, and which foreign packets are
/// buffered on behalf of platoon members (paper §3.2: "each car receives
/// its data but also buffers the packets addressed to other cars ... that
/// consider it as cooperator").

#include <utility>
#include <vector>

#include "util/seq_set.h"
#include "util/types.h"

namespace vanet::carq {

/// Sequence-number bookkeeping for one car.
class PacketStore {
 public:
  // --- own flow ---

  /// Records a packet of the car's own flow received from the AP.
  void noteDirect(SeqNo seq);

  /// Records a packet recovered through Cooperative ARQ.
  void noteRecovered(SeqNo seq);

  /// True when the packet is present either directly or via recovery.
  bool hasOwn(SeqNo seq) const { return held_.contains(seq); }

  /// First / last own-flow sequence number received *directly* from an AP
  /// (0 before anything arrived). The paper's recovery window is
  /// [firstSeen, lastSeen]: a car cannot request packets it never learned
  /// existed.
  SeqNo firstSeen() const noexcept { return firstSeen_; }
  SeqNo lastSeen() const noexcept { return lastSeen_; }

  /// Missing own-flow packets within the paper's window, ascending.
  std::vector<SeqNo> missingInWindow() const;

  /// Missing packets within an explicit range (file-download mode).
  std::vector<SeqNo> missingInRange(SeqNo lo, SeqNo hi) const;

  /// True when every own-flow packet in [lo, hi] is held; the
  /// allocation-free form of `missingInRange(lo, hi).empty()`.
  bool holdsAll(SeqNo lo, SeqNo hi) const { return held_.containsAll(lo, hi); }

  std::size_t directCount() const noexcept { return direct_.size(); }
  std::size_t recoveredCount() const noexcept { return recoveredCount_; }
  std::size_t duplicateCount() const noexcept { return duplicates_; }

  // --- buffering for others ---

  /// Buffers a foreign packet (overheard AP data addressed to a platoon
  /// member that announced this car as cooperator).
  void buffer(FlowId flow, SeqNo seq, int payloadBytes);

  bool hasBuffered(FlowId flow, SeqNo seq) const;

  /// Payload size (bytes) recorded for the flow; 0 if unknown.
  int bufferedPayloadBytes(FlowId flow) const;

  std::size_t bufferedCount() const;

  /// Highest buffered sequence number per foreign flow (window gossip).
  std::vector<std::pair<FlowId, SeqNo>> bufferedMaxSeqs() const;

 private:
  /// One foreign flow buffered on a platoon member's behalf.
  struct Buffered {
    FlowId flow = 0;
    util::SeqSet seqs;
    SeqNo maxSeq = 0;
    int payloadBytes = 0;  ///< of the latest buffered packet
  };
  const Buffered* findBuffered(FlowId flow) const;

  util::SeqSet direct_;
  util::SeqSet held_;  ///< direct or recovered
  std::size_t recoveredCount_ = 0;
  SeqNo firstSeen_ = 0;
  SeqNo lastSeen_ = 0;
  std::size_t duplicates_ = 0;
  std::vector<Buffered> foreign_;  ///< sorted by flow; a few platoon flows
};

}  // namespace vanet::carq
