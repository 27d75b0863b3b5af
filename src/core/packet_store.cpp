#include "core/packet_store.h"

#include <algorithm>

namespace vanet::carq {
namespace {

/// First entry of the flow-sorted buffer whose flow is not below `flow`.
template <typename Entries>
auto flowLowerBound(Entries& entries, FlowId flow) {
  return std::lower_bound(
      entries.begin(), entries.end(), flow,
      [](const auto& entry, FlowId f) { return entry.flow < f; });
}

}  // namespace

void PacketStore::noteDirect(SeqNo seq) {
  if (!direct_.insert(seq)) {
    ++duplicates_;
    return;
  }
  held_.insert(seq);
  if (firstSeen_ == 0 || seq < firstSeen_) firstSeen_ = seq;
  lastSeen_ = std::max(lastSeen_, seq);
}

void PacketStore::noteRecovered(SeqNo seq) {
  // Held means received directly or already recovered: a duplicate either
  // way.
  if (!held_.insert(seq)) {
    ++duplicates_;
    return;
  }
  ++recoveredCount_;
}

std::vector<SeqNo> PacketStore::missingInWindow() const {
  if (firstSeen_ == 0) return {};
  return missingInRange(firstSeen_, lastSeen_);
}

std::vector<SeqNo> PacketStore::missingInRange(SeqNo lo, SeqNo hi) const {
  std::vector<SeqNo> missing;
  held_.forEachAbsent(lo, hi,
                      [&missing](SeqNo seq) { missing.push_back(seq); });
  return missing;
}

void PacketStore::buffer(FlowId flow, SeqNo seq, int payloadBytes) {
  auto it = flowLowerBound(foreign_, flow);
  if (it == foreign_.end() || it->flow != flow) {
    it = foreign_.insert(it, Buffered{});
    it->flow = flow;
  }
  if (it->seqs.insert(seq)) it->maxSeq = std::max(it->maxSeq, seq);
  it->payloadBytes = payloadBytes;
}

const PacketStore::Buffered* PacketStore::findBuffered(FlowId flow) const {
  const auto it = flowLowerBound(foreign_, flow);
  return it != foreign_.end() && it->flow == flow ? &*it : nullptr;
}

bool PacketStore::hasBuffered(FlowId flow, SeqNo seq) const {
  const Buffered* entry = findBuffered(flow);
  return entry != nullptr && entry->seqs.contains(seq);
}

int PacketStore::bufferedPayloadBytes(FlowId flow) const {
  const Buffered* entry = findBuffered(flow);
  return entry != nullptr ? entry->payloadBytes : 0;
}

std::size_t PacketStore::bufferedCount() const {
  std::size_t total = 0;
  for (const Buffered& entry : foreign_) total += entry.seqs.size();
  return total;
}

std::vector<std::pair<FlowId, SeqNo>> PacketStore::bufferedMaxSeqs() const {
  std::vector<std::pair<FlowId, SeqNo>> out;
  out.reserve(foreign_.size());
  for (const Buffered& entry : foreign_) {
    out.emplace_back(entry.flow, entry.maxSeq);
  }
  return out;
}

}  // namespace vanet::carq
