#include "core/packet_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "util/rng.h"

namespace vanet::carq {
namespace {

TEST(PacketStoreTest, EmptyStore) {
  PacketStore store;
  EXPECT_EQ(store.firstSeen(), 0);
  EXPECT_EQ(store.lastSeen(), 0);
  EXPECT_TRUE(store.missingInWindow().empty());
  EXPECT_FALSE(store.hasOwn(1));
  EXPECT_EQ(store.directCount(), 0u);
}

TEST(PacketStoreTest, DirectReceptionTracksWindow) {
  PacketStore store;
  store.noteDirect(5);
  store.noteDirect(9);
  store.noteDirect(7);
  EXPECT_EQ(store.firstSeen(), 5);
  EXPECT_EQ(store.lastSeen(), 9);
  EXPECT_TRUE(store.hasOwn(5));
  EXPECT_FALSE(store.hasOwn(6));
  EXPECT_EQ(store.directCount(), 3u);
}

TEST(PacketStoreTest, MissingInWindowIsPaperSemantics) {
  // The paper: recover packets from the first to the last received.
  PacketStore store;
  store.noteDirect(3);
  store.noteDirect(7);
  EXPECT_EQ(store.missingInWindow(), (std::vector<SeqNo>{4, 5, 6}));
  // Packets before 3 and after 7 are unknown to the car.
}

TEST(PacketStoreTest, RecoveryFillsHoles) {
  PacketStore store;
  store.noteDirect(1);
  store.noteDirect(4);
  store.noteRecovered(2);
  EXPECT_EQ(store.missingInWindow(), (std::vector<SeqNo>{3}));
  EXPECT_TRUE(store.hasOwn(2));
  EXPECT_EQ(store.recoveredCount(), 1u);
}

TEST(PacketStoreTest, RecoveryDoesNotExtendWindow) {
  PacketStore store;
  store.noteDirect(5);
  store.noteRecovered(10);  // spurious recovery outside window
  EXPECT_EQ(store.firstSeen(), 5);
  EXPECT_EQ(store.lastSeen(), 5);
}

TEST(PacketStoreTest, DuplicatesAreCounted) {
  PacketStore store;
  store.noteDirect(1);
  store.noteDirect(1);
  EXPECT_EQ(store.duplicateCount(), 1u);
  store.noteRecovered(1);  // already held directly
  EXPECT_EQ(store.duplicateCount(), 2u);
  store.noteRecovered(2);
  store.noteRecovered(2);
  EXPECT_EQ(store.duplicateCount(), 3u);
  EXPECT_EQ(store.directCount(), 1u);
  EXPECT_EQ(store.recoveredCount(), 1u);
}

TEST(PacketStoreTest, MissingInRangeForFileMode) {
  PacketStore store;
  store.noteDirect(2);
  store.noteRecovered(4);
  EXPECT_EQ(store.missingInRange(1, 5), (std::vector<SeqNo>{1, 3, 5}));
  EXPECT_TRUE(store.missingInRange(2, 2).empty());
}

TEST(PacketStoreTest, BufferingForOtherFlows) {
  PacketStore store;
  EXPECT_FALSE(store.hasBuffered(2, 1));
  store.buffer(2, 1, 1000);
  store.buffer(2, 5, 1000);
  store.buffer(3, 1, 500);
  EXPECT_TRUE(store.hasBuffered(2, 1));
  EXPECT_TRUE(store.hasBuffered(3, 1));
  EXPECT_FALSE(store.hasBuffered(2, 2));
  EXPECT_EQ(store.bufferedCount(), 3u);
  EXPECT_EQ(store.bufferedPayloadBytes(2), 1000);
  EXPECT_EQ(store.bufferedPayloadBytes(3), 500);
  EXPECT_EQ(store.bufferedPayloadBytes(9), 0);
}

TEST(PacketStoreTest, BufferingIsSeparateFromOwnFlow) {
  PacketStore store;
  store.buffer(2, 7, 1000);
  EXPECT_FALSE(store.hasOwn(7));
  EXPECT_TRUE(store.missingInWindow().empty());
}

TEST(PacketStoreTest, ContiguousWindowHasNoMissing) {
  PacketStore store;
  for (SeqNo s = 10; s <= 20; ++s) store.noteDirect(s);
  EXPECT_TRUE(store.missingInWindow().empty());
}

// Property: missing + held == full window, for random reception patterns.
class PacketStoreWindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketStoreWindowProperty, PartitionInvariant) {
  Rng rng{GetParam()};
  PacketStore store;
  for (SeqNo s = 1; s <= 200; ++s) {
    if (rng.bernoulli(0.7)) store.noteDirect(s);
  }
  if (store.firstSeen() == 0) return;  // nothing received: nothing to check
  const auto missing = store.missingInWindow();
  std::size_t held = 0;
  for (SeqNo s = store.firstSeen(); s <= store.lastSeen(); ++s) {
    if (store.hasOwn(s)) ++held;
  }
  const auto windowSize =
      static_cast<std::size_t>(store.lastSeen() - store.firstSeen() + 1);
  EXPECT_EQ(held + missing.size(), windowSize);
  for (const SeqNo s : missing) {
    EXPECT_FALSE(store.hasOwn(s));
    EXPECT_GE(s, store.firstSeen());
    EXPECT_LE(s, store.lastSeen());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketStoreWindowProperty,
                         ::testing::Values(1ULL, 7ULL, 13ULL, 101ULL));

// ------------------------------------------------ differential test

/// Reference model: the node-based containers PacketStore used before its
/// storage became dense, kept as the behavioural spec.
class ReferenceStore {
 public:
  void noteDirect(SeqNo seq) {
    if (!direct_.insert(seq).second) {
      ++duplicates_;
      return;
    }
    if (firstSeen_ == 0 || seq < firstSeen_) firstSeen_ = seq;
    lastSeen_ = std::max(lastSeen_, seq);
  }
  void noteRecovered(SeqNo seq) {
    if (direct_.count(seq) > 0 || !recovered_.insert(seq).second) ++duplicates_;
  }
  bool hasOwn(SeqNo seq) const {
    return direct_.count(seq) > 0 || recovered_.count(seq) > 0;
  }
  std::vector<SeqNo> missingInRange(SeqNo lo, SeqNo hi) const {
    std::vector<SeqNo> missing;
    for (SeqNo seq = lo; seq <= hi; ++seq) {
      if (!hasOwn(seq)) missing.push_back(seq);
    }
    return missing;
  }
  std::vector<SeqNo> missingInWindow() const {
    return firstSeen_ == 0 ? std::vector<SeqNo>{}
                           : missingInRange(firstSeen_, lastSeen_);
  }
  void buffer(FlowId flow, SeqNo seq, int payloadBytes) {
    foreign_[flow].insert(seq);
    foreignBytes_[flow] = payloadBytes;
  }
  bool hasBuffered(FlowId flow, SeqNo seq) const {
    const auto it = foreign_.find(flow);
    return it != foreign_.end() && it->second.count(seq) > 0;
  }
  int bufferedPayloadBytes(FlowId flow) const {
    const auto it = foreignBytes_.find(flow);
    return it != foreignBytes_.end() ? it->second : 0;
  }
  std::size_t bufferedCount() const {
    std::size_t total = 0;
    for (const auto& [flow, seqs] : foreign_) total += seqs.size();
    return total;
  }
  std::vector<std::pair<FlowId, SeqNo>> bufferedMaxSeqs() const {
    std::vector<std::pair<FlowId, SeqNo>> out;
    for (const auto& [flow, seqs] : foreign_) {
      if (!seqs.empty()) out.emplace_back(flow, *seqs.rbegin());
    }
    return out;
  }

  std::set<SeqNo> direct_;
  std::set<SeqNo> recovered_;
  SeqNo firstSeen_ = 0;
  SeqNo lastSeen_ = 0;
  std::size_t duplicates_ = 0;
  std::map<FlowId, std::set<SeqNo>> foreign_;
  std::map<FlowId, int> foreignBytes_;
};

/// Seqs around the 64-bit word boundaries, plus the file-mode size.
constexpr SeqNo kBoundarySeqs[] = {1,   2,   62,  63,  64,  65,  66, 126,
                                   127, 128, 129, 130, 191, 192, 193, 220};

SeqNo drawSeq(Rng& rng) {
  if (rng.bernoulli(0.5)) {
    return kBoundarySeqs[rng.uniformInt(
        0, static_cast<int>(std::size(kBoundarySeqs)) - 1)];
  }
  return rng.uniformInt(1, 260);
}

void expectSameAnswers(const PacketStore& store, const ReferenceStore& ref,
                       Rng& rng) {
  EXPECT_EQ(store.firstSeen(), ref.firstSeen_);
  EXPECT_EQ(store.lastSeen(), ref.lastSeen_);
  EXPECT_EQ(store.directCount(), ref.direct_.size());
  EXPECT_EQ(store.recoveredCount(), ref.recovered_.size());
  EXPECT_EQ(store.duplicateCount(), ref.duplicates_);
  EXPECT_EQ(store.missingInWindow(), ref.missingInWindow());
  EXPECT_EQ(store.bufferedCount(), ref.bufferedCount());
  EXPECT_EQ(store.bufferedMaxSeqs(), ref.bufferedMaxSeqs());
  for (SeqNo seq = -1; seq <= 300; ++seq) {
    ASSERT_EQ(store.hasOwn(seq), ref.hasOwn(seq)) << "seq " << seq;
    for (const FlowId flow : {2, 3, 5, 9}) {
      ASSERT_EQ(store.hasBuffered(flow, seq), ref.hasBuffered(flow, seq))
          << "flow " << flow << " seq " << seq;
    }
  }
  for (const FlowId flow : {2, 3, 5, 9}) {
    EXPECT_EQ(store.bufferedPayloadBytes(flow), ref.bufferedPayloadBytes(flow));
  }
  // Ranges that start or end mid-word, span several words, are empty
  // (lo > hi), or run past the highest seq seen.
  const auto checkRange = [&](SeqNo lo, SeqNo hi) {
    const std::vector<SeqNo> missing = ref.missingInRange(lo, hi);
    EXPECT_EQ(store.missingInRange(lo, hi), missing) << lo << ".." << hi;
    EXPECT_EQ(store.holdsAll(lo, hi), missing.empty()) << lo << ".." << hi;
  };
  checkRange(1, 220);
  checkRange(1, 400);
  checkRange(64, 64);
  checkRange(63, 129);
  checkRange(65, 127);
  checkRange(128, 127);
  checkRange(-2, 3);  // seqs below 1 are never held
  for (int i = 0; i < 40; ++i) {
    const SeqNo lo = drawSeq(rng);
    checkRange(lo, lo + rng.uniformInt(-2, 200));
  }
}

class PacketStoreDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketStoreDifferential, MatchesNodeBasedReference) {
  Rng rng{GetParam()};
  PacketStore store;
  ReferenceStore ref;
  const FlowId flows[] = {2, 3, 5};
  for (int op = 0; op < 1200; ++op) {
    const double kind = rng.uniform();
    const SeqNo seq = drawSeq(rng);
    if (kind < 0.45) {
      store.noteDirect(seq);
      ref.noteDirect(seq);
    } else if (kind < 0.7) {
      store.noteRecovered(seq);
      ref.noteRecovered(seq);
    } else {
      const FlowId flow = flows[rng.uniformInt(0, 2)];
      const int bytes = rng.uniformInt(0, 1500);
      store.buffer(flow, seq, bytes);
      ref.buffer(flow, seq, bytes);
    }
    if (op % 300 == 0 || op == 1199) {
      SCOPED_TRACE(::testing::Message() << "after op " << op);
      expectSameAnswers(store, ref, rng);
    }
  }
}

TEST(PacketStoreTest, FileCompletionAcrossWordBoundaries) {
  // A 220-packet file (highway_file) spans four 64-bit words.
  PacketStore store;
  for (SeqNo seq = 220; seq >= 1; --seq) {
    if (seq != 64 && seq != 128) store.noteDirect(seq);
  }
  EXPECT_FALSE(store.holdsAll(1, 220));
  EXPECT_EQ(store.missingInRange(1, 220), (std::vector<SeqNo>{64, 128}));
  store.noteRecovered(64);
  EXPECT_FALSE(store.holdsAll(1, 220));
  store.noteRecovered(128);
  EXPECT_TRUE(store.holdsAll(1, 220));
  EXPECT_FALSE(store.holdsAll(1, 221));    // inside the last word
  EXPECT_FALSE(store.holdsAll(200, 300));  // past the last word
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketStoreDifferential,
                         ::testing::Values(1ULL, 2ULL, 7ULL, 2008ULL));

}  // namespace
}  // namespace vanet::carq
