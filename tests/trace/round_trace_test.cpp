#include "trace/round_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "util/rng.h"

namespace vanet::trace {
namespace {

using sim::SimTime;

RoundTrace threeCars() { return RoundTrace{{1, 2, 3}}; }

TEST(RoundTraceTest, TxLogKeepsFirstCopyOnly) {
  RoundTrace trace = threeCars();
  trace.recordApTx(1, 1, 0, SimTime::seconds(1.0));
  trace.recordApTx(1, 1, 1, SimTime::seconds(1.2));  // blind retransmission
  ASSERT_TRUE(trace.txTime(1, 1).has_value());
  EXPECT_EQ(*trace.txTime(1, 1), SimTime::seconds(1.0));
  EXPECT_EQ(trace.txCount(1), 1u);
}

TEST(RoundTraceTest, MaxSeqTransmitted) {
  RoundTrace trace = threeCars();
  EXPECT_EQ(trace.maxSeqTransmitted(1), 0);
  trace.recordApTx(1, 3, 0, SimTime::seconds(1.0));
  trace.recordApTx(1, 7, 0, SimTime::seconds(2.0));
  EXPECT_EQ(trace.maxSeqTransmitted(1), 7);
  EXPECT_EQ(trace.maxSeqTransmitted(2), 0);
}

TEST(RoundTraceTest, OverhearAndJoint) {
  RoundTrace trace = threeCars();
  trace.recordOverhear(2, 1, 5, SimTime::seconds(1.0));
  EXPECT_TRUE(trace.wasOverheard(2, 1, 5));
  EXPECT_FALSE(trace.wasOverheard(1, 1, 5));
  EXPECT_TRUE(trace.anyOverheard(1, 5));
  EXPECT_FALSE(trace.anyOverheard(1, 6));
  EXPECT_FALSE(trace.anyOverheard(2, 5));
}

TEST(RoundTraceTest, RecoveredBookkeeping) {
  RoundTrace trace = threeCars();
  trace.recordRecovered(1, 9, SimTime::seconds(30.0));
  EXPECT_TRUE(trace.wasRecovered(1, 9));
  EXPECT_FALSE(trace.wasRecovered(2, 9));
  EXPECT_FALSE(trace.wasRecovered(1, 8));
}

TEST(RoundTraceTest, AssociationWindowNeedsOwnFlow) {
  RoundTrace trace = threeCars();
  EXPECT_FALSE(trace.associationWindow(1).has_value());
  // Overhearing a foreign flow does not open the window...
  trace.recordOverhear(1, 2, 1, SimTime::seconds(1.0));
  EXPECT_FALSE(trace.associationWindow(1).has_value());
  // ...but an own-flow packet does.
  trace.recordOverhear(1, 1, 1, SimTime::seconds(2.0));
  const auto window = trace.associationWindow(1);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->first, SimTime::seconds(2.0));
  EXPECT_EQ(window->second, SimTime::seconds(2.0));
}

TEST(RoundTraceTest, WindowEndIsLastAnyFlowReception) {
  RoundTrace trace = threeCars();
  trace.recordOverhear(1, 1, 1, SimTime::seconds(2.0));
  trace.recordOverhear(1, 3, 9, SimTime::seconds(8.0));  // foreign flow
  const auto window = trace.associationWindow(1);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->first, SimTime::seconds(2.0));
  EXPECT_EQ(window->second, SimTime::seconds(8.0));
}

TEST(RoundTraceTest, OutOfOrderRecordingIsSupported) {
  // Traces may be assembled in any order (the aggregators rely on
  // min/max semantics, not insertion order).
  RoundTrace trace = threeCars();
  trace.recordOverhear(1, 1, 5, SimTime::seconds(9.0));
  trace.recordOverhear(1, 1, 1, SimTime::seconds(2.0));  // earlier, later
  trace.recordOverhear(1, 2, 9, SimTime::seconds(1.0));  // earliest overall
  const auto window = trace.associationWindow(1);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->first, SimTime::seconds(2.0));
  EXPECT_EQ(window->second, SimTime::seconds(9.0));
  ASSERT_TRUE(trace.firstOverhearTime(1).has_value());
  EXPECT_EQ(*trace.firstOverhearTime(1), SimTime::seconds(1.0));
  const auto& times = trace.directRxTimes(1);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_LT(times[0], times[1]);  // sorted despite reversed insertion
}

TEST(RoundTraceTest, SeqsTransmittedDuringFiltersByTime) {
  RoundTrace trace = threeCars();
  for (SeqNo seq = 1; seq <= 10; ++seq) {
    trace.recordApTx(1, seq, 0, SimTime::seconds(static_cast<double>(seq)));
  }
  const auto seqs =
      trace.seqsTransmittedDuring(1, SimTime::seconds(3.0), SimTime::seconds(6.0));
  EXPECT_EQ(seqs, (std::vector<SeqNo>{3, 4, 5, 6}));
}

TEST(RoundTraceTest, FirstOverhearTime) {
  RoundTrace trace = threeCars();
  EXPECT_FALSE(trace.firstOverhearTime(1).has_value());
  trace.recordOverhear(1, 2, 4, SimTime::seconds(5.0));
  trace.recordOverhear(1, 1, 1, SimTime::seconds(7.0));
  ASSERT_TRUE(trace.firstOverhearTime(1).has_value());
  EXPECT_EQ(*trace.firstOverhearTime(1), SimTime::seconds(5.0));
}

TEST(RoundTraceTest, DirectRxTimesOwnFlowOnly) {
  RoundTrace trace = threeCars();
  trace.recordOverhear(1, 1, 1, SimTime::seconds(1.0));
  trace.recordOverhear(1, 2, 1, SimTime::seconds(2.0));
  trace.recordOverhear(1, 1, 2, SimTime::seconds(3.0));
  const auto& times = trace.directRxTimes(1);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], SimTime::seconds(1.0));
  EXPECT_EQ(times[1], SimTime::seconds(3.0));
  EXPECT_TRUE(trace.directRxTimes(3).empty());
}

// ------------------------------------------------ differential test

/// Reference model: the node-based containers RoundTrace used before its
/// storage became dense, kept as the behavioural spec.
class ReferenceTrace {
 public:
  explicit ReferenceTrace(std::vector<NodeId> carIds)
      : carIds_(std::move(carIds)) {}

  void recordApTx(FlowId flow, SeqNo seq, int copy, SimTime at) {
    if (copy != 0) return;
    tx_[flow].emplace(seq, at);
  }
  void recordOverhear(NodeId car, FlowId flow, SeqNo seq, SimTime at) {
    overheard_[car][flow].insert(seq);
    const auto first = firstAnyRx_.find(car);
    if (first == firstAnyRx_.end()) {
      firstAnyRx_[car] = at;
    } else {
      first->second = std::min(first->second, at);
    }
    lastAnyRx_[car] = std::max(lastAnyRx_[car], at);
    if (flow == car) {
      const auto own = firstOwnRx_.find(car);
      if (own == firstOwnRx_.end()) {
        firstOwnRx_[car] = at;
      } else {
        own->second = std::min(own->second, at);
      }
      auto& times = ownRxTimes_[car];
      times.insert(std::upper_bound(times.begin(), times.end(), at), at);
    }
  }
  void recordRecovered(NodeId car, SeqNo seq) { recovered_[car].insert(seq); }

  bool wasOverheard(NodeId car, FlowId flow, SeqNo seq) const {
    const auto c = overheard_.find(car);
    if (c == overheard_.end()) return false;
    const auto f = c->second.find(flow);
    return f != c->second.end() && f->second.count(seq) > 0;
  }
  bool anyOverheard(FlowId flow, SeqNo seq) const {
    return std::any_of(carIds_.begin(), carIds_.end(), [&](NodeId car) {
      return wasOverheard(car, flow, seq);
    });
  }
  bool wasRecovered(NodeId car, SeqNo seq) const {
    const auto it = recovered_.find(car);
    return it != recovered_.end() && it->second.count(seq) > 0;
  }
  std::optional<SimTime> txTime(FlowId flow, SeqNo seq) const {
    const auto f = tx_.find(flow);
    if (f == tx_.end()) return std::nullopt;
    const auto s = f->second.find(seq);
    if (s == f->second.end()) return std::nullopt;
    return s->second;
  }
  SeqNo maxSeqTransmitted(FlowId flow) const {
    const auto f = tx_.find(flow);
    return f == tx_.end() || f->second.empty() ? 0 : f->second.rbegin()->first;
  }
  std::optional<std::pair<SimTime, SimTime>> associationWindow(
      NodeId car) const {
    const auto first = firstOwnRx_.find(car);
    if (first == firstOwnRx_.end()) return std::nullopt;
    return std::make_pair(first->second, lastAnyRx_.at(car));
  }
  std::vector<SeqNo> seqsTransmittedDuring(FlowId flow, SimTime from,
                                           SimTime to) const {
    std::vector<SeqNo> out;
    const auto f = tx_.find(flow);
    if (f == tx_.end()) return out;
    for (const auto& [seq, at] : f->second) {
      if (at >= from && at <= to) out.push_back(seq);
    }
    return out;
  }
  std::optional<SimTime> firstOverhearTime(NodeId car) const {
    const auto it = firstAnyRx_.find(car);
    if (it == firstAnyRx_.end()) return std::nullopt;
    return it->second;
  }
  std::vector<SimTime> directRxTimes(NodeId car) const {
    const auto it = ownRxTimes_.find(car);
    return it != ownRxTimes_.end() ? it->second : std::vector<SimTime>{};
  }
  std::size_t txCount(FlowId flow) const {
    const auto it = tx_.find(flow);
    return it != tx_.end() ? it->second.size() : 0;
  }

 private:
  std::vector<NodeId> carIds_;
  std::map<FlowId, std::map<SeqNo, SimTime>> tx_;
  std::map<NodeId, std::map<FlowId, std::set<SeqNo>>> overheard_;
  std::map<NodeId, std::set<SeqNo>> recovered_;
  std::map<NodeId, SimTime> firstOwnRx_;
  std::map<NodeId, SimTime> lastAnyRx_;
  std::map<NodeId, SimTime> firstAnyRx_;
  std::map<NodeId, std::vector<SimTime>> ownRxTimes_;
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

SimTime drawTime(Rng& rng) {
  return SimTime::nanos(rng.uniformInt(0, 2'000'000) * 1000LL);
}

void expectSameAnswers(const RoundTrace& trace, const ReferenceTrace& ref,
                       Rng& rng) {
  // The platoon, ids recorded from outside it, and ids never recorded.
  const std::vector<NodeId> ids = {1, 2, 3, 9, 1000, 42, -1};
  for (const NodeId id : ids) {
    SCOPED_TRACE(::testing::Message() << "id " << id);
    EXPECT_EQ(trace.maxSeqTransmitted(id), ref.maxSeqTransmitted(id));
    EXPECT_EQ(trace.txCount(id), ref.txCount(id));
    EXPECT_EQ(trace.associationWindow(id), ref.associationWindow(id));
    EXPECT_EQ(trace.firstOverhearTime(id), ref.firstOverhearTime(id));
    EXPECT_EQ(trace.directRxTimes(id), ref.directRxTimes(id));
    for (SeqNo seq = -1; seq <= 270; ++seq) {
      ASSERT_EQ(trace.txTime(id, seq), ref.txTime(id, seq)) << "seq " << seq;
      ASSERT_EQ(trace.wasRecovered(id, seq), ref.wasRecovered(id, seq))
          << "seq " << seq;
      ASSERT_EQ(trace.anyOverheard(id, seq), ref.anyOverheard(id, seq))
          << "seq " << seq;
      for (const NodeId flow : ids) {
        ASSERT_EQ(trace.wasOverheard(id, flow, seq),
                  ref.wasOverheard(id, flow, seq))
            << "flow " << flow << " seq " << seq;
      }
    }
    for (int window = 0; window < 8; ++window) {
      SimTime from = drawTime(rng);
      SimTime to = drawTime(rng);
      if (window == 0) {
        from = SimTime::zero();
        to = SimTime::max();
      }
      EXPECT_EQ(trace.seqsTransmittedDuring(id, from, to),
                ref.seqsTransmittedDuring(id, from, to));
    }
  }
}

class RoundTraceDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTraceDifferential, MatchesNodeBasedReference) {
  Rng rng{GetParam()};
  const std::vector<NodeId> cars = {1, 2, 3};
  // Mostly platoon ids; some records come from ids outside carIds.
  const std::vector<NodeId> recordIds = {1, 2, 3, 1, 2, 3, 9, 1000};
  const auto drawId = [&] {
    return recordIds[rng.uniformInt(0, static_cast<int>(recordIds.size()) - 1)];
  };
  RoundTrace trace{cars};
  ReferenceTrace ref{cars};
  for (int op = 0; op < 1500; ++op) {
    const double kind = rng.uniform();
    if (kind < 0.4) {
      // Copies > 0 are blind retransmissions; repeated copy-0 records of
      // one seq are what file-mode cycling across APs produces.
      const FlowId flow = drawId();
      const SeqNo seq = drawSeq(rng);
      const int copy = rng.bernoulli(0.75) ? 0 : rng.uniformInt(1, 2);
      const SimTime at = drawTime(rng);
      trace.recordApTx(flow, seq, copy, at);
      ref.recordApTx(flow, seq, copy, at);
    } else if (kind < 0.85) {
      const NodeId car = drawId();
      const FlowId flow = rng.bernoulli(0.4) ? car : drawId();
      const SeqNo seq = drawSeq(rng);
      const SimTime at = drawTime(rng);  // out of order on purpose
      trace.recordOverhear(car, flow, seq, at);
      ref.recordOverhear(car, flow, seq, at);
    } else {
      const NodeId car = drawId();
      const SeqNo seq = drawSeq(rng);
      trace.recordRecovered(car, seq, drawTime(rng));
      ref.recordRecovered(car, seq);
    }
    if (op % 500 == 0 || op == 1499) {
      SCOPED_TRACE(::testing::Message() << "after op " << op);
      expectSameAnswers(trace, ref, rng);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTraceDifferential,
                         ::testing::Values(1ULL, 2ULL, 7ULL, 2008ULL));

}  // namespace
}  // namespace vanet::trace
