#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace vanet::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pendingCount(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAt(SimTime::seconds(3.0), [&] { order.push_back(3); });
  sim.scheduleAt(SimTime::seconds(1.0), [&] { order.push_back(1); });
  sim.scheduleAt(SimTime::seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::seconds(3.0));
}

TEST(SimulatorTest, EqualTimestampsFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  const SimTime t = SimTime::seconds(1.0);
  for (int i = 0; i < 10; ++i) {
    sim.scheduleAt(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen{};
  sim.scheduleAt(SimTime::seconds(5.0), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::seconds(5.0));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime seen{};
  sim.scheduleAt(SimTime::seconds(1.0), [&] {
    sim.scheduleAfter(SimTime::seconds(2.0), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, SimTime::seconds(3.0));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.scheduleAt(SimTime::seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(sim.isPending(id));
  sim.cancel(id);
  EXPECT_FALSE(sim.isPending(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  const EventId id = sim.scheduleAt(SimTime::seconds(1.0), [] {});
  sim.run();
  sim.cancel(id);  // must not crash
  EXPECT_FALSE(sim.isPending(id));
}

TEST(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim;
  bool fired = false;
  const EventId victim =
      sim.scheduleAt(SimTime::seconds(2.0), [&] { fired = true; });
  sim.scheduleAt(SimTime::seconds(1.0), [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.scheduleAt(SimTime::seconds(1.0), [&] { ++count; });
  sim.scheduleAt(SimTime::seconds(2.0), [&] { ++count; });
  sim.scheduleAt(SimTime::seconds(3.0), [&] { ++count; });
  sim.runUntil(SimTime::seconds(2.0));
  EXPECT_EQ(count, 2);  // 2.0 inclusive
  EXPECT_EQ(sim.now(), SimTime::seconds(2.0));
  EXPECT_EQ(sim.pendingCount(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithEmptyQueue) {
  Simulator sim;
  sim.runUntil(SimTime::seconds(10.0));
  EXPECT_EQ(sim.now(), SimTime::seconds(10.0));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.scheduleAt(SimTime::seconds(1.0), [&] {
    ++count;
    sim.stop();
  });
  sim.scheduleAt(SimTime::seconds(2.0), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pendingCount(), 1u);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.scheduleAt(SimTime::seconds(1.0), [&] { ++count; });
  sim.scheduleAt(SimTime::seconds(2.0), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, EventsScheduledFromEventsRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      sim.scheduleAfter(SimTime::millis(1.0), [&recurse] { recurse(); });
    }
  };
  sim.scheduleAt(SimTime::zero(), [&recurse] { recurse(); });
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.executedCount(), 100u);
}

TEST(SimulatorTest, PendingCountExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.scheduleAt(SimTime::seconds(1.0), [] {});
  sim.scheduleAt(SimTime::seconds(2.0), [] {});
  EXPECT_EQ(sim.pendingCount(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pendingCount(), 1u);
}

TEST(SimulatorTest, CancelledTimersDoNotGrowTheQueueUnboundedly) {
  // Regression: a long round churning through schedule-then-cancel
  // timers (the C-ARQ timeout pattern) used to leave every cancelled
  // entry in the queue until its far-future timestamp popped. A cancel
  // must erase its entry, so the queue holds only pending events.
  Simulator sim;
  // One long-lived live event, far in the future.
  sim.scheduleAt(SimTime::seconds(1e6), [] {});
  std::size_t peakAfterCancels = 0;
  for (int batch = 0; batch < 200; ++batch) {
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(sim.scheduleAt(SimTime::seconds(1e5 + batch), [] {}));
    }
    EXPECT_EQ(sim.pendingCount(), 101u);
    for (const EventId id : ids) {
      sim.cancel(id);
    }
    peakAfterCancels = std::max(peakAfterCancels, sim.pendingCount());
  }
  // 20000 timers were cancelled; only the one live event stayed queued.
  EXPECT_EQ(peakAfterCancels, 1u);
  sim.run();
  EXPECT_EQ(sim.pendingCount(), 0u);
  EXPECT_EQ(sim.executedCount(), 1u);
}

TEST(SimulatorTest, CancelsFromTheMiddlePreserveOrderAndLiveEvents) {
  // Interleave live and cancelled timers and verify the survivors still
  // fire in exact (time, insertion) order.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 500; ++i) {
    const int slot = 500 - i;  // reverse time order: every insert walks
    if (i % 5 == 0) {
      sim.scheduleAt(SimTime::millis(slot), [&order, slot] {
        order.push_back(slot);
      });
    } else {
      victims.push_back(sim.scheduleAt(SimTime::millis(slot), [] {}));
    }
  }
  for (const EventId id : victims) {
    sim.cancel(id);  // 400 cancellations from all over the queue
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
}

TEST(SimulatorTest, HandlerMayScheduleIntoTheSlotItFreed) {
  Simulator sim;
  std::vector<int> order;
  EventId second = 0;
  const EventId first = sim.scheduleAt(SimTime::seconds(1.0), [&] {
    order.push_back(1);
    second =
        sim.scheduleAfter(SimTime::zero(), [&order] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // The second event took the first's slot under a new generation.
  EXPECT_EQ(second & 0xffffffffu, first & 0xffffffffu);
  EXPECT_NE(second, first);
  EXPECT_FALSE(sim.isPending(first));
  EXPECT_FALSE(sim.isPending(second));
}

TEST(SimulatorTest, HandlerCapturesSurviveTheSlotStoreGrowing) {
  // A full-size handler schedules enough events to reallocate the slot
  // store, then reads its own captures: they were copied out of the cell.
  Simulator sim;
  std::int64_t sum = 0;
  const std::int64_t a = 40;
  const std::int64_t b = 2;
  sim.scheduleAt(SimTime::seconds(1.0), [&sim, &sum, a, b] {
    for (int i = 0; i < 1000; ++i) {
      sim.scheduleAfter(SimTime::seconds(1.0), [] {});
    }
    sum = a + b;
  });
  sim.run();
  EXPECT_EQ(sum, 42);
  EXPECT_EQ(sim.executedCount(), 1001u);
}

TEST(SimulatorTest, CancelOfAStaleIdWhoseSlotWasReusedIsANoop) {
  Simulator sim;
  bool fired = false;
  const EventId stale = sim.scheduleAt(SimTime::seconds(1.0), [] {});
  sim.cancel(stale);
  const EventId reused =
      sim.scheduleAt(SimTime::seconds(2.0), [&fired] { fired = true; });
  ASSERT_EQ(reused & 0xffffffffu, stale & 0xffffffffu);
  EXPECT_FALSE(sim.isPending(stale));
  sim.cancel(stale);
  EXPECT_TRUE(sim.isPending(reused));
  EXPECT_EQ(sim.pendingCount(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

// Differential test: seeded schedules (zero delays and many equal
// timestamps included), cancels of pending and stale ids, and handlers
// that schedule and cancel, checked step by step against a reference
// model of the contract: events fire in (time, insertion order).
class SimulatorModel {
 public:
  explicit SimulatorModel(std::uint64_t seed) : rng_(seed) {}

  void drive(int operations) {
    while (ops_ < operations) {
      const double u = rng_.uniform();
      if (u < 0.4) {
        randomOp();
      } else if (u < 0.8) {
        const bool any = !model_.empty();
        EXPECT_EQ(sim_.step(), any);
        ++ops_;
      } else {
        runUntil(sim_.now() + SimTime::nanos(rng_.uniformInt(0, 600)));
      }
      checkAgainstModel();
    }
    sim_.run();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(sim_.pendingCount(), 0u);
    EXPECT_EQ(sim_.executedCount(), fired_.size());
    for (const EventId id : issued_) EXPECT_FALSE(sim_.isPending(id));
  }

  std::size_t fired() const { return fired_.size(); }
  std::size_t cancelled() const { return cancelled_; }

 private:
  void randomOp() {
    ++ops_;
    if (rng_.bernoulli(0.7) || issued_.empty()) {
      schedule();
    } else {
      cancelRandom();
    }
  }

  void schedule() {
    std::int64_t delay = 0;
    const double u = rng_.uniform();
    if (u < 0.7) {
      delay = 100 * rng_.uniformInt(0, 8);  // coarse grid: many equal times
    } else if (u < 0.95) {
      delay = rng_.uniformInt(0, 1000);
    } else {
      delay = 1000 * rng_.uniformInt(1, 1000);
    }
    const std::uint64_t seq = issued_.size();
    const SimTime at = sim_.now() + SimTime::nanos(delay);
    issued_.push_back(sim_.scheduleAt(at, [this, seq] { fire(seq); }));
    model_.emplace(at.ns(), seq);
    atOfSeq_.push_back(at.ns());
  }

  // Half the cancels target a pending event, half any id ever issued
  // (mostly stale: fired or cancelled already).
  void cancelRandom() {
    std::uint64_t seq = randomIssued();
    if (!model_.empty() && rng_.bernoulli(0.5)) {
      const int k = rng_.uniformInt(0, static_cast<int>(model_.size()) - 1);
      seq = std::next(model_.begin(), k)->second;
    }
    const bool pending = model_.erase({atOfSeq_[seq], seq}) == 1;
    EXPECT_EQ(sim_.isPending(issued_[seq]), pending);
    sim_.cancel(issued_[seq]);
    EXPECT_FALSE(sim_.isPending(issued_[seq]));
    if (pending) ++cancelled_;
  }

  void fire(std::uint64_t seq) {
    ASSERT_FALSE(model_.empty());
    const auto next = *model_.begin();
    ASSERT_EQ(seq, next.second) << "after " << fired_.size() << " events";
    EXPECT_EQ(sim_.now().ns(), next.first);
    EXPECT_FALSE(sim_.isPending(issued_[seq]));
    model_.erase(model_.begin());
    fired_.push_back(seq);
    EXPECT_EQ(sim_.pendingCount(), model_.size());
    const int nested = rng_.uniformInt(0, 2);
    for (int i = 0; i < nested; ++i) randomOp();
  }

  void runUntil(SimTime until) {
    ++ops_;
    sim_.runUntil(until);
    EXPECT_EQ(sim_.now(), until);
    EXPECT_TRUE(model_.empty() || model_.begin()->first > until.ns());
  }

  void checkAgainstModel() {
    EXPECT_EQ(sim_.pendingCount(), model_.size());
    if (!issued_.empty()) {
      const std::uint64_t seq = randomIssued();
      EXPECT_EQ(sim_.isPending(issued_[seq]),
                model_.count({atOfSeq_[seq], seq}) == 1);
    }
  }

  std::uint64_t randomIssued() {
    return static_cast<std::uint64_t>(
        rng_.uniformInt(0, static_cast<int>(issued_.size()) - 1));
  }

  Simulator sim_;
  vanet::Rng rng_;
  std::set<std::pair<std::int64_t, std::uint64_t>> model_;  // (at ns, seq)
  std::vector<EventId> issued_;           // by seq
  std::vector<std::int64_t> atOfSeq_;     // by seq
  std::vector<std::uint64_t> fired_;      // seqs in dispatch order
  std::size_t cancelled_ = 0;
  int ops_ = 0;
};

TEST(SimulatorTest, MatchesAReferenceModelOnSeededOperations) {
  for (const std::uint64_t seed : {2008ULL, 7ULL}) {
    SimulatorModel model(seed);
    model.drive(20000);
    // The mix exercised both paths at scale.
    EXPECT_GT(model.fired(), 5000u);
    EXPECT_GT(model.cancelled(), 1000u);
  }
}

// Property: random schedules always execute in non-decreasing time order.
class SimulatorOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorOrderProperty, MonotoneExecution) {
  Simulator sim;
  vanet::Rng rng{GetParam()};
  std::vector<double> firedAt;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    sim.scheduleAt(SimTime::seconds(t),
                   [&firedAt, &sim] { firedAt.push_back(sim.now().toSeconds()); });
  }
  sim.run();
  ASSERT_EQ(firedAt.size(), 500u);
  for (std::size_t i = 1; i < firedAt.size(); ++i) {
    EXPECT_LE(firedAt[i - 1], firedAt[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrderProperty,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 99ULL));

}  // namespace
}  // namespace vanet::sim
