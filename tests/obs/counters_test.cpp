#include "obs/counters.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace vanet::obs {
namespace {

/// Every test owns distinct counter names (the registry is process-wide
/// and monotonic), and resets the cells it is about to read.

TEST(ObsCountersTest, GetInternsOnceAndAddAccumulates) {
  Counter& a = Counter::get("test.counters.basic");
  Counter& b = Counter::get("test.counters.basic");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "test.counters.basic");

  resetAll();
  a.add();
  a.add(41);
  EXPECT_EQ(takeSnapshot().counter("test.counters.basic"), 42u);
}

TEST(ObsCountersTest, SnapshotIsNameSortedAndKeepsZeroEntries) {
  Counter::get("test.counters.zzz");
  Counter::get("test.counters.aaa");
  resetAll();
  Counter::get("test.counters.aaa").add(1);
  const Snapshot snapshot = takeSnapshot();
  ASSERT_GE(snapshot.counters.size(), 2u);
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
  // A zero-valued counter still appears: the vocabulary is the schema.
  EXPECT_EQ(snapshot.counter("test.counters.zzz"), 0u);
  EXPECT_EQ(snapshot.counter("test.counters.never_interned"), 0u);
}

TEST(ObsCountersTest, MergeAcrossThreadsIsExactRegardlessOfSchedule) {
  Counter& counter = Counter::get("test.counters.threads");
  resetAll();
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (std::thread& worker : workers) worker.join();
  // Some slabs are retired (threads exited), some may be live; the merge
  // must see every add exactly once either way.
  EXPECT_EQ(takeSnapshot().counter("test.counters.threads"),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(ObsCountersTest, DisabledRegistryDropsCountsAndTimersReadNoClock) {
  Counter& counter = Counter::get("test.counters.disabled");
  Timer& timer = Timer::get("test.timers.disabled");
  resetAll();
  setEnabled(false);
  counter.add(7);
  { ScopedTimer scope(timer); }
  setEnabled(true);
  const Snapshot snapshot = takeSnapshot();
  EXPECT_EQ(snapshot.counter("test.counters.disabled"), 0u);
  EXPECT_EQ(snapshot.timer("test.timers.disabled").count, 0u);
}

TEST(ObsCountersTest, ScopedTimerRecordsCountAndNanos) {
  Timer& timer = Timer::get("test.timers.scoped");
  resetAll();
  { ScopedTimer scope(timer); }
  { ScopedTimer scope(timer); }
  timer.record(1000);
  const TimerValue value = takeSnapshot().timer("test.timers.scoped");
  EXPECT_EQ(value.count, 3u);
  EXPECT_GE(value.totalNanos, 1000u);
}

TEST(ObsCountersTest, ResetZeroesRetiredSlabsToo) {
  Counter& counter = Counter::get("test.counters.reset");
  resetAll();
  std::thread([&counter] { counter.add(5); }).join();
  EXPECT_EQ(takeSnapshot().counter("test.counters.reset"), 5u);
  resetAll();
  EXPECT_EQ(takeSnapshot().counter("test.counters.reset"), 0u);
}

}  // namespace
}  // namespace vanet::obs
