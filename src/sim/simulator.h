#pragma once

/// \file simulator.h
/// Single-threaded discrete-event scheduler. Events at equal timestamps fire
/// in insertion order (stable), which keeps runs deterministic.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace vanet::sim {

/// Handle for a scheduled event; used to cancel it. Id 0 is never issued.
using EventId = std::uint64_t;

/// Discrete-event simulation kernel.
///
/// Typical use:
/// ```
/// Simulator sim;
/// sim.scheduleAt(SimTime::seconds(1.0), [&] { ... });
/// sim.runUntil(SimTime::seconds(10.0));
/// ```
///
/// Handlers live in a pooled slot store: an EventId encodes (generation,
/// slot) and slots are recycled through a free list, so steady
/// schedule/dispatch churn performs no per-event allocation and no hashing
/// (the previous id->handler hash map dominated event dispatch cost).
/// Handlers with captures up to the std::function small-buffer size are
/// therefore allocation-free end to end.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at zero.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now). Returns a cancellable id.
  EventId scheduleAt(SimTime at, std::function<void()> fn);

  /// Schedules `fn` after `delay` (>= 0) from now.
  EventId scheduleAfter(SimTime delay, std::function<void()> fn);

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  /// The handler is released eagerly; the queue entry is discarded lazily
  /// but compacted whenever cancelled entries outnumber live ones, so a
  /// long round cancelling many far-future timers (C-ARQ timeout churn)
  /// keeps the queue O(pending), never O(all timers ever cancelled).
  void cancel(EventId id);

  /// True if the event is still pending.
  bool isPending(EventId id) const noexcept {
    const std::size_t slot = slotOf(id);
    return slot < slots_.size() && slots_[slot].generation == generationOf(id) &&
           slots_[slot].live;
  }

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs events with timestamp <= `until`, then sets now() = `until`
  /// (unless stopped earlier).
  void runUntil(SimTime until);

  /// Executes exactly one event if available; returns false on empty queue.
  bool step();

  /// Makes run()/runUntil() return after the current event completes.
  void stop() noexcept { stopped_ = true; }

  /// Number of events currently pending (excluding cancelled ones).
  std::size_t pendingCount() const noexcept { return liveCount_; }

  /// Queue entries currently held, *including* not-yet-discarded
  /// cancelled ones -- the memory the queue actually occupies. Compaction
  /// keeps it <= pendingCount() + max(pendingCount(), compaction slack):
  /// O(pending), never O(all timers ever cancelled). Exposed for the
  /// cancellation-growth regression test.
  std::size_t queueDepth() const noexcept { return queue_.size(); }

  /// Total events executed since construction.
  std::uint64_t executedCount() const noexcept { return executed_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // insertion order; breaks timestamp ties stably
    EventId id;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  /// One pooled handler cell. `generation` advances on every recycle so a
  /// stale EventId can never resolve to a newer occupant of the slot.
  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 1;
    bool live = false;
  };

  static constexpr std::size_t slotOf(EventId id) noexcept {
    return static_cast<std::size_t>(id & 0xffffffffu);
  }
  static constexpr std::uint32_t generationOf(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  // Returns a slot to the free list and invalidates outstanding ids to it.
  void releaseSlot(std::size_t slot) noexcept;

  // Pops queue entries whose handler was cancelled; returns false when empty.
  bool popNextLive(Entry& out);

  // Pops the live top entry `entry` (as popNextLive returned it) and runs
  // its handler.
  void dispatch(const Entry& entry);

  // Adds the events dispatched since the last call to the
  // sim.events_dispatched counter: once per run()/runUntil()/step() call
  // instead of one atomic add per event. Nested calls from a handler
  // count each event once.
  void countDispatched();

  // Drops every cancelled entry and re-heapifies when the dead entries
  // dominate the queue. Amortised O(1) per cancel.
  void maybeCompact();

  // Compaction slack: below this many dead entries the O(queue) sweep is
  // not worth it (tiny queues churn timers constantly).
  static constexpr std::size_t kCompactionSlack = 64;

  SimTime now_{};
  bool stopped_ = false;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t counted_ = 0;  // executed_ at the last countDispatched()
  // Binary min-heap (std::push_heap/pop_heap with EntryLater) instead of
  // std::priority_queue: compaction needs access to the container.
  std::vector<Entry> queue_;
  std::size_t cancelledInQueue_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  std::size_t liveCount_ = 0;
};

}  // namespace vanet::sim
