#pragma once

/// \file simulator.h
/// Single-threaded discrete-event scheduler. Events at equal timestamps fire
/// in insertion order (stable), which keeps runs deterministic.

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/time.h"
#include "util/assert.h"

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
/// Each handler is copied into a fixed-size cell of a pooled slot store:
/// an EventId encodes (generation, slot) and slots are recycled through a
/// free list, so scheduling allocates nothing once the pools have grown.
/// The pending events sit in one vector sorted latest-first: dispatch pops
/// the back, scheduling walks back from the end to the new event's place
/// (O(depth); rounds keep about 6-14 events pending) and cancel erases the
/// entry at once, so the vector holds exactly the pending events.
class Simulator {
 public:
  /// Largest handler a cell holds. A handler needing more state captures
  /// a pointer to it.
  static constexpr std::size_t kHandlerBytes = 32;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at zero.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now). Returns a cancellable
  /// id. `fn` is copied into the event's cell, which is why it must be
  /// trivially copyable and at most kHandlerBytes.
  template <class Fn>
  EventId scheduleAt(SimTime at, Fn fn) {
    static_assert(std::is_trivially_copyable_v<Fn> &&
                      sizeof(Fn) <= kHandlerBytes &&
                      alignof(Fn) <= alignof(Handler),
                  "an event handler must be trivially copyable and at most "
                  "Simulator::kHandlerBytes (32) bytes: capture a pointer to "
                  "larger state");
    const std::uint32_t slot = enqueue(at);
    Slot& cell = slots_[slot];
    ::new (static_cast<void*>(cell.handler.bytes)) Fn(fn);
    cell.handler.invoke = [](void* bytes) {
      (*std::launder(static_cast<Fn*>(bytes)))();
    };
    return (static_cast<EventId>(cell.generation) << 32) | slot;
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <class Fn>
  EventId scheduleAfter(SimTime delay, Fn fn) {
    VANET_ASSERT(delay >= SimTime::zero(), "delay must be non-negative");
    return scheduleAt(now_ + delay, fn);
  }

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id);

  /// True if the event is still pending. A slot's generation advances
  /// when its event fires or is cancelled, so only a pending event's id
  /// matches it.
  bool isPending(EventId id) const noexcept {
    const std::size_t slot = static_cast<std::size_t>(id & 0xffffffffu);
    return slot < slots_.size() &&
           slots_[slot].generation == static_cast<std::uint32_t>(id >> 32);
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

  /// Number of events currently pending.
  std::size_t pendingCount() const noexcept { return pending_.size(); }

  /// Total events executed since construction.
  std::uint64_t executedCount() const noexcept { return executed_; }

 private:
  /// One handler: its captures and the function that calls them.
  struct Handler {
    alignas(void*) unsigned char bytes[kHandlerBytes];
    void (*invoke)(void* bytes);
  };
  /// One pooled cell. `generation` advances on every recycle so a stale
  /// EventId can never resolve to a newer occupant of the slot.
  struct Slot {
    Handler handler;
    std::uint32_t generation = 1;
  };
  /// A pending event. Its place in pending_ records its insertion order.
  struct Entry {
    SimTime at;
    std::uint32_t slot;
  };

  // Takes a slot and queues it at `at` after every entry not later than
  // `at`; returns the slot for the caller to fill.
  std::uint32_t enqueue(SimTime at);

  // Returns a slot to the free list and invalidates outstanding ids to it.
  void releaseSlot(std::uint32_t slot) noexcept;

  // Pops the earliest entry and runs its handler.
  void dispatchNext();

  // Adds the events dispatched since the last call to the
  // sim.events_dispatched counter: once per run()/runUntil()/step() call
  // instead of one atomic add per event. Nested calls from a handler
  // count each event once.
  void countDispatched();

  SimTime now_{};
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t counted_ = 0;  // executed_ at the last countDispatched()
  std::vector<Entry> pending_;  // sorted latest-first; back() fires next
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
};

}  // namespace vanet::sim
