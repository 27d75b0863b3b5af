#include "obs/counters.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "util/assert.h"

namespace vanet::obs {
namespace {

/// One thread's private accumulation cells. Cells are relaxed atomics so
/// takeSnapshot() can read a live thread's slab without tearing; the
/// owning thread is the only writer, so the adds themselves never
/// contend.
struct Slab {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxTimers> timerNanos{};
  std::array<std::atomic<std::uint64_t>, kMaxTimers> timerCounts{};
};

/// Plain totals (retired threads fold here under the registry mutex).
struct Totals {
  std::array<std::uint64_t, kMaxCounters> counters{};
  std::array<std::uint64_t, kMaxTimers> timerNanos{};
  std::array<std::uint64_t, kMaxTimers> timerCounts{};
};

}  // namespace

/// The process-wide registry: interned names, handle storage, the set of
/// live slabs and the retired totals. Leaked on purpose (never destroyed)
/// so thread-exit hooks running during static destruction stay safe.
/// Named (not in the anonymous namespace) so the header's `friend class
/// Registry` grants it access to the private Counter/Timer constructors.
class Registry {
 public:
  static Registry& instance() {
    static Registry* registry = new Registry();
    return *registry;
  }

  Counter& internCounter(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counterIds_.find(name);
    if (it != counterIds_.end()) return counters_[it->second];
    VANET_ASSERT(counterNames_.size() < kMaxCounters,
                 "obs counter vocabulary exceeded kMaxCounters");
    const std::size_t id = counterNames_.size();
    counterNames_.push_back(name);
    counterIds_.emplace(name, id);
    counters_.emplace_back(Counter(id));
    return counters_.back();
  }

  Timer& internTimer(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = timerIds_.find(name);
    if (it != timerIds_.end()) return timers_[it->second];
    VANET_ASSERT(timerNames_.size() < kMaxTimers,
                 "obs timer vocabulary exceeded kMaxTimers");
    const std::size_t id = timerNames_.size();
    timerNames_.push_back(name);
    timerIds_.emplace(name, id);
    timers_.emplace_back(Timer(id));
    return timers_.back();
  }

  const std::string& counterName(std::size_t id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return counterNames_[id];
  }

  const std::string& timerName(std::size_t id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return timerNames_[id];
  }

  void registerSlab(Slab* slab) {
    const std::lock_guard<std::mutex> lock(mutex_);
    liveSlabs_.push_back(slab);
  }

  /// Folds an exiting thread's slab into the retired totals and drops it
  /// from the live set.
  void retireSlab(Slab* slab) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase(liveSlabs_, slab);
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      retired_.counters[i] +=
          slab->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxTimers; ++i) {
      retired_.timerNanos[i] +=
          slab->timerNanos[i].load(std::memory_order_relaxed);
      retired_.timerCounts[i] +=
          slab->timerCounts[i].load(std::memory_order_relaxed);
    }
  }

  Snapshot snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    Totals totals = retired_;
    for (const Slab* slab : liveSlabs_) {
      for (std::size_t i = 0; i < kMaxCounters; ++i) {
        totals.counters[i] +=
            slab->counters[i].load(std::memory_order_relaxed);
      }
      for (std::size_t i = 0; i < kMaxTimers; ++i) {
        totals.timerNanos[i] +=
            slab->timerNanos[i].load(std::memory_order_relaxed);
        totals.timerCounts[i] +=
            slab->timerCounts[i].load(std::memory_order_relaxed);
      }
    }
    Snapshot out;
    out.counters.reserve(counterNames_.size());
    for (std::size_t i = 0; i < counterNames_.size(); ++i) {
      out.counters.push_back(CounterValue{counterNames_[i],
                                          totals.counters[i]});
    }
    out.timers.reserve(timerNames_.size());
    for (std::size_t i = 0; i < timerNames_.size(); ++i) {
      out.timers.push_back(TimerValue{timerNames_[i], totals.timerCounts[i],
                                      totals.timerNanos[i]});
    }
    const auto byName = [](const auto& a, const auto& b) {
      return a.name < b.name;
    };
    std::sort(out.counters.begin(), out.counters.end(), byName);
    std::sort(out.timers.begin(), out.timers.end(), byName);
    return out;
  }

  void reset() noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    retired_ = Totals{};
    for (Slab* slab : liveSlabs_) {
      for (auto& cell : slab->counters) {
        cell.store(0, std::memory_order_relaxed);
      }
      for (auto& cell : slab->timerNanos) {
        cell.store(0, std::memory_order_relaxed);
      }
      for (auto& cell : slab->timerCounts) {
        cell.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  Registry() = default;

  std::mutex mutex_;
  std::vector<std::string> counterNames_;
  std::vector<std::string> timerNames_;
  std::map<std::string, std::size_t> counterIds_;
  std::map<std::string, std::size_t> timerIds_;
  /// Handle storage: deque so interning never invalidates references.
  std::deque<Counter> counters_;
  std::deque<Timer> timers_;
  std::vector<Slab*> liveSlabs_;
  Totals retired_;
};

namespace {

/// Registers this thread's slab on first use; the destructor folds it
/// into the retired totals when the thread exits, so short-lived pool
/// workers never lose counts.
struct SlabHandle {
  SlabHandle() : slab(std::make_unique<Slab>()) {
    Registry::instance().registerSlab(slab.get());
  }
  ~SlabHandle() {
    // Drop the header's cached cell pointers before the slab dies; a
    // stray add() during thread teardown re-registers instead of
    // touching freed memory.
    detail::tCells = detail::ThreadCells{};
    Registry::instance().retireSlab(slab.get());
  }
  std::unique_ptr<Slab> slab;
};

Slab& threadSlab() {
  thread_local SlabHandle handle;
  return *handle.slab;
}

}  // namespace

namespace detail {

constinit thread_local ThreadCells tCells;

ThreadCells& initThreadCells() {
  Slab& slab = threadSlab();
  tCells.counters = slab.counters.data();
  tCells.timerNanos = slab.timerNanos.data();
  tCells.timerCounts = slab.timerCounts.data();
  return tCells;
}

}  // namespace detail

Counter& Counter::get(const std::string& name) {
  return Registry::instance().internCounter(name);
}

const std::string& Counter::name() const {
  return Registry::instance().counterName(id_);
}

Timer& Timer::get(const std::string& name) {
  return Registry::instance().internTimer(name);
}

const std::string& Timer::name() const {
  return Registry::instance().timerName(id_);
}

std::uint64_t Snapshot::counter(const std::string& name) const noexcept {
  for (const CounterValue& value : counters) {
    if (value.name == name) return value.value;
  }
  return 0;
}

TimerValue Snapshot::timer(const std::string& name) const noexcept {
  for (const TimerValue& value : timers) {
    if (value.name == name) return value;
  }
  return TimerValue{name, 0, 0};
}

Snapshot takeSnapshot() { return Registry::instance().snapshot(); }

void resetAll() noexcept { Registry::instance().reset(); }

}  // namespace vanet::obs
