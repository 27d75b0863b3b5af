#pragma once

/// \file reorder.h
/// Bounded index-order reordering window of the campaign executor
/// (src/runner/executor.cpp): job results from any number of workers
/// fold in job order.
///
/// The shape: jobs 0..count-1 complete on worker threads in any order;
/// completed results are *parked* keyed by index, and the worker whose
/// insert completes the window front folds every contiguous result --
/// strictly in ascending index -- before releasing the lock. A worker may
/// only claim a new index while the window has room (claimed index <
/// folded frontier + cap), so at most `cap` completed-but-unfolded
/// results ever exist. Because the fold order is a pure function of the
/// index sequence, the folded bytes are identical for any worker count,
/// including fully inline execution.
///
/// Error path: the first failure (in a job or in the fold itself) aborts
/// the window; blocked claimants wake and drain, late completions are
/// dropped, and the error is rethrown on the calling thread after the
/// workers join -- nothing partial ever escapes.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "obs/counters.h"
#include "util/thread_pool.h"

namespace vanet::util {

/// The window capacity for `workers` threads: every worker can have one
/// in-flight job plus one parked result before the frontier job
/// completes, so twice the worker count bounds the parked set at
/// O(workers) however many jobs the run has.
inline std::size_t reorderWindowCap(int workers) noexcept {
  const std::size_t count =
      workers > 0 ? static_cast<std::size_t>(workers) : std::size_t{1};
  return std::max<std::size_t>(2, 2 * count);
}

/// The reordering window itself. Thread-safe; see the file comment for
/// the protocol. `Result` must be movable.
template <typename Result>
class ReorderWindow {
 public:
  using Fold = std::function<void(std::size_t, Result&)>;

  /// A window over indices [0, count) holding at most `cap` (>= 1)
  /// parked results; `fold` is called under the window lock, strictly in
  /// ascending index order.
  ReorderWindow(std::size_t count, std::size_t cap, Fold fold)
      : count_(count), cap_(std::max<std::size_t>(1, cap)),
        fold_(std::move(fold)) {}

  /// Blocks until an index is claimable (window has room), the run is
  /// drained, or the window failed. Returns false when there is nothing
  /// left to claim.
  bool claim(std::size_t& index) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto claimableNow = [&] {
      return failed_ || nextClaim_ >= count_ || nextClaim_ < frontier_ + cap_;
    };
    // A stall = the window is full and this worker must sleep until the
    // frontier folds forward. Scheduling-dependent, so observability
    // only -- never part of the determinism contract.
    if (!claimableNow()) OBS_COUNT("util.reorder.stalls");
    claimable_.wait(lock, claimableNow);
    if (failed_ || nextClaim_ >= count_) return false;
    index = nextClaim_++;
    return true;
  }

  /// Parks the result of a claimed index and folds every contiguous
  /// result from the frontier. May throw (parking allocates and the fold
  /// runs arbitrary merges): callers must route any exception to fail().
  /// Completions after a failure are dropped.
  void complete(std::size_t index, Result result) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failed_) return;
    pending_.emplace(index, std::move(result));
    peakParked_ = std::max(peakParked_, pending_.size());
    while (!pending_.empty() && pending_.begin()->first == frontier_) {
      fold_(frontier_, pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++frontier_;
    }
    // Folding moved the window; blocked claimants may now proceed.
    claimable_.notify_all();
  }

  /// Aborts the window with the first error; later errors are ignored.
  void fail(std::exception_ptr error) noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = error;
    failed_ = true;
    claimable_.notify_all();
  }

  /// Rethrows the failure, if any. Call after every worker joined.
  void rethrowIfFailed() {
    if (error_) std::rethrow_exception(error_);
  }

  /// High-water mark of parked (completed-but-unfolded) results.
  std::size_t peakParked() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peakParked_;
  }

  /// Indices folded so far (the frontier).
  std::size_t folded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return frontier_;
  }

 private:
  const std::size_t count_;
  const std::size_t cap_;
  Fold fold_;

  mutable std::mutex mutex_;
  std::condition_variable claimable_;
  std::map<std::size_t, Result> pending_;
  std::size_t nextClaim_ = 0;
  std::size_t frontier_ = 0;  ///< next index to fold
  std::size_t peakParked_ = 0;
  bool failed_ = false;
  std::exception_ptr error_;
};

/// Runs `job` for every index in [0, count) on `workers` threads (the
/// calling thread included; <= 1 is fully inline) and folds each result
/// through a ReorderWindow of capacity `cap`, strictly in index order.
/// Rethrows the first job/fold error on the calling thread after the
/// workers drain; the fold is then incomplete and must be discarded.
/// Returns the window's parked-results high-water mark.
template <typename Result>
std::size_t foldOrdered(std::size_t count, int workers, std::size_t cap,
                        const std::function<Result(std::size_t)>& job,
                        const std::function<void(std::size_t, Result&)>& fold) {
  ReorderWindow<Result> window(count, cap, fold);
  const auto worker = [&] {
    for (;;) {
      std::size_t index = 0;
      if (!window.claim(index)) return;
      try {
        window.complete(index, job(index));
      } catch (...) {
        window.fail(std::current_exception());
        return;
      }
    }
  };
  runWorkers(workers, worker);
  window.rethrowIfFailed();
  return window.peakParked();
}

}  // namespace vanet::util
