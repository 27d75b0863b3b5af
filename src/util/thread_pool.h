#pragma once

/// \file thread_pool.h
/// Worker threads for the campaign executor (src/runner/executor.cpp),
/// the only layer that starts threads: `--threads` job workers, each
/// running its jobs' rounds in order. Worker counts never influence
/// results, because the executor folds its outputs in index order
/// (util/reorder.h).

#include <functional>

namespace vanet::util {

/// std::thread::hardware_concurrency clamped to >= 1.
int hardwareThreads() noexcept;

/// Runs `worker` concurrently on `workers` threads: `workers - 1`
/// spawned plus the calling thread. `workers` <= 1 calls it inline on
/// the calling thread. Joins every spawned thread before returning;
/// `worker` must not throw (wrap the body, park the error, rethrow after
/// -- see util/reorder.h's foldOrdered for the canonical pattern).
void runWorkers(int workers, const std::function<void()>& worker);

}  // namespace vanet::util
