/// \file parallel.hpp
/// A one-shot parallel loop.
///
/// `parallel_for` starts its workers, runs one flat index range and joins
/// them before it returns; nothing outlives the call.  Items are claimed
/// in index order from one shared counter, so callers that need
/// deterministic output write results into per-item slots and merge them
/// in item order afterwards.
///
/// Exceptions thrown by the callback are captured per item; items with a
/// higher index than the recorded failure are skipped, and the failure
/// with the LOWEST index is rethrown after every worker has joined, so
/// error reporting is reproducible regardless of thread scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace soidom {

/// Hardware concurrency, at least 1: what `threads == 0` resolves to.
unsigned hardware_thread_count() noexcept;

/// Run `fn(item, worker)` for every item in [0, n) on up to `threads`
/// workers (0 = hardware_thread_count()), never more than `n`.  The
/// calling thread is worker 0; `worker` is in [0, workers).  `n <= 1` or
/// `threads == 1` runs every item on the caller and starts no thread.
void parallel_for(
    std::size_t n, unsigned threads,
    const std::function<void(std::size_t item, unsigned worker)>& fn);

}  // namespace soidom
