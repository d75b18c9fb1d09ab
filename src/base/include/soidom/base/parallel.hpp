/// \file parallel.hpp
/// A small persistent worker pool for parallel loops.
///
/// The pool is built once per client (e.g. one analyzer run) and reused
/// for many batches, so the thread-creation cost is paid once.  `run`
/// executes a flat index range: work items are claimed dynamically from a
/// shared atomic counter; callers that need deterministic output must
/// write results into per-item slots and merge them in item order
/// afterwards.
///
/// Exceptions thrown by the callback are captured per item; the batch
/// still drains (items with a higher index than the recorded failure are
/// skipped) and the failure with the LOWEST index is rethrown after the
/// drain, so error reporting is reproducible regardless of thread
/// scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace soidom {

/// Number of worker threads `ThreadPool{0}` resolves to (hardware
/// concurrency, at least 1).
unsigned hardware_thread_count() noexcept;

class ThreadPool {
 public:
  /// `num_threads` total workers including the calling thread; 0 = auto
  /// (hardware concurrency).  A pool of size 1 spawns no threads and runs
  /// every batch inline on the caller.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const;

  /// Run `fn(item, worker)` for every item in [0, num_items), blocking
  /// until all items finish.  `worker` is a stable id in [0, size()); the
  /// calling thread participates as worker 0.  Not reentrant.
  void run(std::size_t num_items,
           const std::function<void(std::size_t item, unsigned worker)>& fn);

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace soidom
