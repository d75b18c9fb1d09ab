#include "soidom/base/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace soidom {

unsigned hardware_thread_count() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

struct ThreadPool::Impl {
  // Batch state.  `generation` bumps once per run(); sleeping workers wake
  // when it changes, drain the batch, then report done.
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  unsigned active = 0;
  bool shutdown = false;

  std::size_t num_items = 0;
  const std::function<void(std::size_t, unsigned)>* fn = nullptr;
  std::atomic<std::size_t> next{0};

  // First failure by item index, so rethrow order is schedule-independent.
  std::mutex error_mutex;
  std::size_t error_item = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  std::vector<std::thread> workers;

  bool skip_after_error(std::size_t item) {
    std::lock_guard<std::mutex> lock(error_mutex);
    return error && item > error_item;
  }

  void record_error(std::size_t item) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error || item < error_item) {
      error = std::current_exception();
      error_item = item;
    }
  }

  void drain(unsigned worker) {
    while (true) {
      const std::size_t item = next.fetch_add(1, std::memory_order_relaxed);
      if (item >= num_items) return;
      // After a failure, claim-and-skip the remaining items: the batch
      // still terminates and the lowest-index error wins.
      if (skip_after_error(item)) continue;
      try {
        (*fn)(item, worker);
      } catch (...) {
        record_error(item);
      }
    }
  }

  void worker_loop(unsigned worker) {
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
      }
      drain(worker);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0) done_cv.notify_all();
      }
    }
  }

  void start_batch_and_join() {
    if (!workers.empty()) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        active = static_cast<unsigned>(workers.size());
        ++generation;
      }
      work_cv.notify_all();
    }
    drain(0);
    if (!workers.empty()) {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return active == 0; });
    }
  }
};

ThreadPool::ThreadPool(unsigned num_threads) : impl_(new Impl) {
  if (num_threads == 0) num_threads = hardware_thread_count();
  for (unsigned w = 1; w < num_threads; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

unsigned ThreadPool::size() const {
  return static_cast<unsigned>(impl_->workers.size()) + 1;
}

void ThreadPool::run(
    std::size_t num_items,
    const std::function<void(std::size_t item, unsigned worker)>& fn) {
  if (num_items == 0) return;
  impl_->num_items = num_items;
  impl_->fn = &fn;
  impl_->next.store(0, std::memory_order_relaxed);
  impl_->error = nullptr;
  impl_->error_item = std::numeric_limits<std::size_t>::max();
  impl_->start_batch_and_join();
  impl_->fn = nullptr;
  if (impl_->error) std::rethrow_exception(impl_->error);
}

}  // namespace soidom
