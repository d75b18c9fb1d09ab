#include "soidom/base/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace soidom {

unsigned hardware_thread_count() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

void parallel_for(
    std::size_t n, unsigned threads,
    const std::function<void(std::size_t item, unsigned worker)>& fn) {
  if (threads == 0) threads = hardware_thread_count();
  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(n, 1)));

  std::atomic<std::size_t> next{0};
  // First failure by item index, so the rethrow is schedule-independent.
  std::mutex error_mutex;
  std::size_t error_item = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  const auto drain = [&](unsigned worker) {
    while (true) {
      const std::size_t item = next.fetch_add(1, std::memory_order_relaxed);
      if (item >= n) return;
      {
        // After a failure, claim-and-skip the later items: the loop
        // still terminates and the lowest-index error wins.
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error && item > error_item) continue;
      }
      try {
        fn(item, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error || item < error_item) {
          error = std::current_exception();
          error_item = item;
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    // A thread that cannot start leaves its share to the others.
    try {
      pool.emplace_back(drain, w);
    } catch (const std::system_error&) {
      break;
    }
  }
  drain(0);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace soidom
