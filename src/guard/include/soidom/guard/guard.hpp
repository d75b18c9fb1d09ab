/// \file guard.hpp
/// Resource guards for the mapping pipeline: wall-clock deadlines,
/// cooperative cancellation, and resource budgets.
///
/// The expensive stages (decomposition, unate conversion, the DP mapper,
/// BDD equivalence, random simulation) call `guard_checkpoint()` /
/// `guard_charge()` at coarse loop granularity.  When no guard is
/// installed (the default — plain run_flow and direct module calls) these
/// are a thread-local pointer test and return, so overhead stays
/// unmeasurable.  The guarded facade run_flow_guarded (core/flow.hpp)
/// installs a GuardContext for the duration of the flow; a tripped guard
/// throws GuardError, which the facade converts into a Diagnostic.
///
/// A GuardContext must not be shared by concurrently running *flows*, but
/// checkpoint()/charge() are thread-safe (relaxed atomics), so one flow
/// may fan its hot loop out over worker threads — the csa, race and prove
/// analyzers install the owning flow's guard on each pool worker via
/// GuardScope and the budget/deadline still hold across all of them.  A
/// CancelToken may be triggered from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "soidom/guard/diagnostic.hpp"

namespace soidom {

/// A wall-clock deadline; default-constructed = unlimited.
class Deadline {
 public:
  Deadline() = default;

  static Deadline never() { return Deadline(); }
  static Deadline after(std::chrono::nanoseconds delay) {
    Deadline d;
    d.expires_ = std::chrono::steady_clock::now() + delay;
    return d;
  }
  static Deadline after_ms(std::int64_t ms) {
    return after(std::chrono::milliseconds(ms));
  }

  bool unlimited() const { return !expires_.has_value(); }
  bool expired() const {
    return expires_ && std::chrono::steady_clock::now() >= *expires_;
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> expires_;
};

/// Shared cancellation flag.  Copies observe the same flag, so a caller
/// can keep one handle and hand another to run_flow_guarded; requesting
/// cancellation is safe from any thread.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const {
    state_->store(true, std::memory_order_relaxed);
  }
  bool cancelled() const { return state_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Countable resources a budget can bound.
enum class Resource : std::uint8_t {
  kNetworkNodes,  ///< nodes created by decomposition / unate conversion
  kTuples,        ///< DP candidates examined by the mapper
  kBddNodes,      ///< BDD nodes allocated by any manager under the guard
};
inline constexpr std::size_t kNumResources = 3;

/// Ceilings per resource; 0 means unlimited.
struct ResourceBudget {
  std::size_t max_network_nodes = 0;
  std::size_t max_tuples = 0;
  std::size_t max_bdd_nodes = 0;

  std::size_t limit(Resource r) const {
    switch (r) {
      case Resource::kNetworkNodes: return max_network_nodes;
      case Resource::kTuples: return max_tuples;
      case Resource::kBddNodes: return max_bdd_nodes;
    }
    return 0;
  }
};

/// One flow's guard state: deadline + cancellation + budget counters plus
/// the current stage for failure attribution.
class GuardContext {
 public:
  GuardContext() = default;
  GuardContext(Deadline deadline, CancelToken cancel, ResourceBudget budget)
      : deadline_(deadline), cancel_(std::move(cancel)), budget_(budget) {}

  /// Throws GuardError (kCancelled / kDeadlineExceeded) when tripped.
  /// Cancellation is checked every call; the clock only every 256 calls.
  /// Thread-safe.
  void checkpoint();

  /// Add `n` to the resource counter; throws GuardError(kBudgetExceeded)
  /// when the ceiling is crossed.  Thread-safe: concurrent charges
  /// accumulate exactly (relaxed fetch_add), so whether the total trips
  /// the ceiling is independent of thread interleaving.
  void charge(Resource resource, std::size_t n);

  void set_stage(FlowStage stage) { stage_ = stage; }
  FlowStage stage() const { return stage_; }
  std::size_t used(Resource resource) const {
    return used_[static_cast<std::size_t>(resource)].load(
        std::memory_order_relaxed);
  }

 private:
  Deadline deadline_;
  CancelToken cancel_;
  ResourceBudget budget_;
  std::atomic<std::size_t> used_[kNumResources] = {};
  std::atomic<unsigned> tick_{0};
  FlowStage stage_ = FlowStage::kNone;
};

/// The guard installed for the current thread, or nullptr.
GuardContext* current_guard() noexcept;

/// RAII installation of a guard for the current thread (nestable; the
/// previous guard is restored on destruction).
class GuardScope {
 public:
  explicit GuardScope(GuardContext& guard);
  ~GuardScope();
  GuardScope(const GuardScope&) = delete;
  GuardScope& operator=(const GuardScope&) = delete;

 private:
  GuardContext* previous_;
};

/// RAII stage marker: sets the installed guard's current stage (no-op
/// without a guard).  Stage modules use it at entry so failures attribute
/// correctly even when called directly.
class StageScope {
 public:
  explicit StageScope(FlowStage stage);
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  FlowStage previous_ = FlowStage::kNone;
};

/// Checkpoint / charge through the installed guard; no-ops without one.
void guard_checkpoint();
void guard_charge(Resource resource, std::size_t n = 1);

/// The installed guard's current stage, or `fallback` without a guard.
FlowStage current_stage_or(FlowStage fallback) noexcept;

}  // namespace soidom
