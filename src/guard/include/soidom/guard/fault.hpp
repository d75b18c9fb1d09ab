/// \file fault.hpp
/// Deterministic fault injection for robustness testing.
///
/// Every pipeline stage carries one probe (`SOIDOM_FAULT_PROBE(stage)` at
/// its entry).  A test installs a FaultInjector with a FaultScope; when an
/// armed probe fires it throws GuardError(kFaultInjected, stage), which
/// must surface from run_flow_guarded as a clean Diagnostic with that
/// stage — never a crash, hang, leak, or foreign exception
/// (tests/test_faults.cpp enforces this for every probe).
///
/// Probes compile to nothing unless the library is built with the CMake
/// option SOIDOM_FAULT_INJECTION (ON by default; release deployments can
/// switch it off).  Even when compiled in, an unarmed probe is one
/// thread-local pointer test per stage entry.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "soidom/base/rng.hpp"
#include "soidom/guard/diagnostic.hpp"

namespace soidom {

/// Seeded, probe-point-per-stage fault source (same determinism idiom as
/// base/rng.hpp: a given configuration fails identically on every run).
///
/// Hit counting is atomic and the randomized stream is mutex-guarded, so
/// one injector may be installed on several threads at once (say, batch
/// jobs running side by side).  A flow runs on one thread, so every probe
/// of a flow fires on the thread that installed the injector.  Copying
/// (factory returns, test fixtures) is not synchronized against
/// concurrent probes.
class FaultInjector {
 public:
  /// Fail the `hit`-th time (1-based) the probe of `stage` is reached.
  static FaultInjector fail_at(FlowStage stage, int hit = 1);

  /// Fail any probe with probability numer/denom, from a seeded stream.
  static FaultInjector random(std::uint64_t seed, std::uint64_t numer,
                              std::uint64_t denom);

  FaultInjector(const FaultInjector& other);
  FaultInjector& operator=(const FaultInjector& other);

  /// Called by probes; advances hit counters / the random stream.
  bool should_fail(FlowStage stage);

  /// How often the probe of `stage` has been reached (test introspection).
  int hits(FlowStage stage) const {
    return hits_[static_cast<std::size_t>(stage)].load(
        std::memory_order_relaxed);
  }

 private:
  FaultInjector() = default;

  FlowStage target_ = FlowStage::kNone;
  int target_hit_ = 0;
  bool randomized_ = false;
  Rng rng_{0};
  std::uint64_t numer_ = 0;
  std::uint64_t denom_ = 1;
  std::mutex rng_mutex_;
  std::array<std::atomic<int>, kFlowStageCount> hits_{};
};

/// RAII installation for the current thread (nestable).
class FaultScope {
 public:
  explicit FaultScope(FaultInjector& injector);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultInjector* previous_;
};

namespace detail {
/// Throws GuardError(kFaultInjected, stage) when the installed injector
/// (if any) decides to fail; otherwise just counts the hit.
void fault_probe(FlowStage stage);
}  // namespace detail

}  // namespace soidom

#if defined(SOIDOM_FAULT_INJECTION)
#define SOIDOM_FAULT_PROBE(stage) ::soidom::detail::fault_probe(stage)
#else
#define SOIDOM_FAULT_PROBE(stage) ((void)0)
#endif
