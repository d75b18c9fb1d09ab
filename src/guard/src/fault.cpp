#include "soidom/guard/fault.hpp"

#include "soidom/base/strings.hpp"

namespace soidom {
namespace {

thread_local FaultInjector* g_injector = nullptr;

}  // namespace

FaultInjector FaultInjector::fail_at(FlowStage stage, int hit) {
  FaultInjector f;
  f.target_ = stage;
  f.target_hit_ = hit;
  return f;
}

FaultInjector FaultInjector::random(std::uint64_t seed, std::uint64_t numer,
                                    std::uint64_t denom) {
  FaultInjector f;
  f.randomized_ = true;
  f.rng_ = Rng(seed);
  f.numer_ = numer;
  f.denom_ = denom;
  return f;
}

FaultInjector::FaultInjector(const FaultInjector& other)
    : target_(other.target_),
      target_hit_(other.target_hit_),
      randomized_(other.randomized_),
      rng_(other.rng_),
      numer_(other.numer_),
      denom_(other.denom_) {
  for (std::size_t s = 0; s < kFlowStageCount; ++s) {
    hits_[s].store(other.hits_[s].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
}

FaultInjector& FaultInjector::operator=(const FaultInjector& other) {
  if (this == &other) return *this;
  target_ = other.target_;
  target_hit_ = other.target_hit_;
  randomized_ = other.randomized_;
  rng_ = other.rng_;
  numer_ = other.numer_;
  denom_ = other.denom_;
  for (std::size_t s = 0; s < kFlowStageCount; ++s) {
    hits_[s].store(other.hits_[s].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  return *this;
}

bool FaultInjector::should_fail(FlowStage stage) {
  const int hit =
      hits_[static_cast<std::size_t>(stage)].fetch_add(
          1, std::memory_order_relaxed) +
      1;
  if (randomized_) {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    return rng_.chance(numer_, denom_);
  }
  return stage == target_ && hit == target_hit_;
}

FaultScope::FaultScope(FaultInjector& injector) : previous_(g_injector) {
  g_injector = &injector;
}

FaultScope::~FaultScope() { g_injector = previous_; }

namespace detail {

void fault_probe(FlowStage stage) {
  if (g_injector != nullptr && g_injector->should_fail(stage)) {
    throw GuardError(
        ErrorCode::kFaultInjected, stage,
        format("injected fault at %s probe", flow_stage_name(stage)));
  }
}

}  // namespace detail
}  // namespace soidom
