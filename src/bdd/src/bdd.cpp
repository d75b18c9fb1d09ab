#include "soidom/bdd/bdd.hpp"

#include <cmath>
#include <unordered_map>

#include "soidom/base/strings.hpp"
#include "soidom/guard/guard.hpp"

namespace soidom {
namespace {

/// ITE computed table bounds: 16 KiB to 32 MiB; powers of two for masking.
constexpr std::size_t kCacheMinEntries = 1u << 10;
constexpr std::size_t kCacheMaxEntries = 1u << 21;

}  // namespace

BddManager::BddManager(unsigned num_vars, std::size_t node_limit)
    : num_vars_(num_vars), node_limit_(node_limit), cache_(kCacheMinEntries) {
  // Terminals: var index num_vars_ sorts below every real variable.
  nodes_.push_back(Node{num_vars_, kFalse, kFalse});
  nodes_.push_back(Node{num_vars_, kTrue, kTrue});
}

BddManager::Ref BddManager::make_node(std::uint32_t v, Ref lo, Ref hi) {
  if (lo == hi) return lo;  // reduction rule
  const auto key_of = [&](Ref r) {
    const Node& n = nodes_[r];
    return Key3{n.var, n.lo, n.hi};
  };
  const auto add = [&] {
    if (nodes_.size() >= node_limit_) {
      throw GuardError(ErrorCode::kBddNodeLimit,
                       current_stage_or(FlowStage::kExact),
                       format("BDD node limit (%zu) exceeded", node_limit_));
    }
    guard_checkpoint();
    guard_charge(Resource::kBddNodes);
    nodes_.push_back(Node{v, lo, hi});
    if (nodes_.size() > cache_.size() && cache_.size() < kCacheMaxEntries) {
      // A memo only: dropping its entries makes ite recompute cofactors
      // of nodes that already exist, never create different ones.
      cache_.assign(2 * cache_.size(), CacheEntry{});
    }
    return static_cast<Ref>(nodes_.size() - 1);
  };
  return unique_.find_or_add(Key3{v, lo, hi}, key_of, add);
}

BddManager::Ref BddManager::var(unsigned v) {
  SOIDOM_ASSERT(v < num_vars_);
  return make_node(v, kFalse, kTrue);
}

BddManager::Ref BddManager::nvar(unsigned v) {
  SOIDOM_ASSERT(v < num_vars_);
  return make_node(v, kTrue, kFalse);
}

std::uint32_t BddManager::top_var(Ref f, Ref g, Ref h) const {
  std::uint32_t v = nodes_[f].var;
  v = std::min(v, nodes_[g].var);
  v = std::min(v, nodes_[h].var);
  return v;
}

BddManager::Ref BddManager::cofactor(Ref f, std::uint32_t v,
                                     bool positive) const {
  const Node& n = nodes_[f];
  if (n.var != v) return f;  // f does not depend on v at its top
  return positive ? n.hi : n.lo;
}

BddManager::Ref BddManager::ite(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const Key3 call{f, g, h};
  const std::uint64_t hash = call.hash();
  if (const CacheEntry& e = cache_[hash & (cache_.size() - 1)]; e.call == call) {
    return e.result;
  }

  const std::uint32_t v = top_var(f, g, h);
  const Ref hi = ite(cofactor(f, v, true), cofactor(g, v, true),
                     cofactor(h, v, true));
  const Ref lo = ite(cofactor(f, v, false), cofactor(g, v, false),
                     cofactor(h, v, false));
  const Ref result = make_node(v, lo, hi);
  // The recursion may have grown the table: index it afresh.
  cache_[hash & (cache_.size() - 1)] = CacheEntry{call, result};
  return result;
}

bool BddManager::eval(Ref f, const std::vector<bool>& values) const {
  SOIDOM_REQUIRE(values.size() == num_vars_, "BDD eval: wrong value count");
  while (f > kTrue) {
    const Node& n = nodes_[f];
    f = values[n.var] ? n.hi : n.lo;
  }
  return f == kTrue;
}

double BddManager::sat_count(Ref f) const {
  // Memoized count of assignments below each node, then scale by the
  // variables above the root.
  std::unordered_map<Ref, double> memo;
  auto count = [&](auto&& self, Ref r) -> double {
    if (r == kFalse) return 0.0;
    if (r == kTrue) return 1.0;
    if (const auto it = memo.find(r); it != memo.end()) return it->second;
    const Node& n = nodes_[r];
    auto below = [&](Ref child) {
      const std::uint32_t child_var = nodes_[child].var;
      const double skipped = static_cast<double>(child_var - n.var - 1);
      return self(self, child) * std::exp2(skipped);
    };
    const double c = below(n.lo) + below(n.hi);
    memo.emplace(r, c);
    return c;
  };
  const std::uint32_t root_var = nodes_[f].var;
  return count(count, f) * std::exp2(static_cast<double>(root_var));
}

std::optional<std::vector<bool>> BddManager::any_sat(Ref f) const {
  if (f == kFalse) return std::nullopt;
  std::vector<bool> values(num_vars_, false);
  while (f > kTrue) {
    const Node& n = nodes_[f];
    if (n.hi != kFalse) {
      values[n.var] = true;
      f = n.hi;
    } else {
      f = n.lo;
    }
  }
  return values;
}

}  // namespace soidom
