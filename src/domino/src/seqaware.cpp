#include "soidom/domino/seqaware.hpp"

#include <unordered_map>
#include <vector>

#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"

namespace soidom {

PdnConditions::PdnConditions(BddManager& manager, const DominoNetlist& netlist,
                             const Pdn& pdn, const Leaf& leaf)
    : manager_(manager), pdn_(pdn) {
  conduct_.assign(pdn.pool_size(), BddManager::kFalse);
  conduct_lit_.assign(pdn.pool_size(), BddManager::kFalse);
  ctx_.assign(pdn.pool_size(), BddManager::kFalse);
  ext_.assign(pdn.pool_size(), BddManager::kFalse);
  build_conduct(pdn.root(), netlist, leaf);
  ctx_[pdn.root()] = BddManager::kTrue;
  ext_[pdn.root()] = BddManager::kTrue;
  build_context(pdn.root());
}

const PdnNode& PdnConditions::junction_series(
    const DischargePoint& point) const {
  const PdnNode& s = pdn_.node(point.series_node);
  SOIDOM_ASSERT(s.kind == PdnKind::kSeries &&
                point.pos + 1 < s.children.size());
  return s;
}

BddManager::Ref PdnConditions::conj(const PdnNode& series, std::size_t from,
                                    std::size_t to) const {
  auto acc = BddManager::kTrue;
  for (std::size_t k = from; k < to; ++k) {
    acc = manager_.apply_and(acc, conduct_[series.children[k]]);
  }
  return acc;
}

BddManager::Ref PdnConditions::charge(const DischargePoint& point) const {
  const PdnNode& s = junction_series(point);
  return manager_.apply_and(ctx_[point.series_node], conj(s, 0, point.pos + 1));
}

BddManager::Ref PdnConditions::fire(const DischargePoint& point,
                                    BddManager::Ref charge) const {
  const PdnNode& s = junction_series(point);
  const auto below = manager_.apply_and(
      conj(s, point.pos + 1, s.children.size()), ext_[point.series_node]);
  return manager_.apply_and(below, manager_.negate(charge));
}

void PdnConditions::build_conduct(PdnIndex i, const DominoNetlist& netlist,
                                  const Leaf& leaf) {
  const PdnNode& n = pdn_.node(i);
  switch (n.kind) {
    case PdnKind::kLeaf:
      conduct_[i] = leaf(n.signal);
      conduct_lit_[i] = netlist.is_input_signal(n.signal) ? conduct_[i]
                                                          : BddManager::kFalse;
      break;
    case PdnKind::kSeries: {
      auto all = BddManager::kTrue;
      auto all_lit = BddManager::kTrue;
      for (const PdnIndex c : n.children) {
        build_conduct(c, netlist, leaf);
        all = manager_.apply_and(all, conduct_[c]);
        all_lit = manager_.apply_and(all_lit, conduct_lit_[c]);
      }
      conduct_[i] = all;
      conduct_lit_[i] = all_lit;
      break;
    }
    case PdnKind::kParallel: {
      auto any = BddManager::kFalse;
      auto any_lit = BddManager::kFalse;
      for (const PdnIndex c : n.children) {
        build_conduct(c, netlist, leaf);
        any = manager_.apply_or(any, conduct_[c]);
        any_lit = manager_.apply_or(any_lit, conduct_lit_[c]);
      }
      conduct_[i] = any;
      conduct_lit_[i] = any_lit;
      break;
    }
  }
}

void PdnConditions::build_context(PdnIndex i) {
  const PdnNode& n = pdn_.node(i);
  if (n.kind == PdnKind::kLeaf) return;
  if (n.kind == PdnKind::kParallel) {
    for (const PdnIndex c : n.children) {
      ctx_[c] = ctx_[i];
      ext_[c] = ext_[i];
      build_context(c);
    }
    return;
  }
  // Series: child k's top is reached through children [0, k); its bottom
  // exits through children (k, end) and then the series node's own exit.
  auto prefix = ctx_[i];
  for (std::size_t k = 0; k < n.children.size(); ++k) {
    ctx_[n.children[k]] = prefix;
    prefix = manager_.apply_and(prefix, conduct_[n.children[k]]);
  }
  auto suffix = ext_[i];
  for (std::size_t k = n.children.size(); k-- > 0;) {
    ext_[n.children[k]] = suffix;
    suffix = manager_.apply_and(suffix, conduct_[n.children[k]]);
  }
  for (const PdnIndex c : n.children) build_context(c);
}

namespace {

/// Can the PBE at `point` ever be excited?  (See seqaware.hpp.)
bool excitable(const PdnConditions& conditions, bool footed,
               const DischargePoint& point) {
  if (point.at_bottom()) {
    // The pulldown bottom can only float high during precharge of a
    // footed gate, charged through primary-input literals (outputs of
    // other domino gates are low in precharge).
    return footed && conditions.bottom_charge() != BddManager::kFalse;
  }
  const auto charge = conditions.charge(point);
  return charge != BddManager::kFalse &&
         conditions.fire(point, charge) != BddManager::kFalse;
}

/// Calls `use` with the conditions of `pdn` over independent variables:
/// one BDD variable per distinct leaf signal, in first-occurrence order.
template <typename Use>
auto with_signal_conditions(const DominoNetlist& netlist, const Pdn& pdn,
                            Use&& use) {
  std::unordered_map<std::uint32_t, unsigned> var_of;
  pdn.for_each_leaf([&](std::uint32_t sig) {
    var_of.try_emplace(sig, static_cast<unsigned>(var_of.size()));
  });
  BddManager manager(static_cast<unsigned>(var_of.size()),
                     /*node_limit=*/1u << 20);
  const PdnConditions conditions(
      manager, netlist, pdn,
      [&](std::uint32_t sig) { return manager.var(var_of.at(sig)); });
  return use(conditions);
}

}  // namespace

bool discharge_point_excitable(const DominoNetlist& netlist, const Pdn& pdn,
                               bool footed, const DischargePoint& point) {
  return with_signal_conditions(
      netlist, pdn, [&](const PdnConditions& conditions) {
        return excitable(conditions, footed, point);
      });
}

SeqAwareStats prune_unexcitable_discharges(DominoNetlist& netlist) {
  StageScope stage(FlowStage::kSeqAware);
  SOIDOM_FAULT_PROBE(FlowStage::kSeqAware);
  SeqAwareStats stats;
  auto prune_pdn = [&](const Pdn& pdn, bool footed,
                       std::vector<DischargePoint>& discharges) {
    stats.points_before += static_cast<int>(discharges.size());
    if (discharges.empty()) return;
    const auto removed = with_signal_conditions(
        netlist, pdn, [&](const PdnConditions& conditions) {
          return std::erase_if(discharges, [&](const DischargePoint& point) {
            return !excitable(conditions, footed, point);
          });
        });
    stats.points_pruned += static_cast<int>(removed);
  };
  for (DominoGate& gate : netlist.gates()) {
    guard_checkpoint();
    prune_pdn(gate.pdn, gate.footed, gate.discharges);
    if (gate.dual()) prune_pdn(gate.pdn2, gate.footed2, gate.discharges2);
  }
  return stats;
}

}  // namespace soidom
