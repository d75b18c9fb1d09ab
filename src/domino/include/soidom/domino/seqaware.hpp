/// \file seqaware.hpp
/// Sequence-aware discharge pruning — the paper's section VII future-work
/// item, implemented: "breakdown will only occur for a particular sequence
/// of input logic values.  We have not taken this into account in our
/// algorithm, and incorporating this information could lead to better
/// solutions."
///
/// A discharge point J (a junction inside a gate's pulldown) can excite
/// the PBE only if BOTH of these gate-input conditions are satisfiable:
///
///   CHARGE(J): some input assignment conducts a path from the (high)
///              dynamic node down to J — otherwise J can never float high;
///   FIRE(J):   some assignment conducts a path from J to the pulldown
///              bottom while NO path from the dynamic node to J conducts —
///              otherwise J is only ever pulled low in evaluations where
///              the gate legitimately discharges anyway.
///
/// Both conditions are evaluated exactly with BDDs over the gate's input
/// signals.  Treating the gate inputs as independent variables
/// over-approximates reachability (correlated inputs can only remove
/// assignments), so pruning only points with an UNSATISFIABLE condition is
/// sound: every pruned point is unexcitable no matter what drives the
/// gate.
///
/// The proof tier (prove/src/prove.cpp) reuses PdnConditions with each
/// leaf replaced by its fanin-cone function over the source primary
/// inputs (prove/cone.hpp), which removes the independence assumption.
#pragma once

#include <functional>
#include <vector>

#include "soidom/bdd/bdd.hpp"
#include "soidom/domino/netlist.hpp"

namespace soidom {

/// The CHARGE/FIRE predicates of one pulldown as BDDs.  Construction
/// builds, per pulldown node, its conduction (all leaves, and PI-literal
/// leaves only) and its context: conduction from the dynamic node to the
/// node's top, and from the node's bottom to the pulldown bottom.  Each
/// leaf maps through `leaf(signal)`.  `manager` and `pdn` must outlive the
/// object.
class PdnConditions {
 public:
  using Leaf = std::function<BddManager::Ref(std::uint32_t)>;

  PdnConditions(BddManager& manager, const DominoNetlist& netlist,
                const Pdn& pdn, const Leaf& leaf);

  /// Conduction from the dynamic node to the pulldown bottom through
  /// PI-literal leaves only: what can charge the bottom during precharge,
  /// when the outputs of other domino gates are low.
  BddManager::Ref bottom_charge() const { return conduct_lit_[pdn_.root()]; }

  /// CHARGE of a junction point (not the bottom).
  BddManager::Ref charge(const DischargePoint& point) const;

  /// FIRE of a junction point; `charge` must be charge(point).
  BddManager::Ref fire(const DischargePoint& point,
                       BddManager::Ref charge) const;

 private:
  void build_conduct(PdnIndex i, const DominoNetlist& netlist,
                     const Leaf& leaf);
  void build_context(PdnIndex i);
  /// The series node holding junction `point`.
  const PdnNode& junction_series(const DischargePoint& point) const;
  /// AND of the conduction of `series` children [from, to).
  BddManager::Ref conj(const PdnNode& series, std::size_t from,
                       std::size_t to) const;

  BddManager& manager_;
  const Pdn& pdn_;
  std::vector<BddManager::Ref> conduct_;      ///< subtree conducts
  std::vector<BddManager::Ref> conduct_lit_;  ///< ... via literal leaves only
  std::vector<BddManager::Ref> ctx_;          ///< dynamic node to node top
  std::vector<BddManager::Ref> ext_;  ///< node bottom to pulldown bottom
};

struct SeqAwareStats {
  int points_before = 0;
  int points_pruned = 0;
  int points_after() const { return points_before - points_pruned; }
};

/// Removes discharge transistors whose PBE-exciting condition is
/// unsatisfiable.  Call after discharges are in place (any flow variant).
SeqAwareStats prune_unexcitable_discharges(DominoNetlist& netlist);

/// Point query: can `point` inside the given pulldown ever be excited?
/// `footed` is the pulldown's own foot flag (for dual gates pass the
/// matching pdn/footed pair).  Used by the `pbe-protection` lint rule to
/// accept netlists whose unexcitable points were pruned.  (Builds the
/// pulldown's conditions per call; fine for occasional verification, use
/// prune_unexcitable_discharges for bulk work.)
bool discharge_point_excitable(const DominoNetlist& netlist, const Pdn& pdn,
                               bool footed, const DischargePoint& point);

}  // namespace soidom
