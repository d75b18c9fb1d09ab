/// \file mapper.hpp
/// The dynamic-programming technology mapper (paper sections IV and V).
///
/// The mapper consumes a unate 2-input AND/OR network (unate/unate.hpp)
/// and produces a transistor-level DominoNetlist.  Every network node owns
/// a set of *tuples*: partial pulldown structures keyed by shape {W,H}
/// (paper: width/height of the pulldown network), each carrying
///
///   committed  — weighted cost already spent (logic transistors, gate
///                overheads of absorbed sub-gates, committed discharge
///                transistors),
///   p_bot      — pending discharge points owned by the structure's bottom
///                parallel stack (commit when the bottom leaves ground),
///   p_above    — pending series junctions higher up (commit only in an
///                unfavourable OR/stacking context),
///   par_b      — whether the bottom of the structure is a parallel stack,
///   has_pi     — whether any leaf is a primary-input literal (footedness),
///   level      — domino-gate depth for the kDepth objective.
///
/// combine_or / combine_and implement the paper's tuple algebra with the
/// PBE bookkeeping of DESIGN.md section 2; per shape a small Pareto set is
/// retained (the paper's "two costs per tuple" generalized).  Forming a
/// gate ({1,1} tuple) resolves pending points against the gate's grounding
/// and adds the domino overhead (+4, or +5 when footed).
#pragma once

#include <cstdint>
#include <vector>

#include "soidom/domino/netlist.hpp"
#include "soidom/mapper/options.hpp"
#include "soidom/network/network.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {

/// Cost bookkeeping uses fixed-point "centi-transistor" units so that
/// fractional clock weights stay exact in integer arithmetic.
inline constexpr std::int64_t kCostUnitsPerTransistor = 100;

/// One DP tuple, exposed for tests / the worked-example benchmark.
struct TupleInfo {
  int width = 0;
  int height = 0;
  std::int64_t committed = 0;  ///< centi-transistor units
  int p_bot = 0;
  int p_above = 0;
  bool par_b = false;
  bool has_pi = false;
  int level = 0;
  int disch_committed = 0;  ///< committed discharge transistor count

  /// Total pending discharge points.
  int p_dis() const { return p_bot + p_above; }
  /// committed in whole transistors (exact when clock_weight == 1).
  std::int64_t cost_transistors() const {
    return committed / kCostUnitsPerTransistor;
  }
};

/// Mapper output.
struct MappingResult {
  DominoNetlist netlist;
  /// Gates whose realized PBE-analysis discharge count differed from the
  /// DP prediction (must be 0; exported for property tests).
  int dp_analyzer_mismatches = 0;
  /// DP-predicted weighted cost of the whole implementation.
  std::int64_t predicted_cost = 0;

  // --- DP effort counters (perfbench's mapper.* metrics) ---------------
  /// Raw candidates examined before Pareto pruning.
  std::size_t candidates_examined = 0;
  /// Candidates retained across all per-node survivor sets and leaves
  /// (peak == final: survivor sets only grow).
  std::size_t candidates_retained = 0;
  /// Distinct topological levels among mapped nodes (depth of the DP).
  int dp_levels = 0;
  /// Always 0: the DP is one serial pass with no scheduler tasks.  Kept
  /// only because perfbench still reports it as `mapper.dp_tasks`.
  int dp_tasks = 0;
  /// Always 1, for the same reason (`mapper.threads_used`).
  int threads_used = 1;
};

/// Run the mapper.  Throws soidom::Error when the unate network is not
/// inverter-free or the shape limits are infeasible (max_height < 2).
MappingResult map_to_domino(const UnateResult& unate,
                            const MapperOptions& options = {});

/// Introspection interface used by unit tests and the Fig. 3 worked
/// example: runs the DP only and exposes per-node tuple sets.
class TupleOracle {
 public:
  TupleOracle(const UnateResult& unate, const MapperOptions& options);
  ~TupleOracle();
  TupleOracle(const TupleOracle&) = delete;
  TupleOracle& operator=(const TupleOracle&) = delete;

  /// All surviving tuples of `node` (AND/OR nodes only), including the
  /// formed-gate tuple, sorted by (W, H, committed).
  std::vector<TupleInfo> tuples_of(NodeId node) const;

  /// The formed-gate ({1,1}) cost of `node` in centi-transistor units.
  std::int64_t gate_cost_of(NodeId node) const;

  /// Realize the full netlist from this oracle's DP state.  The result is
  /// memoized: repeated calls return the identical MappingResult (no
  /// silent empty netlist on re-entry), and tuples_of/gate_cost_of remain
  /// valid after mapping.
  MappingResult map() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace soidom
