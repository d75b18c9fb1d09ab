/// \file options.hpp
/// Configuration of the dynamic-programming technology mapper.
#pragma once

#include <cstdint>

#include "soidom/domino/netlist.hpp"
#include "soidom/pdn/analyze.hpp"

namespace soidom {

/// Which mapping algorithm to run.
enum class MappingEngine : std::uint8_t {
  /// The bulk-CMOS mapper of Zhao & Sapatnekar (ICCAD'98): PBE-blind; the
  /// caller adds discharge transistors with insert_discharges() (and
  /// optionally rearrange_stacks() for the paper's RS_Map variant).
  kDominoMap,
  /// The paper's SOI_Domino_Map: discharge transistors are part of the DP
  /// cost, stack ordering and gate formation are PBE-aware.
  kSoiDominoMap,
};

/// Primary optimization objective.
enum class CostObjective : std::uint8_t {
  kArea,   ///< weighted transistor count
  kDepth,  ///< domino-gate levels first, transistor count second
};

struct MapperOptions {
  /// Pulldown shape limits; the paper evaluates with W<=5, H<=8.
  int max_width = 5;
  int max_height = 8;

  MappingEngine engine = MappingEngine::kSoiDominoMap;
  CostObjective objective = CostObjective::kArea;

  /// Cost multiplier k for clock-connected transistors (precharge, foot,
  /// discharge) — Table III's experiment.  1.0 = plain transistor count.
  double clock_weight = 1.0;

  /// Default kAllGrounded: the clocked foot transistor conducts in every
  /// evaluate phase, discharging the node above it each cycle, so a footed
  /// gate's pulldown bottom is as safe as a direct ground connection.
  /// This matches the paper's reasoning (its transformation 4 reorders
  /// stacks inside clocked gates and declares the PBE impossible) and is
  /// required to reproduce its tables; the stricter policies are ablations.
  GroundingPolicy grounding = GroundingPolicy::kAllGrounded;
  PendingModel pending_model = PendingModel::kCoherent;

  /// true: try both operand orders in every series combination (subsumes
  /// the paper's par_b / p_dis placement heuristic); false: apply the
  /// paper's heuristic only (ablation).
  bool exhaustive_ordering = true;

  /// Max Pareto candidates retained per {W,H} shape (quality/memory knob).
  int beam_width = 4;

  /// Allow complex domino gates (the paper's solution 7): at OR nodes the
  /// gate may be formed from TWO pulldowns combined by a static NAND2
  /// instead of one pulldown and an inverter, splitting wide parallel
  /// trees (effective width up to 2 x max_width) with each stack bottom
  /// separately grounded.  Off by default to match the paper's tables.
  bool enable_complex_gates = false;

  /// Nodes with fanout > 1 always form gates, each billed once at its own
  /// root.  When false (ablation), the DP may instead duplicate such cones
  /// into each fanout, so a shared cone's cost is billed once per path:
  /// the duplicated logic is real, and costs can grow exponentially with
  /// reconvergent depth.
  bool gate_at_fanout = true;

  /// Unused: the DP is one serial pass, and the mapper neither reads nor
  /// validates this field.  It remains only because the perfbench
  /// workloads still set it; it goes with their next revision.
  int num_threads = 0;
};

/// Validate every knob up front; throws soidom::Error with a message
/// naming the offending field and its value (so bad knobs never surface
/// as deep DP assertions).  Called by map_to_domino and validate(FlowOptions).
void validate(const MapperOptions& options);

}  // namespace soidom
