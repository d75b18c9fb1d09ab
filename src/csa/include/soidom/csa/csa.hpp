/// \file csa.hpp
/// Charge-sharing & PBE-safety static analysis (CSA) of mapped domino
/// netlists.
///
/// For every gate the analyzer builds the same electrical pulldown model
/// the SOI simulator uses (node 0 = dynamic node, node 1 = bottom
/// terminal, nodes 2+ = series junctions in pulldown-tree walk order),
/// assigns each node a capacitance from the charge model and the sizing
/// pass's device widths (docs/DEVICE_MODEL.md), then enumerates the
/// gate's electrical states symbolically: every combination of input
/// values and internal-node precharge states, 64 states to a machine
/// word (one state per bit lane).  Per state it computes the
/// worst-case dynamic-node voltage droop from
///
///   * charge sharing — the precharged dynamic node redistributes onto
///     every connected precharge-low internal node, and
///   * parasitic bipolar injection — every OFF device whose below node
///     is precharged high and not tied to a discharge pMOS may fire
///     (soisim's firing condition, over-approximated).
///
/// The per-gate bound is *conservative by construction*: for every
/// reachable simulator state there is an enumerated state whose
/// conduction graph is a superset, whose shared capacitance is no
/// smaller, and whose firing count is no smaller, so the static droop
/// dominates anything soisim's enable_droop() ever observes (the
/// tests/test_csa.cpp fuzz oracle asserts exactly this).  When the state
/// space exceeds CsaOptions::max_states the analyzer degrades to a
/// pointwise-max fallback that is still conservative (all junctions
/// shared, all eligible devices firing) and flags the gate as truncated.
///
/// Findings are reported in the lint report format as the `csa.*` rule
/// family (docs/LINT.md): `csa.pbe-discharge` (error) when parasitic
/// paths can overpower the keeper, `csa.droop-margin` (warning) when the
/// droop bound crosses the noise margin, `csa.state-explosion` (info)
/// for truncated gates.  Reports render as JSON and SARIF 2.1.0; waivers
/// use the lint engine's `rule@location` syntax.
///
/// Layering: csa sits above lint/sizing/pdn/domino and below core/flow
/// (run_flow drives it as FlowStage::kCsa when FlowOptions::csa is set).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "soidom/domino/netlist.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/sizing/sizing.hpp"

namespace soidom {

/// Lumped-element charge model (docs/DEVICE_MODEL.md, "Charge model").
/// All capacitances are in units of the gate capacitance of a
/// reference-width nMOS; voltages in volts; charge in cap-units x volts.
struct ChargeModel {
  double vdd = 1.0;             ///< supply voltage
  double c_dyn_fixed = 4.0;     ///< dynamic node: precharge + keeper +
                                ///< inverter input, excl. diffusion
  double c_junction_fixed = 0.2;  ///< wiring floor of an internal junction
  double c_diffusion = 0.5;     ///< source/drain diffusion per unit width
  double q_pbe = 0.25;          ///< charge one firing parasitic device
                                ///< injects (cap-units x volts)
};

/// Electrical node numbering shared with soisim's internal gate model.
inline constexpr std::uint16_t kCsaDynamicNode = 0;
inline constexpr std::uint16_t kCsaBottomNode = 1;

/// One pulldown nMOS between two electrical nodes.
struct CsaDevice {
  std::uint32_t signal = 0;  ///< netlist signal driving the gate terminal
  std::uint16_t above = 0;   ///< node toward the dynamic node
  std::uint16_t below = 0;   ///< node toward ground
};

/// Flattened electrical model of one pulldown network.  Devices appear in
/// Pdn::leaf_signals() order, so sizing's pulldown_widths align by index.
struct CsaPdnModel {
  int num_nodes = 2;  ///< dynamic + bottom + series junctions
  std::vector<CsaDevice> devices;
  std::vector<std::uint16_t> discharged;  ///< nodes with a p-discharge
  bool footed = false;
};

/// Build the electrical model of `pdn`.  Node numbering is identical to
/// soisim's (junctions allocated in series-walk order), so DroopProbe
/// capacitance vectors built from this model line up with the simulator.
/// Requires a non-empty pdn; discharge points must name junctions of it.
CsaPdnModel build_csa_model(const Pdn& pdn,
                            const std::vector<DischargePoint>& discharges,
                            bool footed);

/// Per-node capacitance: fixed part (c_dyn_fixed for node 0,
/// c_junction_fixed otherwise) plus c_diffusion x width for every device
/// terminal on the node.  `device_widths` has one entry per model device.
std::vector<double> csa_node_caps(const CsaPdnModel& model,
                                  const std::vector<double>& device_widths,
                                  const ChargeModel& charge);

/// Analyzer knobs.
struct CsaOptions {
  ChargeModel charge;
  /// Noise margin as a fraction of vdd: a droop bound at or above
  /// margin * vdd raises `csa.droop-margin`.
  double margin = 0.25;
  /// Keeper strength in firing-device units (mirrors SoiSimConfig): a
  /// parasitic-only path discharges the gate only when at least this
  /// many devices fire together.
  int keeper_strength = 1;
  /// State-enumeration ceiling per pulldown; gates needing more states
  /// fall back to the (coarser, still conservative) pointwise-max bound.
  long max_states = 4096;
  /// Derive device widths with sizing/sizing.hpp (default); otherwise
  /// every device gets unit width.
  bool use_sizing = true;
  SizingOptions sizing;
  /// Lint waivers applied to csa.* findings ("rule" or "rule@substring").
  std::vector<std::string> waivers;
};

/// Conservative bound for one pulldown network.
struct CsaPulldownBound {
  /// Worst-case dynamic-node droop in volts (may exceed vdd when the
  /// injected parasitic charge dominates; vdd at minimum on a possible
  /// parasitic flip).
  double droop = 0.0;
  double share_cap = 0.0;  ///< shared precharge-low capacitance, worst state
  int firings = 0;         ///< injecting devices counted in the worst state
  /// Some enumerated state conducts from the dynamic node to the bottom
  /// terminal through ON or parasitic devices.
  bool ground_reachable = false;
  /// A parasitic-only discharge path can fire >= keeper_strength devices
  /// with ground reachable: the keeper can lose and the gate can flip.
  bool keeper_overpowered = false;
  bool truncated = false;  ///< fallback bound (state space > max_states)
  long states = 0;         ///< states enumerated (0 when truncated)
  /// Witness of the worst state: "in=<bits> pre=<bits>" (inputs over the
  /// pulldown's distinct signals in ascending id order; precharge bits
  /// over free internal nodes in ascending node order).
  std::string worst_state;
};

/// Compute the bound for one pulldown model (exposed for tests and the
/// conservativeness oracle).  `caps` is csa_node_caps() for the model.
CsaPulldownBound bound_pulldown(const CsaPdnModel& model,
                                const std::vector<double>& caps,
                                const CsaOptions& options);

/// The distinct input signals of `model`, ascending — bit i of an
/// enumerated state's "in=" witness refers to csa_state_signals()[i].
std::vector<std::uint32_t> csa_state_signals(const CsaPdnModel& model);

/// The free internal nodes of `model` (>= 2, no discharge pMOS),
/// ascending — bit i of a state's "pre=" witness refers to
/// csa_free_nodes()[i].
std::vector<std::uint16_t> csa_free_nodes(const CsaPdnModel& model);

/// Flood from the dynamic node, 64 independent conduction graphs at once:
/// lane j of `edge[t]` says whether device t conducts in graph j.  On
/// return lane j of `member[v]` says whether node v is connected to the
/// dynamic node in graph j.  When `clamp_bottom`, the bottom terminal is
/// never entered (member[kCsaBottomNode] stays 0); otherwise it is a
/// regular node.  Returns the lanes in which the bottom terminal is
/// reached.  `edge` has one word per model device.
std::uint64_t csa_flood_words(const CsaPdnModel& model,
                              const std::vector<std::uint64_t>& edge,
                              bool clamp_bottom,
                              std::vector<std::uint64_t>& member);

/// Hooks into the state enumeration, used by the exact proof tier
/// (src/prove) to restrict the bound to reachable input assignments and
/// to pick replayable witness states.  Both hooks are optional.
struct CsaStateCallbacks {
  /// Called once per enumerated input assignment, in ascending state
  /// order (before its precharge states are expanded); return false to
  /// exclude the assignment — and every precharge state over it — from
  /// the bound.  `inputs[i]` is the value of csa_state_signals()[i].
  std::function<bool(const std::vector<bool>& inputs)> admit;
  /// Called for every admitted, non-legit-discharge state, in ascending
  /// state order, with its droop contribution.  `precharge[i]` is the
  /// value of csa_free_nodes()[i].
  std::function<void(const std::vector<bool>& inputs,
                     const std::vector<bool>& precharge, double droop,
                     double share_cap, int firings, bool flip)>
      visit;
};

/// bound_pulldown with enumeration hooks.  With empty callbacks this is
/// exactly the plain overload (which forwards here).  The truncation
/// fallback ignores the callbacks — a truncated bound is not refined,
/// only re-derived — and reports itself via CsaPulldownBound::truncated.
CsaPulldownBound bound_pulldown(const CsaPdnModel& model,
                                const std::vector<double>& caps,
                                const CsaOptions& options,
                                const CsaStateCallbacks& callbacks);

/// Per-gate analysis result.
struct CsaGateReport {
  int gate = -1;
  bool dual = false;
  CsaPulldownBound pd1;
  CsaPulldownBound pd2;  ///< dual gates only

  double droop() const { return std::max(pd1.droop, pd2.droop); }
  bool keeper_overpowered() const {
    return pd1.keeper_overpowered || pd2.keeper_overpowered;
  }
  bool truncated() const { return pd1.truncated || pd2.truncated; }
};

/// Machine-readable droop report for the whole netlist.
struct CsaReport {
  std::vector<CsaGateReport> gates;
  // Echoed analysis parameters.
  double vdd = 1.0;
  double margin = 0.25;
  int keeper_strength = 1;
  long max_states = 4096;
  // Aggregates.
  double max_droop = 0.0;
  int gates_over_margin = 0;
  int gates_keeper_overpowered = 0;
  int gates_truncated = 0;

  /// {"vdd":...,"gates":[{"gate":0,"droop":...,...}],...}
  std::string to_json() const;
};

/// Analysis outcome: the droop report plus csa.* findings as a
/// LintReport (text / JSON / SARIF emitters apply).
struct CsaResult {
  CsaReport report;
  LintReport lint;
};

/// Run the analyzer over a structurally valid netlist, one gate after
/// another on the calling thread.  Thread-compatible (concurrent calls on
/// distinct netlists are safe); checkpoints the installed guard under
/// FlowStage::kCsa once per gate.
CsaResult run_csa(const DominoNetlist& netlist, const CsaOptions& options = {});

}  // namespace soidom
