/// \file netlist.hpp
/// Transistor-level domino netlists: the mapper's output representation.
///
/// A DominoNetlist is an ordered list of domino gates.  Each gate owns a
/// pulldown-network tree (pdn/pdn.hpp) whose leaf signals reference either
/// netlist inputs (unate PI literals) or outputs of earlier gates; gate
/// order is therefore topological by construction.
///
/// Per-gate fixed transistors (paper, section IV):
///   precharge pMOS + 2 output-inverter transistors + keeper  = 4
///   n-clock foot transistor when the pulldown contains any leaf driven by
///   a primary input (footed domino)                          = +1
/// Discharge pMOS transistors attach to PBE discharge points and are
/// tracked separately so the paper's T_logic / T_disch split is exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "soidom/pdn/analyze.hpp"
#include "soidom/pdn/pdn.hpp"
#include "soidom/sim/sim.hpp"

namespace soidom {

/// Fixed per-gate transistor overhead beyond the pulldown network.
inline constexpr int kGateOverheadFootless = 4;  ///< precharge+inverter(2)+keeper
inline constexpr int kGateOverheadFooted = 5;    ///< ... plus n-clock foot
/// Dual-pulldown (complex domino, paper's solution 7) overhead: two
/// precharge pMOS + static NAND2 (4) + two keepers; feet are extra.
inline constexpr int kGateOverheadDual = 8;

/// How the bottom terminal of a gate's pulldown network is treated by the
/// PBE analysis (DESIGN.md section 2, clarification 3).
enum class GroundingPolicy : std::uint8_t {
  kFootlessGrounded,  ///< footless gates grounded, footed gates not (default)
  kAllGrounded,       ///< optimistic: every gate bottom counts as grounded
  kNoneGrounded,      ///< pessimistic: no gate bottom counts as grounded
};

/// One mapped domino gate.
///
/// A classic gate has one pulldown (`pdn`) and an output inverter.  A
/// *complex* gate (the paper's solution 7, section III-C) has a second
/// pulldown (`pdn2` non-empty) and a static NAND2 in place of the
/// inverter: each pulldown precharges its own dynamic node, and
/// NAND(dynA, dynB) = fA OR fB — a wide OR realized without a wide
/// parallel stack, with each stack bottom separately grounded.
struct DominoGate {
  Pdn pdn;
  Pdn pdn2;  ///< empty for classic gates
  bool footed = false;   ///< pdn contains primary-input literals
  bool footed2 = false;  ///< pdn2 contains primary-input literals
  /// Clock-driven pMOS discharge transistors protecting PBE points.
  std::vector<DischargePoint> discharges;
  std::vector<DischargePoint> discharges2;  ///< points inside pdn2

  bool dual() const { return !pdn2.empty(); }

  /// Pulldowns + fixed overhead; excludes discharge transistors.
  int logic_transistors() const {
    if (dual()) {
      return pdn.transistor_count() + pdn2.transistor_count() +
             kGateOverheadDual + (footed ? 1 : 0) + (footed2 ? 1 : 0);
    }
    return pdn.transistor_count() +
           (footed ? kGateOverheadFooted : kGateOverheadFootless);
  }
  /// Transistors on the clock network: precharges, feet, discharges.
  int clock_transistors() const {
    const int precharges = dual() ? 2 : 1;
    return precharges + (footed ? 1 : 0) + (dual() && footed2 ? 1 : 0) +
           static_cast<int>(discharges.size() + discharges2.size());
  }
  /// Calls `fn(signal)` for every input signal: pdn's leaves, then
  /// pdn2's (Pdn::for_each_leaf order; a classic gate's pdn2 is empty).
  template <typename Fn>
  void for_each_leaf(Fn&& fn) const {
    pdn.for_each_leaf(fn);
    pdn2.for_each_leaf(fn);
  }
  /// All input signals, both pulldowns, in for_each_leaf order.
  std::vector<std::uint32_t> all_leaf_signals() const {
    std::vector<std::uint32_t> out;
    for_each_leaf([&](std::uint32_t signal) { out.push_back(signal); });
    return out;
  }
};

/// A netlist input: one phase of an original primary input.
struct InputLiteral {
  std::string name;
  int source_pi = -1;    ///< index of the original primary input
  bool negated = false;  ///< true for the complemented phase
};

/// A netlist output.
struct DominoOutput {
  std::uint32_t signal = 0;  ///< see DominoNetlist signal encoding
  std::string name;
  bool inverted = false;  ///< PO phase assignment from unate conversion
  /// -1 for a driven output; 0/1 when the output is a tied constant (the
  /// `signal` field is then ignored).
  int constant = -1;
};

/// Signal encoding: values [0, num_inputs()) are input literals; value
/// num_inputs()+g is the output of gate g.
class DominoNetlist {
 public:
  // --- construction (used by the mapper) ---------------------------------
  std::uint32_t add_input(InputLiteral literal);
  /// Returns the gate's output signal id.
  std::uint32_t add_gate(DominoGate gate);
  void add_output(DominoOutput output);

  // --- structure ----------------------------------------------------------
  std::size_t num_inputs() const { return inputs_.size(); }
  const std::vector<InputLiteral>& inputs() const { return inputs_; }
  const std::vector<DominoGate>& gates() const { return gates_; }
  std::vector<DominoGate>& gates() { return gates_; }
  const std::vector<DominoOutput>& outputs() const { return outputs_; }

  bool is_input_signal(std::uint32_t signal) const {
    return signal < inputs_.size();
  }
  std::uint32_t gate_of_signal(std::uint32_t signal) const {
    SOIDOM_ASSERT(!is_input_signal(signal));
    return signal - static_cast<std::uint32_t>(inputs_.size());
  }
  std::uint32_t signal_of_gate(std::uint32_t gate) const {
    return static_cast<std::uint32_t>(inputs_.size()) + gate;
  }

  /// Number of distinct original primary inputs referenced.
  std::size_t num_source_pis() const;

  /// Gate level (1 = fed only by inputs).  Size = gates().size().
  std::vector<int> gate_levels() const;

  /// 64-way bit-parallel evaluation from ORIGINAL primary-input words
  /// (literal phases and PO inversions applied internally), directly
  /// comparable with simulate_outputs() on the source network.  Each
  /// pulldown is folded once over whole words (Pdn::fold: series = AND,
  /// parallel = OR), so bit k of every result word is input pattern k.
  std::vector<SimWord> simulate(const std::vector<SimWord>& source_pi_words) const;

  /// Human-readable dump.
  std::string dump() const;

 private:
  std::vector<InputLiteral> inputs_;
  std::vector<DominoGate> gates_;
  std::vector<DominoOutput> outputs_;
};

}  // namespace soidom
