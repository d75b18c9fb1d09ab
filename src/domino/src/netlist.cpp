#include "soidom/domino/netlist.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace soidom {

std::uint32_t DominoNetlist::add_input(InputLiteral literal) {
  // The signal encoding (inputs first, then gates) requires the input
  // count to be final before the first gate is added.
  SOIDOM_ASSERT_MSG(gates_.empty(),
                    "all inputs must be added before the first gate");
  inputs_.push_back(std::move(literal));
  return static_cast<std::uint32_t>(inputs_.size() - 1);
}

std::uint32_t DominoNetlist::add_gate(DominoGate gate) {
  SOIDOM_ASSERT_MSG(!gate.pdn.empty(), "gate with empty pulldown network");
  gates_.push_back(std::move(gate));
  return signal_of_gate(static_cast<std::uint32_t>(gates_.size() - 1));
}

void DominoNetlist::add_output(DominoOutput output) {
  outputs_.push_back(std::move(output));
}

std::size_t DominoNetlist::num_source_pis() const {
  std::set<int> pis;
  for (const InputLiteral& in : inputs_) pis.insert(in.source_pi);
  return pis.size();
}

std::vector<int> DominoNetlist::gate_levels() const {
  std::vector<int> level(gates_.size(), 1);
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    int lv = 1;
    gates_[g].for_each_leaf([&](std::uint32_t sig) {
      if (!is_input_signal(sig)) {
        lv = std::max(lv, 1 + level[gate_of_signal(sig)]);
      }
    });
    level[g] = lv;
  }
  return level;
}

std::vector<SimWord> DominoNetlist::simulate(
    const std::vector<SimWord>& source_pi_words) const {
  std::vector<SimWord> value(inputs_.size() + gates_.size(), 0);
  for (std::size_t k = 0; k < inputs_.size(); ++k) {
    const InputLiteral& in = inputs_[k];
    SOIDOM_ASSERT(in.source_pi >= 0 &&
                  static_cast<std::size_t>(in.source_pi) <
                      source_pi_words.size());
    const SimWord w = source_pi_words[static_cast<std::size_t>(in.source_pi)];
    value[k] = in.negated ? ~w : w;
  }
  const auto conduction = [&](const Pdn& pdn) {
    return pdn.fold(
        SimWord{0}, ~SimWord{0}, [&](std::uint32_t sig) { return value[sig]; },
        std::bit_and<>{}, std::bit_or<>{});
  };
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    // One word-wide fold per pulldown evaluates all 64 patterns at once.
    // A dual gate ORs its two pulldowns (the static NAND of the two
    // active-low dynamic nodes).
    const DominoGate& gate = gates_[g];
    SimWord out = conduction(gate.pdn);
    if (gate.dual()) out |= conduction(gate.pdn2);
    value[inputs_.size() + g] = out;
  }
  std::vector<SimWord> out;
  out.reserve(outputs_.size());
  for (const DominoOutput& o : outputs_) {
    const SimWord w =
        o.constant >= 0 ? (o.constant ? ~SimWord{0} : 0) : value[o.signal];
    out.push_back(o.inverted ? ~w : w);
  }
  return out;
}

std::string DominoNetlist::dump() const {
  std::ostringstream os;
  for (std::size_t k = 0; k < inputs_.size(); ++k) {
    os << "in " << k << ": " << inputs_[k].name
       << (inputs_[k].negated ? " (neg)" : "") << '\n';
  }
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const DominoGate& gate = gates_[g];
    os << "gate " << g << " -> sig "
       << signal_of_gate(static_cast<std::uint32_t>(g))
       << (gate.footed ? " footed" : " footless") << " pdn="
       << gate.pdn.to_string();
    if (gate.dual()) {
      os << " pdn2=" << gate.pdn2.to_string()
         << (gate.footed2 ? " footed2" : "");
    }
    os << " disch=" << gate.discharges.size() + gate.discharges2.size()
       << '\n';
  }
  for (const DominoOutput& o : outputs_) {
    os << "out " << o.name << " <- sig " << o.signal
       << (o.inverted ? " (inverted)" : "") << '\n';
  }
  return os.str();
}

}  // namespace soidom
