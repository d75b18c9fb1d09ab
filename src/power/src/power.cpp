#include "soidom/power/power.hpp"

#include "soidom/base/contracts.hpp"

namespace soidom {
namespace {

double node_probability(const Pdn& pdn, PdnIndex i,
                        const std::vector<double>& p) {
  const PdnNode& n = pdn.node(i);
  switch (n.kind) {
    case PdnKind::kLeaf:
      SOIDOM_ASSERT(n.signal < p.size());
      return p[n.signal];
    case PdnKind::kSeries: {
      double prob = 1.0;
      for (const PdnIndex c : n.children) {
        prob *= node_probability(pdn, c, p);
      }
      return prob;
    }
    case PdnKind::kParallel: {
      double off = 1.0;
      for (const PdnIndex c : n.children) {
        off *= 1.0 - node_probability(pdn, c, p);
      }
      return 1.0 - off;
    }
  }
  return 0.0;
}

}  // namespace

double conduction_probability(const Pdn& pdn,
                              const std::vector<double>& signal_probability) {
  SOIDOM_REQUIRE(!pdn.empty(), "conduction_probability: empty PDN");
  return node_probability(pdn, pdn.root(), signal_probability);
}

PowerReport estimate_power(const DominoNetlist& netlist,
                           const PowerModel& model,
                           const std::vector<double>& pi_one_probability) {
  PowerReport report;

  // Signal 1-probabilities: literals first, then gate outputs in order.
  std::vector<double> p(netlist.num_inputs() + netlist.gates().size(), 0.5);
  for (std::size_t k = 0; k < netlist.num_inputs(); ++k) {
    const InputLiteral& in = netlist.inputs()[k];
    double base = 0.5;
    if (!pi_one_probability.empty()) {
      SOIDOM_REQUIRE(in.source_pi >= 0 &&
                         static_cast<std::size_t>(in.source_pi) <
                             pi_one_probability.size(),
                     "estimate_power: probability vector too short");
      base = pi_one_probability[static_cast<std::size_t>(in.source_pi)];
    }
    p[k] = in.negated ? 1.0 - base : base;
  }

  report.evaluate_probability.reserve(netlist.gates().size());
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const DominoGate& gate = netlist.gates()[g];
    double evaluate = conduction_probability(gate.pdn, p);
    if (gate.dual()) {
      const double second = conduction_probability(gate.pdn2, p);
      evaluate = 1.0 - (1.0 - evaluate) * (1.0 - second);
    }
    p[netlist.num_inputs() + g] = evaluate;
    report.evaluate_probability.push_back(evaluate);

    // Clock devices toggle every cycle regardless of data.
    report.clock_energy +=
        model.clock_cap_per_transistor * gate.clock_transistors();

    // The dynamic node + output swing only on evaluating cycles.
    const double node_cap =
        model.node_cap_per_transistor *
            (gate.pdn.transistor_count() +
             (gate.dual() ? gate.pdn2.transistor_count() : 0)) +
        model.inverter_cap * (gate.dual() ? 2.0 : 1.0);
    report.logic_energy += evaluate * node_cap;

    // Pulldown inputs toggle when their driving signal rises (probability
    // = P(signal is 1), since domino signals reset low every precharge).
    gate.for_each_leaf([&](std::uint32_t sig) {
      report.input_energy += model.input_cap_per_transistor * p[sig];
    });
  }
  return report;
}

}  // namespace soidom
