#include "soidom/timing/timing.hpp"

#include <algorithm>
#include <sstream>

#include "soidom/base/strings.hpp"

namespace soidom {
namespace {

/// Walks a gate's PDN counting transistors whose below-terminal is an
/// undischarged internal junction.  Mirrors soisim's node construction:
/// junctions exist below every non-bottom child of a series node.
struct FloatingBodyCounter {
  const Pdn& pdn;
  const std::vector<DischargePoint>& discharges;
  int count = 0;

  bool discharged(PdnIndex series_node, std::uint32_t pos) const {
    return std::any_of(discharges.begin(), discharges.end(),
                       [&](const DischargePoint& p) {
                         return !p.at_bottom() &&
                                p.series_node == series_node && p.pos == pos;
                       });
  }

  /// `below_is_junction` true when the subtree's bottom terminal is an
  /// undischarged junction of an enclosing series node.
  void walk(PdnIndex i, bool below_is_floating_junction) {
    const PdnNode& n = pdn.node(i);
    switch (n.kind) {
      case PdnKind::kLeaf:
        if (below_is_floating_junction) ++count;
        break;
      case PdnKind::kParallel:
        for (const PdnIndex c : n.children) {
          walk(c, below_is_floating_junction);
        }
        break;
      case PdnKind::kSeries:
        for (std::size_t k = 0; k < n.children.size(); ++k) {
          const bool bottom_child = k + 1 == n.children.size();
          const bool floating =
              bottom_child
                  ? below_is_floating_junction
                  : !discharged(i, static_cast<std::uint32_t>(k));
          walk(n.children[k], floating);
        }
        break;
    }
  }
};

}  // namespace

int floating_body_transistors(const DominoGate& gate) {
  if (gate.pdn.empty()) return 0;
  FloatingBodyCounter counter{gate.pdn, gate.discharges};
  // The pulldown bottom terminal is ground (footless) or the foot node,
  // which the clocked foot discharges every evaluate: not floating.
  counter.walk(gate.pdn.root(), /*below_is_floating_junction=*/false);
  int total = counter.count;
  if (gate.dual()) {
    FloatingBodyCounter second{gate.pdn2, gate.discharges2};
    second.walk(gate.pdn2.root(), false);
    total += second.count;
  }
  return total;
}

TimingReport analyze_timing(const DominoNetlist& netlist,
                            const DelayModel& model) {
  TimingReport report;
  report.gates.resize(netlist.gates().size());

  // Fanout counts: gates driving more gates switch slower.
  std::vector<int> fanout(netlist.gates().size(), 0);
  for (const DominoGate& gate : netlist.gates()) {
    gate.for_each_leaf([&](std::uint32_t sig) {
      if (!netlist.is_input_signal(sig)) {
        ++fanout[netlist.gate_of_signal(sig)];
      }
    });
  }
  for (const DominoOutput& o : netlist.outputs()) {
    if (o.constant < 0 && !netlist.is_input_signal(o.signal)) {
      ++fanout[netlist.gate_of_signal(o.signal)];
    }
  }

  std::vector<int> best_fanin(netlist.gates().size(), -1);
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const DominoGate& gate = netlist.gates()[g];
    GateTiming& t = report.gates[g];

    t.floating_body_transistors = floating_body_transistors(gate);
    // Dual gates: the slower pulldown dominates; the static NAND is folded
    // into gate_base-level constants.
    const int height = gate.dual()
                           ? std::max(gate.pdn.height(), gate.pdn2.height())
                           : gate.pdn.height();
    const int width = gate.dual()
                          ? std::max(gate.pdn.width(), gate.pdn2.width())
                          : gate.pdn.width();
    const double nominal =
        model.gate_base + model.per_series * height +
        model.per_parallel * width +
        model.per_fanout * fanout[g] +
        model.per_discharge * static_cast<double>(gate.discharges.size());
    t.delay_min = nominal;
    t.delay_max =
        nominal + model.body_uncertainty * t.floating_body_transistors;

    const double pre_nominal =
        model.gate_base + model.per_parallel * width +
        model.per_fanout * fanout[g] +
        model.per_discharge *
            static_cast<double>(gate.discharges.size() +
                                gate.discharges2.size());
    t.pre_min = pre_nominal;
    t.pre_max =
        pre_nominal + model.body_uncertainty * t.floating_body_transistors;

    double in_min = 0.0;
    double in_max = 0.0;
    gate.for_each_leaf([&](std::uint32_t sig) {
      if (netlist.is_input_signal(sig)) return;
      const std::uint32_t fg = netlist.gate_of_signal(sig);
      if (report.gates[fg].arrival_max > in_max) {
        in_max = report.gates[fg].arrival_max;
        best_fanin[g] = static_cast<int>(fg);
      }
      in_min = std::max(in_min, report.gates[fg].arrival_min);
    });
    t.arrival_min = in_min + t.delay_min;
    t.arrival_max = in_max + t.delay_max;
    report.total_floating_body += t.floating_body_transistors;
  }

  int critical_gate = -1;
  for (const DominoOutput& o : netlist.outputs()) {
    if (o.constant >= 0 || netlist.is_input_signal(o.signal)) continue;
    const std::uint32_t g = netlist.gate_of_signal(o.signal);
    if (report.gates[g].arrival_max > report.critical_max) {
      report.critical_max = report.gates[g].arrival_max;
      critical_gate = static_cast<int>(g);
    }
    report.critical_min =
        std::max(report.critical_min, report.gates[g].arrival_min);
  }

  for (int g = critical_gate; g >= 0; g = best_fanin[static_cast<std::size_t>(g)]) {
    report.critical_path.push_back(static_cast<std::uint32_t>(g));
  }
  std::reverse(report.critical_path.begin(), report.critical_path.end());
  return report;
}

std::string TimingReport::to_string() const {
  std::ostringstream os;
  os << format("critical delay: %.2f (nominal) .. %.2f (worst body state)\n",
               critical_min, critical_max);
  os << format("timing hysteresis: %.2f (%.1f%% of nominal)\n", hysteresis(),
               100.0 * hysteresis_ratio());
  os << format("floating-body transistors: %d\n", total_floating_body);
  os << "critical path:";
  for (const std::uint32_t g : critical_path) os << " g" << g;
  os << '\n';
  return os.str();
}

}  // namespace soidom
