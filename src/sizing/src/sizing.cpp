#include "soidom/sizing/sizing.hpp"

#include <algorithm>
#include <cmath>

#include "soidom/base/contracts.hpp"

namespace soidom {
namespace {

double clamp_width(double w, const SizingOptions& options) {
  return std::clamp(w, options.min_width, options.max_width);
}

/// Longest series path length (in transistors) through each leaf, in
/// Pdn::leaf_signals() order.
class StackDepthWalker {
 public:
  explicit StackDepthWalker(const Pdn& pdn) : pdn_(pdn) {}

  std::vector<int> run() {
    walk(pdn_.root(), 0);
    return std::move(depths_);
  }

 private:
  void walk(PdnIndex i, int context) {
    const PdnNode& n = pdn_.node(i);
    switch (n.kind) {
      case PdnKind::kLeaf:
        depths_.push_back(context + 1);
        break;
      case PdnKind::kParallel:
        for (const PdnIndex c : n.children) walk(c, context);
        break;
      case PdnKind::kSeries: {
        // The path through child k also crosses every sibling; use each
        // sibling's worst-case height.
        int total = 0;
        for (const PdnIndex c : n.children) total += pdn_.height_of(c);
        for (const PdnIndex c : n.children) {
          walk(c, context + total - pdn_.height_of(c));
        }
        break;
      }
    }
  }

  const Pdn& pdn_;
  std::vector<int> depths_;
};

/// Worst-case pulldown path resistance: sum of 1/w^alpha along the
/// slowest root-to-bottom path.
class PathResistance {
 public:
  PathResistance(const Pdn& pdn, const std::vector<double>& widths,
                 double alpha)
      : pdn_(pdn), widths_(widths), alpha_(alpha) {}

  double run() {
    next_leaf_ = 0;
    return resist(pdn_.root());
  }

 private:
  double resist(PdnIndex i) {
    const PdnNode& n = pdn_.node(i);
    switch (n.kind) {
      case PdnKind::kLeaf: {
        const double w = widths_[next_leaf_++];
        return 1.0 / std::pow(w, alpha_);
      }
      case PdnKind::kSeries: {
        double sum = 0.0;
        for (const PdnIndex c : n.children) sum += resist(c);
        return sum;
      }
      case PdnKind::kParallel: {
        double worst = 0.0;
        for (const PdnIndex c : n.children) {
          worst = std::max(worst, resist(c));
        }
        return worst;
      }
    }
    return 0.0;
  }

  const Pdn& pdn_;
  const std::vector<double>& widths_;
  double alpha_;
  std::size_t next_leaf_ = 0;
};

}  // namespace

double estimate_delay(const DominoNetlist& netlist,
                      const std::vector<GateSizing>& sizing,
                      const SizingOptions& options) {
  SOIDOM_REQUIRE(sizing.size() == netlist.gates().size(),
                 "estimate_delay: sizing entry per gate required");
  const DelayModel model;  // reuse the timing constants for the fixed parts

  // Capacitive load seen by each gate's output: the widths of the leaves
  // it drives plus the unit load for primary outputs.
  std::vector<double> load(netlist.gates().size(), 0.0);
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const auto signals = netlist.gates()[g].all_leaf_signals();
    for (std::size_t k = 0; k < signals.size(); ++k) {
      if (!netlist.is_input_signal(signals[k])) {
        load[netlist.gate_of_signal(signals[k])] +=
            sizing[g].pulldown_widths[k];
      }
    }
  }
  for (const DominoOutput& o : netlist.outputs()) {
    if (o.constant < 0 && !netlist.is_input_signal(o.signal)) {
      load[netlist.gate_of_signal(o.signal)] += options.unit_load;
    }
  }

  std::vector<double> arrival(netlist.gates().size(), 0.0);
  double critical = 0.0;
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const DominoGate& gate = netlist.gates()[g];
    // Widths follow all_leaf_signals order: pdn's leaves, then pdn2's.
    const auto first_count =
        static_cast<std::size_t>(gate.pdn.transistor_count());
    const std::vector<double> w1(
        sizing[g].pulldown_widths.begin(),
        sizing[g].pulldown_widths.begin() +
            static_cast<std::ptrdiff_t>(first_count));
    double resistance = PathResistance(gate.pdn, w1, options.alpha).run();
    int width = gate.pdn.width();
    if (gate.dual()) {
      const std::vector<double> w2(
          sizing[g].pulldown_widths.begin() +
              static_cast<std::ptrdiff_t>(first_count),
          sizing[g].pulldown_widths.end());
      resistance = std::max(
          resistance, PathResistance(gate.pdn2, w2, options.alpha).run());
      width = std::max(width, gate.pdn2.width());
    }
    const double delay = model.gate_base + model.per_series * resistance +
                         model.per_parallel * width +
                         model.per_fanout * load[g] /
                             std::max(sizing[g].inverter_width, 1e-6);
    double in = 0.0;
    gate.for_each_leaf([&](std::uint32_t sig) {
      if (!netlist.is_input_signal(sig)) {
        in = std::max(in, arrival[netlist.gate_of_signal(sig)]);
      }
    });
    arrival[g] = in + delay;
  }
  for (const DominoOutput& o : netlist.outputs()) {
    if (o.constant < 0 && !netlist.is_input_signal(o.signal)) {
      critical = std::max(critical, arrival[netlist.gate_of_signal(o.signal)]);
    }
  }
  return critical;
}

SizingResult size_netlist(const DominoNetlist& netlist,
                          const SizingOptions& options) {
  SizingResult result;
  result.gates.resize(netlist.gates().size());

  // Baseline: everything at unit width.
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    result.gates[g].pulldown_widths.assign(
        netlist.gates()[g].all_leaf_signals().size(), 1.0);
    result.gates[g].inverter_width = 1.0;
  }
  result.estimated_delay_before = estimate_delay(netlist, result.gates, options);
  for (const GateSizing& gs : result.gates) {
    for (const double w : gs.pulldown_widths) result.total_width_before += w;
    result.total_width_before += gs.inverter_width;
  }

  // 1. Stack compensation.
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const DominoGate& gate = netlist.gates()[g];
    auto depths = StackDepthWalker(gate.pdn).run();
    if (gate.dual()) {
      const auto second = StackDepthWalker(gate.pdn2).run();
      depths.insert(depths.end(), second.begin(), second.end());
    }
    SOIDOM_ASSERT(depths.size() == result.gates[g].pulldown_widths.size());
    for (std::size_t k = 0; k < depths.size(); ++k) {
      result.gates[g].pulldown_widths[k] =
          clamp_width(static_cast<double>(depths[k]), options);
    }
  }

  // 2. Drive matching: size each inverter for the load it drives.
  {
    std::vector<double> load(netlist.gates().size(), 0.0);
    for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
      const auto signals = netlist.gates()[g].all_leaf_signals();
      for (std::size_t k = 0; k < signals.size(); ++k) {
        if (!netlist.is_input_signal(signals[k])) {
          load[netlist.gate_of_signal(signals[k])] +=
              result.gates[g].pulldown_widths[k];
        }
      }
    }
    for (const DominoOutput& o : netlist.outputs()) {
      if (o.constant < 0 && !netlist.is_input_signal(o.signal)) {
        load[netlist.gate_of_signal(o.signal)] += options.unit_load;
      }
    }
    for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
      result.gates[g].inverter_width =
          clamp_width(std::sqrt(std::max(load[g], 1.0)), options);
    }
  }

  // 3. Criticality skew: boost the worst-case path.
  {
    const TimingReport timing = analyze_timing(netlist);
    for (const std::uint32_t g : timing.critical_path) {
      GateSizing& gs = result.gates[g];
      gs.on_critical_path = true;
      for (double& w : gs.pulldown_widths) {
        w = clamp_width(w * options.critical_boost, options);
      }
      gs.inverter_width =
          clamp_width(gs.inverter_width * options.critical_boost, options);
    }
  }

  result.estimated_delay_after = estimate_delay(netlist, result.gates, options);
  for (const GateSizing& gs : result.gates) {
    for (const double w : gs.pulldown_widths) result.total_width_after += w;
    result.total_width_after += gs.inverter_width;
  }
  return result;
}

}  // namespace soidom
