#include "soidom/soisim/soisim.hpp"

#include <algorithm>
#include <limits>

#include "soidom/base/contracts.hpp"

namespace soidom {
namespace {

/// Recursively wires a PDN subtree between electrical nodes `above` and
/// `below`, creating junction nodes for series chains and recording the
/// node id of every junction so discharge points can be attached.
struct ModelBuilder {
  const Pdn& pdn;
  int& num_nodes;
  std::vector<std::pair<std::uint64_t, std::uint16_t>>& junction_nodes;
  std::vector<std::uint32_t>& leaf_signal;
  std::vector<std::pair<std::uint16_t, std::uint16_t>>& leaf_terminals;

  void wire(PdnIndex i, std::uint16_t above, std::uint16_t below) {
    const PdnNode& n = pdn.node(i);
    switch (n.kind) {
      case PdnKind::kLeaf:
        leaf_signal.push_back(n.signal);
        leaf_terminals.emplace_back(above, below);
        break;
      case PdnKind::kParallel:
        for (const PdnIndex c : n.children) wire(c, above, below);
        break;
      case PdnKind::kSeries: {
        std::uint16_t upper = above;
        for (std::size_t k = 0; k + 1 < n.children.size(); ++k) {
          const auto junction = static_cast<std::uint16_t>(num_nodes++);
          junction_nodes.emplace_back(
              (static_cast<std::uint64_t>(i) << 32) | k, junction);
          wire(n.children[k], upper, junction);
          upper = junction;
        }
        wire(n.children.back(), upper, below);
        break;
      }
    }
  }
};

constexpr std::uint16_t kDynamicNode = 0;
constexpr std::uint16_t kBottomNode = 1;

}  // namespace

SoiSimulator::SoiSimulator(const DominoNetlist& netlist,
                           const SoiSimConfig& config)
    : netlist_(netlist), config_(config) {
  build_models(netlist);
  reset();
}

SoiSimulator::GateModel SoiSimulator::build_model(
    const Pdn& pdn, const std::vector<DischargePoint>& discharges,
    bool footed) const {
  GateModel model;
  model.footed = footed;
  std::vector<std::pair<std::uint64_t, std::uint16_t>> junctions;
  std::vector<std::uint32_t> signals;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> terminals;
  ModelBuilder builder{pdn, model.num_nodes, junctions, signals, terminals};
  builder.wire(pdn.root(), kDynamicNode, kBottomNode);
  for (std::size_t t = 0; t < signals.size(); ++t) {
    Transistor tr;
    tr.signal = signals[t];
    tr.above = terminals[t].first;
    tr.below = terminals[t].second;
    model.transistors.push_back(tr);
  }
  for (const DischargePoint& p : discharges) {
    if (p.at_bottom()) {
      model.discharged_nodes.push_back(kBottomNode);
      continue;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p.series_node) << 32) | p.pos;
    const auto it =
        std::find_if(junctions.begin(), junctions.end(),
                     [&](const auto& j) { return j.first == key; });
    SOIDOM_ASSERT_MSG(it != junctions.end(),
                      "discharge point refers to unknown junction");
    model.discharged_nodes.push_back(it->second);
  }
  return model;
}

void SoiSimulator::build_models(const DominoNetlist& netlist) {
  gates_.reserve(netlist.gates().size());
  seconds_.resize(netlist.gates().size());
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const DominoGate& gate = netlist.gates()[g];
    gates_.push_back(build_model(gate.pdn, gate.discharges, gate.footed));
    if (gate.dual()) {
      seconds_[g] = std::make_unique<GateModel>(
          build_model(gate.pdn2, gate.discharges2, gate.footed2));
    }
  }
}

void SoiSimulator::reset() {
  cycle_ = 0;
  history_.clear();
  trace_.clear();
  max_droop_.assign(gates_.size(), 0.0);
  race_margin_.assign(gates_.size(),
                      std::numeric_limits<double>::infinity());
  race_nonmono_.assign(gates_.size(), 0);
  race_fights_.assign(gates_.size(), 0);
  auto reset_model = [](GateModel& g) {
    g.node_high.assign(static_cast<std::size_t>(g.num_nodes), false);
    g.node_high[kDynamicNode] = true;
    g.output = false;
    for (Transistor& t : g.transistors) {
      t.body = 0;
      t.pbe_on = false;
    }
  };
  for (GateModel& g : gates_) reset_model(g);
  for (auto& second : seconds_) {
    if (second) reset_model(*second);
  }
}

bool SoiSimulator::literal_value(
    std::uint32_t signal, const std::vector<bool>& source_pi_values) const {
  const InputLiteral& in = netlist_.inputs()[signal];
  SOIDOM_ASSERT(in.source_pi >= 0 &&
                static_cast<std::size_t>(in.source_pi) <
                    source_pi_values.size());
  const bool v = source_pi_values[static_cast<std::size_t>(in.source_pi)];
  return in.negated ? !v : v;
}

bool SoiSimulator::settle(GateModel& gate, const std::vector<bool>& conducting,
                          bool ground_connected) const {
  // Components of the conduction graph; then: grounded component -> low,
  // component holding the dynamic node -> high (unless grounded),
  // everything else floats (keeps its previous charge).
  const auto n = static_cast<std::size_t>(gate.num_nodes);
  SOIDOM_ASSERT(n >= 2);  // dynamic + bottom always exist
  std::vector<int> comp(n, -1);
  int num_comps = 0;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (comp[seed] >= 0) continue;
    const int c = num_comps++;
    std::vector<std::uint16_t> stack{static_cast<std::uint16_t>(seed)};
    comp[seed] = c;
    while (!stack.empty()) {
      const std::uint16_t node = stack.back();
      stack.pop_back();
      for (std::size_t t = 0; t < gate.transistors.size(); ++t) {
        if (!conducting[t]) continue;
        const Transistor& tr = gate.transistors[t];
        std::uint16_t other;
        if (tr.above == node) {
          other = tr.below;
        } else if (tr.below == node) {
          other = tr.above;
        } else {
          continue;
        }
        if (comp[other] < 0) {
          comp[other] = c;
          stack.push_back(other);
        }
      }
    }
  }

  const int ground_comp = ground_connected ? comp[kBottomNode] : -1;
  const int dynamic_comp = comp[kDynamicNode];
  const bool dynamic_high = dynamic_comp != ground_comp;
  for (std::size_t v = 0; v < n; ++v) {
    if (comp[v] == ground_comp) {
      gate.node_high[v] = false;
    } else if (comp[v] == dynamic_comp && dynamic_high) {
      gate.node_high[v] = true;
    }
    // else: floating, keep previous charge.
  }
  return dynamic_high;
}

bool SoiSimulator::run_pulldown(GateModel& gate,
                                const std::vector<bool>& actual,
                                const std::vector<bool>& source_pi_values,
                                std::uint32_t gate_index,
                                std::uint32_t tr_offset, CycleResult& result) {
  const std::size_t num_tr = gate.transistors.size();

  // ---- PRECHARGE -----------------------------------------------------------
  // Domino outputs are low; footed gates see primary-input literals.
  std::vector<bool> conducting(num_tr, false);
  for (std::size_t t = 0; t < num_tr; ++t) {
    const Transistor& tr = gate.transistors[t];
    conducting[t] = netlist_.is_input_signal(tr.signal) &&
                    literal_value(tr.signal, source_pi_values);
    gate.transistors[t].pbe_on = false;
  }
  gate.node_high[kDynamicNode] = true;
  // Footless bottoms sit directly on ground; footed feet are off.
  if (!gate.footed) gate.node_high[kBottomNode] = false;
  settle(gate, conducting, /*ground_connected=*/!gate.footed);
  gate.node_high[kDynamicNode] = true;  // the precharge device is strong
  // Clock-driven discharge transistors pull their junctions low.
  for (const std::uint16_t node : gate.discharged_nodes) {
    gate.node_high[node] = false;
  }
  const std::vector<bool> precharge_high = gate.node_high;

  // ---- EVALUATE ------------------------------------------------------------
  std::vector<bool> input_on(num_tr, false);
  for (std::size_t t = 0; t < num_tr; ++t) {
    input_on[t] = actual[gate.transistors[t].signal];
  }
  bool dynamic_high = true;
  bool legit_dynamic_high = true;  // before any parasitic conduction
  bool first_settle = true;
  for (bool changed = true; changed;) {
    for (std::size_t t = 0; t < num_tr; ++t) {
      conducting[t] = input_on[t] || gate.transistors[t].pbe_on;
    }
    dynamic_high = settle(gate, conducting, /*ground_connected=*/true);
    if (first_settle) {
      legit_dynamic_high = dynamic_high;  // pbe_on is all-false here
      first_settle = false;
    }
    changed = false;
    if (!config_.enable_pbe) break;
    for (std::size_t t = 0; t < num_tr; ++t) {
      Transistor& tr = gate.transistors[t];
      if (input_on[t] || tr.pbe_on) continue;
      if (tr.body < config_.body_charge_threshold) continue;
      const bool below_fell =
          precharge_high[tr.below] && !gate.node_high[tr.below];
      if (below_fell && gate.node_high[tr.above]) {
        tr.pbe_on = true;
        changed = true;
        history_.push_back({gate_index,
                            tr_offset + static_cast<std::uint32_t>(t), cycle_,
                            false});
        result.events.push_back(history_.back());
      }
    }
  }

  // Keeper contention (paper's solution 1): a discharge that exists only
  // because of parasitic conduction needs enough firing devices to
  // overpower an upsized keeper; otherwise the dynamic node is held.
  if (!dynamic_high && legit_dynamic_high) {
    int firing = 0;
    for (const Transistor& tr : gate.transistors) {
      if (tr.pbe_on) ++firing;
    }
    if (firing < config_.keeper_strength) {
      dynamic_high = true;
      gate.node_high[kDynamicNode] = true;
    }
  }

  if (!droop_probes_.empty()) {
    observe_droop(gate, precharge_high, conducting, legit_dynamic_high,
                  dynamic_high, gate_index, /*second=*/tr_offset != 0);
  }

  // ---- BODY STATE ------------------------------------------------------
  for (std::size_t t = 0; t < num_tr; ++t) {
    Transistor& tr = gate.transistors[t];
    if (input_on[t]) {
      tr.body = 0;  // gate switching couples the body low
    } else if (!gate.node_high[tr.below]) {
      tr.body = 0;  // body-source junction drains
    } else if (gate.node_high[tr.above] && gate.node_high[tr.below]) {
      tr.body = std::min(tr.body + 1, config_.body_charge_threshold);
    }
  }
  return !dynamic_high;
}

CycleResult SoiSimulator::step(const std::vector<bool>& source_pi_values) {
  SOIDOM_REQUIRE(source_pi_values.size() >= netlist_.num_source_pis(),
                 "SoiSimulator::step: too few primary-input values");
  CycleResult result;
  ++cycle_;

  // Ideal (PBE-free) gate outputs, for expectation and corruption checks.
  std::vector<bool> ideal(netlist_.num_inputs() + netlist_.gates().size());
  for (std::size_t k = 0; k < netlist_.num_inputs(); ++k) {
    ideal[k] = literal_value(static_cast<std::uint32_t>(k), source_pi_values);
  }

  // Actual signal values as gates evaluate this cycle.
  std::vector<bool> actual = ideal;

  if (!race_probes_.empty()) {
    // Per-signal observed arrivals: inputs settle at the evaluate edge.
    race_arrival_.assign(netlist_.num_inputs() + gates_.size(), 0.0);
  }

  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    GateModel& gate = gates_[gi];
    const DominoGate& spec = netlist_.gates()[gi];
    const bool prev_output = gate.output;

    bool conducted =
        run_pulldown(gate, actual, source_pi_values,
                     static_cast<std::uint32_t>(gi), 0, result);
    if (seconds_[gi]) {
      const auto offset =
          static_cast<std::uint32_t>(gate.transistors.size());
      const bool second =
          run_pulldown(*seconds_[gi], actual, source_pi_values,
                       static_cast<std::uint32_t>(gi), offset, result);
      conducted = conducted || second;  // static NAND of the dynamic nodes
    }
    gate.output = conducted;

    const std::uint32_t out_signal =
        netlist_.signal_of_gate(static_cast<std::uint32_t>(gi));
    actual[out_signal] = gate.output;
    if (!race_probes_.empty()) {
      observe_race(static_cast<std::uint32_t>(gi), spec, prev_output, actual,
                   source_pi_values);
    }
    auto ideal_of = [&](std::uint32_t s) { return ideal[s]; };
    bool ideal_out = spec.pdn.conducts(ideal_of);
    if (spec.dual() && !ideal_out) ideal_out = spec.pdn2.conducts(ideal_of);
    ideal[out_signal] = ideal_out;
    if (gate.output != ideal[out_signal]) {
      ++result.corrupted_gates;
      for (PbeEvent& e : result.events) {
        if (e.gate == gi && e.cycle == cycle_) e.corrupted_gate = true;
      }
      for (PbeEvent& e : history_) {
        if (e.gate == gi && e.cycle == cycle_) e.corrupted_gate = true;
      }
    }
  }

  if (tracing_) {
    TraceSample sample;
    for (std::size_t k = 0;
         k < trace_pi_names_.size() && k < source_pi_values.size(); ++k) {
      sample.pi_values.push_back(source_pi_values[k]);
    }
    for (std::size_t g = 0; g < gates_.size(); ++g) {
      sample.gate_outputs.push_back(gates_[g].output);
      sample.body_charge.push_back(
          max_body_charge(static_cast<std::uint32_t>(g)));
    }
    sample.pbe_fired = !result.events.empty();
    trace_.push_back(std::move(sample));
  }

  // ---- SAMPLE OUTPUTS ----------------------------------------------------
  for (const DominoOutput& o : netlist_.outputs()) {
    bool got;
    bool want;
    if (o.constant >= 0) {
      got = want = o.constant != 0;
    } else {
      got = actual[o.signal];
      want = ideal[o.signal];
    }
    result.outputs.push_back(o.inverted ? !got : got);
    result.expected.push_back(o.inverted ? !want : want);
  }
  return result;
}

void SoiSimulator::enable_trace(std::vector<std::string> pi_names) {
  tracing_ = true;
  trace_pi_names_ = std::move(pi_names);
  trace_.clear();
}

std::string SoiSimulator::trace_vcd() const {
  SOIDOM_REQUIRE(tracing_, "trace_vcd: enable_trace() was never called");
  std::string out;
  out += "$date soidomino soisim trace $end\n";
  out += "$timescale 1ns $end\n";
  out += "$scope module netlist $end\n";

  // Compact printable VCD identifiers: '!'..'~' base-94 counter.
  auto id_of = [](std::size_t index) {
    std::string id;
    do {
      id += static_cast<char>('!' + index % 94);
      index /= 94;
    } while (index > 0);
    return id;
  };
  std::size_t next = 0;
  std::vector<std::string> pi_ids;
  for (const std::string& name : trace_pi_names_) {
    pi_ids.push_back(id_of(next++));
    out += "$var wire 1 " + pi_ids.back() + ' ' + name + " $end\n";
  }
  std::vector<std::string> gate_ids;
  std::vector<std::string> body_ids;
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    gate_ids.push_back(id_of(next++));
    out += "$var wire 1 " + gate_ids.back() + " gate" + std::to_string(g) +
           " $end\n";
    body_ids.push_back(id_of(next++));
    out += "$var integer 8 " + body_ids.back() + " body" + std::to_string(g) +
           " $end\n";
  }
  const std::string pbe_id = id_of(next++);
  out += "$var wire 1 " + pbe_id + " pbe_event $end\n";
  out += "$upscope $end\n$enddefinitions $end\n";

  auto bin8 = [](int value) {
    std::string bits;
    for (int b = 7; b >= 0; --b) bits += ((value >> b) & 1) ? '1' : '0';
    return bits;
  };
  for (std::size_t t = 0; t < trace_.size(); ++t) {
    const TraceSample& s = trace_[t];
    out += '#' + std::to_string(t) + '\n';
    for (std::size_t k = 0; k < pi_ids.size() && k < s.pi_values.size(); ++k) {
      out += (s.pi_values[k] ? '1' : '0');
      out += pi_ids[k] + '\n';
    }
    for (std::size_t g = 0; g < gate_ids.size(); ++g) {
      out += (s.gate_outputs[g] ? '1' : '0');
      out += gate_ids[g] + '\n';
      out += 'b' + bin8(s.body_charge[g]) + ' ' + body_ids[g] + '\n';
    }
    out += (s.pbe_fired ? '1' : '0');
    out += pbe_id + '\n';
  }
  out += '#' + std::to_string(trace_.size()) + '\n';
  return out;
}

void SoiSimulator::enable_droop(std::vector<DroopProbe> probes) {
  SOIDOM_REQUIRE(probes.size() == gates_.size(),
                 "enable_droop: need exactly one DroopProbe per gate");
  for (std::size_t g = 0; g < probes.size(); ++g) {
    SOIDOM_REQUIRE(probes[g].caps.size() ==
                       static_cast<std::size_t>(gates_[g].num_nodes),
                   "enable_droop: probe caps do not match the gate model");
    const std::size_t second =
        seconds_[g] ? static_cast<std::size_t>(seconds_[g]->num_nodes) : 0;
    SOIDOM_REQUIRE(probes[g].caps2.size() == second,
                   "enable_droop: probe caps2 do not match the gate model");
  }
  droop_probes_ = std::move(probes);
  max_droop_.assign(gates_.size(), 0.0);
}

double SoiSimulator::max_droop(std::uint32_t gate) const {
  SOIDOM_REQUIRE(!droop_probes_.empty(),
                 "max_droop: enable_droop() was never called");
  SOIDOM_ASSERT(gate < max_droop_.size());
  return max_droop_[gate];
}

void SoiSimulator::enable_race(std::vector<RaceProbe> probes,
                               const RaceClockSpec& clock) {
  SOIDOM_REQUIRE(probes.size() == gates_.size(),
                 "enable_race: need exactly one RaceProbe per gate");
  SOIDOM_REQUIRE(
      clock.t_eval >= 0.0 && clock.t_pre >= 0.0 && clock.skew >= 0.0,
      "enable_race: clock windows and skew must be non-negative");
  race_probes_ = std::move(probes);
  race_clock_ = clock;
  race_margin_.assign(gates_.size(),
                      std::numeric_limits<double>::infinity());
  race_nonmono_.assign(gates_.size(), 0);
  race_fights_.assign(gates_.size(), 0);
}

void SoiSimulator::observe_race(std::uint32_t gate_index,
                                const DominoGate& spec, bool prev_output,
                                const std::vector<bool>& actual,
                                const std::vector<bool>& source_pi_values) {
  const RaceProbe& probe = race_probes_[gate_index];
  // Precharge crowbar: a footless pulldown conducting while the precharge
  // device is on.  In the cycle model only primary-input literals can be
  // high during precharge (domino outputs precharge low).
  const auto pi_high = [&](std::uint32_t s) {
    return netlist_.is_input_signal(s) && literal_value(s, source_pi_values);
  };
  if (!spec.pdn.empty() && !spec.footed && spec.pdn.conducts(pi_high)) {
    ++race_fights_[gate_index];
  }
  if (spec.dual() && !spec.footed2 && spec.pdn2.conducts(pi_high)) {
    ++race_fights_[gate_index];
  }
  // Non-monotone evaluate fall: the previous cycle left the output high
  // and the precharge bound overruns the precharge window, so the stale
  // high survives into evaluate and falls when precharge completes.
  if (prev_output && race_clock_.t_pre > 0.0 &&
      probe.pre_max + race_clock_.skew > race_clock_.t_pre) {
    ++race_nonmono_[gate_index];
  }
  // Observed discharge arrival: worst-case gate delay on top of the
  // latest-arriving input that is actually high this cycle — a measured
  // point inside the static [arrival_min, arrival_max] interval.
  if (gates_[gate_index].output) {
    double input_arrival = 0.0;
    spec.for_each_leaf([&](std::uint32_t s) {
      if (actual[s]) {
        input_arrival = std::max(input_arrival, race_arrival_[s]);
      }
    });
    const double arrival = input_arrival + probe.delay_max;
    race_arrival_[netlist_.signal_of_gate(gate_index)] = arrival;
    if (race_clock_.t_eval > 0.0) {
      const double margin = race_clock_.t_eval - race_clock_.skew - arrival;
      race_margin_[gate_index] = std::min(race_margin_[gate_index], margin);
    }
  }
}

double SoiSimulator::min_handoff_margin(std::uint32_t gate) const {
  SOIDOM_REQUIRE(!race_probes_.empty(),
                 "min_handoff_margin: enable_race() was never called");
  SOIDOM_ASSERT(gate < race_margin_.size());
  return race_margin_[gate];
}

int SoiSimulator::nonmonotone_falls(std::uint32_t gate) const {
  SOIDOM_REQUIRE(!race_probes_.empty(),
                 "nonmonotone_falls: enable_race() was never called");
  SOIDOM_ASSERT(gate < race_nonmono_.size());
  return race_nonmono_[gate];
}

int SoiSimulator::precharge_fights(std::uint32_t gate) const {
  SOIDOM_REQUIRE(!race_probes_.empty(),
                 "precharge_fights: enable_race() was never called");
  SOIDOM_ASSERT(gate < race_fights_.size());
  return race_fights_[gate];
}

void SoiSimulator::observe_droop(const GateModel& gate,
                                 const std::vector<bool>& precharge_high,
                                 const std::vector<bool>& conducting,
                                 bool legit_dynamic_high, bool dynamic_high,
                                 std::uint32_t gate_index, bool second) {
  const DroopProbe& probe = droop_probes_[gate_index];
  const std::vector<double>& caps = second ? probe.caps2 : probe.caps;
  double droop = 0.0;
  if (!legit_dynamic_high) {
    // The gate was meant to discharge this cycle: no hazard to observe.
    droop = 0.0;
  } else if (!dynamic_high) {
    // Parasitic flip: the dynamic node was fully (and wrongly) discharged.
    droop = probe.vdd;
  } else {
    // The node stayed high: charge redistributes from the dynamic node
    // into every connected precharge-low node, plus the charge injected
    // by firing parasitic devices touching the component.  The flood
    // never expands through the grounded bottom terminal — when a
    // parasitic path reaches ground but the keeper holds (keeper
    // contention), the keeper replenishes what flows that way.
    std::vector<bool> member(static_cast<std::size_t>(gate.num_nodes), false);
    member[kDynamicNode] = true;
    std::vector<std::uint16_t> stack{kDynamicNode};
    while (!stack.empty()) {
      const std::uint16_t node = stack.back();
      stack.pop_back();
      for (std::size_t t = 0; t < gate.transistors.size(); ++t) {
        if (!conducting[t]) continue;
        const Transistor& tr = gate.transistors[t];
        std::uint16_t other;
        if (tr.above == node) {
          other = tr.below;
        } else if (tr.below == node) {
          other = tr.above;
        } else {
          continue;
        }
        if (other == kBottomNode || member[other]) continue;
        member[other] = true;
        stack.push_back(other);
      }
    }
    double total = 0.0;
    double shared_low = 0.0;
    for (std::size_t v = 0; v < member.size(); ++v) {
      if (!member[v]) continue;
      total += caps[v];
      if (!precharge_high[v]) shared_low += caps[v];
    }
    int firings = 0;
    for (const Transistor& tr : gate.transistors) {
      if (tr.pbe_on && (member[tr.above] || member[tr.below])) ++firings;
    }
    if (total > 0.0) {
      droop = (probe.vdd * shared_low + probe.q_pbe * firings) / total;
    }
  }
  max_droop_[gate_index] = std::max(max_droop_[gate_index], droop);
}

int SoiSimulator::max_body_charge(std::uint32_t gate) const {
  SOIDOM_ASSERT(gate < gates_.size());
  int best = 0;
  for (const Transistor& t : gates_[gate].transistors) {
    best = std::max(best, t.body);
  }
  if (seconds_[gate]) {
    for (const Transistor& t : seconds_[gate]->transistors) {
      best = std::max(best, t.body);
    }
  }
  return best;
}

}  // namespace soidom
