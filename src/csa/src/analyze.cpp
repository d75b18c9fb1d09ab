/// \file analyze.cpp
/// The CSA bound computation and the run_csa driver.
///
/// Conservativeness argument (docs/CSA.md has the full version).  Fix a
/// simulator cycle of one pulldown that does not legitimately discharge,
/// and pick the enumerated state whose input bits equal the cycle's
/// actual signal values and whose precharge bits equal the cycle's
/// internal-node precharge snapshot.  Then:
///  * every device soisim fires is a CSA candidate (firing needs the
///    device OFF with its below junction precharged high and not
///    discharge-protected; devices whose below node is the bottom
///    terminal can never fire because the evaluate settle grounds the
///    bottom, resetting their body charge every cycle),
///  * soisim's final conduction graph is a subset of ON u candidates,
///    so the simulator's connected component (clamped at the bottom
///    terminal, as both sides clamp) is a subset of the CSA closure,
///  * therefore shared precharge-low capacitance S >= S_sim, injecting
///    count F >= F_sim, and with total component capacitance
///    T_sim >= c_dyn + S_sim the static droop
///    vdd*S/(c_dyn+S) + q_pbe*F/c_dyn dominates the observed
///    (vdd*S_sim + q_pbe*F_sim)/T_sim,
///  * a simulator parasitic flip needs >= keeper_strength firings and a
///    conducting path to ground; CSA then reports flip-possible and
///    takes max(formula, vdd).
/// The truncation fallback takes S over ALL junctions and F over ALL
/// candidate-eligible devices, which dominates every state.
#include <bit>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/csa/csa.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"

namespace soidom {
namespace {

/// Lane pattern of state bit k < 6 within one 64-state word: lane j of
/// the word is state 64*w + j, so the low six state bits are the lane's.
constexpr std::uint64_t kLaneBits[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// The lanes of word `w` whose state has bit `k` set.
std::uint64_t state_bit_word(std::size_t k, std::uint64_t w) {
  if (k < 6) return kLaneBits[k];
  return ((w >> (k - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0;
}

std::string state_witness(long state, std::size_t num_signals,
                          std::size_t num_free) {
  if (num_signals + num_free == 0) return "trivial";
  std::string out;
  if (num_signals > 0) {
    out += "in=";
    for (std::size_t i = 0; i < num_signals; ++i) {
      out += static_cast<char>('0' + ((state >> i) & 1));
    }
  }
  if (num_free > 0) {
    if (!out.empty()) out += ' ';
    out += "pre=";
    for (std::size_t i = 0; i < num_free; ++i) {
      out += static_cast<char>('0' + ((state >> (num_signals + i)) & 1));
    }
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> csa_state_signals(const CsaPdnModel& model) {
  std::vector<std::uint32_t> signals;
  signals.reserve(model.devices.size());
  for (const CsaDevice& d : model.devices) signals.push_back(d.signal);
  std::sort(signals.begin(), signals.end());
  signals.erase(std::unique(signals.begin(), signals.end()), signals.end());
  return signals;
}

std::vector<std::uint16_t> csa_free_nodes(const CsaPdnModel& model) {
  std::vector<bool> discharged(static_cast<std::size_t>(model.num_nodes),
                               false);
  for (const std::uint16_t n : model.discharged) discharged[n] = true;
  std::vector<std::uint16_t> free_nodes;
  for (std::size_t v = 2; v < static_cast<std::size_t>(model.num_nodes);
       ++v) {
    if (!discharged[v]) free_nodes.push_back(static_cast<std::uint16_t>(v));
  }
  return free_nodes;
}

std::uint64_t csa_flood_words(const CsaPdnModel& model,
                              const std::vector<std::uint64_t>& edge,
                              bool clamp_bottom,
                              std::vector<std::uint64_t>& member) {
  SOIDOM_ASSERT(edge.size() == model.devices.size());
  member.assign(static_cast<std::size_t>(model.num_nodes), 0);
  member[kCsaDynamicNode] = ~std::uint64_t{0};
  std::uint64_t reached = 0;
  // Relax every device until no member word grows: the least fixpoint is
  // per-lane reachability from the dynamic node.
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      const CsaDevice& d = model.devices[t];
      const std::uint64_t joined =
          (member[d.above] | member[d.below]) & edge[t];
      if (clamp_bottom &&
          (d.above == kCsaBottomNode || d.below == kCsaBottomNode)) {
        reached |= joined;  // member[kCsaBottomNode] stays 0
        continue;
      }
      if ((joined & ~(member[d.above] & member[d.below])) == 0) continue;
      member[d.above] |= joined;
      member[d.below] |= joined;
      grew = true;
    }
  }
  return clamp_bottom ? reached : member[kCsaBottomNode];
}

CsaPulldownBound bound_pulldown(const CsaPdnModel& model,
                                const std::vector<double>& caps,
                                const CsaOptions& options) {
  return bound_pulldown(model, caps, options, CsaStateCallbacks{});
}

CsaPulldownBound bound_pulldown(const CsaPdnModel& model,
                                const std::vector<double>& caps,
                                const CsaOptions& options,
                                const CsaStateCallbacks& callbacks) {
  SOIDOM_REQUIRE(caps.size() == static_cast<std::size_t>(model.num_nodes),
                 "bound_pulldown: caps do not match the model");
  SOIDOM_REQUIRE(options.max_states >= 1,
                 "bound_pulldown: max_states must be at least 1");
  const double vdd = options.charge.vdd;
  const double q_pbe = options.charge.q_pbe;
  const double c_dyn = caps[kCsaDynamicNode];
  SOIDOM_REQUIRE(c_dyn > 0.0,
                 "bound_pulldown: dynamic-node capacitance must be positive");

  const auto num_nodes = static_cast<std::size_t>(model.num_nodes);
  std::vector<bool> discharged(num_nodes, false);
  for (const std::uint16_t n : model.discharged) {
    discharged[n] = true;
  }

  // Enumeration bits: one per distinct input signal, one per free
  // internal junction (precharge state unknown).  The bottom terminal's
  // precharge state is irrelevant: devices sitting on it can never fire
  // (see file comment) and it is never part of a sharing component.
  const std::vector<std::uint32_t> signals = csa_state_signals(model);
  std::vector<std::size_t> signal_bit(model.devices.size());
  for (std::size_t t = 0; t < model.devices.size(); ++t) {
    signal_bit[t] = static_cast<std::size_t>(
        std::lower_bound(signals.begin(), signals.end(),
                         model.devices[t].signal) -
        signals.begin());
  }
  const std::vector<std::uint16_t> free_nodes = csa_free_nodes(model);

  CsaPulldownBound bound;
  const std::size_t bits = signals.size() + free_nodes.size();
  if (bits >= 62 || (1L << bits) > options.max_states) {
    // Pointwise-max fallback: every junction shares, every eligible
    // device fires.  Coarser than any enumerated state but still a
    // sound upper bound on anything the simulator can do.
    double s_all = 0.0;
    for (std::size_t v = 2; v < num_nodes; ++v) s_all += caps[v];
    int f_all = 0;
    for (const CsaDevice& d : model.devices) {
      if (d.below >= 2 && !discharged[d.below]) ++f_all;
    }
    bound.truncated = true;
    bound.share_cap = s_all;
    bound.firings = f_all;
    bound.ground_reachable = true;
    bound.keeper_overpowered = f_all >= options.keeper_strength;
    double droop = vdd * s_all / (c_dyn + s_all) + q_pbe * f_all / c_dyn;
    if (bound.keeper_overpowered) droop = std::max(droop, vdd);
    bound.droop = droop;
    bound.worst_state = "truncated";
    return bound;
  }

  const long num_states = 1L << bits;
  bound.states = num_states;
  // Lanes of a word that are states at all (a 1- to 32-state pulldown
  // fills only the low lanes of its single word).
  const std::uint64_t state_lanes =
      num_states < 64 ? (std::uint64_t{1} << num_states) - 1
                      : ~std::uint64_t{0};
  // admit() depends only on the input bits (the low bits of s, cycling
  // fastest), so it is asked once per input assignment, in ascending
  // order, and its verdicts kept as a bitset over input keys.  With fewer
  // than 64 keys the pattern repeats across the lanes of every word.
  const std::size_t num_inputs = std::size_t{1} << signals.size();
  std::vector<bool> in_vec(signals.size());
  std::vector<bool> pre_vec(free_nodes.size());
  std::vector<std::uint64_t> admitted;
  if (callbacks.admit) {
    admitted.assign((num_inputs + 63) / 64, 0);
    for (std::size_t key = 0; key < num_inputs; ++key) {
      for (std::size_t i = 0; i < signals.size(); ++i) {
        in_vec[i] = ((key >> i) & 1) != 0;
      }
      if (callbacks.admit(in_vec)) admitted[key / 64] |= 1ull << (key % 64);
    }
    for (std::size_t p = num_inputs; p < 64; p *= 2) {
      admitted[0] |= admitted[0] << p;
    }
  }

  // One pass evaluates states 64*w .. 64*w + 63, lane j being state
  // 64*w + j.  pre[v] holds the lanes in which node v is precharged high;
  // it stays 0 for nodes that are not free (dynamic, bottom, discharged),
  // which is what keeps them out of the candidate and sharing sets.
  std::vector<std::uint64_t> pre(num_nodes, 0);
  std::vector<std::uint64_t> on(model.devices.size());
  std::vector<std::uint64_t> cand(model.devices.size());
  std::vector<std::uint64_t> edge(model.devices.size());
  std::vector<std::uint64_t> member;
  struct Share {
    std::uint64_t lanes;
    double cap;
  };
  struct Fire {
    std::uint64_t cand;
    std::uint64_t fired;
  };
  std::vector<Share> shares;
  std::vector<Fire> fires;
  const auto num_words = static_cast<std::uint64_t>((num_states + 63) / 64);
  for (std::uint64_t w = 0; w < num_words; ++w) {
    if ((w & 3) == 0) guard_checkpoint();
    std::uint64_t active = state_lanes;
    if (callbacks.admit) {
      active &= admitted[static_cast<std::size_t>(w) &
                         (admitted.size() - 1)];
    }
    if (active == 0) continue;
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      on[t] = state_bit_word(signal_bit[t], w);
    }
    // A state where the ON devices alone conduct to ground is a
    // legitimate discharge: the gate is supposed to evaluate low, so
    // there is no droop hazard (the simulator observes 0 there too).
    active &= ~csa_flood_words(model, on, /*clamp_bottom=*/true, member);
    if (active == 0) continue;

    for (std::size_t i = 0; i < free_nodes.size(); ++i) {
      pre[free_nodes[i]] = state_bit_word(signals.size() + i, w);
    }
    // Candidate parasitic devices: OFF, below node an internal junction
    // that is precharged high and not pulled low by a discharge pMOS.
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      cand[t] = ~on[t] & pre[model.devices[t].below];
      edge[t] = on[t] | cand[t];
    }
    // Everything ON or candidate may end up conducting: the connected
    // component of the dynamic node over those edges bounds the charge-
    // sharing extent.  Clamped at the bottom terminal — when a parasitic
    // path reaches ground with the keeper holding, the keeper replenishes
    // what flows past the clamp (matching soisim's observation model).
    const std::uint64_t reached =
        csa_flood_words(model, edge, /*clamp_bottom=*/true, member);
    bound.ground_reachable = bound.ground_reachable || (reached & active) != 0;
    // Lanes in which each junction shares (in the closure, precharged
    // low), in ascending node order, and lanes in which each candidate
    // device is one and fires (touches the closure).  Words with no active
    // lane are dropped: they add nothing to any state below.
    shares.clear();
    for (std::size_t v = 2; v < num_nodes; ++v) {
      const std::uint64_t lanes = member[v] & ~pre[v];
      if ((lanes & active) != 0) shares.push_back({lanes, caps[v]});
    }
    fires.clear();
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      if ((cand[t] & active) == 0) continue;
      const CsaDevice& d = model.devices[t];
      fires.push_back(
          {cand[t], cand[t] & (member[d.above] | member[d.below])});
    }

    // The remaining per-state arithmetic runs lane by lane, in ascending
    // state order, summing capacitances in ascending node order.
    for (; active != 0; active &= active - 1) {
      const int lane = std::countr_zero(active);
      const long s = static_cast<long>(w * 64) + lane;
      double share = 0.0;
      for (const Share& term : shares) {
        if ((term.lanes >> lane) & 1) share += term.cap;
      }
      int num_cand = 0;
      int firings = 0;
      for (const Fire& f : fires) {
        num_cand += static_cast<int>((f.cand >> lane) & 1);
        firings += static_cast<int>((f.fired >> lane) & 1);
      }
      // A flip needs a path to ground and enough firing devices anywhere
      // in the gate to overpower the keeper (soisim counts all firings,
      // not just those on the dynamic node's component).
      const bool flip =
          ((reached >> lane) & 1) != 0 && num_cand >= options.keeper_strength;
      double droop = vdd * share / (c_dyn + share) + q_pbe * firings / c_dyn;
      if (flip) droop = std::max(droop, vdd);
      if (callbacks.visit) {
        for (std::size_t i = 0; i < signals.size(); ++i) {
          in_vec[i] = ((s >> i) & 1) != 0;
        }
        for (std::size_t i = 0; i < free_nodes.size(); ++i) {
          pre_vec[i] = ((s >> (signals.size() + i)) & 1) != 0;
        }
        callbacks.visit(in_vec, pre_vec, droop, share, firings, flip);
      }
      bound.keeper_overpowered = bound.keeper_overpowered || flip;
      if (droop > bound.droop) {
        bound.droop = droop;
        bound.share_cap = share;
        bound.firings = firings;
        bound.worst_state =
            state_witness(s, signals.size(), free_nodes.size());
      }
    }
  }
  if (bound.worst_state.empty()) bound.worst_state = "none";
  return bound;
}

namespace {

std::string pulldown_json(const CsaPulldownBound& b) {
  return format(R"({"droop":%.9g,"share_cap":%.9g,"firings":%d,)"
                R"("ground_reachable":%s,"keeper_overpowered":%s,)"
                R"("truncated":%s,"states":%ld,"worst_state":"%s"})",
                b.droop, b.share_cap, b.firings,
                b.ground_reachable ? "true" : "false",
                b.keeper_overpowered ? "true" : "false",
                b.truncated ? "true" : "false", b.states,
                json_escape(b.worst_state).c_str());
}

/// The csa.* findings over `report`, one rule after another
/// (docs/LINT.md has the catalogue).
LintReport csa_findings(const CsaReport& report, const CsaOptions& options) {
  std::vector<Finding> out;
  // Calls fn(gate, which, bound) for every analyzed pulldown.
  const auto for_each_bound = [&](auto&& fn) {
    for (const CsaGateReport& gate : report.gates) {
      fn(gate, 1, gate.pd1);
      if (gate.dual) fn(gate, 2, gate.pd2);
    }
  };
  const auto emit = [&](const char* rule, LintSeverity severity,
                        const CsaGateReport& gate, int which,
                        std::string message, const char* fixit) {
    Finding f;
    f.rule = rule;
    f.severity = severity;
    f.location.gate = gate.gate;
    f.location.pdn = which;
    f.message = std::move(message);
    f.fixit = fixit;
    out.push_back(std::move(f));
  };
  for_each_bound([&](const CsaGateReport& gate, int which,
                     const CsaPulldownBound& b) {
    if (!b.keeper_overpowered) return;
    emit("csa.pbe-discharge", LintSeverity::kError, gate, which,
         format("%d parasitic device%s can fire against keeper strength %d "
                "with ground reachable (droop bound %.3f V, worst state: %s)",
                b.firings, b.firings == 1 ? "" : "s", options.keeper_strength,
                b.droop, b.worst_state.c_str()),
         "increase the keeper strength or attach discharge transistors "
         "to the exposed junctions");
  });
  const double limit = options.margin * options.charge.vdd;
  for_each_bound([&](const CsaGateReport& gate, int which,
                     const CsaPulldownBound& b) {
    // A keeper-overpowered pulldown already gets the (stronger)
    // csa.pbe-discharge error; don't double-report.
    if (b.keeper_overpowered || b.droop < limit) return;
    emit("csa.droop-margin", LintSeverity::kWarning, gate, which,
         format("droop bound %.3f V exceeds the noise margin %.3f V "
                "(%.3f shared cap units, %d injecting device%s, worst "
                "state: %s)",
                b.droop, limit, b.share_cap, b.firings,
                b.firings == 1 ? "" : "s", b.worst_state.c_str()),
         "attach discharge transistors to precharge the exposed "
         "junctions low, or reduce the stack depth");
  });
  for_each_bound([&](const CsaGateReport& gate, int which,
                     const CsaPulldownBound& b) {
    if (!b.truncated) return;
    emit("csa.state-explosion", LintSeverity::kInfo, gate, which,
         format("pulldown state space exceeds max_states=%ld; the reported "
                "bound assumes every junction shares and every eligible "
                "device fires (still conservative, possibly loose)",
                options.max_states),
         "raise CsaOptions::max_states for an exact enumeration");
  });
  return make_lint_report(
      std::move(out),
      {{"csa.pbe-discharge",
        "a parasitic-bipolar discharge path can overpower the keeper and "
        "flip the dynamic node",
        LintSeverity::kError},
       {"csa.droop-margin",
        "worst-case charge-sharing droop exceeds the noise margin",
        LintSeverity::kWarning},
       {"csa.state-explosion",
        "state enumeration truncated; the bound is the coarser "
        "pointwise-max fallback",
        LintSeverity::kInfo}},
      options.waivers);
}

}  // namespace

std::string CsaReport::to_json() const {
  std::string out = format(
      R"({"vdd":%.9g,"margin":%.9g,"keeper_strength":%d,"max_states":%ld,)"
      R"("max_droop":%.9g,"gates_over_margin":%d,)"
      R"("gates_keeper_overpowered":%d,"gates_truncated":%d,"gates":[)",
      vdd, margin, keeper_strength, max_states, max_droop, gates_over_margin,
      gates_keeper_overpowered, gates_truncated);
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const CsaGateReport& gate = gates[g];
    if (g) out += ',';
    out += format(R"({"gate":%d,"dual":%s,"droop":%.9g,"pd1":)", gate.gate,
                  gate.dual ? "true" : "false", gate.droop());
    out += pulldown_json(gate.pd1);
    if (gate.dual) {
      out += ",\"pd2\":";
      out += pulldown_json(gate.pd2);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

CsaResult run_csa(const DominoNetlist& netlist, const CsaOptions& options) {
  SOIDOM_REQUIRE(options.max_states >= 1,
                 "run_csa: max_states must be at least 1");
  StageScope stage_scope(FlowStage::kCsa);
  SOIDOM_FAULT_PROBE(FlowStage::kCsa);
  guard_checkpoint();

  SizingResult sizing;
  if (options.use_sizing) sizing = size_netlist(netlist, options.sizing);

  const std::size_t num_gates = netlist.gates().size();
  std::vector<CsaGateReport> slots(num_gates);
  for (std::size_t g = 0; g < num_gates; ++g) {
    guard_checkpoint();
    const DominoGate& spec = netlist.gates()[g];
    CsaGateReport& rep = slots[g];
    rep.gate = static_cast<int>(g);
    rep.dual = spec.dual();
    const std::vector<double>* widths =
        options.use_sizing ? &sizing.gates[g].pulldown_widths : nullptr;
    const auto bound_one = [&](const Pdn& pdn,
                               const std::vector<DischargePoint>& discharges,
                               bool footed, std::size_t width_offset) {
      const CsaPdnModel model = build_csa_model(pdn, discharges, footed);
      std::vector<double> w(model.devices.size(), 1.0);
      if (widths != nullptr) {
        SOIDOM_ASSERT(width_offset + w.size() <= widths->size());
        std::copy_n(widths->begin() + static_cast<std::ptrdiff_t>(width_offset),
                    w.size(), w.begin());
      }
      const std::vector<double> caps =
          csa_node_caps(model, w, options.charge);
      return bound_pulldown(model, caps, options);
    };
    if (!spec.pdn.empty()) {
      rep.pd1 = bound_one(spec.pdn, spec.discharges, spec.footed, 0);
    }
    if (spec.dual()) {
      rep.pd2 =
          bound_one(spec.pdn2, spec.discharges2, spec.footed2,
                    static_cast<std::size_t>(spec.pdn.transistor_count()));
    }
  }

  CsaResult result;
  result.report.gates = std::move(slots);
  result.report.vdd = options.charge.vdd;
  result.report.margin = options.margin;
  result.report.keeper_strength = options.keeper_strength;
  result.report.max_states = options.max_states;
  for (const CsaGateReport& gate : result.report.gates) {
    result.report.max_droop = std::max(result.report.max_droop, gate.droop());
    if (gate.droop() >= options.margin * options.charge.vdd) {
      ++result.report.gates_over_margin;
    }
    if (gate.keeper_overpowered()) ++result.report.gates_keeper_overpowered;
    if (gate.truncated()) ++result.report.gates_truncated;
  }

  result.lint = csa_findings(result.report, options);
  return result;
}

}  // namespace soidom
