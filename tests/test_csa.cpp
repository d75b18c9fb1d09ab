/// \file test_csa.cpp
/// Static charge-sharing / PBE-safety analyzer (src/csa): model
/// construction, per-pulldown bounds, rule findings, flow integration,
/// thread-count determinism — and the conservativeness oracle that pins
/// the static droop bound above everything soisim's transient droop
/// observation ever reports on the same gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/csa/csa.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/soisim/soisim.hpp"

namespace soidom {
namespace {

/// The paper's Fig. 2 gate (A+B+C)*D, parallel stack on top: the PBE
/// showcase (an unprotected junction under the stack).
DominoNetlist fig2_gate(bool with_discharge) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"A", 0, false});
  const std::uint32_t b = nl.add_input({"B", 1, false});
  const std::uint32_t c = nl.add_input({"C", 2, false});
  const std::uint32_t d = nl.add_input({"D", 3, false});
  DominoGate g;
  const PdnIndex par = g.pdn.add_parallel(
      {g.pdn.add_leaf(a), g.pdn.add_leaf(b), g.pdn.add_leaf(c)});
  g.pdn.set_root(g.pdn.add_series({par, g.pdn.add_leaf(d)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  if (with_discharge) insert_discharges(nl, GroundingPolicy::kNoneGrounded);
  return nl;
}

/// DroopProbes with exactly the capacitance vectors run_csa analyzes, so
/// the simulator's observation and the static bound share one electrical
/// model (the point of the oracle).
std::vector<DroopProbe> make_probes(const DominoNetlist& nl,
                                    const CsaOptions& opts) {
  SizingResult sizing;
  if (opts.use_sizing) sizing = size_netlist(nl, opts.sizing);
  std::vector<DroopProbe> probes(nl.gates().size());
  for (std::size_t g = 0; g < nl.gates().size(); ++g) {
    const DominoGate& spec = nl.gates()[g];
    DroopProbe& probe = probes[g];
    probe.vdd = opts.charge.vdd;
    probe.q_pbe = opts.charge.q_pbe;
    const auto caps_of = [&](const Pdn& pdn,
                             const std::vector<DischargePoint>& discharges,
                             bool footed, std::size_t width_offset) {
      const CsaPdnModel model = build_csa_model(pdn, discharges, footed);
      std::vector<double> w(model.devices.size(), 1.0);
      if (opts.use_sizing) {
        const std::vector<double>& widths = sizing.gates[g].pulldown_widths;
        std::copy_n(widths.begin() + static_cast<std::ptrdiff_t>(width_offset),
                    w.size(), w.begin());
      }
      return csa_node_caps(model, w, opts.charge);
    };
    probe.caps = caps_of(spec.pdn, spec.discharges, spec.footed, 0);
    if (spec.dual()) {
      probe.caps2 = caps_of(spec.pdn2, spec.discharges2, spec.footed2,
                            static_cast<std::size_t>(
                                spec.pdn.transistor_count()));
    }
  }
  return probes;
}

/// Drive `cycles` random input vectors through soisim with droop
/// observation on and assert the static bound dominates the observed
/// per-gate maximum.  Zero underestimates, ever.
void expect_conservative(const DominoNetlist& nl, std::size_t num_pis,
                         const CsaOptions& opts, std::uint64_t seed,
                         int cycles) {
  const CsaResult csa = run_csa(nl, opts);
  ASSERT_EQ(csa.report.gates.size(), nl.gates().size());

  SoiSimConfig config;
  config.keeper_strength = opts.keeper_strength;
  SoiSimulator sim(nl, config);
  sim.enable_droop(make_probes(nl, opts));
  Rng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    std::vector<bool> in;
    for (std::size_t k = 0; k < num_pis; ++k) in.push_back(rng.chance(1, 2));
    sim.step(in);
  }
  for (std::size_t g = 0; g < nl.gates().size(); ++g) {
    EXPECT_LE(sim.max_droop(static_cast<std::uint32_t>(g)),
              csa.report.gates[g].droop() + 1e-9)
        << "gate " << g << " seed " << seed << " underestimated";
  }
}

// ---------------------------------------------------------------------------
// Model construction.

TEST(CsaModel, Fig2NodeNumberingAndDevices) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  // dyn + bottom + one junction under the parallel stack.
  EXPECT_EQ(model.num_nodes, 3);
  ASSERT_EQ(model.devices.size(), 4u);
  for (int t = 0; t < 3; ++t) {  // A, B, C: dynamic node -> junction
    EXPECT_EQ(model.devices[t].above, kCsaDynamicNode);
    EXPECT_EQ(model.devices[t].below, 2);
  }
  EXPECT_EQ(model.devices[3].above, 2);  // D: junction -> bottom
  EXPECT_EQ(model.devices[3].below, kCsaBottomNode);
  EXPECT_TRUE(model.discharged.empty());
  EXPECT_TRUE(model.footed);
}

TEST(CsaModel, DischargePointsResolveToJunctions) {
  const DominoNetlist nl = fig2_gate(true);
  const DominoGate& g = nl.gates()[0];
  ASSERT_FALSE(g.discharges.empty());
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  ASSERT_EQ(model.discharged.size(), g.discharges.size());
  EXPECT_EQ(model.discharged[0], 2);
}

TEST(CsaModel, NodeCapsSumFixedAndDiffusion) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  const ChargeModel charge;  // defaults: 4.0 / 0.2 / 0.5
  const std::vector<double> caps =
      csa_node_caps(model, {1.0, 1.0, 1.0, 2.0}, charge);
  ASSERT_EQ(caps.size(), 3u);
  EXPECT_DOUBLE_EQ(caps[0], 4.0 + 0.5 * 3.0);        // A, B, C drains
  EXPECT_DOUBLE_EQ(caps[1], 0.2 + 0.5 * 2.0);        // D source
  EXPECT_DOUBLE_EQ(caps[2], 0.2 + 0.5 * 3.0 + 1.0);  // stack sources + D drain
}

// ---------------------------------------------------------------------------
// Per-pulldown bounds.

TEST(CsaBound, UnprotectedFig2OverpowersMinimumKeeper) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  CsaOptions opts;
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), opts.charge);
  const CsaPulldownBound bound = bound_pulldown(model, caps, opts);
  EXPECT_TRUE(bound.ground_reachable);
  EXPECT_TRUE(bound.keeper_overpowered);
  EXPECT_GE(bound.droop, opts.charge.vdd);
  EXPECT_FALSE(bound.truncated);
  EXPECT_EQ(bound.states, 1L << 5);  // 4 signals + 1 free junction
  EXPECT_NE(bound.worst_state.find("in="), std::string::npos);
  EXPECT_NE(bound.worst_state.find("pre="), std::string::npos);
}

TEST(CsaBound, DischargeProtectionRemovesTheFlip) {
  const DominoNetlist nl = fig2_gate(true);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  CsaOptions opts;
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), opts.charge);
  const CsaPulldownBound bound = bound_pulldown(model, caps, opts);
  EXPECT_FALSE(bound.keeper_overpowered);
  // The junction is precharged low, so pure charge sharing remains:
  // redistribution onto caps[2], strictly below the supply.
  EXPECT_GT(bound.droop, 0.0);
  EXPECT_LT(bound.droop, opts.charge.vdd);
  EXPECT_DOUBLE_EQ(bound.share_cap, caps[2]);
  EXPECT_EQ(bound.firings, 0);
  EXPECT_EQ(bound.states, 1L << 4);  // the protected junction is not free
}

TEST(CsaBound, KeeperStrengthAboveStackWidthHoldsTheNode) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  CsaOptions opts;
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), opts.charge);
  opts.keeper_strength = 3;  // the stack can fire at most 3 candidates
  EXPECT_TRUE(bound_pulldown(model, caps, opts).keeper_overpowered);
  opts.keeper_strength = 4;
  const CsaPulldownBound held = bound_pulldown(model, caps, opts);
  EXPECT_FALSE(held.keeper_overpowered);
  EXPECT_LT(held.droop, opts.charge.vdd);
}

TEST(CsaBound, TruncationFallbackIsFlaggedAndCoarse) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  CsaOptions opts;
  opts.max_states = 1;
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), opts.charge);
  const CsaPulldownBound bound = bound_pulldown(model, caps, opts);
  EXPECT_TRUE(bound.truncated);
  EXPECT_EQ(bound.states, 0);
  EXPECT_EQ(bound.worst_state, "truncated");
  EXPECT_TRUE(bound.keeper_overpowered);
  EXPECT_DOUBLE_EQ(bound.share_cap, caps[2]);  // every junction shares
  EXPECT_EQ(bound.firings, 3);                 // A, B, C are eligible
  // The fallback dominates the exact enumeration.
  opts.max_states = 4096;
  EXPECT_GE(bound.droop, bound_pulldown(model, caps, opts).droop);
}

// ---------------------------------------------------------------------------
// The 64-lane enumeration against a one-state-at-a-time reference.

/// Scalar flood from the dynamic node over devices where `edge_on[t]`.
bool reference_flood(const CsaPdnModel& model, const std::vector<bool>& edge_on,
                     bool clamp_bottom, std::vector<bool>& member) {
  member.assign(static_cast<std::size_t>(model.num_nodes), false);
  member[kCsaDynamicNode] = true;
  std::vector<std::uint16_t> stack{kCsaDynamicNode};
  bool reached_bottom = false;
  while (!stack.empty()) {
    const std::uint16_t node = stack.back();
    stack.pop_back();
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      if (!edge_on[t]) continue;
      const CsaDevice& d = model.devices[t];
      std::uint16_t other;
      if (d.above == node) {
        other = d.below;
      } else if (d.below == node) {
        other = d.above;
      } else {
        continue;
      }
      if (other == kCsaBottomNode) {
        reached_bottom = true;
        if (clamp_bottom) continue;
      }
      if (member[other]) continue;
      member[other] = true;
      stack.push_back(other);
    }
  }
  return reached_bottom;
}

std::string reference_witness(long state, std::size_t num_signals,
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

/// bound_pulldown's enumeration one state per pass, with two scalar floods
/// per state: the reference the word kernel must reproduce bit for bit.
/// Callers keep the state count within max_states (no fallback here).
CsaPulldownBound reference_bound(const CsaPdnModel& model,
                                 const std::vector<double>& caps,
                                 const CsaOptions& options,
                                 const CsaStateCallbacks& callbacks) {
  const double vdd = options.charge.vdd;
  const double q_pbe = options.charge.q_pbe;
  const double c_dyn = caps[kCsaDynamicNode];
  const auto num_nodes = static_cast<std::size_t>(model.num_nodes);
  std::vector<bool> discharged(num_nodes, false);
  for (const std::uint16_t n : model.discharged) discharged[n] = true;
  const std::vector<std::uint32_t> signals = csa_state_signals(model);
  std::vector<std::size_t> signal_bit(model.devices.size());
  for (std::size_t t = 0; t < model.devices.size(); ++t) {
    signal_bit[t] = static_cast<std::size_t>(
        std::lower_bound(signals.begin(), signals.end(),
                         model.devices[t].signal) -
        signals.begin());
  }
  const std::vector<std::uint16_t> free_nodes = csa_free_nodes(model);
  const std::size_t bits = signals.size() + free_nodes.size();

  CsaPulldownBound bound;
  const long num_states = 1L << bits;
  bound.states = num_states;
  std::vector<bool> on(model.devices.size());
  std::vector<bool> cand(model.devices.size());
  std::vector<bool> edge(model.devices.size());
  std::vector<bool> pstate(num_nodes);
  std::vector<bool> member(num_nodes);
  std::vector<signed char> admit_cache;
  if (callbacks.admit) admit_cache.assign(1uL << signals.size(), -1);
  std::vector<bool> in_vec(signals.size());
  std::vector<bool> pre_vec(free_nodes.size());
  for (long s = 0; s < num_states; ++s) {
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      on[t] = ((s >> signal_bit[t]) & 1) != 0;
    }
    if (callbacks.admit) {
      const auto in_key =
          static_cast<std::size_t>(s) & ((1uL << signals.size()) - 1);
      if (admit_cache[in_key] < 0) {
        for (std::size_t i = 0; i < signals.size(); ++i) {
          in_vec[i] = ((s >> i) & 1) != 0;
        }
        admit_cache[in_key] = callbacks.admit(in_vec) ? 1 : 0;
      }
      if (admit_cache[in_key] == 0) continue;
    }
    if (reference_flood(model, on, /*clamp_bottom=*/false, member)) continue;
    pstate.assign(num_nodes, false);
    pstate[kCsaDynamicNode] = true;
    for (std::size_t i = 0; i < free_nodes.size(); ++i) {
      pstate[free_nodes[i]] = ((s >> (signals.size() + i)) & 1) != 0;
    }
    int num_cand = 0;
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      const CsaDevice& d = model.devices[t];
      cand[t] =
          !on[t] && d.below >= 2 && !discharged[d.below] && pstate[d.below];
      if (cand[t]) ++num_cand;
      edge[t] = on[t] || cand[t];
    }
    const bool reached =
        reference_flood(model, edge, /*clamp_bottom=*/true, member);
    double share = 0.0;
    for (std::size_t v = 2; v < num_nodes; ++v) {
      if (member[v] && !pstate[v]) share += caps[v];
    }
    int firings = 0;
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      if (cand[t] && (member[model.devices[t].above] ||
                      member[model.devices[t].below])) {
        ++firings;
      }
    }
    const bool flip = reached && num_cand >= options.keeper_strength;
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
    bound.ground_reachable = bound.ground_reachable || reached;
    bound.keeper_overpowered = bound.keeper_overpowered || flip;
    if (droop > bound.droop) {
      bound.droop = droop;
      bound.share_cap = share;
      bound.firings = firings;
      bound.worst_state =
          reference_witness(s, signals.size(), free_nodes.size());
    }
  }
  if (bound.worst_state.empty()) bound.worst_state = "none";
  return bound;
}

/// Every hook call of one enumeration, in call order.
struct HookLog {
  struct Visit {
    std::vector<bool> inputs;
    std::vector<bool> precharge;
    double droop = 0.0;
    double share_cap = 0.0;
    int firings = 0;
    bool flip = false;
    bool operator==(const Visit&) const = default;
  };
  std::vector<std::vector<bool>> admits;
  std::vector<Visit> visits;
};

/// Hooks that reject a seeded subset of input assignments and log calls.
CsaStateCallbacks logging_hooks(HookLog& log, std::uint64_t seed) {
  CsaStateCallbacks hooks;
  hooks.admit = [&log, seed](const std::vector<bool>& inputs) {
    log.admits.push_back(inputs);
    std::uint64_t key = seed;
    for (const bool b : inputs) key = key * 3 + (b ? 1 : 0);
    return Rng(key).chance(3, 4);
  };
  hooks.visit = [&log](const std::vector<bool>& inputs,
                       const std::vector<bool>& precharge, double droop,
                       double share_cap, int firings, bool flip) {
    log.visits.push_back({inputs, precharge, droop, share_cap, firings, flip});
  };
  return hooks;
}

/// The kernel and the reference agree on every bound field and on every
/// hook call, for keeper strengths 1-3, with and without hooks.
void expect_word_matches_reference(const CsaPdnModel& model,
                                   const std::vector<double>& caps,
                                   std::uint64_t seed) {
  for (int keeper = 1; keeper <= 3; ++keeper) {
    CsaOptions opts;
    opts.keeper_strength = keeper;
    for (const bool hooked : {false, true}) {
      HookLog word_log;
      HookLog ref_log;
      const CsaStateCallbacks word_hooks =
          hooked ? logging_hooks(word_log, seed) : CsaStateCallbacks{};
      const CsaStateCallbacks ref_hooks =
          hooked ? logging_hooks(ref_log, seed) : CsaStateCallbacks{};
      const CsaPulldownBound got =
          bound_pulldown(model, caps, opts, word_hooks);
      const CsaPulldownBound want =
          reference_bound(model, caps, opts, ref_hooks);
      const std::string tag = "seed " + std::to_string(seed) + " keeper " +
                              std::to_string(keeper) +
                              (hooked ? " hooked" : " plain");
      EXPECT_EQ(got.droop, want.droop) << tag;
      EXPECT_EQ(got.share_cap, want.share_cap) << tag;
      EXPECT_EQ(got.firings, want.firings) << tag;
      EXPECT_EQ(got.ground_reachable, want.ground_reachable) << tag;
      EXPECT_EQ(got.keeper_overpowered, want.keeper_overpowered) << tag;
      EXPECT_EQ(got.truncated, want.truncated) << tag;
      EXPECT_EQ(got.states, want.states) << tag;
      EXPECT_EQ(got.worst_state, want.worst_state) << tag;
      EXPECT_EQ(word_log.admits, ref_log.admits) << tag;
      EXPECT_TRUE(word_log.visits == ref_log.visits) << tag;
    }
  }
}

/// A random series/parallel pulldown of depth <= `depth` drawing leaf
/// signals from [0, num_signals).
PdnIndex random_pdn(Pdn& pdn, Rng& rng, int depth, int& leaves_left,
                    std::uint32_t num_signals) {
  if (depth == 0 || leaves_left <= 1 || rng.chance(1, 3)) {
    --leaves_left;
    return pdn.add_leaf(
        static_cast<std::uint32_t>(rng.next_below(num_signals)));
  }
  std::vector<PdnIndex> children;
  const auto arity = 2 + rng.next_below(3);
  for (std::uint64_t k = 0; k < arity && leaves_left > 0; ++k) {
    children.push_back(
        random_pdn(pdn, rng, depth - 1, leaves_left, num_signals));
  }
  return rng.chance(1, 2) ? pdn.add_series(std::move(children))
                          : pdn.add_parallel(std::move(children));
}

TEST(CsaBound, WordEnumerationMatchesPerStateReference) {
  // Random pulldowns: depth <= 4, up to 12 leaves, repeated signals,
  // random discharge subsets and widths.
  int compared = 0;
  for (std::uint64_t seed = 1; compared < 500; ++seed) {
    ASSERT_LT(seed, 5000u) << "too few pulldowns within max_states";
    Rng rng(seed);
    Pdn pdn;
    int leaves_left = static_cast<int>(rng.next_in(1, 12));
    pdn.set_root(random_pdn(pdn, rng, 4, leaves_left,
                            static_cast<std::uint32_t>(rng.next_in(1, 8))));
    std::vector<DischargePoint> discharges;
    for (const DischargePoint& p : canonical_junctions(pdn)) {
      if (rng.chance(1, 3)) discharges.push_back(p);
    }
    const CsaPdnModel model =
        build_csa_model(pdn, discharges, rng.chance(1, 2));
    const std::size_t bits =
        csa_state_signals(model).size() + csa_free_nodes(model).size();
    if ((1L << bits) > CsaOptions{}.max_states) continue;
    std::vector<double> widths(model.devices.size());
    for (double& w : widths) w = 0.5 + 3.0 * rng.next_double();
    expect_word_matches_reference(
        model, csa_node_caps(model, widths, ChargeModel{}), seed);
    ++compared;
  }

  const auto unit_caps = [](const CsaPdnModel& model) {
    return csa_node_caps(model, std::vector<double>(model.devices.size(), 1.0),
                         ChargeModel{});
  };
  // One state: no devices, no state bits.
  const CsaPdnModel empty;
  expect_word_matches_reference(empty, unit_caps(empty), 1);
  {
    // Exactly 64 states: (a | b) - c - d, four signals and two junctions.
    Pdn pdn;
    pdn.set_root(pdn.add_series({pdn.add_parallel({pdn.add_leaf(0),
                                                   pdn.add_leaf(1)}),
                                 pdn.add_leaf(2), pdn.add_leaf(3)}));
    const CsaPdnModel model = build_csa_model(pdn, {}, true);
    ASSERT_EQ(bound_pulldown(model, unit_caps(model), CsaOptions{}).states,
              64);
    expect_word_matches_reference(model, unit_caps(model), 2);
  }
  for (std::uint32_t length = 4; length <= 8; ++length) {
    // 128 to 4096 states: series chains over at most five signals.
    Pdn pdn;
    std::vector<PdnIndex> chain;
    for (std::uint32_t k = 0; k < length; ++k) {
      chain.push_back(pdn.add_leaf(k % 5));
    }
    pdn.set_root(pdn.add_series(std::move(chain)));
    const CsaPdnModel model = build_csa_model(pdn, {}, length % 2 == 0);
    expect_word_matches_reference(model, unit_caps(model), length);
  }
  {
    // More nodes than lanes: a 70-junction chain over four signals with
    // all but four junctions discharged.
    Pdn pdn;
    std::vector<PdnIndex> chain;
    for (std::uint32_t k = 0; k < 71; ++k) chain.push_back(pdn.add_leaf(k % 4));
    pdn.set_root(pdn.add_series(std::move(chain)));
    std::vector<DischargePoint> discharges = canonical_junctions(pdn);
    ASSERT_EQ(discharges.size(), 70u);
    for (const std::size_t keep : {69u, 50u, 30u, 10u}) {
      discharges.erase(discharges.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    const CsaPdnModel model = build_csa_model(pdn, discharges, true);
    ASSERT_GT(model.num_nodes, 64);
    ASSERT_EQ(csa_free_nodes(model).size(), 4u);
    expect_word_matches_reference(model, unit_caps(model), 70);
  }
}

// ---------------------------------------------------------------------------
// Rules, findings, waivers.

TEST(CsaRules, UnprotectedGateRaisesPbeDischargeError) {
  const CsaResult r = run_csa(fig2_gate(false));
  ASSERT_EQ(r.report.gates.size(), 1u);
  EXPECT_TRUE(r.report.gates[0].keeper_overpowered());
  EXPECT_EQ(r.report.gates_keeper_overpowered, 1);
  bool found = false;
  for (const Finding& f : r.lint.findings) {
    found = found || f.rule == "csa.pbe-discharge";
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(r.lint.clean(LintSeverity::kError));
}

TEST(CsaRules, ProtectedGateHasNoError) {
  const CsaResult r = run_csa(fig2_gate(true));
  EXPECT_EQ(r.report.gates_keeper_overpowered, 0);
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError));
  for (const Finding& f : r.lint.findings) {
    EXPECT_NE(f.rule, "csa.pbe-discharge");
  }
}

TEST(CsaRules, DroopMarginWarningTracksTheThreshold) {
  CsaOptions strict;
  strict.margin = 0.0;  // any droop at all crosses the margin
  const CsaResult flagged = run_csa(fig2_gate(true), strict);
  bool warned = false;
  for (const Finding& f : flagged.lint.findings) {
    warned = warned || f.rule == "csa.droop-margin";
  }
  EXPECT_TRUE(warned);

  CsaOptions lax;
  lax.margin = 1.0;  // the protected gate droops well below vdd
  const CsaResult quiet = run_csa(fig2_gate(true), lax);
  for (const Finding& f : quiet.lint.findings) {
    EXPECT_NE(f.rule, "csa.droop-margin");
  }
}

TEST(CsaRules, StateExplosionInfoOnTruncation) {
  CsaOptions opts;
  opts.max_states = 1;
  const CsaResult r = run_csa(fig2_gate(false), opts);
  EXPECT_EQ(r.report.gates_truncated, 1);
  bool info = false;
  for (const Finding& f : r.lint.findings) {
    if (f.rule == "csa.state-explosion") {
      info = true;
      EXPECT_EQ(f.severity, LintSeverity::kInfo);
    }
  }
  EXPECT_TRUE(info);
}

TEST(CsaRules, WaiversSuppressWithoutDeletingFindings) {
  CsaOptions opts;
  opts.waivers = {"csa.pbe-discharge"};
  const CsaResult r = run_csa(fig2_gate(false), opts);
  bool waived = false;
  for (const Finding& f : r.lint.findings) {
    if (f.rule == "csa.pbe-discharge") {
      waived = true;
      EXPECT_TRUE(f.waived);
    }
  }
  EXPECT_TRUE(waived);
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError));
  EXPECT_NE(r.lint.to_sarif("x").find("\"suppressions\""), std::string::npos);
}

TEST(CsaReportJson, CarriesParametersAndPerGateBounds) {
  const CsaResult r = run_csa(fig2_gate(false));
  const std::string json = r.report.to_json();
  EXPECT_NE(json.find("\"vdd\":1"), std::string::npos);
  EXPECT_NE(json.find("\"keeper_strength\":1"), std::string::npos);
  EXPECT_NE(json.find("\"gates\":[{\"gate\":0"), std::string::npos);
  EXPECT_NE(json.find("\"worst_state\""), std::string::npos);
  EXPECT_NE(json.find("\"ground_reachable\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flow integration.

TEST(CsaFlow, OptInPopulatesResultAndSummary) {
  FlowOptions options;
  options.csa = true;
  const FlowResult r = run_flow(testing::fig3_network(), options);
  ASSERT_TRUE(r.csa.has_value());
  EXPECT_EQ(r.csa->report.gates.size(), r.netlist.gates().size());
  EXPECT_NE(summarize(r).find("csa="), std::string::npos);

  const FlowResult off = run_flow(testing::fig3_network(), FlowOptions{});
  EXPECT_FALSE(off.csa.has_value());
  EXPECT_EQ(summarize(off).find("csa="), std::string::npos);
}

TEST(CsaFlow, FailOnSeverityGatesTheFlow) {
  FlowOptions options;
  options.csa = true;
  options.csa_options.margin = 0.0;  // every gate crosses the margin
  options.csa_fail_on = LintSeverity::kWarning;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  ASSERT_TRUE(outcome.result.has_value());  // netlist still delivered
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kVerificationFailed);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kCsa);
}

TEST(CsaFlow, BadOptionsRejectedUpFront) {
  FlowOptions options;
  options.csa = true;
  options.csa_options.max_states = 0;
  EXPECT_THROW(validate(options), Error);
  options.csa_options.max_states = 1;
  options.csa_options.margin = -0.5;
  EXPECT_THROW(validate(options), Error);
  options.csa_options.margin = 0.25;
  options.csa_options.keeper_strength = 0;
  EXPECT_THROW(validate(options), Error);
}

// ---------------------------------------------------------------------------
// Determinism: run_csa is serial, and its output is pinned.

/// FNV-1a digests of the report JSON and SARIF under default options,
/// recorded when the analyzer still fanned gates out over a thread pool
/// (all thread counts agreed), so the serial loop is held to those bytes.
TEST(CsaDeterminism, ReportAndSarifByteIdenticalAcrossThreads) {
  struct Pin {
    const char* name;
    std::uint64_t json;
    std::uint64_t sarif;
  };
  const Pin pins[] = {
      {"cm150", 0x3bb550a80a0aca33ull, 0x777b0c3d855e8727ull},
      {"9symml", 0x91cb950377be981cull, 0x0104e5b69be601c7ull},
      {"c1908", 0xc850b1f221b900e8ull, 0xb91cd38878cdb91full},
  };
  for (const Pin& pin : pins) {
    FlowOptions flow;
    flow.verify_rounds = 0;
    const FlowResult mapped = run_flow(build_benchmark(pin.name), flow);
    const CsaResult r = run_csa(mapped.netlist);
    EXPECT_EQ(fnv1a64(r.report.to_json()), pin.json) << pin.name;
    EXPECT_EQ(fnv1a64(r.lint.to_sarif("x.circuit")), pin.sarif) << pin.name;
  }
}

// ---------------------------------------------------------------------------
// The conservativeness oracle: static bound >= simulated droop, always.

TEST(CsaOracle, Fig2HandGateNeverUnderestimated) {
  for (const bool protected_gate : {false, true}) {
    const DominoNetlist nl = fig2_gate(protected_gate);
    CsaOptions opts;
    expect_conservative(nl, 4, opts, protected_gate ? 7 : 3, 64);
  }
}

TEST(CsaOracle, AdversarialHoldThenFireSequence) {
  // The paper's killer sequence observes the full parasitic flip; the
  // static bound must sit at vdd or above.
  const DominoNetlist nl = fig2_gate(false);
  const CsaOptions opts;
  const CsaResult csa = run_csa(nl, opts);
  SoiSimulator sim(nl);
  sim.enable_droop(make_probes(nl, opts));
  for (int cycle = 0; cycle < 5; ++cycle) sim.step({true, false, false, false});
  sim.step({false, false, false, true});
  EXPECT_DOUBLE_EQ(sim.max_droop(0), opts.charge.vdd);  // flip observed
  EXPECT_LE(sim.max_droop(0), csa.report.gates[0].droop() + 1e-9);
}

TEST(CsaOracle, FuzzCorpusZeroUnderestimates) {
  // >= 200 random mapped netlists x 16 cycles, options varied across the
  // corpus (keeper strength, sizing, protection policy).
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Network source =
        testing::random_network(5, 10 + static_cast<int>(seed % 13), 3, seed);
    FlowOptions flow;
    flow.verify_rounds = 0;
    if (seed % 4 == 0) {
      flow.mapper.pending_model = PendingModel::kPaperLiteral;
      flow.mapper.grounding = GroundingPolicy::kNoneGrounded;
    }
    const FlowResult mapped = run_flow(source, flow);
    CsaOptions opts;
    opts.keeper_strength = 1 + static_cast<int>(seed % 3);
    opts.use_sizing = seed % 2 == 0;
    expect_conservative(mapped.netlist, 5, opts, seed * 31, 16);
    ++cases;
  }
  EXPECT_EQ(cases, 200);
}

TEST(CsaOracle, TruncatedBoundStaysConservative) {
  // max_states=1 degrades every nontrivial gate to the fallback bound,
  // which must still dominate the simulator.
  for (const std::uint64_t seed : {5u, 17u, 42u}) {
    const Network source = testing::random_network(5, 20, 3, seed);
    FlowOptions flow;
    flow.verify_rounds = 0;
    const FlowResult mapped = run_flow(source, flow);
    CsaOptions opts;
    opts.max_states = 1;
    expect_conservative(mapped.netlist, 5, opts, seed, 16);
  }
}

TEST(CsaOracle, PaperTableCircuitsNeverUnderestimated) {
  std::vector<std::string> circuits;
  for (const auto& list : {table1_circuits(), table2_circuits(),
                           table3_circuits(), table4_circuits()}) {
    for (const std::string& name : list) {
      if (std::find(circuits.begin(), circuits.end(), name) ==
          circuits.end()) {
        circuits.push_back(name);
      }
    }
  }
  ASSERT_FALSE(circuits.empty());
  for (const std::string& name : circuits) {
    const Network source = build_benchmark(name);
    FlowOptions flow;
    flow.verify_rounds = 0;
    const FlowResult mapped = run_flow(source, flow);
    expect_conservative(mapped.netlist, source.pis().size(), CsaOptions{},
                        0xC5A0 + circuits.size(), 6);
  }
}

}  // namespace
}  // namespace soidom
