/// \file rules.cpp
/// The built-in lint rule table and run_lint (docs/LINT.md documents
/// every rule).
#include <algorithm>
#include <set>

#include "soidom/base/strings.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/domino/seqaware.hpp"
#include "soidom/domino/stats.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/lint/lint.hpp"

namespace soidom {
namespace {

/// Everything a rule may inspect.  `sound` reports whether the foundation
/// rules (topo-order / dangling-ref / empty-gate) found no errors; the
/// other rules run only when it holds, so they may index through the
/// netlist without re-validating it.
struct LintContext {
  const DominoNetlist& netlist;
  const Network* source = nullptr;
  const LintOptions& options;
  bool sound = true;
};

/// One pulldown of a gate, with everything the per-pdn rules need.
struct PdnView {
  const Pdn& pdn;
  bool footed = false;
  const std::vector<DischargePoint>& discharges;
  int which = 1;  ///< 1 or 2 (LintLocation::pdn)
  bool grounded = false;  ///< bottom grounded under the lint policy
};

/// Whether pdn2's bottom counts as grounded (pdn1 uses
/// gate_bottom_grounded; the second stack of a dual gate has its own
/// foot flag).
bool second_bottom_grounded(const DominoGate& gate, GroundingPolicy policy) {
  switch (policy) {
    case GroundingPolicy::kAllGrounded: return true;
    case GroundingPolicy::kNoneGrounded: return false;
    case GroundingPolicy::kFootlessGrounded: return !gate.footed2;
  }
  return false;
}

template <typename Fn>
void for_each_pdn(const LintContext& context, std::size_t g, Fn&& fn) {
  const DominoGate& gate = context.netlist.gates()[g];
  const GroundingPolicy policy = context.options.grounding;
  fn(PdnView{gate.pdn, gate.footed, gate.discharges, 1,
             gate_bottom_grounded(gate, policy)});
  if (gate.dual()) {
    fn(PdnView{gate.pdn2, gate.footed2, gate.discharges2, 2,
               second_bottom_grounded(gate, policy)});
  }
}

LintLocation at_gate(std::size_t g, int which = 1, std::string detail = "") {
  LintLocation loc;
  loc.gate = static_cast<int>(g);
  loc.pdn = which;
  loc.detail = std::move(detail);
  return loc;
}

LintLocation at_output(std::size_t j) {
  LintLocation loc;
  loc.output = static_cast<int>(j);
  return loc;
}

LintLocation at_input(std::size_t k) {
  LintLocation loc;
  loc.input = static_cast<int>(k);
  return loc;
}

Finding make(LintSeverity severity, LintLocation location, std::string message,
             std::string fixit = "") {
  Finding f;
  f.severity = severity;
  f.location = std::move(location);
  f.message = std::move(message);
  f.fixit = std::move(fixit);
  return f;
}

// ---------------------------------------------------------------------------
// Foundation rules: validate every index the dependent rules rely on.
// ---------------------------------------------------------------------------

/// `topo-order`: every in-range leaf signal references an input literal or
/// the output of an EARLIER gate (the netlist invariant that makes single
/// forward passes sound).
void topo_order(const LintContext& context, std::vector<Finding>& out) {
  const DominoNetlist& netlist = context.netlist;
  const std::uint32_t defined = static_cast<std::uint32_t>(
      netlist.num_inputs() + netlist.gates().size());
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    for_each_pdn(context, g, [&](const PdnView& view) {
      view.pdn.for_each_leaf([&](std::uint32_t sig) {
        if (netlist.is_input_signal(sig) || sig >= defined) return;
        const std::uint32_t other = netlist.gate_of_signal(sig);
        if (other >= g) {
          out.push_back(make(
              LintSeverity::kError, at_gate(g, view.which),
              format("references gate %u (not earlier): netlist is not "
                     "topologically ordered",
                     other)));
        }
      });
    });
  }
}

/// `dangling-ref`: leaf signals, output signals and discharge points all
/// refer to elements that exist.
void dangling_ref(const LintContext& context, std::vector<Finding>& out) {
  const DominoNetlist& netlist = context.netlist;
  const std::uint32_t defined = static_cast<std::uint32_t>(
      netlist.num_inputs() + netlist.gates().size());
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const DominoGate& gate = netlist.gates()[g];
    for_each_pdn(context, g, [&](const PdnView& view) {
      view.pdn.for_each_leaf([&](std::uint32_t sig) {
        if (sig >= defined) {
          out.push_back(make(LintSeverity::kError, at_gate(g, view.which),
                             format("references undefined signal %u", sig)));
        }
      });
      for (const DischargePoint& p : view.discharges) {
        if (p.at_bottom()) continue;
        if (p.series_node >= view.pdn.pool_size()) {
          out.push_back(
              make(LintSeverity::kError, at_gate(g, view.which),
                   format("discharge at nonexistent node %u", p.series_node)));
          continue;
        }
        const PdnNode& n = view.pdn.node(p.series_node);
        if (n.kind != PdnKind::kSeries || p.pos + 1 >= n.children.size()) {
          out.push_back(
              make(LintSeverity::kError, at_gate(g, view.which),
                   format("discharge at invalid junction (s=%u,p=%u)",
                          p.series_node, p.pos)));
        }
      }
    });
    if (!gate.dual() && !gate.discharges2.empty()) {
      out.push_back(make(LintSeverity::kError, at_gate(g),
                         "discharges2 set on a classic gate"));
    }
  }
  for (std::size_t j = 0; j < netlist.outputs().size(); ++j) {
    const DominoOutput& o = netlist.outputs()[j];
    if (o.constant < 0 && o.signal >= defined) {
      out.push_back(make(LintSeverity::kError, at_output(j),
                         format("dangling signal %u", o.signal)));
    }
  }
}

/// `empty-gate`: every gate has a non-empty primary pulldown.
void empty_gate(const LintContext& context, std::vector<Finding>& out) {
  for (std::size_t g = 0; g < context.netlist.gates().size(); ++g) {
    if (context.netlist.gates()[g].pdn.empty()) {
      out.push_back(make(LintSeverity::kError, at_gate(g),
                         "empty pulldown"));
    }
  }
}

// ---------------------------------------------------------------------------
// Structural rules (require a sound netlist).
// ---------------------------------------------------------------------------

/// `footedness`: the footed flag matches the pulldown contents — a clock
/// foot is required exactly when some leaf is a primary-input literal
/// (paper section IV; the flag drives overhead and PBE grounding).
void footedness(const LintContext& context, std::vector<Finding>& out) {
  const DominoNetlist& netlist = context.netlist;
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const DominoGate& gate = netlist.gates()[g];
    for_each_pdn(context, g, [&](const PdnView& view) {
      bool has_input_leaf = false;
      view.pdn.for_each_leaf([&](std::uint32_t sig) {
        if (netlist.is_input_signal(sig)) has_input_leaf = true;
      });
      if (view.footed != has_input_leaf) {
        out.push_back(make(
            LintSeverity::kError, at_gate(g, view.which),
            format("footed=%d but has_input_leaf=%d",
                   static_cast<int>(view.footed),
                   static_cast<int>(has_input_leaf)),
            has_input_leaf ? "add the n-clock foot transistor (footed=1)"
                           : "drop the n-clock foot transistor (footed=0)"));
      }
    });
    if (!gate.dual() && gate.footed2) {
      out.push_back(make(LintSeverity::kError, at_gate(g),
                         "footed2 set on a classic gate"));
    }
  }
}

/// `shape-limits`: no pulldown exceeds the W/H ceilings the mapper was
/// run with (paper section IV's W_max/H_max feasibility constraints).
void shape_limits(const LintContext& context, std::vector<Finding>& out) {
  const int wmax = context.options.max_width;
  const int hmax = context.options.max_height;
  if (wmax <= 0 && hmax <= 0) return;
  for (std::size_t g = 0; g < context.netlist.gates().size(); ++g) {
    for_each_pdn(context, g, [&](const PdnView& view) {
      if (wmax > 0 && view.pdn.width() > wmax) {
        out.push_back(make(LintSeverity::kError, at_gate(g, view.which),
                           format("width %d exceeds W=%d",
                                  view.pdn.width(), wmax),
                           "split the pulldown across gates (remap)"));
      }
      if (hmax > 0 && view.pdn.height() > hmax) {
        out.push_back(make(LintSeverity::kError, at_gate(g, view.which),
                           format("height %d exceeds H=%d",
                                  view.pdn.height(), hmax),
                           "split the pulldown across gates (remap)"));
      }
    });
  }
}

/// `input-phase`: input literals carry valid primary-input provenance and
/// no (PI, phase) pair is defined twice.
void input_phase(const LintContext& context, std::vector<Finding>& out) {
  const DominoNetlist& netlist = context.netlist;
  std::set<std::pair<int, bool>> seen;
  for (std::size_t k = 0; k < netlist.inputs().size(); ++k) {
    const InputLiteral& in = netlist.inputs()[k];
    if (in.source_pi < 0) {
      out.push_back(make(LintSeverity::kError, at_input(k),
                         "source primary input is unset"));
      continue;
    }
    if (context.source != nullptr &&
        static_cast<std::size_t>(in.source_pi) >=
            context.source->pis().size()) {
      out.push_back(make(
          LintSeverity::kError, at_input(k),
          format("source primary input %d out of range (network has %zu)",
                 in.source_pi, context.source->pis().size())));
      continue;
    }
    if (!seen.insert({in.source_pi, in.negated}).second) {
      out.push_back(make(
          LintSeverity::kWarning, at_input(k),
          format("duplicate literal for PI %d (%s phase)", in.source_pi,
                 in.negated ? "negative" : "positive"),
          "merge the duplicate literals into one netlist input"));
    }
  }
}

/// `io-contract`: outputs are named and (when the source network is
/// available) match its primary outputs one-to-one, in order.
void io_contract(const LintContext& context, std::vector<Finding>& out) {
  const DominoNetlist& netlist = context.netlist;
  for (std::size_t j = 0; j < netlist.outputs().size(); ++j) {
    if (netlist.outputs()[j].name.empty()) {
      out.push_back(
          make(LintSeverity::kError, at_output(j), "unnamed output"));
    }
  }
  if (context.source == nullptr) return;
  const auto& want = context.source->outputs();
  if (netlist.outputs().size() != want.size()) {
    out.push_back(make(
        LintSeverity::kError, LintLocation{},
        format("output count mismatch: netlist %zu vs source %zu",
               netlist.outputs().size(), want.size())));
    return;
  }
  for (std::size_t j = 0; j < want.size(); ++j) {
    if (netlist.outputs()[j].name != want[j].name) {
      out.push_back(make(
          LintSeverity::kError, at_output(j),
          format("name '%s' does not match source output '%s'",
                 netlist.outputs()[j].name.c_str(), want[j].name.c_str())));
    }
  }
}

/// `overhead-count`: re-derive every DominoStats column from first
/// principles (leaf counts + the section-IV overhead constants + the
/// discharge sets + an independent level computation) and cross-check
/// compute_stats().  Also rejects duplicate discharge points, which would
/// silently double-count transistors.
void overhead_count(const LintContext& context, std::vector<Finding>& out) {
  const DominoNetlist& netlist = context.netlist;
  DominoStats expect;
  expect.num_gates = static_cast<int>(netlist.gates().size());
  std::vector<int> level(netlist.gates().size(), 1);
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const DominoGate& gate = netlist.gates()[g];
    int leaves = 0;
    int feet = 0;
    for_each_pdn(context, g, [&](const PdnView& view) {
      view.pdn.for_each_leaf([&](std::uint32_t sig) {
        ++leaves;
        if (!netlist.is_input_signal(sig)) {
          const std::uint32_t other = netlist.gate_of_signal(sig);
          level[g] = std::max(level[g], 1 + level[other]);
        }
      });
      feet += view.footed ? 1 : 0;
      expect.t_disch += static_cast<int>(view.discharges.size());
      // Duplicate points double-count in every transistor budget.
      for (std::size_t i = 0; i < view.discharges.size(); ++i) {
        const auto begin = view.discharges.begin();
        const auto end = begin + static_cast<std::ptrdiff_t>(i);
        if (std::find(begin, end, view.discharges[i]) != end) {
          out.push_back(make(
              LintSeverity::kError,
              at_gate(g, view.which,
                      canonical_point_label(view.pdn, view.discharges[i])),
              "duplicate discharge transistor at the same point",
              "remove the duplicate"));
        }
      }
    });
    const int overhead = gate.dual() ? kGateOverheadDual + feet
                         : (gate.footed ? kGateOverheadFooted
                                        : kGateOverheadFootless);
    expect.t_logic += leaves + overhead;
    expect.t_clock += (gate.dual() ? 2 : 1) + feet +
                      static_cast<int>(gate.discharges.size() +
                                       gate.discharges2.size());
  }
  expect.t_total = expect.t_logic + expect.t_disch;
  for (const DominoOutput& o : netlist.outputs()) {
    if (o.constant < 0 && !netlist.is_input_signal(o.signal)) {
      expect.levels =
          std::max(expect.levels,
                   level[netlist.gate_of_signal(o.signal)]);
    }
  }
  const DominoStats got = compute_stats(netlist);
  auto check = [&](const char* field, int want, int have) {
    if (want == have) return;
    out.push_back(make(
        LintSeverity::kError, LintLocation{},
        format("stats mismatch: %s re-derived as %d but compute_stats "
               "reports %d",
               field, want, have)));
  };
  check("t_logic", expect.t_logic, got.t_logic);
  check("t_disch", expect.t_disch, got.t_disch);
  check("t_total", expect.t_total, got.t_total);
  check("t_clock", expect.t_clock, got.t_clock);
  check("num_gates", expect.num_gates, got.num_gates);
  check("levels", expect.levels, got.levels);
}

// ---------------------------------------------------------------------------
// Clocking / PBE rules.
// ---------------------------------------------------------------------------

/// `clock-foot`: no discharge pMOS sits on a bottom node that the
/// grounding policy already ties to ground (directly or through the
/// clock foot) — the transistor would be dead weight on the clock net.
void clock_foot(const LintContext& context, std::vector<Finding>& out) {
  for (std::size_t g = 0; g < context.netlist.gates().size(); ++g) {
    for_each_pdn(context, g, [&](const PdnView& view) {
      if (!view.grounded) return;
      for (const DischargePoint& p : view.discharges) {
        if (!p.at_bottom()) continue;
        out.push_back(make(
            LintSeverity::kError, at_gate(g, view.which, "bottom"),
            "bottom discharge transistor on a pulldown whose bottom is "
            "grounded under the current policy",
            "remove it (the node can never float high)"));
      }
    });
  }
}

/// `excess-discharge`: discharge transistors the PBE analysis does not
/// require.  Harmless electrically, but they cost area and clock load the
/// paper's T_disch column is meant to minimize.
void excess_discharge(const LintContext& context, std::vector<Finding>& out) {
  for (std::size_t g = 0; g < context.netlist.gates().size(); ++g) {
    for_each_pdn(context, g, [&](const PdnView& view) {
      if (view.pdn.empty()) return;
      const PbeAnalysis analysis = analyze_pbe(
          view.pdn, view.grounded, context.options.pending_model);
      for (const DischargePoint& p : view.discharges) {
        if (p.at_bottom() && view.grounded) continue;  // clock-foot's case
        if (std::find(analysis.required.begin(), analysis.required.end(),
                      p) != analysis.required.end()) {
          continue;
        }
        out.push_back(make(
            LintSeverity::kWarning,
            at_gate(g, view.which, canonical_point_label(view.pdn, p)),
            "discharge transistor not required by the PBE analysis",
            "remove it"));
      }
    });
  }
}

/// `pbe-protection` (headline): independently re-derive every required
/// discharge point from the netlist alone (pdn/analyze.hpp) and require a
/// discharge transistor on each.  With allow_unexcitable_unprotected, a
/// missing transistor is accepted — and reported at info level — when the
/// sequence-aware BDD analysis proves the point unexcitable.
void pbe_protection(const LintContext& context, std::vector<Finding>& out) {
  for (std::size_t g = 0; g < context.netlist.gates().size(); ++g) {
    for_each_pdn(context, g, [&](const PdnView& view) {
      if (view.pdn.empty()) return;
      const PbeAnalysis analysis = analyze_pbe(
          view.pdn, view.grounded, context.options.pending_model);
      for (const DischargePoint& p : analysis.required) {
        if (std::find(view.discharges.begin(), view.discharges.end(), p) !=
            view.discharges.end()) {
          continue;
        }
        const std::string label = canonical_point_label(view.pdn, p);
        if (context.options.allow_unexcitable_unprotected &&
            !discharge_point_excitable(context.netlist, view.pdn,
                                       view.footed, p)) {
          out.push_back(make(
              LintSeverity::kInfo, at_gate(g, view.which, label),
              format("required discharge point %s proven unexcitable; "
                     "accepted without a transistor",
                     to_string(p).c_str())));
          continue;
        }
        out.push_back(make(
            LintSeverity::kError, at_gate(g, view.which, label),
            format("PBE-required discharge point %s unprotected (pdn=%s)",
                   to_string(p).c_str(), view.pdn.to_string().c_str()),
            format("attach a clock-driven discharge pMOS at %s",
                   label.c_str())));
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Hygiene rules.
// ---------------------------------------------------------------------------

/// `unused-logic`: gates whose output no gate or netlist output consumes
/// (dead area), and input literals nothing reads.
void unused_logic(const LintContext& context, std::vector<Finding>& out) {
  const DominoNetlist& netlist = context.netlist;
  std::vector<bool> consumed(netlist.num_inputs() + netlist.gates().size(),
                             false);
  for (const DominoGate& gate : netlist.gates()) {
    gate.for_each_leaf([&](std::uint32_t sig) { consumed[sig] = true; });
  }
  for (const DominoOutput& o : netlist.outputs()) {
    if (o.constant < 0) consumed[o.signal] = true;
  }
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    if (!consumed[netlist.signal_of_gate(static_cast<std::uint32_t>(g))]) {
      out.push_back(make(LintSeverity::kWarning, at_gate(g),
                         "gate output is never consumed",
                         "remove the dead gate"));
    }
  }
  for (std::size_t k = 0; k < netlist.num_inputs(); ++k) {
    if (!consumed[k]) {
      out.push_back(make(LintSeverity::kInfo, at_input(k),
                         "input literal is never consumed"));
    }
  }
}

/// `monotone-output`: the netlist is a monotone (unate) structure; an
/// inverted output over a negated literal or a constant re-introduces an
/// inversion that should have been folded away.
void monotone_output(const LintContext& context, std::vector<Finding>& out) {
  const DominoNetlist& netlist = context.netlist;
  for (std::size_t j = 0; j < netlist.outputs().size(); ++j) {
    const DominoOutput& o = netlist.outputs()[j];
    if (!o.inverted) continue;
    if (o.constant >= 0) {
      out.push_back(make(LintSeverity::kWarning, at_output(j),
                         format("inverted constant output (tie to %d)",
                                1 - o.constant),
                         "fold the inversion into the constant"));
      continue;
    }
    if (netlist.is_input_signal(o.signal) &&
        netlist.inputs()[o.signal].negated) {
      out.push_back(make(
          LintSeverity::kWarning, at_output(j),
          format("output inverts the negated literal '%s' (double "
                 "negation of PI %d)",
                 netlist.inputs()[o.signal].name.c_str(),
                 netlist.inputs()[o.signal].source_pi),
          "drive the output from the positive-phase literal"));
    }
  }
}

/// One built-in rule.  A rule leaves Finding::rule empty; run_lint
/// fills in the id.
struct BuiltinRule {
  const char* id;
  const char* summary;
  LintSeverity severity;
  bool foundation;  ///< runs on any netlist; the others need a sound one
  void (*run)(const LintContext& context, std::vector<Finding>& out);
};

constexpr BuiltinRule kBuiltinRules[] = {
    {"topo-order", "leaf signals reference only inputs or earlier gates",
     LintSeverity::kError, true, topo_order},
    {"dangling-ref", "signals and discharge points refer to existing elements",
     LintSeverity::kError, true, dangling_ref},
    {"empty-gate", "every gate has a non-empty primary pulldown",
     LintSeverity::kError, true, empty_gate},
    {"footedness", "footed flags match pulldown contents",
     LintSeverity::kError, false, footedness},
    {"shape-limits", "pulldown width/height within the mapper's W/H limits",
     LintSeverity::kError, false, shape_limits},
    {"input-phase", "input literals have valid, unique PI provenance",
     LintSeverity::kError, false, input_phase},
    {"io-contract", "outputs named and aligned with the source network",
     LintSeverity::kError, false, io_contract},
    {"overhead-count",
     "transistor accounting consistent with the overhead model",
     LintSeverity::kError, false, overhead_count},
    {"clock-foot",
     "no bottom discharge on a pulldown grounded under the policy",
     LintSeverity::kError, false, clock_foot},
    {"excess-discharge", "no discharge transistors beyond the PBE requirement",
     LintSeverity::kWarning, false, excess_discharge},
    {"pbe-protection",
     "every PBE-required discharge point carries a transistor",
     LintSeverity::kError, false, pbe_protection},
    {"unused-logic", "every gate output and input literal is consumed",
     LintSeverity::kWarning, false, unused_logic},
    {"monotone-output", "no foldable double inversion at an output",
     LintSeverity::kWarning, false, monotone_output},
};

}  // namespace

LintReport run_lint(const DominoNetlist& netlist, const LintOptions& options,
                    const Network* source) {
  StageScope scope(FlowStage::kLint);
  SOIDOM_FAULT_PROBE(FlowStage::kLint);
  LintContext context{netlist, source, options, true};
  std::vector<Finding> findings;
  std::vector<LintRuleInfo> rules;
  // Foundation rules run first; the others run only when no foundation
  // rule reported an error.
  for (const bool foundation : {true, false}) {
    for (const BuiltinRule& rule : kBuiltinRules) {
      if (rule.foundation != foundation) continue;
      rules.push_back(LintRuleInfo{rule.id, rule.summary, rule.severity});
      if (!foundation && !context.sound) continue;
      guard_checkpoint();
      const std::size_t first = findings.size();
      rule.run(context, findings);
      for (std::size_t i = first; i < findings.size(); ++i) {
        if (findings[i].rule.empty()) findings[i].rule = rule.id;
      }
    }
    // Waived foundation errors still mean the netlist is unsafe to
    // index, so soundness ignores waivers.
    for (const Finding& f : findings) {
      if (f.severity >= LintSeverity::kError) context.sound = false;
    }
  }
  return make_lint_report(std::move(findings), std::move(rules),
                          options.waivers);
}

}  // namespace soidom
