/// \file analyze.cpp
/// The race dataflows and the run_race driver.
///
/// Conservativeness argument (docs/RACE.md has the full version).  The
/// soisim race probe observes, per cycle,
///  * an evaluate handoff margin t_eval - skew - arrival, where the
///    observed arrival accumulates RaceProbe::delay_max along the
///    actually-high inputs only — a subset of the inputs the static
///    arrival_max maximizes over, so observed arrival <= arrival_max by
///    induction over topological order and a negative observed margin
///    implies eval_slack < 0 (race.eval-overrun);
///  * a non-monotone evaluate fall, which the probe derives from the
///    same pre_max bound the analyzer uses, so every observed fall is on
///    a gate the analyzer marked stale_high (race.precharge-overrun);
///  * a precharge crowbar fight, which needs a root-to-bottom conducting
///    path of high PI literals through a footless pulldown — every PI
///    literal is possibly-high in the static precharge-conduction
///    dataflow, so the path exists statically too (race.static-mix).
#include <algorithm>
#include <utility>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/race/race.hpp"

namespace soidom {
namespace {

/// A PI-literal requirement: (source primary input, phase).
using Literal = std::pair<int, bool>;

/// Sorted-unique set union into `a`.
void merge_union(std::vector<Literal>& a, const std::vector<Literal>& b) {
  std::vector<Literal> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  a = std::move(out);
}

/// Sorted-unique set intersection into `a`.
void merge_intersect(std::vector<Literal>& a, const std::vector<Literal>& b) {
  std::vector<Literal> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  a = std::move(out);
}

/// Parity dataflow over one pulldown tree.  Computes, per node, the set
/// of PI literals required by EVERY conducting assignment of the subtree
/// (leaf: the literal itself for PI leaves, nothing for gate-driven
/// leaves; series: union of children; parallel: intersection).  A series
/// union containing both phases of one PI means every conducting path
/// through that node needs pi AND NOT pi simultaneously — statically
/// impossible, so conduction can only happen transiently while the two
/// literal lines switch at different times: a non-monotone evaluate
/// glitch.  Conflicting PIs are collected into `conflicts`.
struct ParityWalker {
  const Pdn& pdn;
  const DominoNetlist& netlist;
  std::vector<int> conflicts;  ///< sorted-unique source PIs in a pair

  std::vector<Literal> walk(PdnIndex i) {
    const PdnNode& n = pdn.node(i);
    switch (n.kind) {
      case PdnKind::kLeaf: {
        if (!netlist.is_input_signal(n.signal)) return {};
        const InputLiteral& lit = netlist.inputs()[n.signal];
        return {Literal{lit.source_pi, lit.negated}};
      }
      case PdnKind::kSeries: {
        std::vector<Literal> required;
        for (const PdnIndex c : n.children) {
          merge_union(required, walk(c));
        }
        for (std::size_t k = 0; k + 1 < required.size(); ++k) {
          if (required[k].first == required[k + 1].first &&
              !required[k].second && required[k + 1].second) {
            const int pi = required[k].first;
            const auto it =
                std::lower_bound(conflicts.begin(), conflicts.end(), pi);
            if (it == conflicts.end() || *it != pi) conflicts.insert(it, pi);
          }
        }
        return required;
      }
      case PdnKind::kParallel: {
        std::vector<Literal> required = walk(n.children[0]);
        for (std::size_t k = 1; k < n.children.size(); ++k) {
          if (required.empty()) break;
          merge_intersect(required, walk(n.children[k]));
        }
        return required;
      }
    }
    return {};
  }
};

/// Number of PIs required in both phases anywhere in `pdn`.
int parity_pairs(const Pdn& pdn, const DominoNetlist& netlist) {
  if (pdn.empty()) return 0;
  ParityWalker walker{pdn, netlist, {}};
  walker.walk(pdn.root());
  return static_cast<int>(walker.conflicts.size());
}

std::string gate_json(const RaceGateReport& g) {
  std::string out = format(
      R"({"gate":%d,"level":%d,"phase":%d,"fanout":%d,)"
      R"("arrival_min":%.9g,"arrival_max":%.9g,)"
      R"("pre_min":%.9g,"pre_max":%.9g,)"
      R"("eval_slack":%.9g,"pre_slack":%.9g,"skew_tolerance":%.9g,)"
      R"("stale_high":%s,"nonmonotone_inputs":%d,)"
      R"("parity_pairs":%d,"parity_pairs2":%d,"mix1":%s,"mix2":%s,)"
      R"("skip_fanins":%d,"max_fanin_gap":%d})",
      g.gate, g.level, g.phase, g.fanout, g.arrival_min, g.arrival_max,
      g.pre_min, g.pre_max, g.eval_slack, g.pre_slack, g.skew_tolerance,
      g.stale_high ? "true" : "false", g.nonmonotone_inputs, g.parity_pairs,
      g.parity_pairs2, g.mix1 ? "true" : "false", g.mix2 ? "true" : "false",
      g.skip_fanins, g.max_fanin_gap);
  return out;
}

std::string level_json(const RaceLevelReport& l) {
  return format(R"({"level":%d,"gates":%d,"arrival_min":%.9g,)"
                R"("arrival_max":%.9g,"spread":%.9g,"skip_fanins":%d})",
                l.level, l.gates, l.arrival_min, l.arrival_max, l.spread,
                l.skip_fanins);
}

/// The race.* findings over `report`, one rule after another
/// (docs/LINT.md has the catalogue).
LintReport race_findings(const RaceReport& report,
                         const RaceOptions& options) {
  std::vector<Finding> out;
  const auto emit = [&](const char* rule, LintSeverity severity,
                        const RaceGateReport& gate, int which,
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
  for (const RaceGateReport& gate : report.gates) {
    for (const auto& [which, pairs] :
         {std::pair{1, gate.parity_pairs}, std::pair{2, gate.parity_pairs2}}) {
      if (pairs == 0) continue;
      emit("race.inversion-parity", LintSeverity::kError, gate, which,
           format("%d primary input%s required in both phases on a series "
                  "path; the pulldown can only conduct through a "
                  "mid-evaluate falling glitch",
                  pairs, pairs == 1 ? "" : "s"),
           "re-run unate conversion; a correctly unate mapping never "
           "places complementary literals in series");
    }
  }
  for (const RaceGateReport& gate : report.gates) {
    for (const auto& [which, mix] :
         {std::pair{1, gate.mix1}, std::pair{2, gate.mix2}}) {
      if (!mix) continue;
      emit("race.static-mix", LintSeverity::kError, gate, which,
           format("footless pulldown can conduct while the precharge device "
                  "is on (%d stale-high fanin%s feeding it)",
                  gate.nonmonotone_inputs,
                  gate.nonmonotone_inputs == 1 ? "" : "s"),
           "add a clock foot transistor, or fix the stale-high drivers "
           "(race.precharge-overrun) feeding this gate");
    }
  }
  for (const RaceGateReport& gate : report.gates) {
    if (!gate.stale_high) continue;
    emit("race.precharge-overrun", LintSeverity::kError, gate, 0,
         format("precharge bound %.3f + skew %.3f overruns t_pre %.3f by "
                "%.3f; the output falls mid-evaluate and is non-monotone to "
                "%d fanout%s",
                gate.pre_max, options.skew, options.t_pre, -gate.pre_slack,
                gate.fanout, gate.fanout == 1 ? "" : "s"),
         "widen the precharge window, strengthen the precharge device "
         "(smaller per_parallel / per_discharge loading), or reduce the "
         "pulldown width");
  }
  for (const RaceGateReport& gate : report.gates) {
    if (options.t_eval <= 0.0 || gate.eval_slack >= 0.0) continue;
    emit("race.eval-overrun", LintSeverity::kWarning, gate, 0,
         format("arrival bound %.3f + skew %.3f overruns t_eval %.3f by "
                "%.3f (level %d)",
                gate.arrival_max, options.skew, options.t_eval,
                -gate.eval_slack, gate.level),
         "widen the evaluate window or rebalance the path (the levels "
         "table in the race report shows where the slack went)");
  }
  const bool margin_checked =
      options.margin > 0.0 && (options.t_eval > 0.0 || options.t_pre > 0.0);
  for (const RaceGateReport& gate : report.gates) {
    // Overruns already get their own (stronger) findings.
    if (!margin_checked || gate.stale_high) continue;
    if (options.t_eval > 0.0 && gate.eval_slack < 0.0) continue;
    if (gate.skew_tolerance >= options.margin) continue;
    emit("race.skew-margin", LintSeverity::kWarning, gate, 0,
         format("residual slack %.3f is below the required margin %.3f "
                "(eval slack %.3f, precharge slack %.3f)",
                gate.skew_tolerance, options.margin, gate.eval_slack,
                gate.pre_slack),
         "tighten the clock distribution or widen the windows");
  }
  for (const RaceGateReport& gate : report.gates) {
    if (options.num_phases < 2 || gate.skip_fanins == 0) continue;
    emit("race.phase-skip", LintSeverity::kWarning, gate, 0,
         format("%d fanin%s skip%s up to %d level%s into phase %d; the "
                "driver's wave precharges before this gate evaluates",
                gate.skip_fanins, gate.skip_fanins == 1 ? "" : "s",
                gate.skip_fanins == 1 ? "s" : "", gate.max_fanin_gap,
                gate.max_fanin_gap == 1 ? "" : "s", gate.phase),
         "insert buffer gates to balance the path (the planned "
         "path-balancing DP consumes the levels table for this)");
  }
  return make_lint_report(
      std::move(out),
      {{"race.inversion-parity",
        "a series path requires both phases of one primary input; "
        "conduction needs a non-monotone evaluate transition",
        LintSeverity::kError},
       {"race.static-mix",
        "a footless pulldown can conduct during precharge (static/domino "
        "crowbar path)",
        LintSeverity::kError},
       {"race.precharge-overrun",
        "precharge cannot finish inside the precharge window; the output "
        "holds a stale high into evaluate (min-delay race)",
        LintSeverity::kError},
       {"race.eval-overrun",
        "worst-case arrival overruns the evaluate window; the stage "
        "handoff can miss",
        LintSeverity::kWarning},
       {"race.skew-margin",
        "a stage handoff survives but with less residual slack than the "
        "required skew-tolerance margin",
        LintSeverity::kWarning},
       {"race.phase-skip",
        "a fanin crosses more than one level under a multi-phase clock "
        "(wave-pipelining hazard)",
        LintSeverity::kWarning}},
      options.waivers);
}

}  // namespace

std::string RaceReport::to_json() const {
  std::string out = format(
      R"({"num_phases":%d,"t_eval":%.9g,"t_pre":%.9g,"skew":%.9g,)"
      R"("margin":%.9g,"max_level":%d,"critical_arrival":%.9g,)"
      R"("min_eval_slack":%.9g,"min_pre_slack":%.9g,"skew_tolerance":%.9g,)"
      R"("gates_parity":%d,"gates_mix":%d,"gates_stale":%d,)"
      R"("gates_eval_overrun":%d,"gates_phase_skip":%d,"gates":[)",
      num_phases, t_eval, t_pre, skew, margin, max_level, critical_arrival,
      min_eval_slack, min_pre_slack, skew_tolerance, gates_parity, gates_mix,
      gates_stale, gates_eval_overrun, gates_phase_skip);
  for (std::size_t g = 0; g < gates.size(); ++g) {
    if (g) out += ',';
    out += gate_json(gates[g]);
  }
  out += R"(],"levels":[)";
  for (std::size_t l = 0; l < levels.size(); ++l) {
    if (l) out += ',';
    out += level_json(levels[l]);
  }
  out += "]}";
  return out;
}

RaceResult run_race(const DominoNetlist& netlist, const RaceOptions& options) {
  SOIDOM_REQUIRE(options.num_phases >= 1,
                 "run_race: num_phases must be at least 1");
  SOIDOM_REQUIRE(options.t_eval >= 0.0 && options.t_pre >= 0.0,
                 "run_race: clock windows must be non-negative");
  SOIDOM_REQUIRE(options.skew >= 0.0 && options.margin >= 0.0,
                 "run_race: skew and margin must be non-negative");
  StageScope stage_scope(FlowStage::kRace);
  SOIDOM_FAULT_PROBE(FlowStage::kRace);
  guard_checkpoint();

  const TimingReport timing = analyze_timing(netlist, options.delay);
  const std::vector<int> levels = netlist.gate_levels();
  const std::size_t num_gates = netlist.gates().size();

  // Fanout counts (same accounting as analyze_timing).
  std::vector<int> fanout(num_gates, 0);
  for (const DominoGate& gate : netlist.gates()) {
    gate.for_each_leaf([&](std::uint32_t sig) {
      if (!netlist.is_input_signal(sig)) ++fanout[netlist.gate_of_signal(sig)];
    });
  }
  for (const DominoOutput& o : netlist.outputs()) {
    if (o.constant < 0 && !netlist.is_input_signal(o.signal)) {
      ++fanout[netlist.gate_of_signal(o.signal)];
    }
  }

  // Stale-high pass first: the precharge-conduction dataflow below
  // reads every fanin's flag.
  std::vector<char> stale(num_gates, 0);
  if (options.t_pre > 0.0) {
    for (std::size_t g = 0; g < num_gates; ++g) {
      stale[g] = options.t_pre - options.skew - timing.gates[g].pre_max < 0.0
                     ? 1
                     : 0;
    }
  }
  // A leaf is possibly high during precharge when it is a PI literal
  // (PIs are not clocked) or a stale-high domino driver.
  const auto precharge_high = [&](std::uint32_t sig) {
    return netlist.is_input_signal(sig) ||
           stale[netlist.gate_of_signal(sig)] != 0;
  };

  std::vector<RaceGateReport> slots(num_gates);
  for (std::size_t g = 0; g < num_gates; ++g) {
    guard_checkpoint();
    const DominoGate& spec = netlist.gates()[g];
    const GateTiming& t = timing.gates[g];
    RaceGateReport& rep = slots[g];
    rep.gate = static_cast<int>(g);
    rep.level = levels[g];
    rep.phase = (levels[g] - 1) % options.num_phases;
    rep.fanout = fanout[g];
    rep.arrival_min = t.arrival_min;
    rep.arrival_max = t.arrival_max;
    rep.pre_min = t.pre_min;
    rep.pre_max = t.pre_max;
    if (options.t_eval > 0.0) {
      rep.eval_slack = options.t_eval - options.skew - t.arrival_max;
    }
    if (options.t_pre > 0.0) {
      rep.pre_slack = options.t_pre - options.skew - t.pre_max;
      rep.stale_high = rep.pre_slack < 0.0;
    }
    if (options.t_eval > 0.0 && options.t_pre > 0.0) {
      rep.skew_tolerance = std::min(rep.eval_slack, rep.pre_slack);
    } else if (options.t_eval > 0.0) {
      rep.skew_tolerance = rep.eval_slack;
    } else if (options.t_pre > 0.0) {
      rep.skew_tolerance = rep.pre_slack;
    }
    rep.parity_pairs = parity_pairs(spec.pdn, netlist);
    if (spec.dual()) rep.parity_pairs2 = parity_pairs(spec.pdn2, netlist);
    if (!spec.pdn.empty() && !spec.footed) {
      rep.mix1 = spec.pdn.conducts(precharge_high);
    }
    if (spec.dual() && !spec.footed2) {
      rep.mix2 = spec.pdn2.conducts(precharge_high);
    }
    // Fanin edges: distinct driver gates (level gaps + stale sources).
    std::vector<std::uint32_t> fanins = spec.all_leaf_signals();
    std::sort(fanins.begin(), fanins.end());
    fanins.erase(std::unique(fanins.begin(), fanins.end()), fanins.end());
    for (const std::uint32_t sig : fanins) {
      if (netlist.is_input_signal(sig)) continue;
      const std::uint32_t fg = netlist.gate_of_signal(sig);
      if (stale[fg] != 0) ++rep.nonmonotone_inputs;
      const int gap = levels[g] - levels[fg];
      if (gap > 1) {
        ++rep.skip_fanins;
        rep.max_fanin_gap = std::max(rep.max_fanin_gap, gap);
      }
    }
  }

  RaceResult result;
  result.report.gates = std::move(slots);
  result.report.num_phases = options.num_phases;
  result.report.t_eval = options.t_eval;
  result.report.t_pre = options.t_pre;
  result.report.skew = options.skew;
  result.report.margin = options.margin;

  for (const RaceGateReport& g : result.report.gates) {
    RaceReport& r = result.report;
    r.max_level = std::max(r.max_level, g.level);
    r.critical_arrival = std::max(r.critical_arrival, g.arrival_max);
    if (g.parity()) ++r.gates_parity;
    if (g.mix()) ++r.gates_mix;
    if (g.stale_high) ++r.gates_stale;
    if (options.t_eval > 0.0 && g.eval_slack < 0.0) ++r.gates_eval_overrun;
    if (g.skip_fanins > 0) ++r.gates_phase_skip;
  }
  if (!result.report.gates.empty()) {
    bool first = true;
    for (const RaceGateReport& g : result.report.gates) {
      RaceReport& r = result.report;
      if (options.t_eval > 0.0) {
        r.min_eval_slack =
            first ? g.eval_slack : std::min(r.min_eval_slack, g.eval_slack);
      }
      if (options.t_pre > 0.0) {
        r.min_pre_slack =
            first ? g.pre_slack : std::min(r.min_pre_slack, g.pre_slack);
      }
      if (options.t_eval > 0.0 || options.t_pre > 0.0) {
        r.skew_tolerance = first ? g.skew_tolerance
                                 : std::min(r.skew_tolerance,
                                            g.skew_tolerance);
      }
      first = false;
    }
  }
  result.report.levels.resize(
      static_cast<std::size_t>(result.report.max_level));
  for (const RaceGateReport& g : result.report.gates) {
    RaceLevelReport& row =
        result.report.levels[static_cast<std::size_t>(g.level - 1)];
    if (row.gates == 0) {
      row.level = g.level;
      row.arrival_min = g.arrival_min;
      row.arrival_max = g.arrival_max;
    } else {
      row.arrival_min = std::min(row.arrival_min, g.arrival_min);
      row.arrival_max = std::max(row.arrival_max, g.arrival_max);
    }
    ++row.gates;
    row.skip_fanins += g.skip_fanins;
  }
  for (RaceLevelReport& row : result.report.levels) {
    row.spread = row.arrival_max - row.arrival_min;
  }

  result.lint = race_findings(result.report, options);
  return result;
}

}  // namespace soidom
