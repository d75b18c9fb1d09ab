/// \file test_race.cpp
/// Static phase / monotonicity / race analyzer (src/race): parity and
/// precharge-conduction dataflows, window slack math, rule findings,
/// flow integration, thread-count determinism — and the zero-missed-
/// violations oracle pinning every soisim race-probe observation to a
/// static finding on the same gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/benchgen/generators.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/race/race.hpp"
#include "soidom/soisim/soisim.hpp"

namespace soidom {
namespace {

bool has_rule(const LintReport& report, const std::string& rule) {
  for (const Finding& f : report.findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

/// One footed gate `series(parallel(A, B), C)` over plain PI literals:
/// unate, monotone, race-free under loose windows.
DominoNetlist clean_gate() {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"A", 0, false});
  const std::uint32_t b = nl.add_input({"B", 1, false});
  const std::uint32_t c = nl.add_input({"C", 2, false});
  DominoGate g;
  const PdnIndex par =
      g.pdn.add_parallel({g.pdn.add_leaf(a), g.pdn.add_leaf(b)});
  g.pdn.set_root(g.pdn.add_series({par, g.pdn.add_leaf(c)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  return nl;
}

/// A gate whose series path requires A AND NOT A: the inversion-parity
/// violation (conduction needs a mid-evaluate falling glitch).
DominoNetlist parity_violation_gate() {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"A", 0, false});
  const std::uint32_t abar = nl.add_input({"A_bar", 0, true});
  DominoGate g;
  g.pdn.set_root(g.pdn.add_series({g.pdn.add_leaf(a), g.pdn.add_leaf(abar)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  return nl;
}

/// A footless single-literal gate: the pulldown conducts whenever the PI
/// is high, including during precharge — the static/domino crowbar.
DominoNetlist footless_pi_gate() {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"A", 0, false});
  DominoGate g;
  g.pdn.set_root(g.pdn.add_leaf(a));
  g.footed = false;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  return nl;
}

/// Two-stage chain; the second gate is footless and fed only by the
/// first gate's (clocked) output.  Whether it can crowbar depends
/// entirely on whether the driver precharges in time.
DominoNetlist footless_chain() {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"A", 0, false});
  const std::uint32_t b = nl.add_input({"B", 1, false});
  DominoGate g0;
  g0.pdn.set_root(
      g0.pdn.add_series({g0.pdn.add_leaf(a), g0.pdn.add_leaf(b)}));
  g0.footed = true;
  nl.add_gate(std::move(g0));
  DominoGate g1;
  g1.pdn.set_root(g1.pdn.add_leaf(nl.signal_of_gate(0)));
  g1.footed = false;
  nl.add_gate(std::move(g1));
  nl.add_output({nl.signal_of_gate(1), "f", false, -1});
  return nl;
}

/// Three-level chain plus one gate whose second fanin skips from level 1
/// straight to level 3 (a wave-pipelining hazard under >= 2 phases).
DominoNetlist skip_level_netlist() {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"A", 0, false});
  const std::uint32_t b = nl.add_input({"B", 1, false});
  DominoGate g0;  // level 1
  g0.pdn.set_root(
      g0.pdn.add_series({g0.pdn.add_leaf(a), g0.pdn.add_leaf(b)}));
  g0.footed = true;
  nl.add_gate(std::move(g0));
  DominoGate g1;  // level 2
  g1.pdn.set_root(g1.pdn.add_series(
      {g1.pdn.add_leaf(nl.signal_of_gate(0)), g1.pdn.add_leaf(a)}));
  g1.footed = true;
  nl.add_gate(std::move(g1));
  DominoGate g2;  // level 3, fanins from levels 2 and 1 (gap 2)
  g2.pdn.set_root(
      g2.pdn.add_series({g2.pdn.add_leaf(nl.signal_of_gate(1)),
                         g2.pdn.add_leaf(nl.signal_of_gate(0))}));
  g2.footed = true;
  nl.add_gate(std::move(g2));
  nl.add_output({nl.signal_of_gate(2), "f", false, -1});
  return nl;
}

/// RaceProbes carrying exactly the per-gate bounds run_race checks
/// against, so the simulator's observation and the static analysis share
/// one delay model (the point of the oracle).
std::vector<RaceProbe> make_probes(const DominoNetlist& nl,
                                   const DelayModel& model) {
  const TimingReport timing = analyze_timing(nl, model);
  std::vector<RaceProbe> probes(nl.gates().size());
  for (std::size_t g = 0; g < nl.gates().size(); ++g) {
    probes[g].delay_max = timing.gates[g].delay_max;
    probes[g].pre_max = timing.gates[g].pre_max;
  }
  return probes;
}

/// Drive `cycles` random input vectors through soisim with the race
/// probe on and assert every dynamic observation is statically flagged:
/// zero missed violations, ever.
void expect_no_missed_violations(const DominoNetlist& nl, std::size_t num_pis,
                                 const RaceOptions& opts, std::uint64_t seed,
                                 int cycles) {
  const RaceResult race = run_race(nl, opts);
  ASSERT_EQ(race.report.gates.size(), nl.gates().size());

  SoiSimulator sim(nl);
  RaceClockSpec clock;
  clock.t_eval = opts.t_eval;
  clock.t_pre = opts.t_pre;
  clock.skew = opts.skew;
  sim.enable_race(make_probes(nl, opts.delay), clock);
  Rng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    std::vector<bool> in;
    for (std::size_t k = 0; k < num_pis; ++k) in.push_back(rng.chance(1, 2));
    sim.step(in);
  }
  for (std::size_t g = 0; g < nl.gates().size(); ++g) {
    const RaceGateReport& rep = race.report.gates[g];
    const auto gi = static_cast<std::uint32_t>(g);
    if (opts.t_eval > 0.0) {
      // Observed margin dominates the static slack (subset max, same
      // delay bound): a negative observation implies eval-overrun.
      EXPECT_GE(sim.min_handoff_margin(gi), rep.eval_slack - 1e-9)
          << "gate " << g << " seed " << seed;
      if (sim.min_handoff_margin(gi) < 0.0) {
        EXPECT_LT(rep.eval_slack, 0.0) << "gate " << g << " seed " << seed;
      }
    }
    if (sim.nonmonotone_falls(gi) > 0) {
      EXPECT_TRUE(rep.stale_high)
          << "gate " << g << " seed " << seed << " missed nonmonotone fall";
    }
    if (sim.precharge_fights(gi) > 0) {
      EXPECT_TRUE(rep.mix())
          << "gate " << g << " seed " << seed << " missed crowbar";
    }
  }
}

// ---------------------------------------------------------------------------
// Parity / monotonicity dataflow.

TEST(RaceParity, CleanUnateGateHasNoPairs) {
  const RaceResult r = run_race(clean_gate());
  ASSERT_EQ(r.report.gates.size(), 1u);
  EXPECT_EQ(r.report.gates[0].parity_pairs, 0);
  EXPECT_EQ(r.report.gates_parity, 0);
  EXPECT_FALSE(has_rule(r.lint, "race.inversion-parity"));
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError));
}

TEST(RaceParity, ComplementarySeriesLiteralsAreFlagged) {
  const RaceResult r = run_race(parity_violation_gate());
  ASSERT_EQ(r.report.gates.size(), 1u);
  EXPECT_EQ(r.report.gates[0].parity_pairs, 1);
  EXPECT_EQ(r.report.gates_parity, 1);
  EXPECT_TRUE(has_rule(r.lint, "race.inversion-parity"));
  EXPECT_FALSE(r.lint.clean(LintSeverity::kError));
}

TEST(RaceParity, ParallelBranchesDoNotConflict) {
  // parallel(A, NOT A) conducts monotonically through either branch — a
  // legal OR of both phases; only SERIES composition is a violation.
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"A", 0, false});
  const std::uint32_t abar = nl.add_input({"A_bar", 0, true});
  DominoGate g;
  g.pdn.set_root(
      g.pdn.add_parallel({g.pdn.add_leaf(a), g.pdn.add_leaf(abar)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  const RaceResult r = run_race(nl);
  EXPECT_EQ(r.report.gates[0].parity_pairs, 0);
  EXPECT_FALSE(has_rule(r.lint, "race.inversion-parity"));
}

TEST(RaceParity, MappedFlowNetlistsAreParityClean) {
  // The unate conversion guarantees monotone mapped netlists; the
  // analyzer must agree on every paper-table fixture it sees.
  FlowOptions flow;
  flow.verify_rounds = 0;
  const FlowResult mapped = run_flow(testing::fig3_network(), flow);
  const RaceResult r = run_race(mapped.netlist);
  EXPECT_EQ(r.report.gates_parity, 0);
  EXPECT_EQ(r.report.gates_mix, 0);
}

// ---------------------------------------------------------------------------
// Static/domino mix (precharge-conduction dataflow).

TEST(RaceMix, FootlessPiPulldownIsACrowbar) {
  const RaceResult r = run_race(footless_pi_gate());
  ASSERT_EQ(r.report.gates.size(), 1u);
  EXPECT_TRUE(r.report.gates[0].mix1);
  EXPECT_EQ(r.report.gates_mix, 1);
  EXPECT_TRUE(has_rule(r.lint, "race.static-mix"));
}

TEST(RaceMix, FootedGateNeverMixes) {
  const RaceResult r = run_race(clean_gate());
  EXPECT_FALSE(r.report.gates[0].mix1);
  EXPECT_FALSE(has_rule(r.lint, "race.static-mix"));
}

TEST(RaceMix, FootlessGateFedByTimelyDriverIsSafe) {
  // Unconstrained precharge window: the domino driver precharges low, so
  // the footless second stage cannot conduct during precharge.
  const RaceResult r = run_race(footless_chain());
  ASSERT_EQ(r.report.gates.size(), 2u);
  EXPECT_FALSE(r.report.gates[1].mix1);
  EXPECT_FALSE(has_rule(r.lint, "race.static-mix"));
}

TEST(RaceMix, StaleDriverTurnsTheFootlessStageIntoACrowbar) {
  // A precharge window nobody can meet makes the driver stale-high, and
  // the stale high feeds the footless pulldown during precharge.
  RaceOptions opts;
  opts.t_pre = 0.1;
  const RaceResult r = run_race(footless_chain(), opts);
  ASSERT_EQ(r.report.gates.size(), 2u);
  EXPECT_TRUE(r.report.gates[0].stale_high);
  EXPECT_TRUE(r.report.gates[1].mix1);
  EXPECT_EQ(r.report.gates[1].nonmonotone_inputs, 1);
  EXPECT_TRUE(has_rule(r.lint, "race.static-mix"));
  EXPECT_TRUE(has_rule(r.lint, "race.precharge-overrun"));
}

// ---------------------------------------------------------------------------
// Window slack math and phases.

TEST(RaceWindows, UnconstrainedWindowsDisableSlacks) {
  const RaceResult r = run_race(clean_gate());
  const RaceGateReport& g = r.report.gates[0];
  EXPECT_EQ(g.eval_slack, 0.0);
  EXPECT_EQ(g.pre_slack, 0.0);
  EXPECT_EQ(g.skew_tolerance, 0.0);
  EXPECT_FALSE(g.stale_high);
  EXPECT_EQ(r.report.min_eval_slack, 0.0);
  EXPECT_EQ(r.report.min_pre_slack, 0.0);
}

TEST(RaceWindows, SlacksMatchTimingIntervals) {
  RaceOptions opts;
  opts.t_eval = 10.0;
  opts.t_pre = 5.0;
  opts.skew = 0.5;
  const DominoNetlist nl = clean_gate();
  const TimingReport timing = analyze_timing(nl, opts.delay);
  const RaceResult r = run_race(nl, opts);
  const RaceGateReport& g = r.report.gates[0];
  EXPECT_DOUBLE_EQ(g.arrival_max, timing.gates[0].arrival_max);
  EXPECT_DOUBLE_EQ(g.pre_max, timing.gates[0].pre_max);
  EXPECT_DOUBLE_EQ(g.eval_slack, 10.0 - 0.5 - timing.gates[0].arrival_max);
  EXPECT_DOUBLE_EQ(g.pre_slack, 5.0 - 0.5 - timing.gates[0].pre_max);
  EXPECT_DOUBLE_EQ(g.skew_tolerance, std::min(g.eval_slack, g.pre_slack));
  EXPECT_DOUBLE_EQ(r.report.critical_arrival, timing.critical_max);
}

TEST(RaceWindows, EvalOverrunWarnsAndCounts) {
  RaceOptions opts;
  opts.t_eval = 0.5;  // nothing settles this fast
  const RaceResult r = run_race(clean_gate(), opts);
  EXPECT_LT(r.report.gates[0].eval_slack, 0.0);
  EXPECT_EQ(r.report.gates_eval_overrun, 1);
  EXPECT_TRUE(has_rule(r.lint, "race.eval-overrun"));
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError));   // warning severity
  EXPECT_FALSE(r.lint.clean(LintSeverity::kWarning));
}

TEST(RaceWindows, SkewMarginWarnsOnlyBetweenMarginAndOverrun) {
  const DominoNetlist nl = clean_gate();
  const TimingReport timing = analyze_timing(nl);
  RaceOptions opts;
  opts.t_eval = timing.gates[0].arrival_max + 0.5;  // slack = 0.5
  opts.margin = 1.0;
  const RaceResult tight = run_race(nl, opts);
  EXPECT_TRUE(has_rule(tight.lint, "race.skew-margin"));
  EXPECT_FALSE(has_rule(tight.lint, "race.eval-overrun"));

  opts.margin = 0.25;  // slack 0.5 >= margin: quiet
  const RaceResult roomy = run_race(nl, opts);
  EXPECT_FALSE(has_rule(roomy.lint, "race.skew-margin"));

  opts.t_eval = 0.5;  // overrun: the stronger finding replaces the warn
  opts.margin = 1.0;
  const RaceResult overrun = run_race(nl, opts);
  EXPECT_TRUE(has_rule(overrun.lint, "race.eval-overrun"));
  EXPECT_FALSE(has_rule(overrun.lint, "race.skew-margin"));
}

TEST(RacePhases, LevelsMapToPhasesAndSkipsWarnOnlyMultiPhase) {
  const DominoNetlist nl = skip_level_netlist();
  RaceOptions two;
  two.num_phases = 2;
  const RaceResult r = run_race(nl, two);
  ASSERT_EQ(r.report.gates.size(), 3u);
  EXPECT_EQ(r.report.gates[0].level, 1);
  EXPECT_EQ(r.report.gates[0].phase, 0);
  EXPECT_EQ(r.report.gates[1].phase, 1);
  EXPECT_EQ(r.report.gates[2].phase, 0);
  EXPECT_EQ(r.report.gates[2].skip_fanins, 1);
  EXPECT_EQ(r.report.gates[2].max_fanin_gap, 2);
  EXPECT_EQ(r.report.gates_phase_skip, 1);
  EXPECT_TRUE(has_rule(r.lint, "race.phase-skip"));

  const RaceResult single = run_race(nl);  // 1 phase: hazard is moot
  EXPECT_EQ(single.report.gates[2].skip_fanins, 1);  // still reported
  EXPECT_FALSE(has_rule(single.lint, "race.phase-skip"));
}

TEST(RaceLevels, BalanceTableCoversEveryLevel) {
  const RaceResult r = run_race(skip_level_netlist());
  ASSERT_EQ(r.report.levels.size(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(r.report.levels[l].level, static_cast<int>(l) + 1);
    EXPECT_EQ(r.report.levels[l].gates, 1);
    EXPECT_DOUBLE_EQ(r.report.levels[l].spread,
                     r.report.levels[l].arrival_max -
                         r.report.levels[l].arrival_min);
  }
  EXPECT_EQ(r.report.levels[2].skip_fanins, 1);
  EXPECT_EQ(r.report.max_level, 3);
}

TEST(RaceReportJson, CarriesParametersGatesAndLevels) {
  RaceOptions opts;
  opts.t_eval = 10.0;
  opts.t_pre = 5.0;
  const RaceResult r = run_race(skip_level_netlist(), opts);
  const std::string json = r.report.to_json();
  EXPECT_NE(json.find("\"num_phases\":1"), std::string::npos);
  EXPECT_NE(json.find("\"t_eval\":10"), std::string::npos);
  EXPECT_NE(json.find("\"gates\":[{\"gate\":0"), std::string::npos);
  EXPECT_NE(json.find("\"levels\":[{\"level\":1"), std::string::npos);
  EXPECT_NE(json.find("\"skew_tolerance\""), std::string::npos);
}

TEST(RaceOptionsValidation, BadOptionsRejectedUpFront) {
  const DominoNetlist nl = clean_gate();
  RaceOptions opts;
  opts.num_phases = 0;
  EXPECT_THROW(run_race(nl, opts), Error);
  opts = RaceOptions{};
  opts.t_eval = -1.0;
  EXPECT_THROW(run_race(nl, opts), Error);
  opts = RaceOptions{};
  opts.skew = -0.1;
  EXPECT_THROW(run_race(nl, opts), Error);
}

// ---------------------------------------------------------------------------
// Waivers.

TEST(RaceRules, WaiversSuppressWithoutDeletingFindings) {
  RaceOptions opts;
  opts.waivers = {"race.static-mix"};
  const RaceResult r = run_race(footless_pi_gate(), opts);
  bool waived = false;
  for (const Finding& f : r.lint.findings) {
    if (f.rule == "race.static-mix") {
      waived = true;
      EXPECT_TRUE(f.waived);
    }
  }
  EXPECT_TRUE(waived);
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError));
  EXPECT_NE(r.lint.to_sarif("x").find("\"suppressions\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flow integration.

TEST(RaceFlow, OptInPopulatesResultAndSummary) {
  FlowOptions options;
  options.race = true;
  const FlowResult r = run_flow(testing::fig3_network(), options);
  ASSERT_TRUE(r.race.has_value());
  EXPECT_EQ(r.race->report.gates.size(), r.netlist.gates().size());
  EXPECT_NE(summarize(r).find("race="), std::string::npos);

  const FlowResult off = run_flow(testing::fig3_network(), FlowOptions{});
  EXPECT_FALSE(off.race.has_value());
  EXPECT_EQ(summarize(off).find("race="), std::string::npos);
}

TEST(RaceFlow, FailOnSeverityGatesTheFlow) {
  FlowOptions options;
  options.race = true;
  options.race_options.t_eval = 0.5;  // every gate overruns evaluate
  options.race_fail_on = LintSeverity::kWarning;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  ASSERT_TRUE(outcome.result.has_value());  // netlist still delivered
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kVerificationFailed);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kRace);
}

TEST(RaceFlow, BadOptionsRejectedByValidate) {
  FlowOptions options;
  options.race = true;
  options.race_options.num_phases = 0;
  EXPECT_THROW(validate(options), Error);
  options.race_options.num_phases = 1;
  options.race_options.t_pre = -2.0;
  EXPECT_THROW(validate(options), Error);
  options.race_options.t_pre = 0.0;
  options.race_options.margin = -1.0;
  EXPECT_THROW(validate(options), Error);
}

// ---------------------------------------------------------------------------
// Determinism: run_race is serial, and its output is pinned.  The FNV-1a
// digests were recorded when the analyzers still fanned gates out over a
// thread pool (all thread counts agreed).

TEST(RaceDeterminism, ReportAndSarifByteIdenticalAcrossThreads) {
  // Two small circuits with tight windows, and the largest paper-suite
  // circuits (many gates and levels) with tight-but-passable ones.
  struct Case {
    const char* name;
    double t_eval, t_pre, skew, margin;
    std::uint64_t json, sarif;
  };
  const Case cases[] = {
      {"cm150", 20.0, 5.0, 0.25, 2.0, 0x4077bc384b3eda1eull,
       0xfa28824b843c6a8cull},
      {"9symml", 20.0, 5.0, 0.25, 2.0, 0xdc2d45f8c6228317ull,
       0x968ef4ba11d64ae8ull},
      {"c1908", 40.0, 10.0, 0.3, 1.0, 0x874d7351f9ed2df9ull,
       0x346bd05441ba8416ull},
      {"c5315", 40.0, 10.0, 0.3, 1.0, 0x7c59f7445bb458a9ull,
       0x26d88259fc309a6cull},
      {"c7552", 40.0, 10.0, 0.3, 1.0, 0x0b13f99fa66e6d3aull,
       0xaff2b82116e2cf21ull},
      {"k2", 40.0, 10.0, 0.3, 1.0, 0x5e7c4b1d5765cf04ull,
       0x469669b8561ab31full},
  };
  for (const Case& c : cases) {
    FlowOptions flow;
    flow.verify_rounds = 0;
    const FlowResult mapped = run_flow(build_benchmark(c.name), flow);
    RaceOptions opts;
    opts.t_eval = c.t_eval;
    opts.t_pre = c.t_pre;
    opts.skew = c.skew;
    opts.margin = c.margin;
    const RaceResult r = run_race(mapped.netlist, opts);
    EXPECT_EQ(fnv1a64(r.report.to_json()), c.json) << c.name;
    EXPECT_EQ(fnv1a64(r.lint.to_sarif("x.circuit")), c.sarif) << c.name;
  }
}

TEST(RaceDeterminism, ScaleCircuitAllAnalyzersByteIdenticalAcrossThreads) {
  // benchgen scale circuit (not a paper fixture): the full analyzer
  // stack — flow lint, CSA, race — serializes to the pinned bytes.
  const Network source = gen_layered_dag(12, 6, 80, 0xb0d1e5);
  FlowOptions options;
  options.verify_rounds = 0;
  options.csa = true;
  options.race = true;
  options.race_options.t_eval = 30.0;
  options.race_options.t_pre = 6.0;
  const FlowResult r = run_flow(source, options);
  ASSERT_TRUE(r.csa.has_value());
  ASSERT_TRUE(r.race.has_value());
  const std::string serialized = r.lint.to_sarif("scale.circuit") + "\n" +
                                 r.csa->report.to_json() + "\n" +
                                 r.csa->lint.to_sarif("scale.circuit") +
                                 "\n" + r.race->report.to_json() + "\n" +
                                 r.race->lint.to_sarif("scale.circuit");
  EXPECT_EQ(fnv1a64(serialized), 0x174c3cbfc168229eull);
}

// ---------------------------------------------------------------------------
// The zero-missed-violations oracle: every soisim race observation is
// statically flagged on the same gate.

TEST(RaceOracle, HandGatesNeverMissViolations) {
  RaceOptions opts;
  opts.t_eval = 4.0;
  opts.t_pre = 1.0;  // tight: hand gates go stale
  opts.skew = 0.1;
  expect_no_missed_violations(clean_gate(), 3, opts, 11, 64);
  expect_no_missed_violations(footless_pi_gate(), 1, opts, 12, 64);
  expect_no_missed_violations(footless_chain(), 2, opts, 13, 64);
  expect_no_missed_violations(skip_level_netlist(), 2, opts, 14, 64);
}

TEST(RaceOracle, PaperTableCircuitsNeverMissViolations) {
  for (const char* name : {"decod", "cm150", "9symml", "mux"}) {
    FlowOptions flow;
    flow.verify_rounds = 0;
    const FlowResult mapped = run_flow(build_benchmark(name), flow);
    std::size_t num_pis = 0;
    for (const InputLiteral& in : mapped.netlist.inputs()) {
      num_pis = std::max(num_pis, static_cast<std::size_t>(in.source_pi) + 1);
    }
    RaceOptions opts;
    opts.t_eval = 12.0;
    opts.t_pre = 2.5;
    opts.skew = 0.2;
    expect_no_missed_violations(mapped.netlist, num_pis, opts, 0xfeed, 32);
  }
}

TEST(RaceOracle, FuzzCorpusZeroMissedViolations) {
  // >= 200 random mapped netlists x 16 cycles; windows, skew and
  // grounding policy varied across the corpus so both loose and
  // violating configurations are exercised.
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
    RaceOptions opts;
    opts.t_eval = 2.0 + static_cast<double>(seed % 17);
    opts.t_pre = 0.5 + 0.5 * static_cast<double>(seed % 7);
    opts.skew = 0.05 * static_cast<double>(seed % 5);
    expect_no_missed_violations(mapped.netlist, 5, opts, seed * 37, 16);
    ++cases;
  }
  EXPECT_EQ(cases, 200);
}

}  // namespace
}  // namespace soidom
