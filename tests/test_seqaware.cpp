#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "helpers.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/domino/seqaware.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/prove/prove.hpp"
#include "soidom/soisim/soisim.hpp"

namespace soidom {
namespace {

/// One footed gate with the Fig. 2 structure (parallel on top of D) and
/// its required discharge transistor on node 1.
DominoNetlist fig2_protected() {
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
  insert_discharges(nl);
  return nl;
}

TEST(SeqAware, Fig2PointIsExcitableAndKept) {
  DominoNetlist nl = fig2_protected();
  ASSERT_EQ(nl.gates()[0].discharges.size(), 1u);
  const SeqAwareStats stats = prune_unexcitable_discharges(nl);
  EXPECT_EQ(stats.points_before, 1);
  EXPECT_EQ(stats.points_pruned, 0);  // the paper's scenario is real
  EXPECT_EQ(nl.gates()[0].discharges.size(), 1u);
}

/// Gate: (X + Y) in series over X — the junction can only be pulled low
/// through X (bottom), but then the X branch on top conducts too, so the
/// evaluation is legitimate: FIRE is unsatisfiable.
DominoNetlist shared_input_gate() {
  DominoNetlist nl;
  const std::uint32_t x = nl.add_input({"X", 0, false});
  const std::uint32_t y = nl.add_input({"Y", 1, false});
  DominoGate g;
  const PdnIndex par = g.pdn.add_parallel({g.pdn.add_leaf(x), g.pdn.add_leaf(y)});
  g.pdn.set_root(g.pdn.add_series({par, g.pdn.add_leaf(x)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  insert_discharges(nl);
  return nl;
}

/// Gate: series(X, parallel(series(X.bar? no...)) — build a junction that
/// can never charge: top path is X & X through duplicate leaves of a
/// signal and the junction lies below a branch gated by the SAME signal
/// as the series transistor above it; with contradictory constant-0
/// conduction the CHARGE condition is unsatisfiable.  Simplest concrete
/// case: the junction of series(X, X) inside a parallel with E, placed
/// over ground — pulling the junction low through the lower X while the
/// upper X is off is impossible.
DominoNetlist unreachable_charge_gate() {
  DominoNetlist nl;
  const std::uint32_t x = nl.add_input({"X", 0, false});
  const std::uint32_t e = nl.add_input({"E", 1, false});
  const std::uint32_t d = nl.add_input({"D", 2, false});
  DominoGate g;
  const PdnIndex xx = g.pdn.add_series({g.pdn.add_leaf(x), g.pdn.add_leaf(x)});
  const PdnIndex par = g.pdn.add_parallel({xx, g.pdn.add_leaf(e)});
  g.pdn.set_root(g.pdn.add_series({par, g.pdn.add_leaf(d)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  insert_discharges(nl);
  return nl;
}

TEST(SeqAware, SharedInputMakesPointUnexcitable) {
  DominoNetlist nl = shared_input_gate();
  ASSERT_FALSE(nl.gates()[0].discharges.empty());

  const SeqAwareStats stats = prune_unexcitable_discharges(nl);
  EXPECT_GT(stats.points_pruned, 0);
}

TEST(SeqAware, UnreachableChargeIsPruned) {
  DominoNetlist nl = unreachable_charge_gate();
  const auto before = nl.gates()[0].discharges.size();
  ASSERT_GE(before, 2u);  // X-X junction + parallel bottom

  const SeqAwareStats stats = prune_unexcitable_discharges(nl);
  // The X-X junction cannot fire (the lower X conducting implies the upper
  // X conducts too, so the pulldown evaluates legitimately).
  EXPECT_GT(stats.points_pruned, 0);
  // The point below the parallel stack stays: D can pull it low while
  // X = E = 0 — exactly the paper's scenario.
  EXPECT_FALSE(nl.gates()[0].discharges.empty());
}

TEST(SeqAware, ProofTierRefutesEveryPrunedPoint) {
  // Pruning decides CHARGE/FIRE over independent per-signal variables and
  // the proof tier over source-PI cone functions, both through
  // PdnConditions.  UNSAT over independent variables implies UNSAT over
  // cone functions, so lint flags each pruned point again and the proof
  // tier must refute it.
  for (DominoNetlist nl : {shared_input_gate(), unreachable_charge_gate()}) {
    const std::vector<DischargePoint> before = nl.gates()[0].discharges;
    prune_unexcitable_discharges(nl);
    const std::vector<DischargePoint>& after = nl.gates()[0].discharges;
    std::set<std::string> pruned;
    for (const DischargePoint& p : before) {
      if (std::find(after.begin(), after.end(), p) == after.end()) {
        pruned.insert(canonical_point_label(nl.gates()[0].pdn, p));
      }
    }
    ASSERT_FALSE(pruned.empty());

    const LintOptions lint_options{};  // allow_unexcitable_unprotected off
    LintReport lint = run_lint(nl, lint_options);
    std::vector<std::size_t> at_pruned;
    for (std::size_t i = 0; i < lint.findings.size(); ++i) {
      const Finding& f = lint.findings[i];
      if (f.rule == "pbe-protection" && f.severity == LintSeverity::kError &&
          pruned.contains(f.location.detail)) {
        at_pruned.push_back(i);
      }
    }
    ASSERT_FALSE(at_pruned.empty()) << lint.to_text();

    run_prove(nl, &lint, nullptr, nullptr, lint_options, CsaOptions{});
    for (const std::size_t i : at_pruned) {
      EXPECT_EQ(lint.findings[i].proof, ProofStatus::kRefuted)
          << lint.findings[i].to_string();
    }
  }
}

TEST(SeqAware, FootlessBottomPointPruned) {
  // A footless gate's "bottom" can never float high (internal inputs are
  // low all through precharge), so a bottom discharge point is prunable.
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  const std::uint32_t b = nl.add_input({"b", 1, false});
  DominoGate feed1;
  feed1.pdn.set_root(feed1.pdn.add_leaf(a));
  feed1.footed = true;
  DominoGate feed2;
  feed2.pdn.set_root(feed2.pdn.add_leaf(b));
  feed2.footed = true;
  nl.add_gate(std::move(feed1));
  nl.add_gate(std::move(feed2));
  DominoGate g;
  const PdnIndex par = g.pdn.add_parallel(
      {g.pdn.add_leaf(nl.signal_of_gate(0)), g.pdn.add_leaf(nl.signal_of_gate(1))});
  g.pdn.set_root(par);
  g.footed = false;
  g.discharges.push_back(DischargePoint{});  // force a bottom point
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(2), "f", false, -1});

  const SeqAwareStats stats = prune_unexcitable_discharges(nl);
  EXPECT_EQ(stats.points_pruned, 1);
}

TEST(SeqAware, PrunedNetlistsRemainSafeInSimulator) {
  // Pruning must never remove a transistor the device model needs: run
  // adversarial random streams through pruned netlists.
  for (const char* circuit : {"cm150", "z4ml", "9symml"}) {
    const Network source = build_benchmark(circuit);
    FlowOptions opts;
    opts.mapper.pending_model = PendingModel::kPaperLiteral;
    opts.mapper.grounding = GroundingPolicy::kNoneGrounded;
    opts.sequence_aware = true;
    const FlowResult flow = run_flow(source, opts);
    EXPECT_TRUE(flow.ok()) << circuit << ": " << flow.lint.to_text();

    SoiSimulator sim(flow.netlist);
    Rng rng(0xABCDEF);
    for (int cycle = 0; cycle < 80; ++cycle) {
      std::vector<bool> in;
      for (std::size_t k = 0; k < source.pis().size(); ++k) {
        in.push_back(rng.chance(1, 2));
      }
      EXPECT_TRUE(sim.step(in).correct()) << circuit << " cycle " << cycle;
    }
  }
}

TEST(SeqAware, FlowReportsPrunedCount) {
  const Network source = build_benchmark("c880");
  FlowOptions base;
  base.variant = FlowVariant::kDominoMap;
  FlowOptions pruned = base;
  pruned.sequence_aware = true;
  const FlowResult r0 = run_flow(source, base);
  const FlowResult r1 = run_flow(source, pruned);
  EXPECT_TRUE(r0.ok());
  EXPECT_TRUE(r1.ok()) << r1.lint.to_text();
  EXPECT_EQ(r0.discharges_pruned, 0);
  EXPECT_GE(r1.discharges_pruned, 0);
  EXPECT_EQ(r1.stats.t_disch, r0.stats.t_disch - r1.discharges_pruned);
}

TEST(SeqAware, VerifyAcceptsPrunedOnlyWithFlag) {
  DominoNetlist nl;
  const std::uint32_t x = nl.add_input({"X", 0, false});
  const std::uint32_t y = nl.add_input({"Y", 1, false});
  DominoGate g;
  const PdnIndex par = g.pdn.add_parallel({g.pdn.add_leaf(x), g.pdn.add_leaf(y)});
  g.pdn.set_root(g.pdn.add_series({par, g.pdn.add_leaf(x)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  insert_discharges(nl);
  prune_unexcitable_discharges(nl);

  // Pessimistic model flags the pruned points ...
  LintOptions options;
  const LintReport strict = run_lint(nl, options);
  // ... but only when they were actually required by the model; accept
  // either way under the flag.
  options.allow_unexcitable_unprotected = true;
  const LintReport lenient = run_lint(nl, options);
  EXPECT_EQ(lenient.count(LintSeverity::kError), 0) << lenient.to_text();
  (void)strict;
}

}  // namespace
}  // namespace soidom
