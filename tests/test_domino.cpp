#include <gtest/gtest.h>

#include "helpers.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/domino/stats.hpp"
#include "soidom/domino/verify.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/mapper/mapper.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {
namespace {

/// Hand-built netlist: gate0 = a&b (footed), gate1 = gate0 | c.bar (footed).
DominoNetlist tiny_netlist() {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  const std::uint32_t b = nl.add_input({"b", 1, false});
  const std::uint32_t cbar = nl.add_input({"c.bar", 2, true});
  DominoGate g0;
  g0.pdn.set_root(g0.pdn.add_series({g0.pdn.add_leaf(a), g0.pdn.add_leaf(b)}));
  g0.footed = true;
  const std::uint32_t s0 = nl.add_gate(std::move(g0));
  DominoGate g1;
  g1.pdn.set_root(
      g1.pdn.add_parallel({g1.pdn.add_leaf(s0), g1.pdn.add_leaf(cbar)}));
  g1.footed = true;
  const std::uint32_t s1 = nl.add_gate(std::move(g1));
  nl.add_output({s1, "z", false, -1});
  return nl;
}

/// Lint options under which a footed pulldown's bottom is not grounded.
LintOptions footless_lint() {
  LintOptions options;
  options.grounding = GroundingPolicy::kFootlessGrounded;
  return options;
}

TEST(Netlist, SignalEncoding) {
  const DominoNetlist nl = tiny_netlist();
  EXPECT_EQ(nl.num_inputs(), 3u);
  EXPECT_TRUE(nl.is_input_signal(2));
  EXPECT_FALSE(nl.is_input_signal(3));
  EXPECT_EQ(nl.gate_of_signal(3), 0u);
  EXPECT_EQ(nl.signal_of_gate(1), 4u);
  EXPECT_EQ(nl.num_source_pis(), 3u);
}

TEST(Netlist, GateLevels) {
  const DominoNetlist nl = tiny_netlist();
  const auto levels = nl.gate_levels();
  EXPECT_EQ(levels[0], 1);
  EXPECT_EQ(levels[1], 2);
}

TEST(Netlist, SimulateAppliesLiteralPhases) {
  const DominoNetlist nl = tiny_netlist();  // z = (a&b) | !c
  const SimWord wa = 0b1100;
  const SimWord wb = 0b1010;
  const SimWord wc = 0b0110;
  const auto out = nl.simulate({wa, wb, wc});
  EXPECT_EQ(out[0], ((wa & wb) | ~wc));
}

TEST(Netlist, SimulateInvertedAndConstantOutputs) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  nl.add_output({a, "a_n", true, -1});
  nl.add_output({0, "one", false, 1});
  nl.add_output({0, "zero_n", true, 0});
  const auto out = nl.simulate({0xF0F0u});
  EXPECT_EQ(out[0], ~SimWord{0xF0F0u});
  EXPECT_EQ(out[1], ~SimWord{0});
  EXPECT_EQ(out[2], ~SimWord{0});
}

TEST(Stats, CountsAllColumns) {
  DominoNetlist nl = tiny_netlist();
  DominoStats s = compute_stats(nl);
  // gate0: 2 pulldown + 5 overhead (footed); gate1: 2 + 5.
  EXPECT_EQ(s.t_logic, 14);
  EXPECT_EQ(s.t_disch, 0);
  EXPECT_EQ(s.t_total, 14);
  EXPECT_EQ(s.num_gates, 2);
  EXPECT_EQ(s.t_clock, 4);  // precharge + foot per gate
  EXPECT_EQ(s.levels, 2);

  // Default policy (kAllGrounded): the foot node is discharged by the
  // n-clock every evaluate, so the flat parallel of gate1 is safe.
  insert_discharges(nl);
  s = compute_stats(nl);
  EXPECT_EQ(s.t_disch, 0);

  // Pessimistic ablation policy: gate1's floating bottom needs discharge.
  insert_discharges(nl, GroundingPolicy::kFootlessGrounded);
  s = compute_stats(nl);
  EXPECT_EQ(s.t_disch, 1);
  EXPECT_EQ(s.t_total, 15);
  EXPECT_EQ(s.t_clock, 5);
}

TEST(Postpass, InsertDischargesProtects) {
  // Build a gate with a parallel stack above a leaf (Fig. 2 shape, footed).
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  const std::uint32_t b = nl.add_input({"b", 1, false});
  const std::uint32_t c = nl.add_input({"c", 2, false});
  const std::uint32_t d = nl.add_input({"d", 3, false});
  DominoGate g;
  const PdnIndex par = g.pdn.add_parallel(
      {g.pdn.add_leaf(a), g.pdn.add_leaf(b), g.pdn.add_leaf(c)});
  g.pdn.set_root(g.pdn.add_series({par, g.pdn.add_leaf(d)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});

  const LintReport unprotected = run_lint(nl, footless_lint());
  EXPECT_GT(testing::errors_with_rule(unprotected, "pbe-protection"), 0)
      << unprotected.to_text();
  const int inserted = insert_discharges(nl);
  EXPECT_EQ(inserted, 1);
  const LintReport patched = run_lint(nl, footless_lint());
  EXPECT_EQ(patched.count(LintSeverity::kError), 0) << patched.to_text();
}

TEST(Postpass, RearrangeStacksSavesDischarges) {
  // Footless version of the Fig. 2 gate: reordering moves the parallel
  // stack to ground and eliminates the discharge transistor.
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  const std::uint32_t b = nl.add_input({"b", 1, false});
  const std::uint32_t d = nl.add_input({"d", 2, false});
  DominoGate feeder;  // footed feeder so the main gate can be footless
  feeder.pdn.set_root(feeder.pdn.add_leaf(d));
  feeder.footed = true;
  const std::uint32_t fs = nl.add_gate(std::move(feeder));
  DominoGate feeder2;
  feeder2.pdn.set_root(
      feeder2.pdn.add_series({feeder2.pdn.add_leaf(a), feeder2.pdn.add_leaf(b)}));
  feeder2.footed = true;
  const std::uint32_t fs2 = nl.add_gate(std::move(feeder2));
  DominoGate g;
  const PdnIndex par = g.pdn.add_parallel({g.pdn.add_leaf(fs), g.pdn.add_leaf(fs2)});
  g.pdn.set_root(g.pdn.add_series({par, g.pdn.add_leaf(fs)}));
  g.footed = false;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(2), "z", false, -1});

  DominoNetlist patched = nl;
  EXPECT_EQ(insert_discharges(patched), 1);
  DominoNetlist rearranged = nl;
  EXPECT_EQ(rearrange_stacks(rearranged), 0);
}

TEST(Postpass, GroundingPolicyMatters) {
  DominoNetlist nl = tiny_netlist();
  // gate1 is a flat parallel of two leaves, footed.
  EXPECT_EQ(insert_discharges(nl, GroundingPolicy::kAllGrounded), 0);
  EXPECT_EQ(insert_discharges(nl, GroundingPolicy::kNoneGrounded), 1);
  EXPECT_EQ(insert_discharges(nl, GroundingPolicy::kFootlessGrounded), 1);
}

TEST(Verify, DetectsTopologyViolation) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  DominoGate g;  // references gate signal 2 == itself (not earlier)
  g.pdn.set_root(g.pdn.add_series({g.pdn.add_leaf(a), g.pdn.add_leaf(1)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  const LintReport r = run_lint(nl, footless_lint());
  EXPECT_GT(testing::errors_with_rule(r, "topo-order"), 0) << r.to_text();
  EXPECT_NE(r.to_text().find("topologically"), std::string::npos);
}

TEST(Verify, DetectsWrongFootedness) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  DominoGate g;
  g.pdn.set_root(g.pdn.add_leaf(a));
  g.footed = false;  // wrong: leaf is an input literal
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  const LintReport r = run_lint(nl, footless_lint());
  EXPECT_GT(testing::errors_with_rule(r, "footedness"), 0) << r.to_text();
}

TEST(Verify, DetectsBogusDischargePoint) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  DominoGate g;
  g.pdn.set_root(g.pdn.add_leaf(a));
  g.footed = true;
  g.discharges.push_back(DischargePoint{0, 5});  // leaf node, junction 5
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  const LintReport r = run_lint(nl, footless_lint());
  EXPECT_GT(testing::errors_with_rule(r, "dangling-ref"), 0) << r.to_text();
}

TEST(Verify, FunctionCatchesBug) {
  const Network source = testing::fig2_network();
  const UnateResult unate = make_unate(source);
  MappingResult result = map_to_domino(unate, MapperOptions{});
  // Corrupt the PO phase.
  DominoNetlist broken = result.netlist;
  DominoNetlist fixed = result.netlist;
  {
    DominoNetlist rebuilt;
    for (const auto& in : broken.inputs()) rebuilt.add_input(in);
    for (const auto& g : broken.gates()) rebuilt.add_gate(g);
    auto o = broken.outputs()[0];
    o.inverted = !o.inverted;
    rebuilt.add_output(o);
    broken = std::move(rebuilt);
  }
  Rng rng(1);
  EXPECT_FALSE(verify_function(broken, source, 4, rng).ok());
  EXPECT_TRUE(verify_function(fixed, source, 4, rng).ok());
}

TEST(Netlist, DumpIsInformative) {
  const DominoNetlist nl = tiny_netlist();
  const std::string d = nl.dump();
  EXPECT_NE(d.find("footed"), std::string::npos);
  EXPECT_NE(d.find("out z"), std::string::npos);
}

}  // namespace
}  // namespace soidom
