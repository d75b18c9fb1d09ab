#include <gtest/gtest.h>

#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/exact.hpp"
#include "soidom/domino/export.hpp"
#include "soidom/sizing/sizing.hpp"
#include "soidom/soisim/soisim.hpp"
#include "soidom/timing/timing.hpp"

namespace soidom {
namespace {

/// Whole-registry end-to-end check: every registered circuit maps cleanly
/// through every flow variant.
class RegistryIntegration : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryIntegration, AllFlowsCleanAndConsistent) {
  const Network source = build_benchmark(GetParam());
  for (const FlowVariant variant :
       {FlowVariant::kDominoMap, FlowVariant::kRsMap,
        FlowVariant::kSoiDominoMap}) {
    FlowOptions opts;
    opts.variant = variant;
    opts.verify_rounds = 2;
    const FlowResult r = run_flow(source, opts);
    ASSERT_TRUE(r.ok()) << GetParam() << ": " << r.lint.to_text()
                        << r.function.to_string();

    // Stats self-consistency.
    EXPECT_EQ(r.stats.t_total, r.stats.t_logic + r.stats.t_disch);
    EXPECT_GE(r.stats.t_clock, r.stats.num_gates);  // >= one precharge each
    EXPECT_GT(r.stats.levels, 0);

    // Shape limits hold on every realized gate.
    for (const DominoGate& g : r.netlist.gates()) {
      EXPECT_LE(g.pdn.width(), opts.mapper.max_width);
      EXPECT_LE(g.pdn.height(), opts.mapper.max_height);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, RegistryIntegration,
                         ::testing::ValuesIn(benchmark_names()));

/// Exact BDD equivalence on every circuit where it is tractable.
class RegistryExactEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(RegistryExactEquivalence, SoiNetlistExactlyEquivalent) {
  const Network source = build_benchmark(GetParam());
  FlowOptions opts;
  opts.verify_rounds = 0;
  const FlowResult r = run_flow(source, opts);
  const auto exact = equivalent_exact(r.netlist, source, 1u << 21);
  if (exact.has_value()) {
    EXPECT_TRUE(*exact) << GetParam();
  }  // nullopt: BDD blow-up, random simulation already covered it
}

INSTANTIATE_TEST_SUITE_P(SmallAndMedium, RegistryExactEquivalence,
                         ::testing::Values("cm150", "mux", "z4ml", "cordic",
                                           "f51m", "count", "frg1", "b9",
                                           "c8", "9symml", "c432", "c880",
                                           "x1", "apex7"));

/// The full downstream toolchain runs on a mapped netlist without
/// complaint: timing, sizing, both exporters, the device simulator.
class DownstreamToolchain : public ::testing::TestWithParam<std::string> {};

TEST_P(DownstreamToolchain, TimingSizingExportSimulate) {
  const Network source = build_benchmark(GetParam());
  const FlowResult r = run_flow(source, FlowOptions{});
  ASSERT_TRUE(r.ok());

  const TimingReport timing = analyze_timing(r.netlist);
  EXPECT_GT(timing.critical_max, 0.0);
  EXPECT_GE(timing.critical_max, timing.critical_min);

  const SizingResult sizing = size_netlist(r.netlist);
  EXPECT_LE(sizing.estimated_delay_after, sizing.estimated_delay_before);

  SpiceSizing spice_sizing;
  for (const GateSizing& gs : sizing.gates) {
    spice_sizing.pulldown_widths.push_back(gs.pulldown_widths);
    spice_sizing.inverter_widths.push_back(gs.inverter_width);
  }
  const std::string deck =
      export_spice(r.netlist, GetParam(), SpiceModels{}, &spice_sizing);
  EXPECT_NE(deck.find(".end"), std::string::npos);
  const std::string verilog = export_verilog(r.netlist, GetParam());
  EXPECT_NE(verilog.find("endmodule"), std::string::npos);

  SoiSimulator sim(r.netlist);
  Rng rng(7);
  for (int cycle = 0; cycle < 16; ++cycle) {
    std::vector<bool> in;
    for (std::size_t k = 0; k < source.pis().size(); ++k) {
      in.push_back(rng.chance(1, 2));
    }
    // Default-model netlists are safe on non-adversarial streams; the
    // known nested-stack divergence needs crafted hold patterns.
    const CycleResult c = sim.step(in);
    EXPECT_EQ(c.outputs.size(), source.outputs().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sample, DownstreamToolchain,
                         ::testing::Values("cm150", "z4ml", "cordic",
                                           "9symml", "c880", "t481"));

TEST(Integration, MinimizePreprocessingNeverBreaksFlow) {
  for (const char* name : {"cm150", "z4ml", "frg1"}) {
    const Network source = build_benchmark(name);
    // Round-trip through BLIF so covers exist to minimize.
    const BlifModel model = parse_blif(write_blif(source, name));
    FlowOptions opts;
    opts.decompose.minimize_covers = true;
    const FlowResult r = run_flow(model, opts);
    EXPECT_TRUE(r.ok()) << name;
  }
}

}  // namespace
}  // namespace soidom
