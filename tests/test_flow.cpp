#include <gtest/gtest.h>

#include <fstream>

#include "helpers.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"

namespace soidom {
namespace {

TEST(Flow, SoiVariantEndToEnd) {
  const FlowResult r = run_flow(testing::full_adder_network(), FlowOptions{});
  EXPECT_TRUE(r.ok()) << r.lint.to_text() << r.function.to_string();
  EXPECT_GT(r.stats.num_gates, 0);
  EXPECT_EQ(r.stats.t_total, r.stats.t_logic + r.stats.t_disch);
}

TEST(Flow, AllVariantsVerifyOnBenchmarks) {
  for (const char* circuit : {"cm150", "z4ml", "frg1", "9symml"}) {
    const Network source = build_benchmark(circuit);
    for (const FlowVariant variant :
         {FlowVariant::kDominoMap, FlowVariant::kRsMap,
          FlowVariant::kSoiDominoMap}) {
      FlowOptions opts;
      opts.variant = variant;
      const FlowResult r = run_flow(source, opts);
      EXPECT_TRUE(r.ok()) << circuit;
    }
  }
}

TEST(Flow, OrderingInvariant_DominoGeqRsGeqSoi) {
  // The paper's central comparison, as a per-circuit invariant under the
  // default model: SOI-aware mapping never needs more discharge
  // transistors than RS_Map, which never needs more than Domino_Map.
  for (const char* circuit : {"cm150", "cordic", "f51m", "apex7", "c880",
                              "t481", "c1908", "k2"}) {
    const Network source = build_benchmark(circuit);
    DominoStats s[3];
    const FlowVariant variants[] = {FlowVariant::kDominoMap,
                                    FlowVariant::kRsMap,
                                    FlowVariant::kSoiDominoMap};
    for (int v = 0; v < 3; ++v) {
      FlowOptions opts;
      opts.variant = variants[v];
      s[v] = run_flow(source, opts).stats;
    }
    EXPECT_GE(s[0].t_disch, s[1].t_disch) << circuit;  // DM >= RS
    EXPECT_GE(s[1].t_disch, s[2].t_disch) << circuit;  // RS >= SOI
    EXPECT_GE(s[0].t_total, s[2].t_total) << circuit;  // headline result
  }
}

TEST(Flow, BlifRoundTrip) {
  const char* blif =
      ".model t\n.inputs a b c\n.outputs z\n"
      ".names a b t1\n11 1\n"
      ".names t1 c z\n1- 1\n-1 1\n.end\n";
  const FlowResult r = run_flow(parse_blif(blif), FlowOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.netlist.outputs()[0].name, "z");
}

TEST(Flow, FileFrontEnd) {
  const std::string path = ::testing::TempDir() + "/soidom_flow_test.blif";
  {
    std::ofstream out(path);
    out << ".model f\n.inputs a b\n.outputs z\n.names a b z\n10 1\n01 1\n.end\n";
  }
  const FlowResult r = run_flow_file(path, FlowOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_THROW(run_flow_file("/nonexistent/file.blif", FlowOptions{}), Error);
}

TEST(Flow, ExactEquivalenceOption) {
  FlowOptions opts;
  opts.exact_equivalence = true;
  const FlowResult r = run_flow(testing::fig3_network(), opts);
  ASSERT_TRUE(r.exact.has_value());
  EXPECT_TRUE(*r.exact);
}

TEST(Flow, VerificationCanBeDisabled) {
  FlowOptions opts;
  opts.verify_rounds = 0;
  const FlowResult r = run_flow(testing::fig3_network(), opts);
  EXPECT_TRUE(r.function.ok());  // trivially: no check ran
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError)) << r.lint.to_text();
}

TEST(Flow, SummarizeMentionsKeyFields) {
  const FlowResult r = run_flow(testing::fig3_network(), FlowOptions{});
  const std::string s = summarize(r);
  EXPECT_NE(s.find("T_logic="), std::string::npos);
  EXPECT_NE(s.find("T_disch="), std::string::npos);
  EXPECT_NE(s.find("structure=ok"), std::string::npos);
}

TEST(Flow, DepthObjectiveReducesLevels) {
  const Network source = build_benchmark("cm150");
  FlowOptions area;
  FlowOptions depth;
  depth.mapper.objective = CostObjective::kDepth;
  const FlowResult ra = run_flow(source, area);
  const FlowResult rd = run_flow(source, depth);
  EXPECT_TRUE(ra.ok());
  EXPECT_TRUE(rd.ok());
  EXPECT_LE(rd.stats.levels, ra.stats.levels);
}

/// The analyzer fail-on gates' Diagnostics (code, stage, message and one
/// context line per failing finding) are byte-identical to the ones the
/// four per-analyzer gate blocks built before they became one function.
TEST(Flow, FailOnGateDiagnosticsArePinned) {
  struct Case {
    const char* name;
    FlowOptions options;
    FlowStage stage;
    std::uint64_t pin;
  };
  std::vector<Case> cases(4);
  cases[0].name = "csa";
  cases[0].options.csa = true;
  cases[0].options.csa_options.margin = 0.0;
  cases[0].options.csa_fail_on = LintSeverity::kWarning;
  cases[0].stage = FlowStage::kCsa;
  cases[0].pin = 0x4d0311e1c1040817ull;
  cases[1].name = "race";
  cases[1].options.race = true;
  cases[1].options.race_options.t_eval = 0.5;
  cases[1].options.race_fail_on = LintSeverity::kWarning;
  cases[1].stage = FlowStage::kRace;
  cases[1].pin = 0xf44bc3ac9a612266ull;
  cases[2].name = "prove";
  cases[2].options.csa = true;
  cases[2].options.csa_options.margin = 0.05;
  // Strong enough that no csa error fires before the prove gate.
  cases[2].options.csa_options.keeper_strength = 3;
  cases[2].options.race = true;
  cases[2].options.prove = true;
  cases[2].options.prove_fail_on = LintSeverity::kWarning;
  cases[2].stage = FlowStage::kProve;
  cases[2].pin = 0x286c09197a893b83ull;
  cases[3].name = "csa+race";
  cases[3].options = cases[0].options;
  cases[3].options.race = true;
  cases[3].options.race_options = cases[1].options.race_options;
  cases[3].options.race_fail_on = LintSeverity::kWarning;
  cases[3].stage = FlowStage::kCsa;  // the first failing gate wins
  cases[3].pin = cases[0].pin;
  for (Case& c : cases) {
    c.options.verify_rounds = 0;
    const FlowOutcome outcome =
        run_flow_guarded(testing::fig3_network(), c.options);
    ASSERT_TRUE(outcome.result.has_value()) << c.name;
    ASSERT_TRUE(outcome.diagnostic.has_value()) << c.name;
    EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kVerificationFailed);
    EXPECT_EQ(outcome.diagnostic->stage, c.stage) << c.name;
    EXPECT_FALSE(outcome.diagnostic->context.empty()) << c.name;
    const std::string json = outcome.diagnostic->to_json();
    EXPECT_EQ(fnv1a64(json), c.pin)
        << c.name << std::hex << " 0x" << fnv1a64(json) << "\n"
        << json;
  }
}

class FlowBenchmarkProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(FlowBenchmarkProperty, SoiFlowIsCleanAndPbeSafe) {
  const Network source = build_benchmark(GetParam());
  FlowOptions opts;
  opts.verify_rounds = 2;
  const FlowResult r = run_flow(source, opts);
  EXPECT_TRUE(r.ok()) << GetParam() << ": " << r.lint.to_text();
  EXPECT_EQ(r.dp_analyzer_mismatches, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SmallAndMedium, FlowBenchmarkProperty,
                         ::testing::Values("cm150", "mux", "z4ml", "cordic",
                                           "f51m", "count", "frg1", "b9",
                                           "c8", "9symml", "apex7", "c432",
                                           "x1", "c880", "t481", "i6"));

}  // namespace
}  // namespace soidom
