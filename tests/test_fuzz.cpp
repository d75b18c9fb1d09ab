#include <gtest/gtest.h>

#include <string>

#include "helpers.hpp"
#include "soidom/base/contracts.hpp"
#include "soidom/base/rng.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/blif/blif.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/verilog/parser.hpp"

namespace soidom {
namespace {

/// Seeded random byte soup biased toward the parsers' token alphabets, so
/// the fuzz reaches beyond the first token.  The contract under test: a
/// parser either succeeds or throws soidom::Error — it never crashes,
/// hangs, or throws anything else.
std::string random_soup(Rng& rng, const std::string& alphabet,
                        std::size_t length) {
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    out += alphabet[static_cast<std::size_t>(
        rng.next_below(alphabet.size()))];
  }
  return out;
}

/// Mutates a valid source text: random splices of soup into it.
std::string mutate(Rng& rng, std::string text, const std::string& alphabet) {
  const int edits = 1 + static_cast<int>(rng.next_below(6));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos =
        static_cast<std::size_t>(rng.next_below(text.size() + 1));
    const std::size_t len = rng.next_below(8);
    text.insert(pos, random_soup(rng, alphabet, len));
  }
  return text;
}

constexpr const char* kBlifAlphabet =
    "01-. \n\tabcxyz_#\\.namesinputsoutputsmodel end";
constexpr const char* kVerilogAlphabet =
    "abcxyz01_ \n\t()[]:;,=~&|^'bmoduleinputoutputwireassignendmodule/*";

TEST(Fuzz, BlifParserNeverCrashes) {
  Rng rng(0xF022);
  for (int round = 0; round < 400; ++round) {
    const std::string text =
        random_soup(rng, kBlifAlphabet, 20 + rng.next_below(300));
    try {
      const BlifModel m = parse_blif(text);
      EXPECT_FALSE(m.outputs.empty());  // success implies a sane model
    } catch (const Error&) {
      // expected for garbage
    }
  }
}

TEST(Fuzz, BlifParserSurvivesMutationsOfValidInput) {
  const std::string valid =
      ".model t\n.inputs a b c\n.outputs y z\n"
      ".names a b t1\n11 1\n"
      ".names t1 c y\n1- 1\n-1 1\n"
      ".names a c z\n10 1\n.end\n";
  Rng rng(0xF023);
  for (int round = 0; round < 400; ++round) {
    const std::string text = mutate(rng, valid, kBlifAlphabet);
    try {
      (void)parse_blif(text);
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, VerilogParserNeverCrashes) {
  Rng rng(0xF024);
  for (int round = 0; round < 400; ++round) {
    const std::string text =
        random_soup(rng, kVerilogAlphabet, 20 + rng.next_below(300));
    try {
      (void)parse_verilog(text);
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, VerilogParserSurvivesMutationsOfValidInput) {
  const std::string valid =
      "module m (input a, input b, output y);\n"
      "  wire t = a & ~b;\n  assign y = t | (a ^ b);\nendmodule\n";
  Rng rng(0xF025);
  for (int round = 0; round < 400; ++round) {
    const std::string text = mutate(rng, valid, kVerilogAlphabet);
    try {
      (void)parse_verilog(text);
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, FlowNeverCrashes) {
  // End-to-end robustness contract: on any parseable (possibly mutated)
  // input, the guarded flow under a tight deadline and budget returns
  // either a result or a clean Diagnostic — it never crashes, hangs, or
  // lets an exception escape.
  const std::string valid =
      ".model t\n.inputs a b c\n.outputs y z\n"
      ".names a b t1\n11 1\n"
      ".names t1 c y\n1- 1\n-1 1\n"
      ".names a c z\n10 1\n.end\n";
  GuardOptions gopts;
  gopts.deadline = Deadline::after_ms(2000);
  gopts.budget.max_network_nodes = 10000;
  gopts.budget.max_tuples = 200000;
  Rng rng(0xF026);
  int mapped = 0;
  for (int round = 0; round < 200; ++round) {
    const std::string text = mutate(rng, valid, kBlifAlphabet);
    BlifModel model;
    try {
      model = parse_blif(text);
    } catch (const Error&) {
      continue;  // parser rejection is covered by the tests above
    }
    const FlowOutcome outcome = run_flow_guarded(model, FlowOptions{}, gopts);
    EXPECT_TRUE(outcome.result.has_value() || outcome.diagnostic.has_value());
    if (outcome.ok()) ++mapped;
  }
  EXPECT_GT(mapped, 0);  // the fuzz must reach the mapper, not just parse
}

TEST(Fuzz, LintIsACleanOracleOnBenchgenCircuits) {
  // The lint engine as a fuzz oracle: every registered benchmark circuit
  // must map to a netlist the full rule catalogue accepts at error
  // severity — an independent re-derivation of the mapper's structural
  // and PBE obligations.
  for (const std::string& name : benchmark_names()) {
    FlowOptions options;
    options.verify_rounds = 0;
    const FlowResult result = run_flow(build_benchmark(name), options);
    EXPECT_TRUE(result.lint.clean(LintSeverity::kError))
        << name << "\n" << result.lint.to_text();
  }
}

TEST(Fuzz, LintIsACleanOracleOnRandomNetworks) {
  // Same oracle over seeded random DAGs: shapes the curated benchmarks
  // never produce (heavy reconvergence, inverter chains) must also map to
  // lint-clean netlists, with shape limits cross-checked against the
  // mapper's W/H knobs.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Network source = testing::random_network(
        5 + static_cast<int>(seed % 4), 30, 3, 0xFA11 + seed);
    FlowOptions options;
    options.verify_rounds = 0;
    const FlowResult result = run_flow(source, options);
    LintOptions lopts;
    lopts.grounding = options.mapper.grounding;
    lopts.max_width = options.mapper.max_width;
    lopts.max_height = options.mapper.max_height;
    const LintReport report = run_lint(result.netlist, lopts, &source);
    EXPECT_TRUE(report.clean(LintSeverity::kError))
        << "seed=" << seed << "\n" << report.to_text();
  }
}

TEST(Fuzz, DeepNestingDoesNotOverflow) {
  // Parenthesis towers exercise the recursive-descent expression parser.
  std::string expr;
  for (int i = 0; i < 2000; ++i) expr += '(';
  expr += 'a';
  for (int i = 0; i < 2000; ++i) expr += ')';
  const std::string text =
      "module m (input a, output y);\n  assign y = " + expr + ";\nendmodule\n";
  const Network net = parse_verilog(text);
  EXPECT_EQ(net.outputs().size(), 1u);
}

}  // namespace
}  // namespace soidom
