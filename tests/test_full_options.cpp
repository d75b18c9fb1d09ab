#include <gtest/gtest.h>

#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/exact.hpp"
#include "soidom/network/transform.hpp"
#include "soidom/soisim/soisim.hpp"

namespace soidom {
namespace {

/// Every optional feature enabled at once: cover minimization, cube
/// extraction, greedy phase assignment, complex gates, sequence-aware
/// pruning — the pipeline must stay correct end to end.
FlowOptions everything_on() {
  FlowOptions opts;
  opts.decompose.minimize_covers = true;
  opts.decompose.extract_cubes = true;
  opts.phase_assignment = PhaseAssignment::kGreedyMinDuplication;
  opts.mapper.enable_complex_gates = true;
  opts.sequence_aware = true;
  opts.verify_rounds = 4;
  return opts;
}

class EverythingOn : public ::testing::TestWithParam<std::string> {};

TEST_P(EverythingOn, FlowStaysCorrect) {
  // Route through BLIF so the cover-level passes have something to chew.
  const Network source = build_benchmark(GetParam());
  const BlifModel model = parse_blif(write_blif(source, GetParam()));
  const FlowResult r = run_flow(model, everything_on());
  ASSERT_TRUE(r.ok()) << GetParam() << ":\n"
                      << r.lint.to_text() << r.function.to_string();

  // The BLIF round trip reorders nothing: outputs align with the source
  // network, so exact equivalence against the original is meaningful.
  const Network reference = decompose(model);
  const auto exact = equivalent_exact(r.netlist, reference, 1u << 21);
  if (exact.has_value()) {
    EXPECT_TRUE(*exact) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sample, EverythingOn,
                         ::testing::Values("cm150", "mux", "z4ml", "cordic",
                                           "f51m", "count", "frg1", "b9",
                                           "9symml", "c432", "c880", "i6"));

TEST(EverythingOn, OptionCombinationsNeverIncreaseTotal) {
  // Each optional optimization, alone and together, must not make the
  // default SOI flow worse on total transistors.
  const Network source = build_benchmark("cm150");
  const BlifModel model = parse_blif(write_blif(source, "cm150"));
  const int base = run_flow(model, FlowOptions{}).stats.t_total;

  FlowOptions complex_only;
  complex_only.mapper.enable_complex_gates = true;
  EXPECT_LE(run_flow(model, complex_only).stats.t_total, base);

  FlowOptions phases_only;
  phases_only.phase_assignment = PhaseAssignment::kGreedyMinDuplication;
  EXPECT_LE(run_flow(model, phases_only).stats.t_total, base + 2);

  EXPECT_LE(run_flow(model, everything_on()).stats.t_total, base + 2);
}

TEST(EverythingOn, DeviceSimulationOnFullyOptimizedNetlists) {
  for (const char* name : {"cm150", "9symml"}) {
    const Network source = build_benchmark(name);
    const BlifModel model = parse_blif(write_blif(source, name));
    const FlowResult r = run_flow(model, everything_on());
    ASSERT_TRUE(r.ok()) << name;
    SoiSimulator sim(r.netlist);
    Rng rng(0xFULL + 1);
    for (int cycle = 0; cycle < 60; ++cycle) {
      std::vector<bool> in;
      for (std::size_t k = 0; k < source.pis().size(); ++k) {
        in.push_back(rng.chance(1, 2));
      }
      const CycleResult c = sim.step(in);
      EXPECT_EQ(c.outputs.size(), source.outputs().size());
    }
  }
}

}  // namespace
}  // namespace soidom
