/// \file compat.cpp
/// domino/verify.hpp's entry points: VerifyReport::to_string and
/// verify_function, whose mismatches are worded as `functional-equiv`
/// findings so they read like every other structured result.
#include "soidom/base/strings.hpp"
#include "soidom/domino/verify.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/sim/sim.hpp"

namespace soidom {

std::string VerifyReport::to_string() const {
  if (ok()) return "OK";
  std::string out;
  for (const std::string& p : problems) {
    out += p;
    out += '\n';
  }
  return out;
}

VerifyReport verify_function(const DominoNetlist& netlist,
                             const Network& source, int rounds, Rng& rng) {
  StageScope stage(FlowStage::kVerifyFunction);
  SOIDOM_FAULT_PROBE(FlowStage::kVerifyFunction);
  VerifyReport report;
  auto problem = [&](LintLocation location, std::string message) {
    Finding f;
    f.rule = "functional-equiv";
    f.severity = LintSeverity::kError;
    f.location = std::move(location);
    f.message = std::move(message);
    report.problems.push_back(f.to_string());
  };
  if (netlist.outputs().size() != source.outputs().size()) {
    problem(LintLocation{},
            format("output count mismatch: netlist %zu vs source %zu",
                   netlist.outputs().size(), source.outputs().size()));
    return report;
  }
  for (int r = 0; r < rounds; ++r) {
    guard_checkpoint();
    const auto words = random_pi_words(source.pis().size(), rng);
    const auto want = simulate_outputs(source, words);
    const auto got = netlist.simulate(words);
    for (std::size_t j = 0; j < want.size(); ++j) {
      if (want[j] != got[j]) {
        LintLocation loc;
        loc.output = static_cast<int>(j);
        problem(std::move(loc),
                format("functional mismatch ('%s'), round %d",
                       source.outputs()[j].name.c_str(), r));
        return report;  // first mismatch is enough
      }
    }
  }
  return report;
}

}  // namespace soidom
