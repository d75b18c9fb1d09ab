#include <gtest/gtest.h>

#include <sstream>

#include "helpers.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/domino/stats.hpp"
#include "soidom/domino/verify.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/mapper/mapper.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {
namespace {

struct SweepParam {
  int wmax;
  int hmax;
  double clock_weight;
  MappingEngine engine;
  CostObjective objective;
  GroundingPolicy grounding;
  PendingModel model;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::ostringstream os;
  os << "w" << p.wmax << "h" << p.hmax << "_k"
     << static_cast<int>(p.clock_weight * 10) << '_'
     << (p.engine == MappingEngine::kDominoMap ? "bulk" : "soi") << '_'
     << (p.objective == CostObjective::kArea ? "area" : "depth") << '_'
     << (p.grounding == GroundingPolicy::kAllGrounded
             ? "ag"
             : (p.grounding == GroundingPolicy::kFootlessGrounded ? "fg"
                                                                  : "ng"))
     << '_'
     << (p.model == PendingModel::kCoherent ? "coh" : "lit");
  return os.str();
}

class MapperOptionSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MapperOptionSweep, FullPipelineInvariants) {
  const SweepParam& p = GetParam();
  MapperOptions opts;
  opts.max_width = p.wmax;
  opts.max_height = p.hmax;
  opts.clock_weight = p.clock_weight;
  opts.engine = p.engine;
  opts.objective = p.objective;
  opts.grounding = p.grounding;
  opts.pending_model = p.model;

  for (const std::uint64_t seed : {17u, 29u}) {
    const Network source = testing::random_network(9, 90, 5, seed);
    const UnateResult unate = make_unate(source);
    MappingResult result = map_to_domino(unate, opts);
    EXPECT_EQ(result.dp_analyzer_mismatches, 0);
    if (p.engine == MappingEngine::kDominoMap) {
      insert_discharges(result.netlist, p.grounding, p.model);
    }

    LintOptions lint_options;
    lint_options.grounding = p.grounding;
    lint_options.pending_model = p.model;
    const LintReport lint = run_lint(result.netlist, lint_options);
    EXPECT_EQ(lint.count(LintSeverity::kError), 0) << lint.to_text();
    Rng rng(seed ^ 0xFACE);
    const VerifyReport function =
        verify_function(result.netlist, source, 4, rng);
    EXPECT_TRUE(function.ok()) << function.to_string();

    const DominoStats stats = compute_stats(result.netlist);
    EXPECT_EQ(stats.t_total, stats.t_logic + stats.t_disch);
    for (const DominoGate& g : result.netlist.gates()) {
      EXPECT_LE(g.pdn.width(), p.wmax);
      EXPECT_LE(g.pdn.height(), p.hmax);
    }
  }
}

std::vector<SweepParam> sweep_grid() {
  std::vector<SweepParam> out;
  for (const auto& [w, h] : {std::pair{3, 4}, std::pair{5, 8}}) {
    for (const double k : {1.0, 2.0}) {
      for (const MappingEngine engine :
           {MappingEngine::kDominoMap, MappingEngine::kSoiDominoMap}) {
        for (const CostObjective objective :
             {CostObjective::kArea, CostObjective::kDepth}) {
          for (const GroundingPolicy grounding :
               {GroundingPolicy::kAllGrounded,
                GroundingPolicy::kFootlessGrounded,
                GroundingPolicy::kNoneGrounded}) {
            for (const PendingModel model :
                 {PendingModel::kCoherent, PendingModel::kPaperLiteral}) {
              out.push_back(
                  {w, h, k, engine, objective, grounding, model});
            }
          }
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, MapperOptionSweep,
                         ::testing::ValuesIn(sweep_grid()), param_name);

}  // namespace
}  // namespace soidom
