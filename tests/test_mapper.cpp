#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "helpers.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/benchgen/generators.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/blif/blif.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/domino/serialize.hpp"
#include "soidom/domino/stats.hpp"
#include "soidom/domino/verify.hpp"
#include "soidom/mapper/mapper.hpp"
#include "soidom/sim/sim.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {
namespace {

std::vector<NodeId> nodes_of_kind(const Network& net, NodeKind kind) {
  std::vector<NodeId> out;
  for (std::uint32_t i = 2; i < net.size(); ++i) {
    if (net.kind(NodeId{i}) == kind) out.push_back(NodeId{i});
  }
  return out;
}

/// End-to-end map + verify helper.
void map_and_check(const Network& source, const MapperOptions& opts,
                   DominoStats* stats_out = nullptr) {
  const UnateResult unate = make_unate(source);
  MappingResult result = map_to_domino(unate, opts);
  EXPECT_EQ(result.dp_analyzer_mismatches, 0);
  if (opts.engine == MappingEngine::kDominoMap) {
    insert_discharges(result.netlist, opts.grounding, opts.pending_model);
  }
  const VerifyReport structure =
      verify_structure(result.netlist, opts.grounding, opts.pending_model);
  EXPECT_TRUE(structure.ok()) << structure.to_string();
  Rng rng(0xC0FFEE);
  const VerifyReport function =
      verify_function(result.netlist, source, 8, rng);
  EXPECT_TRUE(function.ok()) << function.to_string();
  if (stats_out != nullptr) *stats_out = compute_stats(result.netlist);
}

// ---------------------------------------------------------------------------
// Fig. 3 worked example (paper section IV): base Domino_Map cost algebra.
// ---------------------------------------------------------------------------

class Fig3Example : public ::testing::Test {
 protected:
  Fig3Example()
      : source_(testing::fig3_network()), unate_(make_unate(source_)) {
    options_.engine = MappingEngine::kDominoMap;
    options_.max_width = 4;
    options_.max_height = 4;
  }

  Network source_;
  UnateResult unate_;
  MapperOptions options_;
};

TEST_F(Fig3Example, AndNodeTuples) {
  TupleOracle oracle(unate_, options_);
  const auto ands = nodes_of_kind(unate_.net, NodeKind::kAnd);
  ASSERT_EQ(ands.size(), 2u);
  const auto tuples = oracle.tuples_of(ands[0]);
  // Exactly the raw series stack {W=1,H=2,cost=2} and the gate {1,1,7}
  // (footed: 2 + precharge + 2 inverter + keeper + n-clock foot).
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].width, 1);
  EXPECT_EQ(tuples[0].height, 1);
  EXPECT_EQ(tuples[0].cost_transistors(), 7);
  EXPECT_EQ(tuples[1].width, 1);
  EXPECT_EQ(tuples[1].height, 2);
  EXPECT_EQ(tuples[1].cost_transistors(), 2);
  EXPECT_TRUE(tuples[1].has_pi);
}

TEST_F(Fig3Example, OrNodeTuples) {
  TupleOracle oracle(unate_, options_);
  const auto ors = nodes_of_kind(unate_.net, NodeKind::kOr);
  ASSERT_EQ(ors.size(), 1u);
  const auto tuples = oracle.tuples_of(ors[0]);

  // Paper: combinations give {W2,H1,16} (two sub-gates), {W2,H2,10}
  // (gate + raw, dominated on cost by raw+raw) and {W2,H2,4}; the {1,1}
  // gate then costs 4+5=9.
  auto min_cost_at = [&](int w, int h) {
    std::int64_t best = -1;
    for (const TupleInfo& t : tuples) {
      if (t.width == w && t.height == h &&
          (best < 0 || t.cost_transistors() < best)) {
        best = t.cost_transistors();
      }
    }
    return best;
  };
  EXPECT_EQ(min_cost_at(2, 1), 16);
  EXPECT_EQ(min_cost_at(2, 2), 4);
  EXPECT_EQ(min_cost_at(1, 1), 9);
  EXPECT_EQ(oracle.gate_cost_of(ors[0]), 9 * kCostUnitsPerTransistor);
}

TEST_F(Fig3Example, RealizedNetlistMatchesPaperCost) {
  MappingResult result = map_to_domino(unate_, options_);
  insert_discharges(result.netlist, options_.grounding);
  const DominoStats s = compute_stats(result.netlist);
  EXPECT_EQ(s.num_gates, 1);
  EXPECT_EQ(s.t_logic, 9);
  EXPECT_EQ(s.levels, 1);
}

// ---------------------------------------------------------------------------
// Fig. 2 example: SOI mapping of (A+B+C)*D.
// ---------------------------------------------------------------------------

TEST(MapperFig2, FootlessGroundedPolicyKeepsOneDischarge) {
  const Network source = testing::fig2_network();
  MapperOptions opts;
  opts.grounding = GroundingPolicy::kFootlessGrounded;  // ablation policy
  const UnateResult unate = make_unate(source);
  const MappingResult result = map_to_domino(unate, opts);
  const DominoStats s = compute_stats(result.netlist);
  EXPECT_EQ(s.num_gates, 1);
  // Under the pessimistic policy the footed gate's bottom floats, so the
  // best the mapper can do is the paper's Fig. 2 structure + 1 discharge.
  EXPECT_EQ(s.t_disch, 1);
  EXPECT_EQ(s.t_logic, 4 + 5);
}

TEST(MapperFig2, DefaultPolicyReordersAndEliminatesDischarges) {
  const Network source = testing::fig2_network();
  MapperOptions opts;  // default: kAllGrounded (see options.hpp)
  const UnateResult unate = make_unate(source);
  const MappingResult result = map_to_domino(unate, opts);
  const DominoStats s = compute_stats(result.netlist);
  EXPECT_EQ(s.t_disch, 0);
  // The parallel stack must then sit at the bottom of the gate
  // (transformation 4 of the paper's section III-C).
  const Pdn& pdn = result.netlist.gates()[0].pdn;
  const PdnNode& root = pdn.node(pdn.root());
  ASSERT_EQ(root.kind, PdnKind::kSeries);
  EXPECT_EQ(pdn.node(root.children.back()).kind, PdnKind::kParallel);
}

TEST(MapperFig2, BulkEngineLeavesParallelOnTop) {
  // The PBE-blind engine must realize the paper's Fig. 2(a) structure:
  // parallel stack on top, so the post-pass needs a discharge transistor.
  const Network source = testing::fig2_network();
  MapperOptions opts;
  opts.engine = MappingEngine::kDominoMap;
  const UnateResult unate = make_unate(source);
  MappingResult result = map_to_domino(unate, opts);
  const Pdn& pdn = result.netlist.gates()[0].pdn;
  const PdnNode& root = pdn.node(pdn.root());
  ASSERT_EQ(root.kind, PdnKind::kSeries);
  EXPECT_EQ(pdn.node(root.children.front()).kind, PdnKind::kParallel);
  EXPECT_EQ(insert_discharges(result.netlist), 1);
}

// ---------------------------------------------------------------------------
// End-to-end correctness across engines / objectives / options.
// ---------------------------------------------------------------------------

TEST(Mapper, FunctionPreservedOnReferenceCircuits) {
  for (const auto& net :
       {testing::fig2_network(), testing::fig3_network(),
        testing::full_adder_network()}) {
    for (const MappingEngine engine :
         {MappingEngine::kDominoMap, MappingEngine::kSoiDominoMap}) {
      for (const CostObjective objective :
           {CostObjective::kArea, CostObjective::kDepth}) {
        MapperOptions opts;
        opts.engine = engine;
        opts.objective = objective;
        map_and_check(net, opts);
      }
    }
  }
}

struct MapperPropertyParam {
  std::uint64_t seed;
  MappingEngine engine;
  CostObjective objective;
};

class MapperRandomProperty
    : public ::testing::TestWithParam<MapperPropertyParam> {};

TEST_P(MapperRandomProperty, MapsCorrectly) {
  const auto p = GetParam();
  const Network net = testing::random_network(8, 80, 5, p.seed);
  MapperOptions opts;
  opts.engine = p.engine;
  opts.objective = p.objective;
  map_and_check(net, opts);
}

std::vector<MapperPropertyParam> property_grid() {
  std::vector<MapperPropertyParam> out;
  for (const std::uint64_t seed : {3u, 7u, 11u, 19u, 23u, 31u}) {
    for (const MappingEngine e :
         {MappingEngine::kDominoMap, MappingEngine::kSoiDominoMap}) {
      for (const CostObjective o :
           {CostObjective::kArea, CostObjective::kDepth}) {
        out.push_back({seed, e, o});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, MapperRandomProperty,
                         ::testing::ValuesIn(property_grid()));

TEST(Mapper, SoiNeverWorseThanBulkOnTotal) {
  // The SOI DP optimizes the full objective (logic + discharge), so its
  // realized total must not exceed the bulk flow's total.
  for (const std::uint64_t seed : {1u, 5u, 9u, 42u, 77u}) {
    const Network net = testing::random_network(10, 150, 6, seed);
    MapperOptions bulk;
    bulk.engine = MappingEngine::kDominoMap;
    MapperOptions soi;
    soi.engine = MappingEngine::kSoiDominoMap;
    DominoStats sb;
    DominoStats ss;
    map_and_check(net, bulk, &sb);
    map_and_check(net, soi, &ss);
    EXPECT_LE(ss.t_total, sb.t_total) << "seed " << seed;
    EXPECT_LE(ss.t_disch, sb.t_disch) << "seed " << seed;
  }
}

TEST(Mapper, RespectsShapeLimits) {
  for (const int wmax : {2, 3, 5}) {
    for (const int hmax : {2, 4, 8}) {
      const Network net = testing::random_network(8, 60, 4, 321);
      MapperOptions opts;
      opts.max_width = wmax;
      opts.max_height = hmax;
      const UnateResult unate = make_unate(net);
      const MappingResult result = map_to_domino(unate, opts);
      for (const DominoGate& g : result.netlist.gates()) {
        EXPECT_LE(g.pdn.width(), wmax);
        EXPECT_LE(g.pdn.height(), hmax);
      }
    }
  }
}

TEST(Mapper, SmallerShapeLimitsMeanMoreGates) {
  const Network net = testing::random_network(8, 100, 4, 55);
  const UnateResult unate = make_unate(net);
  MapperOptions small;
  small.max_width = 2;
  small.max_height = 2;
  MapperOptions large;
  large.max_width = 6;
  large.max_height = 10;
  const auto gates_small = map_to_domino(unate, small).netlist.gates().size();
  const auto gates_large = map_to_domino(unate, large).netlist.gates().size();
  EXPECT_GE(gates_small, gates_large);
}

TEST(Mapper, DepthObjectiveNotDeeperThanArea) {
  for (const std::uint64_t seed : {2u, 4u, 6u}) {
    const Network net = testing::random_network(10, 120, 5, seed);
    MapperOptions area;
    MapperOptions depth;
    depth.objective = CostObjective::kDepth;
    DominoStats sa;
    DominoStats sd;
    map_and_check(net, area, &sa);
    map_and_check(net, depth, &sd);
    EXPECT_LE(sd.levels, sa.levels) << "seed " << seed;
  }
}

TEST(Mapper, ClockWeightReducesClockTransistors) {
  const Network net = testing::random_network(10, 150, 6, 1234);
  MapperOptions k1;
  MapperOptions k2;
  k2.clock_weight = 2.0;
  DominoStats s1;
  DominoStats s2;
  map_and_check(net, k1, &s1);
  map_and_check(net, k2, &s2);
  EXPECT_LE(s2.t_clock, s1.t_clock);
}

TEST(Mapper, HeuristicOrderingclose) {
  // The paper's placement heuristic should land close to exhaustive
  // ordering (it is the motivation for Fig. 5) and never crash.
  const Network net = testing::random_network(10, 120, 5, 888);
  MapperOptions ex;
  MapperOptions heur;
  heur.exhaustive_ordering = false;
  DominoStats se;
  DominoStats sh;
  map_and_check(net, ex, &se);
  map_and_check(net, heur, &sh);
  EXPECT_LE(se.t_total, sh.t_total);  // exhaustive subsumes the heuristic
}

TEST(Mapper, PaperLiteralModelMoreDischarges) {
  const Network net = testing::random_network(10, 120, 5, 4321);
  MapperOptions coherent;
  MapperOptions literal;
  literal.pending_model = PendingModel::kPaperLiteral;
  DominoStats sc;
  DominoStats sl;
  map_and_check(net, coherent, &sc);
  map_and_check(net, literal, &sl);
  EXPECT_GE(sl.t_disch, sc.t_disch);
}

TEST(Mapper, GateDuplicationModeStillCorrect) {
  const Network net = testing::random_network(8, 60, 4, 99);
  MapperOptions opts;
  opts.gate_at_fanout = false;  // allow duplication into fanout cones
  map_and_check(net, opts);
}

TEST(Mapper, ConstantAndPassthroughOutputs) {
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  const NodeId y = b.add_pi("y");
  b.add_output(b.const1(), "one");
  b.add_output(b.const0(), "zero");
  b.add_output(x, "wire");
  b.add_output(b.add_inv(x), "wire_n");
  b.add_output(b.add_and(x, y), "g");
  const Network net = std::move(b).build();
  map_and_check(net, MapperOptions{});
}

TEST(Mapper, RejectsNonUnateInput) {
  UnateResult fake;
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  b.add_output(b.add_inv(x), "z");
  fake.net = std::move(b).build();
  fake.pi_literals.push_back({0, -1});
  fake.po_inverted.push_back(false);
  EXPECT_THROW(map_to_domino(fake, MapperOptions{}), Error);
}

TEST(Mapper, RejectsInfeasibleLimits) {
  const UnateResult unate = make_unate(testing::fig3_network());
  MapperOptions opts;
  opts.max_height = 1;
  EXPECT_THROW(map_to_domino(unate, opts), Error);
}

TEST(Mapper, FootednessMatchesLeaves) {
  const Network net = testing::random_network(8, 80, 4, 202);
  const UnateResult unate = make_unate(net);
  const MappingResult result = map_to_domino(unate, MapperOptions{});
  for (const DominoGate& g : result.netlist.gates()) {
    bool has_input = false;
    for (const std::uint32_t s : g.pdn.leaf_signals()) {
      if (result.netlist.is_input_signal(s)) has_input = true;
    }
    EXPECT_EQ(g.footed, has_input);
  }
}

// ---------------------------------------------------------------------------
// Pinned netlists and determinism.
// ---------------------------------------------------------------------------

/// FNV-1a of each mapped netlist's .dnl text.  The registry entries use
/// default FlowOptions; the generated networks run under every
/// FlowVariant and under SOI with complex gates.  The values were recorded
/// while networks above 4096 AND/OR nodes still went through a
/// multi-threaded task-graph DP, so they also pin that the serial pass
/// realizes the same netlists.
const std::map<std::string, std::uint64_t>& pinned_dnl_hashes() {
  static const std::map<std::string, std::uint64_t> pins = {
      {"cm150", 0x127d15682aea652bull},
      {"mux", 0x62460dfd3a4cc252ull},
      {"z4ml", 0xcf00b1d4389a0a6full},
      {"cordic", 0xbe6666381783a10cull},
      {"f51m", 0x271bff08a574f105ull},
      {"count", 0x3c4998704a14f98aull},
      {"c880", 0xc975060dacea0b45ull},
      {"dalu", 0xbd5910ec1c0864ccull},
      {"c3540", 0x92005c01108146d9ull},
      {"9symml", 0x231ad368cad7f1adull},
      {"t481", 0x6e86218b17f11d0eull},
      {"c499", 0xc257d1e42827bf4aull},
      {"c1355", 0xc257d1e42827bf4aull},
      {"c1908", 0x0a25bcc473764369ull},
      {"c6288", 0xb135140ac9dc1a6dull},
      {"decod", 0x131069afe6ffb0e9ull},
      {"c432", 0xa5788167fc6fe7f1ull},
      {"rot", 0x9d4be52011b717dcull},
      {"des", 0xc1c84b0c9bbdbd67ull},
      {"i6", 0xf7c761e9a84fded8ull},
      {"frg1", 0xc317df9200382bffull},
      {"b9", 0x3edb3a7012742dcbull},
      {"c8", 0x600576810ee90006ull},
      {"x1", 0x5eb20d68ec219d35ull},
      {"apex7", 0xb925ee15ca36dddaull},
      {"apex6", 0xa5d8449af84ebc5eull},
      {"k2", 0xfe1e978e5c9e2c1cull},
      {"c2670", 0xfb31d9f2e305f5b7ull},
      {"c5315", 0xb782e157415b81cbull},
      {"c7552", 0x807fb031a408477cull},
      {"mult24/domino", 0x85f0769cdc33786dull},
      {"mult24/rs", 0x85f0769cdc33786dull},
      {"mult24/soi", 0x1c991505ffd753c8ull},
      {"mult24/soi+complex", 0x1c991505ffd753c8ull},
      {"dag128x40/domino", 0x198b01193843a11cull},
      {"dag128x40/rs", 0x1bf7b05613234fc3ull},
      {"dag128x40/soi", 0xeb18bf380c69d0c5ull},
      {"dag128x40/soi+complex", 0x2c02ba4d3653670eull},
      {"spn66x8/domino", 0x58ab287262a4f5b6ull},
      {"spn66x8/rs", 0xd0999ccb9e806cf8ull},
      {"spn66x8/soi", 0x207642b39ec66bfdull},
      {"spn66x8/soi+complex", 0xed019b9a87520131ull},
  };
  return pins;
}

void expect_pinned(const std::string& key, const FlowResult& result) {
  const auto& pins = pinned_dnl_hashes();
  const auto it = pins.find(key);
  ASSERT_NE(it, pins.end()) << "no pinned hash for " << key;
  EXPECT_EQ(fnv1a64(write_dnl(result.netlist)), it->second) << key;
}

TEST(Mapper, NetlistsArePinned) {
  for (const std::string& name : benchmark_names()) {
    FlowOptions options;
    options.verify_rounds = 0;
    expect_pinned(name, run_flow(build_benchmark(name), options));
  }

  struct Generated {
    const char* name;
    Network net;
  };
  // mult24's DP costs overflow int64 (DESIGN.md section 8), so a
  // -fsanitize=undefined build stops on it.
  const Generated generated[] = {
      {"mult24", gen_multiplier(24)},
      {"dag128x40", gen_layered_dag(128, 40, 85, 0x7E57)},
      {"spn66x8", gen_spn(66, 8, 0x5B0C)},
  };
  for (const Generated& g : generated) {
    const UnateResult unate = make_unate(g.net);
    EXPECT_GT(nodes_of_kind(unate.net, NodeKind::kAnd).size() +
                  nodes_of_kind(unate.net, NodeKind::kOr).size(),
              4096u)
        << g.name << " is too small to pin the large-network path";
    const std::string name = g.name;
    for (const auto& [tag, variant] :
         {std::pair{"domino", FlowVariant::kDominoMap},
          std::pair{"rs", FlowVariant::kRsMap},
          std::pair{"soi", FlowVariant::kSoiDominoMap}}) {
      FlowOptions options;
      options.verify_rounds = 0;
      options.variant = variant;
      expect_pinned(name + "/" + tag, run_flow(g.net, options));
    }
    FlowOptions complex;
    complex.verify_rounds = 0;
    complex.mapper.enable_complex_gates = true;
    expect_pinned(name + "/soi+complex", run_flow(g.net, complex));
  }
}

std::string map_blif(const std::string& text, bool exhaustive) {
  FlowOptions opts;
  opts.verify_rounds = 0;
  opts.mapper.exhaustive_ordering = exhaustive;
  return write_dnl(run_flow(parse_blif(text), opts).netlist);
}

/// Permuting the fanin columns of a .names cover must not change the
/// realized netlist: the builder canonicalizes commutative fanins and the
/// mapper's operand-placement tie-breaks do not depend on textual order.
TEST(Mapper, PermutedFaninBlifRealizesIdenticalNetlists) {
  const std::string base =
      ".model perm\n"
      ".inputs a b c d e\n"
      ".outputs y z\n"
      ".names a b t1\n11 1\n"
      ".names c d t2\n11 1\n"
      ".names t1 t2 y\n10 1\n01 1\n11 1\n"
      ".names t1 e z\n11 1\n"
      ".end\n";
  const std::string permuted =
      ".model perm\n"
      ".inputs a b c d e\n"
      ".outputs y z\n"
      ".names b a t1\n11 1\n"        // fanin columns swapped
      ".names d c t2\n11 1\n"
      ".names t1 t2 y\n10 1\n01 1\n11 1\n"
      ".names e t1 z\n11 1\n"        // fanin columns swapped
      ".end\n";
  for (const bool exhaustive : {true, false}) {
    EXPECT_EQ(map_blif(base, exhaustive), map_blif(permuted, exhaustive))
        << "exhaustive_ordering=" << exhaustive;
  }
}

/// The second_goes_bottom p_total tie is broken by candidate content (and
/// only then by reference key), not fanin textual order: under the
/// non-exhaustive heuristic, mapping is a pure function of the network.
TEST(Mapper, HeuristicPlacementIsDeterministic) {
  const Network net = testing::random_network(8, 40, 4, 0xC0FFEE);
  FlowOptions opts;
  opts.verify_rounds = 0;
  opts.mapper.exhaustive_ordering = false;
  const FlowResult a = run_flow(net, opts);
  const FlowResult b = run_flow(net, opts);
  EXPECT_EQ(write_dnl(a.netlist), write_dnl(b.netlist));
}

/// map() is memoized: the second call returns the identical (non-empty)
/// result instead of a silently empty netlist, and the DP introspection
/// (tuples_of / gate_cost_of) keeps working after realization.
TEST(Mapper, OracleMapIsMemoizedAndReentrant) {
  const UnateResult unate = make_unate(testing::full_adder_network());
  const TupleOracle oracle(unate, MapperOptions{});
  const MappingResult first = oracle.map();
  ASSERT_FALSE(first.netlist.gates().empty());
  const MappingResult second = oracle.map();
  EXPECT_EQ(write_dnl(first.netlist), write_dnl(second.netlist));
  EXPECT_EQ(first.predicted_cost, second.predicted_cost);
  EXPECT_EQ(first.candidates_retained, second.candidates_retained);

  // tuples_of after map(): same tuples an un-realized oracle reports.
  const TupleOracle fresh(unate, MapperOptions{});
  for (std::uint32_t i = 2; i < unate.net.size(); ++i) {
    const NodeId id{i};
    if (unate.net.kind(id) != NodeKind::kAnd &&
        unate.net.kind(id) != NodeKind::kOr) {
      continue;
    }
    const auto after = oracle.tuples_of(id);
    const auto before = fresh.tuples_of(id);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t k = 0; k < after.size(); ++k) {
      EXPECT_EQ(after[k].width, before[k].width);
      EXPECT_EQ(after[k].height, before[k].height);
      EXPECT_EQ(after[k].committed, before[k].committed);
    }
  }
}

/// The DP effort counters are populated and consistent.
TEST(Mapper, EffortCountersPopulated) {
  const UnateResult unate = make_unate(build_benchmark("z4ml"));
  const MappingResult r = map_to_domino(unate, MapperOptions{});
  EXPECT_GT(r.candidates_examined, 0u);
  EXPECT_GT(r.candidates_retained, 0u);
  EXPECT_GT(r.dp_levels, 0);
  EXPECT_LE(r.candidates_retained, r.candidates_examined +
                                       unate.net.size() /* leaves + gates */);
  // The DP is one serial pass.
  EXPECT_EQ(r.dp_tasks, 0);
  EXPECT_EQ(r.threads_used, 1);
}

}  // namespace
}  // namespace soidom
