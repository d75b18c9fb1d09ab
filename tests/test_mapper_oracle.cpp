#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "soidom/mapper/mapper.hpp"
#include "soidom/network/builder.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {
namespace {

/// Hand-computed tuple sets for simple structures — the DP's unit-level
/// oracle (Fig. 3's example lives in test_mapper.cpp; these cover chains,
/// wide ORs, and limit pressure).

std::vector<NodeId> and_or_nodes(const Network& net) {
  std::vector<NodeId> out;
  for (std::uint32_t i = 2; i < net.size(); ++i) {
    const NodeKind k = net.kind(NodeId{i});
    if (k == NodeKind::kAnd || k == NodeKind::kOr) out.push_back(NodeId{i});
  }
  return out;
}

std::int64_t min_cost_at(const std::vector<TupleInfo>& tuples, int w, int h) {
  std::int64_t best = -1;
  for (const TupleInfo& t : tuples) {
    if (t.width == w && t.height == h &&
        (best < 0 || t.cost_transistors() < best)) {
      best = t.cost_transistors();
    }
  }
  return best;
}

TEST(MapperOracle, AndChainShapes) {
  // ((a&b)&c)&d: the top node's raw options are exactly the series stacks
  // of height 2..4 (with inner gates absorbed) plus sub-gate splits.
  NetworkBuilder b;
  const NodeId a = b.add_pi("a");
  const NodeId bb = b.add_pi("b");
  const NodeId c = b.add_pi("c");
  const NodeId d = b.add_pi("d");
  b.add_output(b.add_and(b.add_and(b.add_and(a, bb), c), d), "f");
  const Network net = std::move(b).build();
  const UnateResult unate = make_unate(net);

  MapperOptions opts;
  opts.engine = MappingEngine::kDominoMap;
  opts.max_width = 4;
  opts.max_height = 4;
  TupleOracle oracle(unate, opts);
  const auto nodes = and_or_nodes(unate.net);
  ASSERT_EQ(nodes.size(), 3u);
  const NodeId top = nodes.back();
  const auto tuples = oracle.tuples_of(top);

  EXPECT_EQ(min_cost_at(tuples, 1, 4), 4);   // full series stack: 4 nMOS
  EXPECT_EQ(min_cost_at(tuples, 1, 3), 10);  // inner gate (a&b)=7, +1, +c, +d
  EXPECT_EQ(min_cost_at(tuples, 1, 2), 10);  // gate((a&b)&c)=8, +1, +d
  // Gate of the whole chain: 4 transistors + footed overhead 5.
  EXPECT_EQ(min_cost_at(tuples, 1, 1), 9);
  EXPECT_EQ(oracle.gate_cost_of(top), 9 * kCostUnitsPerTransistor);
}

TEST(MapperOracle, WideOrShapes) {
  // a+b+c+d as a balanced tree: raw flat stack {W4,H1} costs 4; the gate
  // costs 9 (footed).
  NetworkBuilder b;
  const NodeId a = b.add_pi("a");
  const NodeId bb = b.add_pi("b");
  const NodeId c = b.add_pi("c");
  const NodeId d = b.add_pi("d");
  b.add_output(b.add_or(b.add_or(a, bb), b.add_or(c, d)), "f");
  const Network net = std::move(b).build();
  const UnateResult unate = make_unate(net);

  MapperOptions opts;
  opts.engine = MappingEngine::kDominoMap;
  opts.max_width = 4;
  opts.max_height = 4;
  TupleOracle oracle(unate, opts);
  const NodeId top = and_or_nodes(unate.net).back();
  const auto tuples = oracle.tuples_of(top);
  EXPECT_EQ(min_cost_at(tuples, 4, 1), 4);
  EXPECT_EQ(min_cost_at(tuples, 1, 1), 9);
}

TEST(MapperOracle, HeightLimitForcesGateSplit) {
  // A 6-deep AND chain with Hmax=4: the mapper must split at least once;
  // optimal is gate(4-stack)=9 feeding a footed 3-stack gate:
  // 9 + (1 + 2 + 5) = 17.
  NetworkBuilder b;
  std::vector<NodeId> pis;
  for (int i = 0; i < 6; ++i) pis.push_back(b.add_pi(format("x%d", i)));
  NodeId acc = pis[0];
  for (int i = 1; i < 6; ++i) acc = b.add_and(acc, pis[static_cast<std::size_t>(i)]);
  b.add_output(acc, "f");
  const Network net = std::move(b).build();
  const UnateResult unate = make_unate(net);

  MapperOptions opts;
  opts.engine = MappingEngine::kDominoMap;
  opts.max_width = 4;
  opts.max_height = 4;
  const MappingResult result = map_to_domino(unate, opts);
  EXPECT_EQ(result.netlist.gates().size(), 2u);
  int total_logic = 0;
  for (const DominoGate& g : result.netlist.gates()) {
    EXPECT_LE(g.pdn.height(), 4);
    total_logic += g.logic_transistors();
  }
  EXPECT_EQ(total_logic, 17);
}

TEST(MapperOracle, SoiPendingBookkeepingOnOrOfAnds) {
  // SOI tuples for (a&b)+(c&d), all-grounded: the {2,2} structure carries
  // two pending junctions and a parallel bottom, but commits nothing.
  const Network net = testing::fig3_network();
  const UnateResult unate = make_unate(net);
  MapperOptions opts;  // SOI defaults
  opts.max_width = 4;
  opts.max_height = 4;
  TupleOracle oracle(unate, opts);
  const NodeId top = and_or_nodes(unate.net).back();
  for (const TupleInfo& t : oracle.tuples_of(top)) {
    if (t.width == 2 && t.height == 2 && t.cost_transistors() == 4) {
      EXPECT_EQ(t.p_dis(), 2);
      EXPECT_TRUE(t.par_b);
      EXPECT_EQ(t.disch_committed, 0);
      return;
    }
  }
  FAIL() << "expected the {2,2,4} tuple to survive";
}

TEST(MapperOracle, SoiCommitsWhenStackingParallelOnTop) {
  // ((a+b) & c) & ... : when the parallel structure must sit above
  // something, the SOI DP bills its bottom junction.
  NetworkBuilder b;
  const NodeId a = b.add_pi("a");
  const NodeId bb = b.add_pi("b");
  const NodeId c = b.add_pi("c");
  b.add_output(b.add_and(b.add_or(a, bb), c), "f");
  const Network net = std::move(b).build();
  const UnateResult unate = make_unate(net);

  MapperOptions opts;
  opts.grounding = GroundingPolicy::kNoneGrounded;  // force the worst case
  const MappingResult result = map_to_domino(unate, opts);
  ASSERT_EQ(result.netlist.gates().size(), 1u);
  // Ungrounded either way: parallel at bottom pends (penalty 1+... ) vs
  // parallel on top commits 1.  Both cost 1 discharge; the DP must place
  // exactly one.
  EXPECT_EQ(result.netlist.gates()[0].discharges.size(), 1u);
}

TEST(MapperOracle, TieBreakPrefersFewerPending) {
  // Two same-cost candidates differing in p_dis: the paper's tie rule
  // selects the smaller pending count for gate formation.  Construct via
  // symmetric structure where both orders cost the same.
  const Network net = testing::fig3_network();
  const UnateResult unate = make_unate(net);
  MapperOptions opts;
  const MappingResult result = map_to_domino(unate, opts);
  // All-grounded: no discharges anywhere.
  for (const DominoGate& g : result.netlist.gates()) {
    EXPECT_TRUE(g.discharges.empty());
  }
}

}  // namespace
}  // namespace soidom
