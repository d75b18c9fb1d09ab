#include <gtest/gtest.h>

#include "helpers.hpp"
#include "soidom/bdd/bdd.hpp"
#include "soidom/bdd/equivalence.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/domino/exact.hpp"
#include "soidom/decomp/decompose.hpp"
#include "soidom/mapper/mapper.hpp"
#include "soidom/network/transform.hpp"
#include "soidom/sim/sim.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {
namespace {

TEST(Bdd, Terminals) {
  BddManager m(2);
  EXPECT_TRUE(m.is_const(BddManager::kFalse));
  EXPECT_TRUE(m.is_const(BddManager::kTrue));
  EXPECT_FALSE(m.eval(BddManager::kFalse, {false, false}));
  EXPECT_TRUE(m.eval(BddManager::kTrue, {false, false}));
}

TEST(Bdd, VarAndNvar) {
  BddManager m(2);
  const auto x = m.var(0);
  const auto nx = m.nvar(0);
  EXPECT_TRUE(m.eval(x, {true, false}));
  EXPECT_FALSE(m.eval(x, {false, false}));
  EXPECT_FALSE(m.eval(nx, {true, false}));
  EXPECT_EQ(m.negate(x), nx);  // canonicity
}

TEST(Bdd, CanonicityMergesEquivalentFunctions) {
  BddManager m(3);
  // (x & y) | (x & z) == x & (y | z)
  const auto lhs = m.apply_or(m.apply_and(m.var(0), m.var(1)),
                              m.apply_and(m.var(0), m.var(2)));
  const auto rhs = m.apply_and(m.var(0), m.apply_or(m.var(1), m.var(2)));
  EXPECT_EQ(lhs, rhs);
}

TEST(Bdd, OperatorsTruthTables) {
  BddManager m(2);
  const auto x = m.var(0);
  const auto y = m.var(1);
  const auto fand = m.apply_and(x, y);
  const auto forr = m.apply_or(x, y);
  const auto fxor = m.apply_xor(x, y);
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      EXPECT_EQ(m.eval(fand, {a, b}), a && b);
      EXPECT_EQ(m.eval(forr, {a, b}), a || b);
      EXPECT_EQ(m.eval(fxor, {a, b}), a != b);
    }
  }
}

TEST(Bdd, SelfOperations) {
  BddManager m(1);
  const auto x = m.var(0);
  EXPECT_EQ(m.apply_and(x, x), x);
  EXPECT_EQ(m.apply_or(x, x), x);
  EXPECT_EQ(m.apply_xor(x, x), BddManager::kFalse);
  EXPECT_EQ(m.apply_and(x, m.negate(x)), BddManager::kFalse);
  EXPECT_EQ(m.apply_or(x, m.negate(x)), BddManager::kTrue);
}

TEST(Bdd, SatCount) {
  BddManager m(3);
  EXPECT_DOUBLE_EQ(m.sat_count(BddManager::kTrue), 8.0);
  EXPECT_DOUBLE_EQ(m.sat_count(BddManager::kFalse), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(0)), 4.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.apply_and(m.var(0), m.var(2))), 2.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.apply_xor(m.var(1), m.var(2))), 4.0);
}

TEST(Bdd, AnySat) {
  BddManager m(3);
  EXPECT_FALSE(m.any_sat(BddManager::kFalse).has_value());
  const auto f = m.apply_and(m.var(0), m.nvar(2));
  const auto sat = m.any_sat(f);
  ASSERT_TRUE(sat.has_value());
  EXPECT_TRUE(m.eval(f, *sat));
}

TEST(Bdd, NodeLimitThrows) {
  BddManager m(40, /*node_limit=*/64);
  // A product chain grows linearly, an XOR chain also, but the limit of 64
  // is hit quickly when building many distinct functions.
  EXPECT_THROW(
      {
        auto f = BddManager::kTrue;
        for (unsigned v = 0; v < 40; ++v) {
          f = m.apply_xor(f, m.var(v));
          // force distinct products too
          m.apply_and(f, m.var((v + 1) % 40));
        }
      },
      Error);
}

/// The computed table compares (f, g, h) in full.  A packed key such as
/// (f << 42) ^ (g << 21) ^ h gives ite(f, g, 0) and ite(f ^ 1, g ^ 2^21, 0)
/// the same key once refs pass 2^21, so the second call would return the
/// first call's result.
TEST(Bdd, ComputedTableKeysAreExact) {
  constexpr unsigned kVars = 2100;
  constexpr BddManager::Ref kHigh = 1u << 21;
  BddManager m(kVars);
  std::vector<BddManager::Ref> vars;
  for (unsigned v = 0; v < kVars; ++v) vars.push_back(m.var(v));
  // Each AND of two distinct variables adds exactly one node.
  for (unsigned i = 0; i < kVars && m.node_count() <= kHigh + 16; ++i) {
    for (unsigned j = i + 1; j < kVars && m.node_count() <= kHigh + 16; ++j) {
      m.apply_and(vars[i], vars[j]);
    }
  }
  ASSERT_GT(m.node_count(), kHigh + 16);

  const BddManager::Ref f = vars[0];
  const BddManager::Ref f2 = f ^ 1u;  // vars[1]
  const BddManager::Ref g = kHigh + 6;
  const BddManager::Ref g2 = g ^ kHigh;  // vars[4]
  const BddManager::Ref fg = m.apply_and(f, g);
  const BddManager::Ref f2g2 = m.apply_and(f2, g2);
  EXPECT_EQ(fg, m.apply_and(g, f));
  EXPECT_EQ(f2g2, m.apply_and(g2, f2));
  EXPECT_NE(fg, f2g2);
}

/// OR over i of (x_i AND y_i) with every x ordered before every y has
/// more than 2^12 nodes, so building it crosses several doublings of the
/// unique and computed tables.  Both folds must meet in one node.
TEST(Bdd, TablesGrowWithoutLosingCanonicity) {
  constexpr unsigned kPairs = 12;
  BddManager m(2 * kPairs);
  auto term = [&](unsigned i) { return m.apply_and(m.var(i), m.var(kPairs + i)); };
  BddManager::Ref left = BddManager::kFalse;
  for (unsigned i = 0; i < kPairs; ++i) left = m.apply_or(left, term(i));
  BddManager::Ref right = BddManager::kFalse;
  for (unsigned i = kPairs; i-- > 0;) right = m.apply_or(term(i), right);
  EXPECT_GT(m.node_count(), 1u << kPairs);
  EXPECT_EQ(left, right);
  // Assignments with at least one pair both true: 4^12 - 3^12.
  EXPECT_DOUBLE_EQ(m.sat_count(left), 16777216.0 - 531441.0);
}

TEST(BddEquivalence, NetworkSelfEquivalence) {
  const Network net = testing::full_adder_network();
  EXPECT_EQ(equivalent_exact(net, net), std::optional<bool>(true));
}

TEST(BddEquivalence, DetectsInequivalence) {
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "z");
  NetworkBuilder b2;
  const NodeId x2 = b2.add_pi("x");
  const NodeId y2 = b2.add_pi("y");
  b2.add_output(b2.add_or(x2, y2), "z");
  EXPECT_EQ(equivalent_exact(std::move(b1).build(), std::move(b2).build()),
            std::optional<bool>(false));
}

TEST(BddEquivalence, AgreesWithSimulationOnRandomNetworks) {
  for (const std::uint64_t seed : {10u, 20u, 30u, 40u}) {
    const Network a = testing::random_network(8, 60, 4, seed);
    const Network b = soidom::clone(a);
    EXPECT_EQ(equivalent_exact(a, b), std::optional<bool>(true)) << seed;
  }
}

TEST(BddEquivalence, MappedNetlistExact) {
  for (const std::uint64_t seed : {3u, 5u, 7u}) {
    const Network source = testing::random_network(10, 90, 5, seed);
    const UnateResult unate = make_unate(source);
    for (const MappingEngine engine :
         {MappingEngine::kDominoMap, MappingEngine::kSoiDominoMap}) {
      MapperOptions opts;
      opts.engine = engine;
      const MappingResult result = map_to_domino(unate, opts);
      EXPECT_EQ(equivalent_exact(result.netlist, source),
                std::optional<bool>(true))
          << "seed " << seed;
    }
  }
}

TEST(BddEquivalence, MappedNetlistMismatchDetected) {
  const Network source = testing::fig2_network();
  const UnateResult unate = make_unate(source);
  MappingResult result = map_to_domino(unate, MapperOptions{});
  DominoNetlist broken;
  for (const auto& in : result.netlist.inputs()) broken.add_input(in);
  for (const auto& g : result.netlist.gates()) broken.add_gate(g);
  auto o = result.netlist.outputs()[0];
  o.inverted = !o.inverted;
  broken.add_output(o);
  EXPECT_EQ(equivalent_exact(broken, source), std::optional<bool>(false));
}

TEST(BddEquivalence, ReorderedInterfacesMatchByName) {
  // Same functions, PIs and POs declared in a different order: the
  // name-based matching must pair them up instead of comparing
  // positionally (which would report a spurious mismatch).
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "and");
  b1.add_output(b1.add_or(x1, y1), "or");
  NetworkBuilder b2;
  const NodeId y2 = b2.add_pi("y");
  const NodeId x2 = b2.add_pi("x");
  b2.add_output(b2.add_or(x2, y2), "or");
  b2.add_output(b2.add_and(x2, y2), "and");
  EXPECT_EQ(equivalent_exact(std::move(b1).build(), std::move(b2).build()),
            std::optional<bool>(true));
}

TEST(BddEquivalence, ReorderedAsymmetricFunctionIsNotPositional) {
  // x & !y vs (PIs swapped) x & !y: positionally these would wrongly
  // compare x & !y against y & !x and return false; name matching must
  // return true.  The dual check — matched names but genuinely different
  // functions — must still fail.
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, b1.add_inv(y1)), "z");
  const Network a = std::move(b1).build();

  NetworkBuilder b2;
  const NodeId y2 = b2.add_pi("y");
  const NodeId x2 = b2.add_pi("x");
  b2.add_output(b2.add_and(x2, b2.add_inv(y2)), "z");
  EXPECT_EQ(equivalent_exact(a, std::move(b2).build()),
            std::optional<bool>(true));

  NetworkBuilder b3;
  const NodeId y3 = b3.add_pi("y");
  const NodeId x3 = b3.add_pi("x");
  b3.add_output(b3.add_and(b3.add_inv(x3), y3), "z");
  EXPECT_EQ(equivalent_exact(a, std::move(b3).build()),
            std::optional<bool>(false));
}

TEST(BddEquivalence, InterfaceSizeMismatchThrows) {
  NetworkBuilder b1;
  b1.add_output(b1.add_pi("x"), "z");
  NetworkBuilder b2;
  const NodeId x = b2.add_pi("x");
  const NodeId y = b2.add_pi("y");
  b2.add_output(b2.add_and(x, y), "z");
  try {
    (void)equivalent_exact(std::move(b1).build(), std::move(b2).build());
    FAIL() << "expected GuardError";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_EQ(e.stage(), FlowStage::kExact);
    EXPECT_NE(std::string(e.what()).find("PI count mismatch"),
              std::string::npos);
  }
}

TEST(BddEquivalence, MissingNameThrowsWithOffendingSignal) {
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "z");
  NetworkBuilder b2;
  const NodeId y2 = b2.add_pi("y");
  const NodeId w2 = b2.add_pi("w");  // no 'x' on side A
  b2.add_output(b2.add_and(w2, y2), "z");
  try {
    (void)equivalent_exact(std::move(b1).build(), std::move(b2).build());
    FAIL() << "expected GuardError";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("'w'"), std::string::npos);
  }
}

TEST(BddEquivalence, DuplicateNamesUnmatchableWhenReordered) {
  // Two PIs named "x" cannot be paired by name; with different PI orders
  // the check must refuse rather than guess.
  auto build = [](bool swap) {
    NetworkBuilder b;
    const NodeId p = b.add_pi("x");
    const NodeId q = b.add_pi(swap ? "y" : "x");
    b.add_output(b.add_and(p, q), "z");
    return std::move(b).build();
  };
  try {
    (void)equivalent_exact(build(false), build(true));
    FAIL() << "expected GuardError";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("duplicate 'x'"), std::string::npos);
  }
}

TEST(BddEquivalence, PositionalFastPathToleratesDuplicateNames) {
  // Identical (even degenerate) name sequences keep the positional fast
  // path: duplicates are fine when no reordering is needed.
  auto build = [] {
    NetworkBuilder b;
    const NodeId p = b.add_pi("x");
    const NodeId q = b.add_pi("x");
    b.add_output(b.add_or(p, q), "z");
    return std::move(b).build();
  };
  EXPECT_EQ(equivalent_exact(build(), build()), std::optional<bool>(true));
}

TEST(BddEquivalence, NodeLimitReturnsNullopt) {
  // A 24-variable XOR ladder times a product ladder with a 100-node cap
  // cannot complete.
  NetworkBuilder b;
  std::vector<NodeId> pis;
  for (int i = 0; i < 24; ++i) pis.push_back(b.add_pi(format("x%d", i)));
  NodeId acc = pis[0];
  for (std::size_t i = 1; i < pis.size(); ++i) {
    acc = b.add_or(b.add_and(acc, b.add_inv(pis[i])),
                   b.add_and(b.add_inv(acc), pis[i]));
  }
  b.add_output(acc, "z");
  const Network net = std::move(b).build();
  EXPECT_EQ(equivalent_exact(net, net, /*node_limit=*/100), std::nullopt);
}

// ---------------------------------------------------------------------------
// equivalent_exact_cex: counterexample cube extraction.

/// Assert a counterexample actually distinguishes the two networks:
/// evaluating both on its cube yields different values at the named
/// output.  `b_pis` maps the cube (A's PI order) onto B by name when the
/// interfaces are reordered; identity when empty.
void expect_distinguishing(const Network& a, const Network& b,
                           const EquivalenceCounterexample& cex) {
  ASSERT_EQ(cex.pi_values.size(), a.pis().size());
  const std::vector<bool> va = evaluate(a, cex.pi_values);
  std::vector<bool> b_inputs(b.pis().size(), false);
  for (std::size_t k = 0; k < b.pis().size(); ++k) {
    // Match by name (the function's interface rule); positional when the
    // name sequences agree.
    const std::string& name = b.pi_name(b.pis()[k]);
    bool matched = false;
    for (std::size_t j = 0; j < a.pis().size(); ++j) {
      if (a.pi_name(a.pis()[j]) == name) {
        b_inputs[k] = cex.pi_values[j];
        matched = true;
        break;
      }
    }
    ASSERT_TRUE(matched) << "PI '" << name << "' missing from network A";
  }
  const std::vector<bool> vb = evaluate(b, b_inputs);
  ASSERT_LT(cex.output_index, va.size());
  // Find B's output of the same name to compare against.
  std::size_t b_out = cex.output_index;
  for (std::size_t j = 0; j < b.outputs().size(); ++j) {
    if (b.outputs()[j].name == cex.output) b_out = j;
  }
  EXPECT_NE(va[cex.output_index], vb[b_out])
      << "counterexample does not distinguish output '" << cex.output << "'";
}

TEST(BddCex, EquivalentNetworksHaveNoCounterexample) {
  const Network net = testing::full_adder_network();
  const auto check = equivalent_exact_cex(net, net);
  ASSERT_TRUE(check.has_value());
  EXPECT_TRUE(check->equivalent);
  EXPECT_FALSE(check->counterexample.has_value());
}

TEST(BddCex, AndVsOrYieldsDistinguishingCube) {
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "z");
  NetworkBuilder b2;
  const NodeId x2 = b2.add_pi("x");
  const NodeId y2 = b2.add_pi("y");
  b2.add_output(b2.add_or(x2, y2), "z");
  const Network a = std::move(b1).build();
  const Network b = std::move(b2).build();
  const auto check = equivalent_exact_cex(a, b);
  ASSERT_TRUE(check.has_value());
  ASSERT_FALSE(check->equivalent);
  ASSERT_TRUE(check->counterexample.has_value());
  EXPECT_EQ(check->counterexample->output, "z");
  expect_distinguishing(a, b, *check->counterexample);
}

TEST(BddCex, CubeNamesTheFirstMismatchingOutputOnly) {
  // First output agrees (x AND y both sides), second differs on exactly
  // one input vector (AND vs XOR at x=1 y=1 .. differs at (1,0),(0,1)).
  NetworkBuilder b1;
  NodeId x1 = b1.add_pi("x");
  NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "same");
  b1.add_output(b1.add_and(x1, y1), "diff");
  NetworkBuilder b2;
  NodeId x2 = b2.add_pi("x");
  NodeId y2 = b2.add_pi("y");
  b2.add_output(b2.add_and(x2, y2), "same");
  b2.add_output(b2.add_or(b2.add_and(x2, b2.add_inv(y2)),
                          b2.add_and(b2.add_inv(x2), y2)),
                "diff");
  const Network a = std::move(b1).build();
  const Network b = std::move(b2).build();
  const auto check = equivalent_exact_cex(a, b);
  ASSERT_TRUE(check.has_value());
  ASSERT_FALSE(check->equivalent);
  ASSERT_TRUE(check->counterexample.has_value());
  EXPECT_EQ(check->counterexample->output, "diff");
  expect_distinguishing(a, b, *check->counterexample);
}

TEST(BddCex, ReorderedInterfacesCubeIsInNetworkAOrder) {
  // Same asymmetric function, B's PIs declared in reverse: the cube must
  // come back in A's PI order and still distinguish after name matching.
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, b1.add_inv(y1)), "z");
  NetworkBuilder b2;
  const NodeId y2 = b2.add_pi("y");
  const NodeId x2 = b2.add_pi("x");
  b2.add_output(b2.add_and(y2, b2.add_inv(x2)), "z");  // x/y swapped roles
  const Network a = std::move(b1).build();
  const Network b = std::move(b2).build();
  const auto check = equivalent_exact_cex(a, b);
  ASSERT_TRUE(check.has_value());
  ASSERT_FALSE(check->equivalent);
  ASSERT_TRUE(check->counterexample.has_value());
  expect_distinguishing(a, b, *check->counterexample);
}

TEST(BddCex, RandomMiscomparesAlwaysDistinguish) {
  // Independent random networks over the same interface (PI names x0..,
  // PO names z0..) almost surely differ; whenever they do, the extracted
  // cube must verify by simulation.  Clones must never yield a cube.
  int miscompares = 0;
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    const Network a = testing::random_network(6, 30, 3, seed);
    const Network b = testing::random_network(6, 34, 3, seed + 1000);
    const auto check = equivalent_exact_cex(a, b);
    ASSERT_TRUE(check.has_value()) << "seed " << seed;
    if (!check->equivalent) {
      ASSERT_TRUE(check->counterexample.has_value()) << "seed " << seed;
      expect_distinguishing(a, b, *check->counterexample);
      ++miscompares;
    }
    const auto self = equivalent_exact_cex(a, soidom::clone(a));
    ASSERT_TRUE(self.has_value());
    EXPECT_TRUE(self->equivalent) << "seed " << seed;
    EXPECT_FALSE(self->counterexample.has_value()) << "seed " << seed;
  }
  EXPECT_GT(miscompares, 0) << "corpus produced no miscompare to verify";
}

TEST(BddCex, NodeLimitReturnsNulloptWithoutCube) {
  NetworkBuilder b;
  std::vector<NodeId> pis;
  for (int i = 0; i < 24; ++i) pis.push_back(b.add_pi(format("x%d", i)));
  NodeId acc = pis[0];
  for (std::size_t i = 1; i < pis.size(); ++i) {
    acc = b.add_or(b.add_and(acc, b.add_inv(pis[i])),
                   b.add_and(b.add_inv(acc), pis[i]));
  }
  b.add_output(acc, "z");
  const Network net = std::move(b).build();
  EXPECT_EQ(equivalent_exact_cex(net, net, /*node_limit=*/100), std::nullopt);
}

}  // namespace
}  // namespace soidom
