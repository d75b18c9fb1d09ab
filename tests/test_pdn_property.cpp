#include <gtest/gtest.h>

#include "soidom/base/rng.hpp"
#include "soidom/bdd/bdd.hpp"
#include "soidom/domino/exact.hpp"
#include "soidom/pdn/analyze.hpp"
#include "soidom/pdn/pdn.hpp"
#include "soidom/pdn/reorder.hpp"

namespace soidom {
namespace {

/// Seeded random series/parallel tree over `num_signals` gate inputs.
PdnIndex random_subtree(Pdn& pdn, Rng& rng, int depth, int num_signals,
                        bool parent_series) {
  const bool make_leaf = depth <= 0 || rng.chance(2, 5);
  if (make_leaf) {
    return pdn.add_leaf(static_cast<std::uint32_t>(
        rng.next_below(static_cast<std::uint64_t>(num_signals))));
  }
  // Alternate kinds so flattening keeps structure interesting.
  const bool series = parent_series ? rng.chance(1, 4) : rng.chance(3, 4);
  const int arity = 2 + static_cast<int>(rng.next_below(3));
  std::vector<PdnIndex> children;
  for (int k = 0; k < arity; ++k) {
    children.push_back(
        random_subtree(pdn, rng, depth - 1, num_signals, series));
  }
  return series ? pdn.add_series(std::move(children))
                : pdn.add_parallel(std::move(children));
}

Pdn random_pdn(std::uint64_t seed, int num_signals = 6) {
  Rng rng(seed);
  Pdn pdn;
  pdn.set_root(random_subtree(pdn, rng, 4, num_signals, false));
  return pdn;
}

bool eval(const Pdn& pdn, std::uint32_t assignment) {
  return pdn.conducts(
      [&](std::uint32_t s) { return ((assignment >> s) & 1) != 0; });
}

class PdnRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PdnRandomProperty, NormalizationInvariants) {
  const Pdn pdn = random_pdn(GetParam());
  for (PdnIndex i = 0; i < pdn.pool_size(); ++i) {
    const PdnNode& n = pdn.node(i);
    if (n.kind == PdnKind::kLeaf) continue;
    EXPECT_GE(n.children.size(), 2u);
    for (const PdnIndex c : n.children) {
      // add_series / add_parallel flatten same-kind children.
      EXPECT_NE(pdn.node(c).kind, n.kind);
    }
  }
}

TEST_P(PdnRandomProperty, ShapeMetricBounds) {
  const Pdn pdn = random_pdn(GetParam());
  const int w = pdn.width();
  const int h = pdn.height();
  const int t = pdn.transistor_count();
  EXPECT_GE(w, 1);
  EXPECT_GE(h, 1);
  EXPECT_LE(t, w * h);
  EXPECT_GE(t, std::max(w, h));
  EXPECT_EQ(static_cast<std::size_t>(t), pdn.leaf_signals().size());
}

TEST_P(PdnRandomProperty, AnalyzerMonotoneInGrounding) {
  const Pdn pdn = random_pdn(GetParam());
  const PbeAnalysis grounded = analyze_pbe(pdn, true);
  const PbeAnalysis floating = analyze_pbe(pdn, false);
  // Everything required when grounded is still required when floating.
  for (const DischargePoint& p : grounded.required) {
    EXPECT_NE(std::find(floating.required.begin(), floating.required.end(), p),
              floating.required.end());
  }
  EXPECT_GE(floating.required_count(), grounded.required_count());
  // Conservation: floating commits exactly the grounded-pending points
  // when the bottom is a parallel stack, plus the bottom itself.
  if (grounded.par_b_root) {
    EXPECT_EQ(floating.required_count(),
              grounded.required_count() + grounded.pending_count() + 1);
    EXPECT_EQ(floating.pending_count(), 0);
  } else {
    EXPECT_EQ(floating.required_count(), grounded.required_count());
  }
}

TEST_P(PdnRandomProperty, LiteralModelIsMorePessimistic) {
  const Pdn pdn = random_pdn(GetParam());
  for (const bool grounded : {true, false}) {
    EXPECT_GE(
        required_discharges(pdn, grounded, PendingModel::kPaperLiteral),
        required_discharges(pdn, grounded, PendingModel::kCoherent));
  }
}

TEST_P(PdnRandomProperty, RequiredPointsAreValidJunctions) {
  const Pdn pdn = random_pdn(GetParam());
  for (const bool grounded : {true, false}) {
    for (const DischargePoint& p : analyze_pbe(pdn, grounded).required) {
      if (p.at_bottom()) continue;
      const PdnNode& n = pdn.node(p.series_node);
      EXPECT_EQ(n.kind, PdnKind::kSeries);
      EXPECT_LT(p.pos + 1, n.children.size());
    }
  }
}

TEST_P(PdnRandomProperty, ReorderPreservesFunction) {
  const Pdn before = random_pdn(GetParam());
  Pdn after = before;
  reorder_series_stacks(after);
  for (std::uint32_t a = 0; a < 64; ++a) {
    EXPECT_EQ(eval(before, a), eval(after, a)) << "assignment " << a;
  }
}

TEST_P(PdnRandomProperty, ReorderNeverIncreasesGroundedDischarges) {
  const Pdn before = random_pdn(GetParam());
  Pdn top_level = before;
  reorder_series_stacks(top_level, PendingModel::kCoherent,
                        /*recursive=*/false);
  Pdn recursive = before;
  reorder_series_stacks(recursive, PendingModel::kCoherent,
                        /*recursive=*/true);
  const int base = required_discharges(before, true);
  const int after_top = required_discharges(top_level, true);
  const int after_rec = required_discharges(recursive, true);
  EXPECT_LE(after_top, base);
  EXPECT_LE(after_rec, after_top);
}

TEST_P(PdnRandomProperty, WordFoldMatchesBitwiseConducts) {
  const Pdn pdn = random_pdn(GetParam());
  Rng rng(GetParam());
  std::vector<SimWord> words(6);
  for (SimWord& w : words) w = rng.next_u64();
  const SimWord folded = pdn.fold(
      SimWord{0}, ~SimWord{0}, [&](std::uint32_t s) { return words[s]; },
      std::bit_and<>{}, std::bit_or<>{});
  for (int bit = 0; bit < 64; ++bit) {
    const bool one_bit = pdn.conducts(
        [&](std::uint32_t s) { return ((words[s] >> bit) & 1) != 0; });
    EXPECT_EQ(((folded >> bit) & 1) != 0, one_bit) << "bit " << bit;
  }
}

TEST_P(PdnRandomProperty, BddConductionMatchesEval) {
  const Pdn pdn = random_pdn(GetParam());
  BddManager manager(6);
  const BddManager::Ref f = pdn_conduction(
      manager, pdn, [&](std::uint32_t s) { return manager.var(s); });
  for (std::uint32_t a = 0; a < 64; ++a) {
    std::vector<bool> values(6);
    for (std::uint32_t v = 0; v < 6; ++v) values[v] = ((a >> v) & 1) != 0;
    EXPECT_EQ(manager.eval(f, values), eval(pdn, a)) << "assignment " << a;
  }
}

/// Verbatim copy of the explicit-stack leaf walk that Pdn::leaf_signals()
/// used before Pdn::for_each_leaf became the one leaf-order walk.
std::vector<std::uint32_t> reference_leaf_signals(const Pdn& pdn) {
  std::vector<std::uint32_t> out;
  if (pdn.empty()) return out;
  std::vector<PdnIndex> stack{pdn.root()};
  while (!stack.empty()) {
    const PdnIndex i = stack.back();
    stack.pop_back();
    const PdnNode& n = pdn.node(i);
    if (n.kind == PdnKind::kLeaf) {
      out.push_back(n.signal);
    } else {
      // push reversed to visit children in order
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  return out;
}

void expect_leaf_order(const Pdn& pdn) {
  const std::vector<std::uint32_t> want = reference_leaf_signals(pdn);
  std::vector<std::uint32_t> visited;
  pdn.for_each_leaf([&](std::uint32_t s) { visited.push_back(s); });
  EXPECT_EQ(visited, want) << pdn.to_string();
  EXPECT_EQ(pdn.leaf_signals(), want) << pdn.to_string();
}

TEST_P(PdnRandomProperty, ForEachLeafMatchesLeafSignals) {
  const Pdn pdn = random_pdn(GetParam());
  expect_leaf_order(pdn);

  // Re-rooted at every pool node, dead ones included: the walk covers
  // that subtree only.
  for (PdnIndex i = 0; i < pdn.pool_size(); ++i) {
    Pdn sub = pdn;
    sub.set_root(i);
    expect_leaf_order(sub);
  }

  // Hand-built trees whose pools hold dead nodes: add_series inlines a
  // series child and add_parallel a parallel one, leaving the inlined
  // node unreachable from the root.
  Rng rng(GetParam());
  Pdn dead;
  const auto leaf = [&] {
    return dead.add_leaf(static_cast<std::uint32_t>(rng.next_below(8)));
  };
  const PdnIndex inner = dead.add_series({leaf(), leaf()});
  const PdnIndex outer = dead.add_series({leaf(), inner, leaf()});
  const PdnIndex branch = dead.add_parallel({leaf(), leaf()});
  const PdnIndex wide = dead.add_parallel({branch, outer, leaf()});
  dead.set_root(dead.add_series({wide, leaf()}));
  ASSERT_EQ(dead.transistor_count(), 8);
  expect_leaf_order(dead);

  expect_leaf_order(Pdn{});
}

/// Verbatim copy of the recursive analyzer behind analyze_pbe() before
/// it moved onto one pending-point stack.
struct ReferenceSubResult {
  std::vector<DischargePoint> pending;
  bool par_b = false;
};

class ReferenceAnalyzer {
 public:
  ReferenceAnalyzer(const Pdn& pdn, PendingModel model)
      : pdn_(pdn), model_(model) {}

  PbeAnalysis run(bool bottom_grounded) {
    PbeAnalysis out;
    if (pdn_.empty()) return out;
    ReferenceSubResult root = analyze(pdn_.root());
    out.par_b_root = root.par_b;
    if (!bottom_grounded) {
      const bool commit_root =
          model_ == PendingModel::kPaperLiteral || root.par_b;
      if (commit_root) {
        // All pending points commit; a parallel bottom additionally needs
        // its bottom node discharged.
        for (const DischargePoint& p : root.pending) required_.push_back(p);
        if (root.par_b) required_.push_back(DischargePoint{});  // bottom
        root.pending.clear();
      }
    }
    out.required = std::move(required_);
    out.pending_at_root = std::move(root.pending);
    // Deterministic order for comparisons.
    auto key = [](const DischargePoint& p) {
      return (static_cast<std::uint64_t>(p.series_node) << 32) | p.pos;
    };
    std::sort(out.required.begin(), out.required.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    std::sort(out.pending_at_root.begin(), out.pending_at_root.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    return out;
  }

 private:
  ReferenceSubResult analyze(PdnIndex i) {
    const PdnNode& n = pdn_.node(i);
    switch (n.kind) {
      case PdnKind::kLeaf:
        return {};
      case PdnKind::kParallel: {
        // Branch bottoms merge into this node's bottom; branch-internal
        // pending points become pending points of the parallel structure.
        ReferenceSubResult out;
        out.par_b = true;
        for (const PdnIndex c : n.children) {
          ReferenceSubResult sub = analyze(c);
          // A parallel child would have been flattened away; a branch with
          // par_b could only arise from an unnormalized tree.
          for (DischargePoint& p : sub.pending) {
            out.pending.push_back(p);
          }
          if (sub.par_b) {
            // Nested parallel directly under parallel (non-normalized):
            // treat its bottom as merged with ours — nothing extra.
          }
        }
        return out;
      }
      case PdnKind::kSeries: {
        // Fold bottom-up: start with the bottom child, stack the others on
        // top one at a time (mirrors the mapper's combine_and).
        const std::size_t k = n.children.size();
        ReferenceSubResult acc = analyze(n.children[k - 1]);
        for (std::size_t t = k - 1; t-- > 0;) {
          const ReferenceSubResult top = analyze(n.children[t]);
          const DischargePoint junction{
              i, static_cast<std::uint32_t>(t)};  // node below child t
          const bool commit_top =
              model_ == PendingModel::kPaperLiteral || top.par_b;
          if (commit_top) {
            for (const DischargePoint& p : top.pending) {
              required_.push_back(p);
            }
            if (top.par_b || model_ == PendingModel::kPaperLiteral) {
              required_.push_back(junction);
            }
          } else {
            // Series top: junction and internal points stay pending.
            for (const DischargePoint& p : top.pending) {
              acc.pending.push_back(p);
            }
            acc.pending.push_back(junction);
          }
          // par_b of the growing stack stays that of the bottom child.
        }
        return acc;
      }
    }
    return {};
  }

  const Pdn& pdn_;
  PendingModel model_;
  std::vector<DischargePoint> required_;
};

/// `pdn` with same-kind nesting put back: every `stride`-th child of each
/// node of kind `kind` is wrapped in a fresh node of the same kind
/// (together with one new leaf), by editing `node(i).children` directly.
Pdn unnormalize(Pdn pdn, PdnKind kind, std::size_t stride) {
  const std::size_t original = pdn.pool_size();
  for (PdnIndex i = 0; i < original; ++i) {
    if (pdn.node(i).kind != kind) continue;
    for (std::size_t k = 0; k < pdn.node(i).children.size(); k += stride) {
      const PdnIndex child = pdn.node(i).children[k];
      const PdnIndex extra = pdn.add_leaf(7);
      const PdnIndex wrap = kind == PdnKind::kParallel
                                ? pdn.add_parallel({child, extra})
                                : pdn.add_series({child, extra});
      pdn.node(i).children[k] = wrap;
    }
  }
  return pdn;
}

void expect_analyzer_matches_reference(const Pdn& pdn) {
  for (const PendingModel model :
       {PendingModel::kCoherent, PendingModel::kPaperLiteral}) {
    for (const bool grounded : {true, false}) {
      const PbeAnalysis want = ReferenceAnalyzer(pdn, model).run(grounded);
      const PbeAnalysis got = analyze_pbe(pdn, grounded, model);
      const std::string where =
          pdn.to_string() + (grounded ? " grounded" : " floating") +
          (model == PendingModel::kCoherent ? " coherent" : " literal");
      EXPECT_EQ(got.required, want.required) << where;
      EXPECT_EQ(got.pending_at_root, want.pending_at_root) << where;
      EXPECT_EQ(got.par_b_root, want.par_b_root) << where;
    }
  }
}

TEST_P(PdnRandomProperty, StackAnalyzerMatchesRecursiveReference) {
  const Pdn pdn = random_pdn(GetParam());
  expect_analyzer_matches_reference(pdn);
  for (PdnIndex i = 0; i < pdn.pool_size(); ++i) {
    Pdn sub = pdn;
    sub.set_root(i);
    expect_analyzer_matches_reference(sub);
  }

  // Unnormalized trees: a parallel node directly under a parallel node
  // (the reference's explicit nested-parallel branch), and a series node
  // directly under a series node.
  for (const std::size_t stride : {1u, 2u}) {
    const Pdn nested_parallel = unnormalize(pdn, PdnKind::kParallel, stride);
    const Pdn nested_series = unnormalize(pdn, PdnKind::kSeries, stride);
    expect_analyzer_matches_reference(nested_parallel);
    expect_analyzer_matches_reference(nested_series);
    expect_analyzer_matches_reference(
        unnormalize(nested_parallel, PdnKind::kSeries, stride));
  }
  expect_analyzer_matches_reference(Pdn{});
}

TEST_P(PdnRandomProperty, ReorderIsIdempotent) {
  Pdn pdn = random_pdn(GetParam());
  reorder_series_stacks(pdn);
  const int again = reorder_series_stacks(pdn);
  EXPECT_EQ(again, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdnRandomProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace soidom
