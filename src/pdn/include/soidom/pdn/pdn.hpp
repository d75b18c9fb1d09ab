/// \file pdn.hpp
/// Pulldown-network (PDN) trees: the transistor-level structure of a
/// domino gate's nMOS evaluation network.
///
/// A PDN is a series/parallel tree whose leaves are single nMOS
/// transistors.  Orientation matters: in a series node, child 0 is the TOP
/// (nearest the dynamic node) and the last child is the BOTTOM (nearest
/// ground / the clock foot transistor).  This orientation drives the
/// parasitic-bipolar-effect analysis (analyze.hpp) and the stack
/// reordering passes (reorder.hpp).
///
/// Leaves carry an opaque 32-bit signal id; the owner (domino::DominoGate)
/// defines its meaning (unate-network PI literal or another gate's output).
///
/// Two recursions walk a tree for everyone else: `fold` is the one
/// conduction recursion (every domain a pulldown is evaluated in) and
/// `for_each_leaf` is the one leaf-order walk (`leaf_signals` wraps it).
/// Neither allocates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "soidom/base/contracts.hpp"

namespace soidom {

enum class PdnKind : std::uint8_t { kLeaf, kSeries, kParallel };

/// Index of a node within its Pdn's node pool.
using PdnIndex = std::uint32_t;
inline constexpr PdnIndex kInvalidPdnIndex = 0xffffffffu;

struct PdnNode {
  PdnKind kind = PdnKind::kLeaf;
  std::uint32_t signal = 0;        ///< leaf only: gate-input signal id
  std::vector<PdnIndex> children;  ///< series/parallel only, top-first
};

/// A series/parallel transistor tree.  Nodes live in a pool; `root` is the
/// tree root.  The structure is normalized: series nodes never have series
/// children and parallel nodes never have parallel children (see
/// `flatten`), and internal nodes have >= 2 children.
class Pdn {
 public:
  PdnIndex add_leaf(std::uint32_t signal);
  /// children must be non-empty; a single child is returned unchanged.
  PdnIndex add_series(std::vector<PdnIndex> children);
  PdnIndex add_parallel(std::vector<PdnIndex> children);

  void set_root(PdnIndex root) { root_ = root; }
  PdnIndex root() const { return root_; }
  bool empty() const { return root_ == kInvalidPdnIndex; }

  const PdnNode& node(PdnIndex i) const {
    SOIDOM_ASSERT(i < nodes_.size());
    return nodes_[i];
  }
  PdnNode& node(PdnIndex i) {
    SOIDOM_ASSERT(i < nodes_.size());
    return nodes_[i];
  }
  std::size_t pool_size() const { return nodes_.size(); }

  // --- shape metrics (paper's W / H) -------------------------------------
  /// Max number of parallel branches through any electrical node.
  int width() const;
  int width_of(PdnIndex i) const;
  /// Max series transistors on any dynamic-node-to-bottom path.
  int height() const;
  int height_of(PdnIndex i) const;
  /// Number of leaf transistors.
  int transistor_count() const;
  int transistor_count_of(PdnIndex i) const;

  /// The one leaf-order walk: calls `fn(signal)` for every leaf, top to
  /// bottom and left to right, without allocating.  An empty tree has no
  /// leaves.
  template <typename Fn>
  void for_each_leaf(Fn&& fn) const {
    if (empty()) return;
    const auto at = [&](const auto& self, PdnIndex i) -> void {
      const PdnNode& n = node(i);
      if (n.kind == PdnKind::kLeaf) {
        fn(n.signal);
        return;
      }
      for (const PdnIndex c : n.children) self(self, c);
    };
    at(at, root_);
  }

  /// All leaf signals in for_each_leaf order.
  std::vector<std::uint32_t> leaf_signals() const;

  /// The one conduction recursion over the tree, shared by every domain a
  /// pulldown is evaluated in (bool, 64-bit simulation words, BDDs): a
  /// leaf maps through `leaf(signal)`; a series node folds its children
  /// top-first with `conj` starting from `one`, a parallel node with
  /// `disj` starting from `zero`.  Every child is visited (no
  /// short-circuit), so the operation sequence is the same in every
  /// domain and a stateful leaf sees every leaf of the tree.
  template <typename T, typename Leaf, typename And, typename Or>
  T fold(T zero, T one, Leaf&& leaf, And&& conj, Or&& disj) const {
    SOIDOM_ASSERT(!empty());
    const auto at = [&](const auto& self, PdnIndex i) -> T {
      const PdnNode& n = node(i);
      if (n.kind == PdnKind::kLeaf) return leaf(n.signal);
      const bool series = n.kind == PdnKind::kSeries;
      T acc = series ? one : zero;
      for (const PdnIndex c : n.children) {
        const T v = self(self, c);
        acc = series ? conj(acc, v) : disj(acc, v);
      }
      return acc;
    };
    return at(at, root_);
  }

  /// Logical evaluation: does a conducting path exist from top to bottom
  /// given per-signal gate values?  `signal_value(sig)` supplies inputs.
  template <typename Fn>
  bool conducts(Fn&& signal_value) const {
    return fold(false, true, signal_value, std::logical_and<>{},
                std::logical_or<>{});
  }

  /// Compact textual form, e.g. "((s0.s1)+s2).s3" — series '.', parallel
  /// '+', top-first.  For diagnostics and golden tests.
  std::string to_string() const;
  std::string to_string_of(PdnIndex i) const;

 private:
  std::vector<PdnNode> nodes_;
  PdnIndex root_ = kInvalidPdnIndex;
};

/// Structurally compare two PDNs (same shape, same leaf signals, same
/// ordering).
bool structurally_equal(const Pdn& a, const Pdn& b);

}  // namespace soidom
