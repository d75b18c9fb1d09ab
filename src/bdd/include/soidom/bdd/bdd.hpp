/// \file bdd.hpp
/// A compact reduced-ordered binary decision diagram (ROBDD) package.
///
/// Used as the exact functional-equivalence oracle for small and medium
/// cones (the paper's benchmark circuits are combinational, so mapped
/// netlists can be proven — not just sampled — equivalent).  The design is
/// deliberately classic: a unique table enforcing canonicity, a recursive
/// ITE with a computed-table cache, and natural variable order (callers
/// pick the order by choosing variable indices).  Complement edges and
/// dynamic reordering are intentionally omitted; the circuits in scope do
/// not need them and their absence keeps invariants checkable.
///
/// Both tables grow with the node count and compare whole keys, so a
/// manager costs memory in proportion to its nodes (about 20 KiB fresh)
/// and no two nodes or calls alias at any size.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "soidom/base/contracts.hpp"
#include "soidom/base/id_index.hpp"

namespace soidom {

/// Manager owning all BDD nodes of one analysis.  Refs are indices into
/// the manager's node pool and stay valid for the manager's lifetime.
class BddManager {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  /// `node_limit` bounds total node count; exceeding it throws
  /// soidom::Error (callers fall back to random simulation).
  explicit BddManager(unsigned num_vars, std::size_t node_limit = 1u << 22);

  unsigned num_vars() const { return num_vars_; }
  std::size_t node_count() const { return nodes_.size(); }

  /// Projection function of variable v (and its complement).
  Ref var(unsigned v);
  Ref nvar(unsigned v);

  Ref ite(Ref f, Ref g, Ref h);
  Ref apply_and(Ref f, Ref g) { return ite(f, g, kFalse); }
  Ref apply_or(Ref f, Ref g) { return ite(f, kTrue, g); }
  Ref apply_xor(Ref f, Ref g) { return ite(f, negate(g), g); }
  Ref negate(Ref f) { return ite(f, kFalse, kTrue); }

  bool is_const(Ref f) const { return f <= kTrue; }

  /// Evaluate under a full assignment (`values[v]` for variable v).
  bool eval(Ref f, const std::vector<bool>& values) const;

  /// Number of satisfying assignments over all num_vars() variables
  /// (exact while it fits in double's integer range).
  double sat_count(Ref f) const;

  /// One satisfying assignment, if any.
  std::optional<std::vector<bool>> any_sat(Ref f) const;

 private:
  struct Node {
    std::uint32_t var;  ///< variable index; num_vars_ for terminals
    Ref lo;
    Ref hi;
  };

  Ref make_node(std::uint32_t v, Ref lo, Ref hi);
  std::uint32_t top_var(Ref f, Ref g, Ref h) const;
  Ref cofactor(Ref f, std::uint32_t v, bool positive) const;

  unsigned num_vars_;
  std::size_t node_limit_;
  std::vector<Node> nodes_;
  /// Unique table enforcing canonicity: (var, lo, hi) -> node, compared
  /// against the node's own fields.
  IdIndex unique_;
  /// Direct-mapped computed table for ITE, keyed by the full (f, g, h).
  /// f is never a terminal in a stored call, so the zero key marks a free
  /// slot.  It starts at 2^10 entries and make_node doubles (and clears)
  /// it whenever the node count passes its size, up to 2^21 entries, so
  /// ite must look its slot up again after recursing.
  struct CacheEntry {
    Key3 call;
    Ref result = 0;
  };
  std::vector<CacheEntry> cache_;
};

}  // namespace soidom
