#include "soidom/pdn/analyze.hpp"

#include <algorithm>

#include "soidom/base/strings.hpp"

namespace soidom {
namespace {

/// One recursion over the tree with every pending point on one stack: a
/// subtree's pending points are the stack entries it pushed, a contiguous
/// range above the entries pushed before it.  Committing a range moves it
/// into `required_` and truncates the stack.
class Analyzer {
 public:
  Analyzer(const Pdn& pdn, PendingModel model) : pdn_(pdn), model_(model) {}

  PbeAnalysis run(bool bottom_grounded) {
    PbeAnalysis out;
    if (pdn_.empty()) return out;
    const bool par_b = analyze(pdn_.root());
    out.par_b_root = par_b;
    if (!bottom_grounded) {
      const bool commit_root =
          model_ == PendingModel::kPaperLiteral || par_b;
      if (commit_root) {
        // All pending points commit; a parallel bottom additionally needs
        // its bottom node discharged.
        commit(0);
        if (par_b) required_.push_back(DischargePoint{});  // bottom
      }
    }
    out.required = std::move(required_);
    out.pending_at_root = std::move(pending_);
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
  /// Pushes the subtree's pending points; returns whether its bottom is a
  /// parallel stack.
  bool analyze(PdnIndex i) {
    const PdnNode& n = pdn_.node(i);
    switch (n.kind) {
      case PdnKind::kLeaf:
        return false;
      case PdnKind::kParallel:
        // Branch bottoms merge into this node's bottom (also for a
        // parallel branch, which only an unnormalized tree has);
        // branch-internal pending points become pending points of the
        // parallel structure.
        for (const PdnIndex c : n.children) analyze(c);
        return true;
      case PdnKind::kSeries: {
        // Fold bottom-up: start with the bottom child, stack the others on
        // top one at a time (mirrors the mapper's combine_and).  par_b of
        // the growing stack stays that of the bottom child.
        const std::size_t k = n.children.size();
        const bool par_b = analyze(n.children[k - 1]);
        for (std::size_t t = k - 1; t-- > 0;) {
          const std::size_t top_begin = pending_.size();
          const bool top_par_b = analyze(n.children[t]);
          const DischargePoint junction{
              i, static_cast<std::uint32_t>(t)};  // node below child t
          if (model_ == PendingModel::kPaperLiteral || top_par_b) {
            commit(top_begin);
            required_.push_back(junction);
          } else {
            // Series top: junction and internal points stay pending.
            pending_.push_back(junction);
          }
        }
        return par_b;
      }
    }
    return false;
  }

  /// Moves the pending points from `begin` up into `required_`.
  void commit(std::size_t begin) {
    const auto first = pending_.begin() + static_cast<std::ptrdiff_t>(begin);
    required_.insert(required_.end(), first, pending_.end());
    pending_.resize(begin);
  }

  const Pdn& pdn_;
  PendingModel model_;
  std::vector<DischargePoint> required_;
  std::vector<DischargePoint> pending_;
};

}  // namespace

PbeAnalysis analyze_pbe(const Pdn& pdn, bool bottom_grounded,
                        PendingModel model) {
  return Analyzer(pdn, model).run(bottom_grounded);
}

int required_discharges(const Pdn& pdn, bool bottom_grounded,
                        PendingModel model) {
  return analyze_pbe(pdn, bottom_grounded, model).required_count();
}

bool fully_protected(const Pdn& pdn, bool bottom_grounded,
                     const std::vector<DischargePoint>& protected_points,
                     PendingModel model) {
  const PbeAnalysis analysis = analyze_pbe(pdn, bottom_grounded, model);
  return std::all_of(
      analysis.required.begin(), analysis.required.end(),
      [&](const DischargePoint& p) {
        return std::find(protected_points.begin(), protected_points.end(),
                         p) != protected_points.end();
      });
}

std::string to_string(const DischargePoint& point) {
  if (point.at_bottom()) return "bottom";
  return format("junction(s=%u,p=%u)", point.series_node, point.pos);
}

namespace {

void collect_junctions(const Pdn& pdn, PdnIndex i,
                       std::vector<DischargePoint>& out) {
  const PdnNode& n = pdn.node(i);
  if (n.kind == PdnKind::kLeaf) return;
  if (n.kind == PdnKind::kSeries) {
    for (std::size_t k = 0; k + 1 < n.children.size(); ++k) {
      out.push_back(DischargePoint{i, static_cast<std::uint32_t>(k)});
    }
  }
  for (const PdnIndex c : n.children) collect_junctions(pdn, c, out);
}

}  // namespace

std::vector<DischargePoint> canonical_junctions(const Pdn& pdn) {
  std::vector<DischargePoint> out;
  if (!pdn.empty()) collect_junctions(pdn, pdn.root(), out);
  return out;
}

std::string canonical_point_label(const Pdn& pdn, const DischargePoint& point) {
  if (point.at_bottom()) return "bottom";
  const auto junctions = canonical_junctions(pdn);
  const auto it = std::find(junctions.begin(), junctions.end(), point);
  if (it == junctions.end()) return to_string(point);  // not a real junction
  return format("j%d", static_cast<int>(it - junctions.begin()));
}

}  // namespace soidom
