#include "soidom/mapper/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"

namespace soidom {
namespace {

/// A reference to one DP candidate: the unate node that owns it plus its
/// position in that node's canonical candidate sequence (survivors in
/// (W, H, rank) order, then the gate-leaf tuple; a PI node owns exactly
/// its input-leaf candidate at local 0).
///
/// The total order (level, node, local) over these references reproduces
/// the append order of the legacy level-by-level global arena exactly, so
/// every tie-break that once compared arena indices compares reference
/// keys instead and realizes the identical netlist.
struct CandRef {
  static constexpr std::uint32_t kNullNode = 0xffffffffu;

  std::uint32_t node = kNullNode;
  std::uint32_t local = 0;

  bool valid() const { return node != kNullNode; }
  friend bool operator==(CandRef, CandRef) = default;
};

/// A DP candidate: one partial pulldown structure.  See mapper.hpp for the
/// field semantics.  Candidates live in per-node survivor sets and
/// reference their construction children by CandRef, so realization can
/// rebuild the exact series/parallel tree the DP priced.
struct Cand {
  enum class Op : std::uint8_t { kInputLeaf, kGateLeaf, kSeries, kParallel };

  Op op = Op::kInputLeaf;
  std::uint8_t w = 1;
  std::uint8_t h = 1;
  bool par_b = false;
  bool has_pi = false;
  std::int16_t level = 0;
  std::uint16_t p_bot = 0;
  std::uint16_t p_above = 0;
  std::uint16_t disch = 0;  ///< discharge transistors committed in this PDN
  std::int64_t committed = 0;
  /// kSeries: a = TOP child, b = BOTTOM child; kParallel: the two branches.
  CandRef a;
  CandRef b;
  /// kInputLeaf: netlist input signal; kGateLeaf: unate node id.
  std::uint32_t leaf = 0;

  int p_total() const { return p_bot + p_above; }
};

/// The DP is one bottom-up pass over the AND/OR nodes in id order.  Ids
/// are a topological order and a node's tuple set depends only on its two
/// fanins, so every node is mapped after both of them.  Each node's
/// surviving candidates are written into its own slot and refer to their
/// children by CandRef keys.
class MapperImpl {
 public:
  MapperImpl(const UnateResult& unate, const MapperOptions& opts)
      : unate_(unate), net_(unate.net), opts_(opts) {
    SOIDOM_REQUIRE(net_.is_unate(),
                   "mapper input must be a unate (inverter-free) network");
    validate(opts_);
    clock_cost_ = static_cast<std::int64_t>(
        std::llround(opts_.clock_weight * kCostUnitsPerTransistor));
    soi_ = opts_.engine == MappingEngine::kSoiDominoMap;
    disch_price_ = soi_ ? clock_cost_ : 0;
    // Shape-grid extent: OVERSIZE parallels (W up to 2*Wmax) are retained
    // as complex-gate split fodder when enabled.
    grid_wmax_ = opts_.enable_complex_gates ? 2 * opts_.max_width
                                            : opts_.max_width;
    grid_hmax_ = opts_.max_height;
  }

  void run_dp() {
    if (dp_done_) return;
    dp_done_ = true;
    guard_ = current_guard();
    fanout_ = net_.fanout_counts();
    level_ = net_.levels();
    survivors_.resize(net_.size());
    gate_leaf_.resize(net_.size());
    pi_leaf_.resize(net_.size());
    gate_best_local_.assign(net_.size(), -1);
    gate_complex_a_.assign(net_.size(), CandRef{});
    gate_complex_b_.assign(net_.size(), CandRef{});
    gate_cost_.assign(net_.size(), 0);
    gate_level_.assign(net_.size(), 0);
    input_signal_.assign(net_.size(), 0);

    // Netlist inputs: one literal per unate PI, id == unate PI position.
    // Recover (source PI, phase) from the unate conversion record.
    std::vector<InputLiteral> literals(net_.pis().size());
    for (std::size_t k = 0; k < unate_.pi_literals.size(); ++k) {
      const auto& lits = unate_.pi_literals[k];
      if (lits.pos >= 0) {
        literals[static_cast<std::size_t>(lits.pos)] =
            InputLiteral{"", static_cast<int>(k), false};
      }
      if (lits.neg >= 0) {
        literals[static_cast<std::size_t>(lits.neg)] =
            InputLiteral{"", static_cast<int>(k), true};
      }
    }
    for (std::size_t j = 0; j < net_.pis().size(); ++j) {
      literals[j].name = net_.pi_name(net_.pis()[j]);
      SOIDOM_ASSERT_MSG(literals[j].source_pi >= 0,
                        "unate PI without a source literal record");
      const std::uint32_t sig = netlist_.add_input(literals[j]);
      input_signal_[net_.pis()[j].value] = sig;
    }

    // Primary-input leaf candidates, in id order.
    std::size_t num_pi_leaves = 0;
    for (std::uint32_t i = 2; i < net_.size(); ++i) {
      if (net_.kind(NodeId{i}) != NodeKind::kPi) continue;
      Cand leaf;
      leaf.op = Cand::Op::kInputLeaf;
      leaf.leaf = input_signal_[i];
      leaf.committed = kCostUnitsPerTransistor;
      leaf.has_pi = true;
      pi_leaf_[i] = leaf;
      ++num_pi_leaves;
    }

    // AND/OR nodes in id order (ids are a topological order: every fanin
    // has a smaller id than its fanout).
    scratch_.cells.resize(static_cast<std::size_t>(grid_wmax_) * grid_hmax_);
    candidates_retained_ = num_pi_leaves;
    std::vector<char> level_used;  // distinct levels among mapped nodes
    for (std::uint32_t i = 2; i < net_.size(); ++i) {
      const NodeKind kind = net_.kind(NodeId{i});
      if (kind != NodeKind::kAnd && kind != NodeKind::kOr) continue;
      process_node(NodeId{i});
      candidates_retained_ += survivors_[i].size() + 1;  // + gate leaf
      const auto level = static_cast<std::size_t>(level_[i]);
      if (level >= level_used.size()) level_used.resize(level + 1, 0);
      level_used[level] = 1;
    }
    dp_levels_ = static_cast<int>(
        std::count(level_used.begin(), level_used.end(), 1));
    scratch_ = Scratch{};
  }

  MappingResult run() {
    if (ran_) return result_;
    ran_ = true;
    run_dp();
    gate_signal_.assign(net_.size(), kNoSignal);
    for (std::size_t j = 0; j < net_.outputs().size(); ++j) {
      const Output& o = net_.outputs()[j];
      const bool inverted = unate_.po_inverted[j];
      DominoOutput out;
      out.name = o.name;
      out.inverted = inverted;
      switch (net_.kind(o.driver)) {
        case NodeKind::kConst0:
          out.constant = 0;
          break;
        case NodeKind::kConst1:
          out.constant = 1;
          break;
        case NodeKind::kPi:
          out.signal = input_signal_[o.driver.value];
          break;
        case NodeKind::kAnd:
        case NodeKind::kOr:
          out.signal = realize_gate(o.driver);
          break;
        default:
          SOIDOM_ASSERT_MSG(false, "unexpected PO driver kind");
      }
      netlist_.add_output(std::move(out));
    }
    result_.dp_analyzer_mismatches = mismatches_;
    result_.predicted_cost = realized_weighted_cost();
    result_.candidates_examined = candidates_examined_;
    result_.candidates_retained = candidates_retained_;
    result_.dp_levels = dp_levels_;
    result_.netlist = std::move(netlist_);
    return result_;
  }

  std::vector<TupleInfo> tuples_of(NodeId node) {
    run_dp();
    SOIDOM_REQUIRE(net_.kind(node) == NodeKind::kAnd ||
                       net_.kind(node) == NodeKind::kOr,
                   "tuples_of: node is not an AND/OR gate");
    std::vector<TupleInfo> out;
    for (const Cand& c : survivors_[node.value]) {
      out.push_back(info_of(c));
    }
    out.push_back(info_of(gate_leaf_[node.value]));
    // The gate-leaf tuple's committed includes the +1 next-level
    // transistor; report the bare gate cost for the {1,1} entry instead.
    out.back().committed = gate_cost_[node.value];
    std::sort(out.begin(), out.end(), [](const TupleInfo& a, const TupleInfo& b) {
      return std::tie(a.width, a.height, a.committed) <
             std::tie(b.width, b.height, b.committed);
    });
    return out;
  }

  std::int64_t gate_cost_of(NodeId node) {
    run_dp();
    SOIDOM_REQUIRE(gate_best_local_[node.value] >= 0,
                   "gate_cost_of: node forms no gate");
    return gate_cost_[node.value];
  }

 private:
  static constexpr std::uint32_t kNoSignal = 0xffffffffu;

  static TupleInfo info_of(const Cand& c) {
    TupleInfo t;
    t.width = c.w;
    t.height = c.h;
    t.committed = c.committed;
    t.p_bot = c.p_bot;
    t.p_above = c.p_above;
    t.par_b = c.par_b;
    t.has_pi = c.has_pi;
    t.level = c.level;
    t.disch_committed = c.disch;
    return t;
  }

  // --- candidate references ----------------------------------------------

  const Cand& deref(CandRef r) const {
    SOIDOM_ASSERT(r.valid());
    if (net_.kind(NodeId{r.node}) == NodeKind::kPi) return pi_leaf_[r.node];
    const std::vector<Cand>& s = survivors_[r.node];
    return r.local < s.size() ? s[r.local] : gate_leaf_[r.node];
  }

  CandRef gate_leaf_ref(std::uint32_t node) const {
    return CandRef{node, static_cast<std::uint32_t>(survivors_[node].size())};
  }

  /// Three-way compare in the legacy arena-append order: level-major,
  /// then node id, then position in the node's candidate sequence.
  int ref_cmp(CandRef x, CandRef y) const {
    const auto kx = std::make_tuple(level_[x.node], x.node, x.local);
    const auto ky = std::make_tuple(level_[y.node], y.node, y.local);
    if (kx < ky) return -1;
    return ky < kx ? 1 : 0;
  }

  bool ref_less(CandRef x, CandRef y) const { return ref_cmp(x, y) < 0; }

  // --- DP cost model -------------------------------------------------------

  /// Pending discharge points that fire when the structure's bottom is not
  /// connected to ground (model-dependent; DESIGN.md section 2).
  int pending_penalty(const Cand& c) const {
    if (opts_.pending_model == PendingModel::kPaperLiteral) {
      return c.p_total() + (c.par_b ? 1 : 0);
    }
    return c.par_b ? c.p_total() + 1 : 0;
  }

  bool grounded_if_footed(bool footed) const {
    switch (opts_.grounding) {
      case GroundingPolicy::kAllGrounded: return true;
      case GroundingPolicy::kNoneGrounded: return false;
      case GroundingPolicy::kFootlessGrounded: return !footed;
    }
    return false;
  }

  struct GateEval {
    std::int64_t cost = 0;  ///< full gate cost, weighted units
    int level = 0;
    int disch = 0;  ///< total discharge transistors in the gate
  };

  GateEval eval_gate(const Cand& c) const {
    const bool footed = c.has_pi;
    const bool grounded = grounded_if_footed(footed);
    const int pend = soi_ && !grounded ? pending_penalty(c) : 0;
    GateEval e;
    e.disch = c.disch + pend;
    e.cost = c.committed + pend * disch_price_ +
             3 * kCostUnitsPerTransistor +  // output inverter + keeper
             clock_cost_ +                  // precharge pMOS
             (footed ? clock_cost_ : 0);    // n-clock foot
    e.level = c.level + 1;
    return e;
  }

  /// Selection order: area -> (cost, level, pending); depth -> (level,
  /// cost, pending).  Pending p_dis is the paper's tie-breaker.
  std::tuple<std::int64_t, std::int64_t, int> rank(std::int64_t cost,
                                                   int level,
                                                   int pending) const {
    if (opts_.objective == CostObjective::kDepth) {
      return {level, cost, pending};
    }
    return {cost, level, pending};
  }

  bool dominates(const Cand& x, const Cand& y) const {
    if (x.committed > y.committed) return false;
    if (x.has_pi && !y.has_pi) return false;
    if (opts_.objective == CostObjective::kDepth && x.level > y.level) {
      return false;
    }
    if (soi_) {
      if (x.p_bot > y.p_bot || x.p_above > y.p_above) return false;
      if (x.par_b && !y.par_b) return false;
    }
    return true;
  }

  /// Total order on candidates: primary DP rank, then every remaining
  /// field, closing with the child-reference keys in legacy arena order.
  /// Beam truncation under an unstable std::sort is therefore
  /// reproducible on any platform.
  bool cand_less(const Cand& a, const Cand& b) const {
    const auto ra = rank(a.committed, a.level, a.p_total());
    const auto rb = rank(b.committed, b.level, b.p_total());
    if (ra != rb) return ra < rb;
    const auto ta = std::tie(a.level, a.p_bot, a.p_above, a.disch, a.par_b,
                             a.has_pi, a.op);
    const auto tb = std::tie(b.level, b.p_bot, b.p_above, b.disch, b.par_b,
                             b.has_pi, b.op);
    if (ta != tb) return ta < tb;
    if (a.op == Cand::Op::kSeries || a.op == Cand::Op::kParallel) {
      if (const int c = ref_cmp(a.a, b.a)) return c < 0;
      if (const int c = ref_cmp(a.b, b.b)) return c < 0;
      return false;
    }
    return a.leaf < b.leaf;
  }

  // --- candidate construction --------------------------------------------

  void try_or(std::vector<Cand>& out, const Cand& x, CandRef xi,
              const Cand& y, CandRef yi) const {
    const int w = x.w + y.w;
    const int h = std::max(x.h, y.h);
    // With complex gates, OVERSIZE parallels (Wmax < W <= 2*Wmax) are kept
    // as split fodder: they can only become a dual gate, never a single
    // pulldown or a series operand.
    if (w > grid_wmax_) return;
    Cand c;
    c.op = Cand::Op::kParallel;
    c.a = xi;
    c.b = yi;
    c.w = static_cast<std::uint8_t>(w);
    c.h = static_cast<std::uint8_t>(h);
    c.committed = x.committed + y.committed;
    c.disch = static_cast<std::uint16_t>(x.disch + y.disch);
    c.p_bot = static_cast<std::uint16_t>(x.p_total() + y.p_total());
    c.p_above = 0;
    c.par_b = true;
    c.has_pi = x.has_pi || y.has_pi;
    c.level = std::max(x.level, y.level);
    out.push_back(c);
  }

  void try_and(std::vector<Cand>& out, const Cand& top, CandRef ti,
               const Cand& bottom, CandRef bi) const {
    const int h = top.h + bottom.h;
    const int w = std::max(top.w, bottom.w);
    if (h > opts_.max_height) return;
    if (w > opts_.max_width) return;  // oversize parallels cannot go in series
    int commit_pts = 0;
    int carried = 0;
    if (opts_.pending_model == PendingModel::kPaperLiteral) {
      commit_pts = top.p_total() + 1;
      carried = 0;
    } else if (top.par_b) {
      commit_pts = top.p_bot + 1;  // top's parallel bottom + its interior
      carried = top.p_above;
    } else {
      commit_pts = 0;
      carried = top.p_total() + 1;  // new junction stays a series point
    }
    Cand c;
    c.op = Cand::Op::kSeries;
    c.a = ti;
    c.b = bi;
    c.w = static_cast<std::uint8_t>(w);
    c.h = static_cast<std::uint8_t>(h);
    c.committed =
        top.committed + bottom.committed + commit_pts * disch_price_;
    c.disch = static_cast<std::uint16_t>(top.disch + bottom.disch +
                                         (soi_ ? commit_pts : 0));
    c.p_bot = bottom.p_bot;
    c.p_above = static_cast<std::uint16_t>(bottom.p_above + carried);
    c.par_b = bottom.par_b;
    c.has_pi = top.has_pi || bottom.has_pi;
    c.level = std::max(top.level, bottom.level);
    out.push_back(c);
  }

  /// Intrinsic (structure-independent) total preorder on candidates used
  /// for symmetric tie-breaks: compares only costed content, never
  /// reference keys, so the comparison is invariant under node
  /// renumbering.
  static bool cand_content_less(const Cand& a, const Cand& b) {
    return std::tie(a.committed, a.level, a.w, a.h, a.p_bot, a.p_above,
                    a.disch, a.par_b, a.has_pi) <
           std::tie(b.committed, b.level, b.w, b.h, b.p_bot, b.p_above,
                    b.disch, b.par_b, b.has_pi);
  }

  /// The paper's placement heuristic: the operand whose bottom is a
  /// parallel stack goes to the bottom; when both qualify, the one with the
  /// larger p_dis (it defers more discharge transistors).  Exact p_dis
  /// ties no longer depend on fanin textual order (the old `>=` picked
  /// whichever operand happened to be fanin1): they break on intrinsic
  /// candidate content, then on reference key for fully identical
  /// candidates, where either choice costs the same.
  bool second_goes_bottom(const Cand& x, CandRef xi, const Cand& y,
                          CandRef yi) const {
    if (x.par_b != y.par_b) return y.par_b;
    if (x.par_b && y.par_b) {
      if (x.p_total() != y.p_total()) return y.p_total() > x.p_total();
      if (cand_content_less(y, x)) return true;
      if (cand_content_less(x, y)) return false;
      return ref_less(yi, xi);
    }
    return true;  // neither: keep textual order (x top, y bottom)
  }

  /// Candidate sets usable by a parent combining over `child`, written into
  /// the caller's scratch vector (no allocation in steady state).
  void usable_set(NodeId child, std::vector<CandRef>& out) const {
    out.clear();
    const NodeKind kind = net_.kind(child);
    SOIDOM_ASSERT_MSG(kind != NodeKind::kConst0 && kind != NodeKind::kConst1,
                      "constant feeding a mapped gate (should be swept)");
    if (kind == NodeKind::kPi) {
      out.push_back(CandRef{child.value, 0});
      return;
    }
    SOIDOM_ASSERT(kind == NodeKind::kAnd || kind == NodeKind::kOr);
    if (opts_.gate_at_fanout && fanout_[child.value] > 1) {
      out.push_back(gate_leaf_ref(child.value));
      return;
    }
    const std::size_t n = survivors_[child.value].size();
    for (std::uint32_t k = 0; k < n; ++k) {
      out.push_back(CandRef{child.value, k});
    }
    out.push_back(gate_leaf_ref(child.value));
  }

  // --- DP pass -------------------------------------------------------------

  /// Reusable DP state: the raw combination buffer and the flat
  /// Wmax x Hmax Pareto bucket grid.  Buckets keep their capacity across
  /// nodes; `touched` lists the dirty cells so clearing is O(shapes used).
  struct Scratch {
    std::vector<Cand> raw;
    std::vector<std::vector<Cand>> cells;
    std::vector<std::uint32_t> touched;
    std::vector<CandRef> s0, s1;
  };

  std::size_t cell_index(int w, int h) const {
    return static_cast<std::size_t>(w - 1) * grid_hmax_ +
           static_cast<std::size_t>(h - 1);
  }

  void process_node(NodeId id) {
    if (guard_ != nullptr) guard_->checkpoint();
    const Node& n = net_.node(id);
    Scratch& scratch = scratch_;
    usable_set(n.fanin0, scratch.s0);
    usable_set(n.fanin1, scratch.s1);

    std::vector<Cand>& raw = scratch.raw;
    raw.clear();
    for (const CandRef i0 : scratch.s0) {
      const Cand& c0 = deref(i0);
      for (const CandRef i1 : scratch.s1) {
        const Cand& c1 = deref(i1);
        if (n.kind == NodeKind::kOr) {
          try_or(raw, c0, i0, c1, i1);
        } else if (opts_.engine == MappingEngine::kDominoMap) {
          // Bulk-CMOS convention (the paper's Fig. 2(a)): the parallel
          // stack sits at the TOP of the series stack, nearest the dynamic
          // node, where bulk designers place it for charge-sharing
          // reasons.  This is exactly the PBE-hostile structure the paper
          // uses as its baseline.
          if (c1.par_b && !c0.par_b) {
            try_and(raw, c1, i1, c0, i0);
          } else {
            try_and(raw, c0, i0, c1, i1);
          }
        } else if (opts_.exhaustive_ordering) {
          try_and(raw, c0, i0, c1, i1);
          try_and(raw, c1, i1, c0, i0);
        } else if (second_goes_bottom(c0, i0, c1, i1)) {
          try_and(raw, c0, i0, c1, i1);
        } else {
          try_and(raw, c1, i1, c0, i0);
        }
      }
    }
    if (raw.empty()) {
      throw GuardError(
          ErrorCode::kInfeasibleLimits, current_stage_or(FlowStage::kMap),
          format("no feasible pulldown shape for node %u under W<=%d H<=%d; "
                 "increase max_width/max_height",
                 id.value, opts_.max_width, opts_.max_height));
    }
    candidates_examined_ += raw.size();
    if (guard_ != nullptr) guard_->charge(Resource::kTuples, raw.size());

    // Per-shape Pareto pruning on the flat bucket grid.
    for (const Cand& c : raw) {
      const std::size_t cell = cell_index(c.w, c.h);
      std::vector<Cand>& bucket = scratch.cells[cell];
      if (bucket.empty()) scratch.touched.push_back(static_cast<std::uint32_t>(cell));
      bool dominated = false;
      for (const Cand& kept : bucket) {
        if (dominates(kept, c)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      std::erase_if(bucket, [&](const Cand& kept) { return dominates(c, kept); });
      bucket.push_back(c);
    }

    // Beam-cap each shape and emit survivors in canonical (W, H) order,
    // directly into the node's own slot.
    std::vector<Cand>& out = survivors_[id.value];
    SOIDOM_ASSERT(out.empty());
    std::sort(scratch.touched.begin(), scratch.touched.end());
    for (const std::uint32_t cell : scratch.touched) {
      std::vector<Cand>& bucket = scratch.cells[cell];
      std::sort(bucket.begin(), bucket.end(),
                [&](const Cand& a, const Cand& b) { return cand_less(a, b); });
      const std::size_t keep =
          std::min(bucket.size(), static_cast<std::size_t>(opts_.beam_width));
      out.insert(out.end(), bucket.begin(), bucket.begin() + keep);
      bucket.clear();
    }
    scratch.touched.clear();

    // Gate formation: pick the best candidate under the objective.
    std::int32_t best_local = -1;
    GateEval best_eval;
    for (std::uint32_t k = 0; k < out.size(); ++k) {
      const Cand& c = out[k];
      if (c.w > opts_.max_width) continue;  // split fodder only
      const GateEval e = eval_gate(c);
      if (best_local < 0 ||
          rank(e.cost, e.level, c.p_total()) <
              rank(best_eval.cost, best_eval.level,
                   out[best_local].p_total())) {
        best_local = static_cast<std::int32_t>(k);
        best_eval = e;
      }
    }
    SOIDOM_ASSERT(best_local >= 0);

    // Complex-gate option (paper solution 7): at an OR node, form the gate
    // from one pulldown per operand joined by a static NAND2.  Each
    // pulldown keeps its own grounded bottom; the overhead is 2 precharge
    // (clocked) + NAND2 (4) + 2 keepers + a foot per footed pulldown.
    CandRef complex_a;
    CandRef complex_b;
    if (opts_.enable_complex_gates && n.kind == NodeKind::kOr) {
      auto resolved = [&](const Cand& c) {
        const bool grounded = grounded_if_footed(c.has_pi);
        const int pend = soi_ && !grounded ? pending_penalty(c) : 0;
        return std::pair<std::int64_t, int>{c.committed + pend * disch_price_,
                                            c.disch + pend};
      };
      // Every parallel-rooted candidate (including the oversize ones kept
      // as split fodder) can be cut at its root into the gate's two
      // pulldowns; the halves are candidates of the *children*, so their
      // references are already final.
      for (std::uint32_t k = 0; k < out.size(); ++k) {
        const Cand& c = out[k];
        if (c.op != Cand::Op::kParallel) continue;
        const Cand& a = deref(c.a);
        const Cand& b = deref(c.b);
        if (a.w > opts_.max_width || b.w > opts_.max_width) continue;
        const auto [cost_a, disch_a] = resolved(a);
        const auto [cost_b, disch_b] = resolved(b);
        GateEval e;
        e.disch = disch_a + disch_b;
        e.cost = cost_a + cost_b + 6 * kCostUnitsPerTransistor +
                 2 * clock_cost_ + (a.has_pi ? clock_cost_ : 0) +
                 (b.has_pi ? clock_cost_ : 0);
        e.level = std::max(a.level, b.level) + 1;
        const int pending = a.p_total() + b.p_total();
        const int incumbent_pending =
            !complex_a.valid()
                ? out[best_local].p_total()
                : deref(complex_a).p_total() + deref(complex_b).p_total();
        if (rank(e.cost, e.level, pending) <
            rank(best_eval.cost, best_eval.level, incumbent_pending)) {
          complex_a = c.a;
          complex_b = c.b;
          best_eval = e;
        }
      }
    }

    gate_best_local_[id.value] = best_local;
    gate_complex_a_[id.value] = complex_a;
    gate_complex_b_[id.value] = complex_b;
    gate_cost_[id.value] = best_eval.cost;
    gate_level_[id.value] = best_eval.level;

    Cand leaf;
    leaf.op = Cand::Op::kGateLeaf;
    leaf.leaf = id.value;
    leaf.committed = best_eval.cost + kCostUnitsPerTransistor;
    leaf.level = static_cast<std::int16_t>(best_eval.level);
    gate_leaf_[id.value] = leaf;

    // Budget accounting: the retained candidates (plus the gate-leaf
    // tuple) persist for the rest of the run, so they are charged in
    // addition to the transient raw combinations above.
    if (guard_ != nullptr) {
      guard_->charge(Resource::kTuples, out.size() + 1);
    }
  }

  // --- realization ---------------------------------------------------------

  PdnIndex build_pdn(Pdn& pdn, CandRef ci) {
    const Cand& c = deref(ci);
    switch (c.op) {
      case Cand::Op::kInputLeaf:
        return pdn.add_leaf(c.leaf);
      case Cand::Op::kGateLeaf:
        return pdn.add_leaf(realize_gate(NodeId{c.leaf}));
      case Cand::Op::kSeries: {
        const PdnIndex top = build_pdn(pdn, c.a);
        const PdnIndex bottom = build_pdn(pdn, c.b);
        return pdn.add_series({top, bottom});
      }
      case Cand::Op::kParallel: {
        const PdnIndex x = build_pdn(pdn, c.a);
        const PdnIndex y = build_pdn(pdn, c.b);
        return pdn.add_parallel({x, y});
      }
    }
    SOIDOM_ASSERT(false);
    return kInvalidPdnIndex;
  }

  std::uint32_t realize_gate(NodeId node) {
    if (gate_signal_[node.value] != kNoSignal) {
      return gate_signal_[node.value];
    }
    const bool complex = gate_complex_a_[node.value].valid();
    SOIDOM_ASSERT(complex || gate_best_local_[node.value] >= 0);
    const CandRef ci =
        complex ? gate_complex_a_[node.value]
                : CandRef{node.value, static_cast<std::uint32_t>(
                                          gate_best_local_[node.value])};
    const CandRef ci2 = complex ? gate_complex_b_[node.value] : CandRef{};
    const Cand cand = deref(ci);  // copy: slots stable, but be explicit

    DominoGate gate;
    const PdnIndex root = build_pdn(gate.pdn, ci);
    gate.pdn.set_root(root);
    gate.footed = cand.has_pi;
    if (ci2.valid()) {
      const Cand cand2 = deref(ci2);
      const PdnIndex root2 = build_pdn(gate.pdn2, ci2);
      gate.pdn2.set_root(root2);
      gate.footed2 = cand2.has_pi;
    }

    // Cross-check footedness against the realized leaves, per pulldown.
    auto check_feet = [&](const Pdn& pdn, bool footed_flag) {
      bool has_input_leaf = false;
      for (const std::uint32_t sig : pdn.leaf_signals()) {
        if (netlist_.is_input_signal(sig)) has_input_leaf = true;
      }
      SOIDOM_ASSERT_MSG(has_input_leaf == footed_flag,
                        "DP footedness disagrees with realized leaves");
    };
    check_feet(gate.pdn, gate.footed);
    if (gate.dual()) check_feet(gate.pdn2, gate.footed2);

    if (soi_) {
      auto protect = [&](const Pdn& pdn, bool footed_flag,
                         const Cand& c) -> std::vector<DischargePoint> {
        const bool grounded = grounded_if_footed(footed_flag);
        auto required =
            analyze_pbe(pdn, grounded, opts_.pending_model).required;
        const int predicted = c.disch + (grounded ? 0 : pending_penalty(c));
        if (static_cast<int>(required.size()) != predicted) ++mismatches_;
        return required;
      };
      gate.discharges = protect(gate.pdn, gate.footed, cand);
      if (gate.dual()) {
        gate.discharges2 = protect(gate.pdn2, gate.footed2, deref(ci2));
      }
    }
    const std::uint32_t signal = netlist_.add_gate(std::move(gate));
    gate_signal_[node.value] = signal;
    return signal;
  }

  std::int64_t realized_weighted_cost() const {
    std::int64_t cost = 0;
    for (const DominoGate& g : netlist_.gates()) {
      cost += g.pdn.transistor_count() * kCostUnitsPerTransistor;
      if (g.dual()) {
        cost += g.pdn2.transistor_count() * kCostUnitsPerTransistor;
        cost += 6 * kCostUnitsPerTransistor;  // NAND2 + two keepers
        cost += 2 * clock_cost_;              // two precharges
        if (g.footed) cost += clock_cost_;
        if (g.footed2) cost += clock_cost_;
      } else {
        cost += 3 * kCostUnitsPerTransistor;  // inverter + keeper
        cost += clock_cost_;                  // precharge
        if (g.footed) cost += clock_cost_;
      }
      cost += static_cast<std::int64_t>(g.discharges.size() +
                                        g.discharges2.size()) *
              clock_cost_;
    }
    return cost;
  }

  const UnateResult& unate_;
  const Network& net_;
  MapperOptions opts_;
  std::int64_t clock_cost_ = kCostUnitsPerTransistor;
  std::int64_t disch_price_ = kCostUnitsPerTransistor;
  bool soi_ = true;
  int grid_wmax_ = 5;
  int grid_hmax_ = 8;
  bool dp_done_ = false;
  bool ran_ = false;

  GuardContext* guard_ = nullptr;  ///< owning flow's guard, or nullptr

  // Per-node DP state, indexed by unate node id.  An AND/OR node's slots
  // are written once, when the pass reaches it.
  std::vector<std::vector<Cand>> survivors_;
  std::vector<Cand> gate_leaf_;
  std::vector<Cand> pi_leaf_;
  std::vector<std::int32_t> gate_best_local_;
  std::vector<CandRef> gate_complex_a_;  ///< complex gates: child pulldowns
  std::vector<CandRef> gate_complex_b_;
  std::vector<std::int64_t> gate_cost_;
  std::vector<int> gate_level_;
  std::vector<std::uint32_t> input_signal_;
  std::vector<std::uint32_t> fanout_;
  std::vector<int> level_;

  Scratch scratch_;  ///< released when the pass ends
  std::size_t candidates_examined_ = 0;
  std::size_t candidates_retained_ = 0;
  int dp_levels_ = 0;

  DominoNetlist netlist_;
  MappingResult result_;
  std::vector<std::uint32_t> gate_signal_;
  int mismatches_ = 0;
};

}  // namespace

void validate(const MapperOptions& options) {
  SOIDOM_REQUIRE(options.max_width >= 1 && options.max_width <= 64,
                 format("MapperOptions.max_width = %d is invalid "
                        "(need 1 <= max_width <= 64)",
                        options.max_width));
  SOIDOM_REQUIRE(options.max_height >= 2 && options.max_height <= 64,
                 format("MapperOptions.max_height = %d is invalid "
                        "(need 2 <= max_height <= 64)",
                        options.max_height));
  SOIDOM_REQUIRE(options.beam_width >= 1,
                 format("MapperOptions.beam_width = %d is invalid "
                        "(need beam_width >= 1)",
                        options.beam_width));
  SOIDOM_REQUIRE(
      std::isfinite(options.clock_weight) && options.clock_weight > 0.0 &&
          options.clock_weight <= 1000.0,
      format("MapperOptions.clock_weight = %g is invalid "
             "(need finite 0 < clock_weight <= 1000)",
             options.clock_weight));
}

MappingResult map_to_domino(const UnateResult& unate,
                            const MapperOptions& options) {
  StageScope stage(FlowStage::kMap);
  SOIDOM_FAULT_PROBE(FlowStage::kMap);
  return MapperImpl(unate, options).run();
}

struct TupleOracle::Impl {
  explicit Impl(const UnateResult& unate, const MapperOptions& options)
      : mapper(unate, options) {}
  MapperImpl mapper;
};

TupleOracle::TupleOracle(const UnateResult& unate, const MapperOptions& options)
    : impl_(new Impl(unate, options)) {}

TupleOracle::~TupleOracle() { delete impl_; }

std::vector<TupleInfo> TupleOracle::tuples_of(NodeId node) const {
  return impl_->mapper.tuples_of(node);
}

std::int64_t TupleOracle::gate_cost_of(NodeId node) const {
  return impl_->mapper.gate_cost_of(node);
}

MappingResult TupleOracle::map() const {
  StageScope stage(FlowStage::kMap);
  return impl_->mapper.run();
}

}  // namespace soidom
