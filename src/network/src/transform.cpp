#include "soidom/network/transform.hpp"

#include "soidom/network/builder.hpp"

namespace soidom {
namespace {

/// Rebuilds `net` keeping only nodes satisfying `keep`, sweeping BUFs when
/// `sweep_bufs` is set.  PIs are always kept.
Network rebuild(const Network& net, const std::vector<bool>& keep,
                bool sweep_bufs) {
  NetworkBuilder builder(/*structural_hashing=*/false);
  std::vector<NodeId> remap(net.size(), NodeId{});
  // Network's constructor creates both constant nodes; saying so also
  // keeps GCC 12's -Wnull-dereference quiet about the stores below.
  SOIDOM_ASSERT(remap.size() > kConst1Id.value);
  remap[kConst0Id.value] = kConst0Id;
  remap[kConst1Id.value] = kConst1Id;

  for (std::uint32_t i = 2; i < net.size(); ++i) {
    const NodeId id{i};
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kPi) {
      remap[i] = builder.add_pi(net.pi_name(id));
      continue;
    }
    if (!keep[i]) continue;
    const NodeId a = n.fanin_count() >= 1 ? remap[n.fanin0.value] : NodeId{};
    const NodeId b = n.fanin_count() >= 2 ? remap[n.fanin1.value] : NodeId{};
    SOIDOM_ASSERT(n.fanin_count() < 1 || a.valid());
    SOIDOM_ASSERT(n.fanin_count() < 2 || b.valid());
    switch (n.kind) {
      case NodeKind::kAnd: remap[i] = builder.add_and(a, b); break;
      case NodeKind::kOr: remap[i] = builder.add_or(a, b); break;
      case NodeKind::kInv: remap[i] = builder.add_inv(a); break;
      case NodeKind::kBuf:
        remap[i] = sweep_bufs ? a : builder.add_buf(a);
        break;
      default: SOIDOM_ASSERT_MSG(false, "unexpected node kind");
    }
  }
  for (const Output& o : net.outputs()) {
    SOIDOM_ASSERT(remap[o.driver.value].valid());
    builder.add_output(remap[o.driver.value], o.name);
  }
  return std::move(builder).build();
}

}  // namespace

Network remove_dead_nodes(const Network& net) {
  std::vector<bool> keep(net.size(), false);
  // Mark cones of all outputs; ids are topological so a reverse scan works.
  for (const Output& o : net.outputs()) keep[o.driver.value] = true;
  for (std::uint32_t i = static_cast<std::uint32_t>(net.size()); i-- > 2;) {
    if (!keep[i]) continue;
    const Node& n = net.node(NodeId{i});
    if (n.fanin_count() >= 1) keep[n.fanin0.value] = true;
    if (n.fanin_count() >= 2) keep[n.fanin1.value] = true;
  }
  return rebuild(net, keep, /*sweep_bufs=*/true);
}

Network clone(const Network& net) {
  std::vector<bool> keep(net.size(), true);
  return rebuild(net, keep, /*sweep_bufs=*/false);
}

}  // namespace soidom
