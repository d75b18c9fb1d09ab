#include "soidom/network/builder.hpp"

#include <utility>

namespace soidom {
namespace {

Key3 key_of(const Node& n) {
  // Commutative ops are canonicalized by the caller.
  return Key3{static_cast<std::uint32_t>(n.kind), n.fanin0.value,
              n.fanin1.value};
}

}  // namespace

NetworkBuilder::NetworkBuilder(bool structural_hashing)
    : strash_(structural_hashing) {}

NodeId NetworkBuilder::add_pi(std::string name) {
  const NodeId id{static_cast<std::uint32_t>(net_.nodes_.size())};
  net_.nodes_.push_back(Node{NodeKind::kPi, {}, {}});
  net_.pis_.push_back(id);
  net_.pi_names_.push_back(std::move(name));
  return id;
}

NodeId NetworkBuilder::add_node(NodeKind kind, NodeId a, NodeId b) {
  const Node node{kind, a, b};
  const auto add = [&] {
    net_.nodes_.push_back(node);
    return static_cast<std::uint32_t>(net_.nodes_.size() - 1);
  };
  if (!strash_) return NodeId{add()};
  const auto stored = [&](std::uint32_t id) { return key_of(net_.nodes_[id]); };
  return NodeId{hash_.find_or_add(key_of(node), stored, add)};
}

NodeId NetworkBuilder::add_and(NodeId a, NodeId b) {
  SOIDOM_ASSERT(a.value < net_.nodes_.size() && b.value < net_.nodes_.size());
  if (strash_) {
    if (a == kConst0Id || b == kConst0Id) return kConst0Id;
    if (a == kConst1Id) return b;
    if (b == kConst1Id) return a;
    if (a == b) return a;
    if (a.value > b.value) std::swap(a, b);
  }
  return add_node(NodeKind::kAnd, a, b);
}

NodeId NetworkBuilder::add_or(NodeId a, NodeId b) {
  SOIDOM_ASSERT(a.value < net_.nodes_.size() && b.value < net_.nodes_.size());
  if (strash_) {
    if (a == kConst1Id || b == kConst1Id) return kConst1Id;
    if (a == kConst0Id) return b;
    if (b == kConst0Id) return a;
    if (a == b) return a;
    if (a.value > b.value) std::swap(a, b);
  }
  return add_node(NodeKind::kOr, a, b);
}

NodeId NetworkBuilder::add_inv(NodeId a) {
  SOIDOM_ASSERT(a.value < net_.nodes_.size());
  if (strash_) {
    if (a == kConst0Id) return kConst1Id;
    if (a == kConst1Id) return kConst0Id;
    const Node& n = net_.nodes_[a.value];
    if (n.kind == NodeKind::kInv) return n.fanin0;
  }
  return add_node(NodeKind::kInv, a, NodeId{});
}

NodeId NetworkBuilder::add_buf(NodeId a) {
  SOIDOM_ASSERT(a.value < net_.nodes_.size());
  return add_node(NodeKind::kBuf, a, NodeId{});
}

void NetworkBuilder::add_output(NodeId driver, std::string name) {
  SOIDOM_ASSERT(driver.value < net_.nodes_.size());
  net_.outputs_.push_back(Output{driver, std::move(name)});
}

Network NetworkBuilder::build() && { return std::move(net_); }

}  // namespace soidom
