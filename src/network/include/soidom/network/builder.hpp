/// \file builder.hpp
/// Construction of Network DAGs with optional structural hashing.
#pragma once

#include <string>

#include "soidom/base/id_index.hpp"
#include "soidom/network/network.hpp"

namespace soidom {

/// Builds a Network node by node.  Fanins must already exist, which keeps
/// node ids topologically ordered.  When structural hashing is enabled
/// (default), add_and / add_or / add_inv return an existing node for a
/// repeated (kind, fanins) request, and trivial simplifications involving
/// constants and equal operands are applied:
///   AND(x,0)=0, AND(x,1)=x, AND(x,x)=x, OR(x,1)=1, OR(x,0)=x, OR(x,x)=x,
///   INV(INV(x))=x, INV(const)=const'.
class NetworkBuilder {
 public:
  explicit NetworkBuilder(bool structural_hashing = true);

  NodeId add_pi(std::string name);
  NodeId add_and(NodeId a, NodeId b);
  NodeId add_or(NodeId a, NodeId b);
  NodeId add_inv(NodeId a);
  NodeId add_buf(NodeId a);
  void add_output(NodeId driver, std::string name);

  NodeId const0() const { return kConst0Id; }
  NodeId const1() const { return kConst1Id; }

  /// Read access to the network under construction.
  const Network& peek() const { return net_; }

  /// Finish construction; the builder must not be used afterwards.
  Network build() &&;

 private:
  NodeId add_node(NodeKind kind, NodeId a, NodeId b);

  Network net_;
  bool strash_;
  /// Structural hash: (kind, fanin0, fanin1) -> node id, compared against
  /// the node's own fields.  Only AND/OR/INV/BUF nodes are entered.
  IdIndex hash_;
};

}  // namespace soidom
