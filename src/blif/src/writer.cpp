#include <sstream>

#include "soidom/base/contracts.hpp"
#include "soidom/blif/blif.hpp"

namespace soidom {

std::string write_blif(const BlifModel& model) {
  std::ostringstream os;
  os << ".model " << model.name << '\n';
  os << ".inputs";
  for (const std::string& i : model.inputs) os << ' ' << i;
  os << '\n';
  os << ".outputs";
  for (const std::string& o : model.outputs) os << ' ' << o;
  os << '\n';
  for (const BlifTable& t : model.tables) {
    os << ".names";
    for (const std::string& i : t.inputs) os << ' ' << i;
    os << ' ' << t.output << '\n';
    os << t.cover.to_blif_body();
  }
  os << ".end\n";
  return os.str();
}

std::string write_blif(const Network& net, const std::string& model_name) {
  BlifModel model;
  model.name = model_name;

  // Stable signal names: PIs keep their names, internal nodes get n<id>.
  std::vector<std::string> signal(net.size());
  signal[kConst0Id.value] = "const0";
  signal[kConst1Id.value] = "const1";
  for (const NodeId pi : net.pis()) {
    signal[pi.value] = net.pi_name(pi);
    model.inputs.push_back(net.pi_name(pi));
  }

  // Emit constants only if referenced.
  bool use0 = false;
  bool use1 = false;
  for (std::uint32_t i = 2; i < net.size(); ++i) {
    const Node& n = net.node(NodeId{i});
    for (const NodeId f : {n.fanin0, n.fanin1}) {
      if (f == kConst0Id) use0 = true;
      if (f == kConst1Id && n.fanin_count() >= 1) use1 = true;
    }
  }
  for (const Output& o : net.outputs()) {
    if (o.driver == kConst0Id) use0 = true;
    if (o.driver == kConst1Id) use1 = true;
  }
  if (use0) {
    model.tables.push_back(BlifTable{{}, "const0", SopCover::const_zero()});
  }
  if (use1) {
    model.tables.push_back(BlifTable{{}, "const1", SopCover::const_one()});
  }

  for (std::uint32_t i = 2; i < net.size(); ++i) {
    const NodeId id{i};
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kPi) continue;
    signal[i] = "n";
    signal[i] += std::to_string(i);
    BlifTable t;
    t.output = signal[i];
    switch (n.kind) {
      case NodeKind::kAnd:
        t.inputs = {signal[n.fanin0.value], signal[n.fanin1.value]};
        t.cover = SopCover::and_n(2);
        break;
      case NodeKind::kOr:
        t.inputs = {signal[n.fanin0.value], signal[n.fanin1.value]};
        t.cover = SopCover::or_n(2);
        break;
      case NodeKind::kInv:
        t.inputs = {signal[n.fanin0.value]};
        t.cover = SopCover::inverter();
        break;
      case NodeKind::kBuf:
        t.inputs = {signal[n.fanin0.value]};
        t.cover = SopCover::buffer();
        break;
      default:
        SOIDOM_ASSERT_MSG(false, "unexpected node kind");
    }
    model.tables.push_back(std::move(t));
  }

  // Outputs: emit a buffer table so the PO name is preserved even when the
  // driver is shared or is itself a PI/constant.
  for (const Output& o : net.outputs()) {
    model.outputs.push_back(o.name);
    BlifTable t;
    t.output = o.name;
    t.inputs = {signal[o.driver.value]};
    t.cover = SopCover::buffer();
    model.tables.push_back(std::move(t));
  }
  return write_blif(model);
}

}  // namespace soidom
