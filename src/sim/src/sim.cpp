#include "soidom/sim/sim.hpp"

#include <unordered_map>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/guard/guard.hpp"

namespace soidom {

std::vector<SimWord> simulate_nodes(const Network& net,
                                    const std::vector<SimWord>& pi_words) {
  SOIDOM_REQUIRE(pi_words.size() == net.pis().size(),
                 "simulate_nodes: wrong number of PI words");
  std::vector<SimWord> value(net.size(), 0);
  // Network's constructor creates both constant nodes; saying so also
  // keeps GCC 12's -Wnull-dereference quiet about the stores below.
  SOIDOM_ASSERT(value.size() > kConst1Id.value);
  value[kConst1Id.value] = ~SimWord{0};
  for (std::size_t k = 0; k < net.pis().size(); ++k) {
    value[net.pis()[k].value] = pi_words[k];
  }
  for (std::uint32_t i = 2; i < net.size(); ++i) {
    // Coarse granularity: one guard test per 1024 nodes keeps the hot
    // loop branch-predictable while still bounding a huge network.
    if ((i & 0x3ffu) == 0) guard_checkpoint();
    const Node& n = net.node(NodeId{i});
    switch (n.kind) {
      case NodeKind::kAnd:
        value[i] = value[n.fanin0.value] & value[n.fanin1.value];
        break;
      case NodeKind::kOr:
        value[i] = value[n.fanin0.value] | value[n.fanin1.value];
        break;
      case NodeKind::kInv:
        value[i] = ~value[n.fanin0.value];
        break;
      case NodeKind::kBuf:
        value[i] = value[n.fanin0.value];
        break;
      case NodeKind::kPi:
        break;  // already filled
      default:
        SOIDOM_ASSERT_MSG(false, "unexpected node kind");
    }
  }
  return value;
}

std::vector<SimWord> simulate_outputs(const Network& net,
                                      const std::vector<SimWord>& pi_words) {
  const auto value = simulate_nodes(net, pi_words);
  std::vector<SimWord> out;
  out.reserve(net.outputs().size());
  for (const Output& o : net.outputs()) out.push_back(value[o.driver.value]);
  return out;
}

std::vector<bool> evaluate(const Network& net,
                           const std::vector<bool>& pi_values) {
  std::vector<SimWord> words(pi_values.size());
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    words[i] = pi_values[i] ? ~SimWord{0} : 0;
  }
  const auto out = simulate_outputs(net, words);
  std::vector<bool> bits;
  bits.reserve(out.size());
  for (const SimWord w : out) bits.push_back((w & 1) != 0);
  return bits;
}

std::vector<SimWord> simulate_unate_outputs(
    const UnateResult& unate, const std::vector<SimWord>& original_pi_words) {
  SOIDOM_REQUIRE(original_pi_words.size() == unate.pi_literals.size(),
                 "simulate_unate_outputs: wrong number of PI words");
  std::vector<SimWord> literal_words(unate.net.pis().size(), 0);
  for (std::size_t k = 0; k < unate.pi_literals.size(); ++k) {
    const auto& lits = unate.pi_literals[k];
    if (lits.pos >= 0) {
      literal_words[static_cast<std::size_t>(lits.pos)] =
          original_pi_words[k];
    }
    if (lits.neg >= 0) {
      literal_words[static_cast<std::size_t>(lits.neg)] =
          ~original_pi_words[k];
    }
  }
  auto out = simulate_outputs(unate.net, literal_words);
  SOIDOM_ASSERT(out.size() == unate.po_inverted.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    if (unate.po_inverted[j]) out[j] = ~out[j];
  }
  return out;
}

std::vector<bool> evaluate(const BlifModel& model,
                           const std::vector<bool>& pi_values) {
  SOIDOM_REQUIRE(pi_values.size() == model.inputs.size(),
                 "evaluate(BlifModel): wrong number of input values");
  std::unordered_map<std::string, bool> value;
  for (std::size_t i = 0; i < model.inputs.size(); ++i) {
    value.emplace(model.inputs[i], pi_values[i]);
  }

  // Iterate to a fixed point over tables (dependency order is unknown);
  // acyclic models converge in <= #tables passes.
  bool progress = true;
  while (progress) {
    progress = false;
    for (const BlifTable& t : model.tables) {
      if (value.contains(t.output)) continue;
      std::vector<bool> ins;
      ins.reserve(t.inputs.size());
      bool ready = true;
      for (const std::string& in : t.inputs) {
        const auto it = value.find(in);
        if (it == value.end()) {
          ready = false;
          break;
        }
        ins.push_back(it->second);
      }
      if (!ready) continue;
      value.emplace(t.output, t.cover.eval(ins));
      progress = true;
    }
  }

  std::vector<bool> out;
  out.reserve(model.outputs.size());
  for (const std::string& o : model.outputs) {
    const auto it = value.find(o);
    SOIDOM_REQUIRE(it != value.end(),
                   format("evaluate(BlifModel): output '%s' has no value "
                          "(combinational cycle?)",
                          o.c_str()));
    out.push_back(it->second);
  }
  return out;
}

std::vector<SimWord> random_pi_words(std::size_t num_pis, Rng& rng) {
  std::vector<SimWord> words(num_pis);
  for (SimWord& w : words) w = rng.next_u64();
  return words;
}

bool equivalent_by_simulation(const Network& a, const Network& b, int rounds,
                              Rng& rng) {
  SOIDOM_REQUIRE(a.pis().size() == b.pis().size() &&
                     a.outputs().size() == b.outputs().size(),
                 "equivalent_by_simulation: interface mismatch");
  for (int r = 0; r < rounds; ++r) {
    guard_checkpoint();
    const auto words = random_pi_words(a.pis().size(), rng);
    if (simulate_outputs(a, words) != simulate_outputs(b, words)) return false;
  }
  return true;
}

bool unate_preserves_function(const Network& source, const UnateResult& unate,
                              int rounds, Rng& rng) {
  SOIDOM_REQUIRE(source.pis().size() == unate.pi_literals.size() &&
                     source.outputs().size() == unate.po_inverted.size(),
                 "unate_preserves_function: interface mismatch");
  for (int r = 0; r < rounds; ++r) {
    const auto words = random_pi_words(source.pis().size(), rng);
    if (simulate_outputs(source, words) !=
        simulate_unate_outputs(unate, words)) {
      return false;
    }
  }
  return true;
}

}  // namespace soidom
