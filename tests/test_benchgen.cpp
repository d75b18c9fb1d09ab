#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string_view>

#include "soidom/base/contracts.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/benchgen/generators.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/sim/sim.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {
namespace {

TEST(Generators, MuxTreeSelectsCorrectInput) {
  const Network net = gen_mux_tree(3);  // 8 data + 3 select
  ASSERT_EQ(net.pis().size(), 11u);
  for (int sel = 0; sel < 8; ++sel) {
    for (int data = 0; data < 8; ++data) {
      std::vector<bool> in(11, false);
      in[static_cast<std::size_t>(data)] = true;  // one-hot data
      for (int k = 0; k < 3; ++k) in[8 + static_cast<std::size_t>(k)] = ((sel >> k) & 1) != 0;
      EXPECT_EQ(evaluate(net, in)[0], data == sel) << sel << " " << data;
    }
  }
}

TEST(Generators, RippleAdderAddsCorrectly) {
  const Network net = gen_ripple_adder(4);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      for (int cin = 0; cin < 2; ++cin) {
        std::vector<bool> in;
        for (int i = 0; i < 4; ++i) in.push_back(((a >> i) & 1) != 0);
        for (int i = 0; i < 4; ++i) in.push_back(((b >> i) & 1) != 0);
        in.push_back(cin != 0);
        const auto out = evaluate(net, in);
        const int want = a + b + cin;
        for (int i = 0; i < 4; ++i) {
          EXPECT_EQ(out[static_cast<std::size_t>(i)], ((want >> i) & 1) != 0);
        }
        EXPECT_EQ(out[4], ((want >> 4) & 1) != 0);  // cout
      }
    }
  }
}

TEST(Generators, IncrementerCountsUp) {
  const Network net = gen_incrementer(4);
  for (int q = 0; q < 16; ++q) {
    for (int en = 0; en < 2; ++en) {
      std::vector<bool> in;
      for (int i = 0; i < 4; ++i) in.push_back(((q >> i) & 1) != 0);
      in.push_back(en != 0);
      const auto out = evaluate(net, in);
      const int want = q + en;
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(i)], ((want >> i) & 1) != 0);
      }
      EXPECT_EQ(out[4], want >= 16);           // carry out
      EXPECT_EQ(out[5], q == 15);              // terminal count
    }
  }
}

TEST(Generators, SymmetricMatchesPopcount) {
  const std::vector<int> accepted = {1, 3};
  const Network net = gen_symmetric(5, accepted);
  for (int v = 0; v < 32; ++v) {
    std::vector<bool> in;
    int ones = 0;
    for (int i = 0; i < 5; ++i) {
      const bool bit = ((v >> i) & 1) != 0;
      in.push_back(bit);
      ones += bit ? 1 : 0;
    }
    const bool want =
        std::find(accepted.begin(), accepted.end(), ones) != accepted.end();
    EXPECT_EQ(evaluate(net, in)[0], want) << v;
  }
}

TEST(Generators, XorTreeParity) {
  const Network net = gen_xor_tree(8, 4, 5, 99);
  // Every output must be a pure parity function: flipping any input in its
  // support flips the output; inputs outside leave it unchanged.
  Rng rng(4);
  const auto base_words = random_pi_words(8, rng);
  const auto base = simulate_outputs(net, base_words);
  for (std::size_t k = 0; k < 8; ++k) {
    auto words = base_words;
    words[k] = ~words[k];
    const auto flipped = simulate_outputs(net, words);
    for (std::size_t j = 0; j < base.size(); ++j) {
      const SimWord diff = base[j] ^ flipped[j];
      EXPECT_TRUE(diff == 0 || diff == ~SimWord{0})
          << "output " << j << " not parity in input " << k;
    }
  }
}

TEST(Generators, PriorityGrantsHighestEligible) {
  const Network net = gen_priority(4);  // r0..r3, m0..m3
  std::vector<bool> in(8, false);
  in[1] = in[2] = true;  // r1, r2 requesting
  in[4] = in[5] = in[6] = in[7] = true;  // all unmasked
  const auto out = evaluate(net, in);
  EXPECT_FALSE(out[0]);
  EXPECT_TRUE(out[1]);   // r1 wins (highest priority eligible)
  EXPECT_FALSE(out[2]);
  EXPECT_FALSE(out[3]);
  EXPECT_TRUE(out[4]);   // any
  // Mask r1: grant moves to r2.
  in[5] = false;
  const auto out2 = evaluate(net, in);
  EXPECT_FALSE(out2[1]);
  EXPECT_TRUE(out2[2]);
}

TEST(Generators, BarrelRotatorRotates) {
  const Network net = gen_barrel_rotator(8, 3);
  for (int amount = 0; amount < 8; ++amount) {
    std::vector<bool> in(11, false);
    in[2] = true;  // single hot data bit at position 2
    for (int k = 0; k < 3; ++k) in[8 + static_cast<std::size_t>(k)] = ((amount >> k) & 1) != 0;
    const auto out = evaluate(net, in);
    for (int i = 0; i < 8; ++i) {
      // Layer k maps out_i = in_{(i+shift) mod w}; a rotate by `amount`
      // moves the hot bit from 2 to (2 - amount) mod 8.
      const bool want = i == ((2 - amount) % 8 + 8) % 8;
      EXPECT_EQ(out[static_cast<std::size_t>(i)], want) << amount << " " << i;
    }
  }
}

TEST(Generators, SpnDeterministicAndSeedSensitive) {
  const Network a = gen_spn(12, 2, 1);
  const Network b = gen_spn(12, 2, 1);
  const Network c = gen_spn(12, 2, 2);
  Rng rng(6);
  EXPECT_TRUE(equivalent_by_simulation(a, b, 4, rng));
  EXPECT_FALSE(equivalent_by_simulation(a, c, 8, rng));
}

TEST(Generators, AluAddsAndLogics) {
  const Network net = gen_alu_like(4, 7);
  // inputs: a0..3, b0..3, op0, op1, cin
  auto run = [&](int a, int b, int op, bool cin) {
    std::vector<bool> in;
    for (int i = 0; i < 4; ++i) in.push_back(((a >> i) & 1) != 0);
    for (int i = 0; i < 4; ++i) in.push_back(((b >> i) & 1) != 0);
    in.push_back((op & 1) != 0);
    in.push_back((op & 2) != 0);
    in.push_back(cin);
    const auto out = evaluate(net, in);
    int f = 0;
    for (int i = 0; i < 4; ++i) f |= out[static_cast<std::size_t>(i)] ? 1 << i : 0;
    return f;
  };
  EXPECT_EQ(run(5, 6, 0, false), (5 + 6) & 15);  // add
  EXPECT_EQ(run(5, 6, 1, false), 5 & 6);         // and
  EXPECT_EQ(run(5, 6, 2, false), 5 | 6);         // or
  EXPECT_EQ(run(5, 6, 3, false), 5 ^ 6);         // xor
  EXPECT_EQ(run(15, 1, 0, true), (15 + 1 + 1) & 15);
}


TEST(Generators, MultiplierMultiplies) {
  const Network net = gen_multiplier(4);
  for (int a = 0; a < 16; ++a) {
    for (int b2 = 0; b2 < 16; ++b2) {
      std::vector<bool> in;
      for (int i = 0; i < 4; ++i) in.push_back(((a >> i) & 1) != 0);
      for (int i = 0; i < 4; ++i) in.push_back(((b2 >> i) & 1) != 0);
      const auto out = evaluate(net, in);
      const int want = a * b2;
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(i)], ((want >> i) & 1) != 0)
            << a << "*" << b2 << " bit " << i;
      }
    }
  }
}

TEST(Generators, DecoderIsOneHot) {
  const Network net = gen_decoder(3);
  for (int code = 0; code < 8; ++code) {
    for (const bool en : {false, true}) {
      std::vector<bool> in;
      for (int k = 0; k < 3; ++k) in.push_back(((code >> k) & 1) != 0);
      in.push_back(en);
      const auto out = evaluate(net, in);
      for (int o = 0; o < 8; ++o) {
        EXPECT_EQ(out[static_cast<std::size_t>(o)], en && o == code);
      }
    }
  }
}

TEST(Generators, BadShapesThrow) {
  EXPECT_THROW(gen_mux_tree(0), Error);
  EXPECT_THROW(gen_ripple_adder(0), Error);
  EXPECT_THROW(gen_symmetric(0, {1}), Error);
  EXPECT_THROW(gen_xor_tree(4, 2, 9, 1), Error);
  EXPECT_THROW(gen_spn(8, 1, 1), Error);  // width not multiple of 3
  EXPECT_THROW(gen_two_level(1, 1, 1, 1, 1), Error);
}

TEST(Registry, AllNamesBuildAndAreDeterministic) {
  for (const std::string& name : benchmark_names()) {
    const Network a = build_benchmark(name);
    const Network b = build_benchmark(name);
    EXPECT_GT(a.stats().num_gates(), 0u) << name;
    EXPECT_GT(a.outputs().size(), 0u) << name;
    EXPECT_EQ(a.size(), b.size()) << name;
    Rng rng(1);
    EXPECT_TRUE(equivalent_by_simulation(a, b, 2, rng)) << name;
  }
}

/// FNV-1a over (kind, fanin0, fanin1) of every node, in id order.
std::uint64_t node_array_hash(const Network& net) {
  std::uint64_t h = fnv1a64("");
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    const Node& n = net.node(NodeId{i});
    const std::uint32_t fields[3] = {static_cast<std::uint32_t>(n.kind),
                                     n.fanin0.value, n.fanin1.value};
    char bytes[12];  // little-endian, so the pins hold on any host
    for (int k = 0; k < 12; ++k) {
      bytes[k] = static_cast<char>(fields[k / 4] >> (8 * (k % 4)));
    }
    h = fnv1a64(std::string_view(bytes, sizeof bytes), h);
  }
  return h;
}

/// Node ids are assigned in creation order, and structural hashing must
/// return the same ids however it is implemented: every registry network
/// and its unate conversion keep these exact node arrays.
TEST(Registry, NodeArraysArePinned) {
  struct Pin {
    const char* name;
    std::uint64_t source;
    std::uint64_t unate;
  };
  const Pin pins[] = {
      {"cm150", 0x1d53e008ba7cc2b0ull, 0x325892ca0673b3b1ull},
      {"mux", 0x199d3d5c31d1de25ull, 0x38e9dc9ac0aa37f4ull},
      {"z4ml", 0x57a3090dc561a935ull, 0xa78c00cdbe8d741bull},
      {"cordic", 0x1742663304144f31ull, 0xa37c8e287aa0c4aeull},
      {"f51m", 0xd2b88077f7a214d9ull, 0xc8829a3ed42a9218ull},
      {"count", 0x7273b186243acfc7ull, 0x72cbfab25409c1f3ull},
      {"c880", 0xb4682a0f31a8aab2ull, 0xaf48c0df228a1c50ull},
      {"dalu", 0x5d2cf0099de37fc1ull, 0x0445fd6aaa30001eull},
      {"c3540", 0x0f998c37c01c3cfeull, 0x48e0ffbd530f6c9full},
      {"9symml", 0x960588881ad4ae80ull, 0xc9d0bec94eacb4beull},
      {"t481", 0x118e295200275954ull, 0x6292e9fff4d51737ull},
      {"c499", 0xfe083a3e7ea5b32dull, 0xed932ee6a09db43dull},
      {"c1355", 0xfe083a3e7ea5b32dull, 0xed932ee6a09db43dull},
      {"c1908", 0xff14b280a93d9e3bull, 0x2adffc1aeeb7f6caull},
      {"c6288", 0xaa30a33a2a37e8b7ull, 0xebc55fa7bedb4cb2ull},
      {"decod", 0x0e60fc37021616b1ull, 0x4bdcdb6270bed2f0ull},
      {"c432", 0x728df202019279dcull, 0x5c11f82b18fdb21bull},
      {"rot", 0x11e6a4b366c6ac1dull, 0x94c37c73c16b2a66ull},
      {"des", 0x27edb367c4ac9382ull, 0x5643766bd9591b42ull},
      {"i6", 0x3b2c6d5f446b99c5ull, 0xbfebb0d05ebde1efull},
      {"frg1", 0x6a30184980266491ull, 0x51997bedadd4a14cull},
      {"b9", 0x00df6d41211330c9ull, 0x1c2306870e9931ceull},
      {"c8", 0xeb741e801dda81b8ull, 0xa2214ec4e264cd57ull},
      {"x1", 0xd9024fc7f352ad50ull, 0x84d59845184dae0full},
      {"apex7", 0x9cb5994cf18fdbe8ull, 0x8164e6876e61de64ull},
      {"apex6", 0xf5616b3e4cc1514eull, 0x8662e0fc047e6334ull},
      {"k2", 0xe2d87b66860c2687ull, 0x5b40faa523cdd6ecull},
      {"c2670", 0x52cdebd04274a570ull, 0x5fb28c33c6b23c39ull},
      {"c5315", 0x4fb61f506412b9e2ull, 0xb07ed8026cae0d56ull},
      {"c7552", 0x6269d27d7ffedeadull, 0xac0b8952c23ba62eull},
  };
  const std::vector<std::string> names = benchmark_names();
  ASSERT_EQ(names.size(), std::size(pins));
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(names[i], pins[i].name);
    const Network net = build_benchmark(names[i]);
    EXPECT_EQ(node_array_hash(net), pins[i].source) << names[i];
    EXPECT_EQ(node_array_hash(make_unate(net).net), pins[i].unate) << names[i];
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_FALSE(is_known_benchmark("nonexistent"));
  EXPECT_THROW(build_benchmark("nonexistent"), Error);
}

TEST(Registry, TableListsAreRegistered) {
  for (const auto& list : {table1_circuits(), table2_circuits(),
                           table3_circuits(), table4_circuits()}) {
    EXPECT_FALSE(list.empty());
    std::set<std::string> seen;
    for (const std::string& name : list) {
      EXPECT_TRUE(is_known_benchmark(name)) << name;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate row " << name;
    }
  }
  EXPECT_EQ(table1_circuits().size(), 18u);  // row counts as in the paper
  EXPECT_EQ(table2_circuits().size(), 21u);
  EXPECT_EQ(table3_circuits().size(), 27u);
  EXPECT_EQ(table4_circuits().size(), 26u);
}

/// The scale suite resolves through the registry but stays OUT of
/// benchmark_names(): the all-names sweeps above (and the golden-stat /
/// integration suites) run full flows per name, which must not pick up
/// 100k–1M-node circuits.  Mapping the suite is perfbench's job (its
/// scale_map workload); here we only pin registration and the documented
/// ordering.
TEST(Registry, ScaleSuiteRegisteredButNotInClassicNames) {
  const std::vector<std::string> scale = scale_circuits();
  ASSERT_FALSE(scale.empty());
  EXPECT_EQ(scale.back(), "xl_dag_1m");  // stress case is last
  const std::vector<std::string> classic = benchmark_names();
  for (const std::string& name : scale) {
    EXPECT_TRUE(is_known_benchmark(name)) << name;
    for (const std::string& c : classic) {
      EXPECT_NE(c, name) << "scale circuit leaked into benchmark_names()";
    }
  }
}

/// A small instance of the scale workhorse family: controlled shape,
/// deterministic, structurally sane.
TEST(Generators, LayeredDagShapeAndDeterminism) {
  const Network a = gen_layered_dag(16, 8, 90, 0xD06);
  const Network b = gen_layered_dag(16, 8, 90, 0xD06);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_GT(a.stats().num_gates(), 0u);
  EXPECT_FALSE(a.outputs().empty());
  Rng rng(7);
  EXPECT_TRUE(equivalent_by_simulation(a, b, 2, rng));
  // Different seed, different circuit (with overwhelming probability).
  const Network c = gen_layered_dag(16, 8, 90, 0xD07);
  EXPECT_FALSE(a.size() == c.size() &&
               equivalent_by_simulation(a, c, 2, rng));
  EXPECT_THROW(gen_layered_dag(0, 8, 90, 1), Error);
  EXPECT_THROW(gen_layered_dag(16, 8, 0, 1), Error);
}

}  // namespace
}  // namespace soidom
