#include "soidom/benchgen/registry.hpp"

#include <functional>
#include <utility>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/benchgen/generators.hpp"

namespace soidom {
namespace {

struct Entry {
  const char* name;
  Network (*build)();
};

/// The registry.  Parameters were calibrated so that the bulk-CMOS flow's
/// transistor counts land in the same size class as the paper's per-row
/// T_logic (absolute equality is impossible without the original MCNC /
/// ISCAS netlists; see DESIGN.md section 3).
constexpr Entry kEntries[] = {
    // -- multiplexers ------------------------------------------------------
    {"cm150", [] { return gen_mux_tree(4); }},
    {"mux", [] { return gen_barrel_rotator(4, 2); }},
    // -- arithmetic --------------------------------------------------------
    {"z4ml", [] { return gen_ripple_adder(3); }},
    {"cordic", [] { return gen_cordic(4, 1); }},
    {"f51m", [] { return gen_alu_like(4, 0xF51F51); }},
    {"count", [] { return gen_incrementer(14); }},
    {"c880", [] { return gen_alu_like(12, 0x880); }},
    {"dalu", [] { return gen_alu_like(24, 0xDA1D); }},
    {"c3540", [] { return gen_alu_like(72, 0x3540); }},
    // -- symmetric functions ----------------------------------------------
    {"9symml", [] { return gen_symmetric(9, {3, 4, 5, 6}); }},
    {"t481", [] { return gen_symmetric(16, {2, 3, 5, 7, 11, 13}); }},
    // -- ECC / XOR planes --------------------------------------------------
    {"c499", [] { return gen_xor_tree(41, 32, 7, 0x499); }},
    {"c1355", [] { return gen_xor_tree(41, 32, 7, 0x499); }},  // same function
    {"c1908", [] { return gen_xor_tree(33, 25, 7, 0x1908); }},
    // -- multiplication / decode (not in the paper's tables; kept for
    //    completeness of the classic suite) ------------------------------
    {"c6288", [] { return gen_multiplier(8); }},
    {"decod", [] { return gen_decoder(5); }},
    // -- arbitration -------------------------------------------------------
    {"c432", [] { return gen_priority(36); }},
    // -- rotation ----------------------------------------------------------
    {"rot", [] { return gen_barrel_rotator(48, 6); }},
    // -- crypto-style SPN --------------------------------------------------
    {"des", [] { return gen_spn(48, 3, 0xDE5); }},
    // -- PLA-style two-level -----------------------------------------------
    {"i6", [] { return gen_two_level(138, 36, 67, 6, 0x16); }},
    // -- random control logic ----------------------------------------------
    {"frg1", [] { return gen_random_dag(28, 160, 3, 0xF41); }},
    {"b9", [] { return gen_random_dag(41, 200, 21, 0xB9); }},
    {"c8", [] { return gen_random_dag(28, 160, 18, 0xC8); }},
    {"x1", [] { return gen_random_dag(51, 400, 35, 0x11); }},
    {"apex7", [] { return gen_random_dag(49, 240, 37, 0xA7); }},
    {"apex6", [] { return gen_random_dag(135, 740, 99, 0xA6); }},
    {"k2", [] { return gen_random_dag(45, 950, 45, 0x12); }},
    {"c2670", [] { return gen_random_dag(157, 1120, 64, 0x2670); }},
    {"c5315", [] { return gen_random_dag(178, 2250, 123, 0x5315); }},
    {"c7552", [] { return gen_random_dag(207, 3500, 108, 0x7552); }},
};

/// Scale suite: 100k–1M-node mapper benchmarks (docs/BENCHGEN.md).
/// Kept out of kEntries so benchmark_names() — which the test suites
/// sweep with full flows and golden-stat pins — stays the classic set;
/// build_benchmark() still resolves these by name.
constexpr Entry kScaleEntries[] = {
    {"xl_mult64", [] { return gen_multiplier(64); }},
    {"xl_spn_384x16", [] { return gen_spn(384, 16, 0x5CA1E); }},
    {"xl_dag_wide", [] { return gen_layered_dag(2048, 56, 90, 0x31DE); }},
    {"xl_dag_deep", [] { return gen_layered_dag(96, 1200, 85, 0xDEE9); }},
    {"xl_dag_1m", [] { return gen_layered_dag(2048, 500, 90, 0x1111111); }},
};

}  // namespace

std::vector<std::string> benchmark_names() {
  std::vector<std::string> out;
  for (const Entry& e : kEntries) out.emplace_back(e.name);
  return out;
}

bool is_known_benchmark(std::string_view name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return true;
  }
  for (const Entry& e : kScaleEntries) {
    if (name == e.name) return true;
  }
  return false;
}

Network build_benchmark(std::string_view name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return e.build();
  }
  for (const Entry& e : kScaleEntries) {
    if (name == e.name) return e.build();
  }
  throw Error(format("unknown benchmark circuit '%s'",
                     std::string(name).c_str()));
}

std::vector<std::string> table1_circuits() {
  return {"cm150", "mux",   "z4ml",  "cordic", "frg1",  "b9",
          "apex7", "c432",  "c880",  "t481",   "c1355", "apex6",
          "c1908", "k2",    "c2670", "c5315",  "c7552", "des"};
}

std::vector<std::string> table2_circuits() {
  return {"cm150", "mux",   "z4ml",  "cordic", "frg1",  "f51m", "count",
          "b9",    "9symml", "apex7", "c432",  "c880",  "t481", "c1355",
          "apex6", "c1908", "k2",    "c2670",  "c5315", "c7552", "des"};
}

std::vector<std::string> table3_circuits() {
  return {"cm150", "mux",  "z4ml",  "cordic", "frg1",  "count", "b9",
          "c8",    "f51m", "9symml", "apex7", "x1",    "c432",  "i6",
          "c1908", "t481", "c499",  "c1355",  "dalu",  "k2",    "apex6",
          "rot",   "c2670", "c5315", "c3540", "des",   "c7552"};
}

std::vector<std::string> scale_circuits() {
  std::vector<std::string> out;
  for (const Entry& e : kScaleEntries) out.emplace_back(e.name);
  return out;
}

std::vector<std::string> table4_circuits() {
  return {"z4ml",  "cm150", "mux",   "cordic", "f51m",  "c8",    "frg1",
          "b9",    "count", "c432",  "apex7",  "9symml", "c1908", "x1",
          "i6",    "c1355", "t481",  "rot",    "apex6", "k2",    "c2670",
          "dalu",  "c3540", "c5315", "c7552",  "des"};
}

}  // namespace soidom
