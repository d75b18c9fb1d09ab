/// \file registry.hpp
/// Named benchmark registry.
///
/// Maps the circuit names appearing in the paper's tables to deterministic
/// generator instances (generators.hpp) of the same structural family and
/// comparable size.  Every name always produces the identical network, so
/// the bench/ binaries are reproducible run to run.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "soidom/network/network.hpp"

namespace soidom {

/// All classic circuit names (union of the paper's four tables plus the
/// completeness extras).  Deliberately excludes the scale suite — test
/// suites sweep this list with full flows and golden-stat pins; use
/// scale_circuits() for the 100k+-node scale benchmarks.
std::vector<std::string> benchmark_names();

/// True if `name` is registered.
bool is_known_benchmark(std::string_view name);

/// Build the circuit registered under `name`; throws soidom::Error for
/// unknown names.
Network build_benchmark(std::string_view name);

/// Circuit lists of the paper's tables, in row order.
std::vector<std::string> table1_circuits();  ///< Domino_Map vs RS_Map
std::vector<std::string> table2_circuits();  ///< Domino_Map vs SOI_Domino_Map
std::vector<std::string> table3_circuits();  ///< clock-weight k = 1 vs 2
std::vector<std::string> table4_circuits();  ///< depth objective

/// The union of the four tables' circuits, in first-seen order (table 1's
/// rows first, then each later table's new rows).
std::vector<std::string> paper_table_circuits();

/// Large synthetic circuits (roughly 100k to 1M AND/OR nodes after unate
/// conversion) for mapper scaling benchmarks: deep multipliers, SPN
/// stacks, and layered random DAGs with controlled level width.
/// Ascending size; the last entry is the ~1M-node stress case, which no
/// benchmark runs by default.  All names also resolve through
/// build_benchmark().  See docs/BENCHGEN.md.
std::vector<std::string> scale_circuits();

}  // namespace soidom
