/// \file verify.hpp
/// Functional verification of mapped domino netlists by random
/// simulation.  Structural checks (topological order, footedness, PBE
/// protection, ...) are lint rules: call run_lint (lint/lint.hpp).
/// Defined in the lint module.
#pragma once

#include <string>

#include "soidom/domino/netlist.hpp"
#include "soidom/network/network.hpp"

namespace soidom {

/// Outcome of a verification run; `ok()` is true when `problems` is empty.
struct VerifyReport {
  std::vector<std::string> problems;
  bool ok() const { return problems.empty(); }
  std::string to_string() const;
};

/// Random-simulation equivalence against the ORIGINAL (pre-unate) network.
/// `rounds` words of 64 patterns.
VerifyReport verify_function(const DominoNetlist& netlist,
                             const Network& source, int rounds, Rng& rng);

}  // namespace soidom
