/// \file bench_util.hpp
/// Shared plumbing for the table-reproduction binaries: run the three flow
/// variants on a registered circuit and collect the paper's columns.
#pragma once

#include <cstdio>
#include <string>

#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/report/table.hpp"

namespace soidom::bench {

/// Runs one flow variant on `circuit` with light verification (lint
/// always; functional with a few random rounds) and aborts loudly if the
/// result is broken — a results table from a broken netlist is worthless.
inline FlowResult run_checked(const std::string& circuit, FlowOptions options) {
  const Network source = build_benchmark(circuit);
  options.verify_rounds = 4;
  FlowResult result = run_flow(source, options);
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: flow broken on '%s': %s%s\n",
                 circuit.c_str(), result.lint.to_text().c_str(),
                 result.function.to_string().c_str());
    std::abort();
  }
  return result;
}

/// Percentage reduction a -> b, matching the paper's "%" columns.
inline double reduction_pct(int from, int to) {
  return from == 0 ? 0.0 : 100.0 * (from - to) / from;
}

}  // namespace soidom::bench
