/// The full "ASIC flow" the paper sketches across sections IV-VII, end to
/// end on one circuit:
///
///   BLIF  -> two-level minimization (SIS-style preprocessing)
///         -> decomposition + unate conversion + SOI-aware mapping
///         -> sequence-aware discharge pruning      (paper sec. VII)
///         -> static timing + hysteresis analysis   (paper sec. I claim)
///         -> transistor sizing                     (paper's follow-up step)
///         -> SPICE + Verilog export for downstream tooling.
///
/// Build & run:   build/examples/asic_flow [flags] [circuit.blif]
///
/// Without a circuit argument a built-in 4-bit comparator BLIF is used.
/// Its own flags:
///   --diag-json       print failures as JSON diagnostics
///   --lint            print the full lint report
///   --lint-sarif=FILE write the lint report as SARIF 2.1.0
///   --csa-sarif=FILE  write the csa findings as SARIF 2.1.0 (and run csa)
///   --race-sarif=FILE write the race findings as SARIF 2.1.0 (and run race)
///
/// It takes the flow group of soidom/batch/flags.hpp, with the defaults
/// --flow=soi --seq-aware --exact.  --prove prints each proof record:
/// confirmed (witness), refuted (downgraded to info, with a certificate)
/// or unknown (node budget hit).  To run this flow over many circuits
/// under deadlines, retries and a journal, use soidom_batch --seq-aware
/// --exact (docs/BATCH.md).
///
/// All artifact files are written atomically (write-temp-fsync-rename),
/// so a crash or SIGKILL never leaves a truncated .sp/.v/SARIF on disk.
/// SIGINT/SIGTERM cancel the in-flight work cooperatively and exit with
/// 128+signum (130/143).
///
/// Exit codes (docs/ERRORS.md): 0 success, 2 parse error, 3 mapping
/// infeasible, 4 verification mismatch, 5 deadline/budget, 64 bad
/// options, 1 internal error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "soidom/base/fileio.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/flags.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/export.hpp"
#include "soidom/sizing/sizing.hpp"
#include "soidom/timing/timing.hpp"
#include "soidom/twolevel/minimize.hpp"

using namespace soidom;

namespace {

const char* kDefaultBlif = R"(
.model cmp4
.inputs a3 a2 a1 a0 b3 b2 b1 b0
.outputs gt eq
.names a3 b3 e3
11 1
00 1
.names a2 b2 e2
11 1
00 1
.names a1 b1 e1
11 1
00 1
.names a0 b0 e0
11 1
00 1
.names e3 e2 e1 e0 eq
1111 1
.names a3 b3 g3
10 1
.names a2 b2 g2
10 1
.names a1 b1 g1
10 1
.names a0 b0 g0
10 1
.names g3 e3 g2 e2 g1 e1 g0 gt
1------ 1
-11---- 1
-1-11-- 1
-1-1-11 1
.end
)";

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [flags] [circuit.blif]\n"
               "  [--diag-json] [--lint] [--lint-sarif=FILE] [--csa-sarif=FILE]\n"
               "  [--race-sarif=FILE]\n%s",
               argv0, kFlowFlagsUsage);
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  bool diag_json = false;
  bool want_lint = false;
  FlowOptions options;
  options.variant = FlowVariant::kSoiDominoMap;
  options.sequence_aware = true;
  options.exact_equivalence = true;
  std::string lint_sarif_path;
  std::string csa_sarif_path;
  std::string race_sarif_path;
  std::string path;
  try {
    for (int i = 1; i < argc; ++i) {
      const Flag flag(argv[i]);
      if (parse_flow_flag(flag, options)) continue;
      if (flag.is("--diag-json")) {
        diag_json = true;
      } else if (flag.is("--lint")) {
        want_lint = true;
      } else if (flag.has("--lint-sarif")) {
        lint_sarif_path = flag.value();
      } else if (flag.has("--csa-sarif")) {
        options.csa = true;
        csa_sarif_path = flag.value();
      } else if (flag.has("--race-sarif")) {
        options.race = true;
        race_sarif_path = flag.value();
      } else if (starts_with(argv[i], "--")) {
        usage(argv[0]);
      } else {
        path = argv[i];
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  }

  install_signal_cancel();

  auto report = [&](const Diagnostic& d) {
    if (diag_json) {
      std::printf("%s\n", d.to_json().c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", d.to_string().c_str());
    }
    if (d.code == ErrorCode::kCancelled && signal_received() != 0) {
      return signal_exit_code(signal_received());
    }
    return cli_exit_code(d);
  };

  try {
    // 1. Front end + two-level minimization.
    BlifModel model;
    try {
      model = path.empty() ? parse_blif(kDefaultBlif) : parse_blif_file(path);
    } catch (const Error& e) {
      return report(Diagnostic{ErrorCode::kParseError, FlowStage::kParse,
                               e.what(),
                               {}});
    }
    const MinimizeStats min_stats = minimize_tables(model);
    std::printf("[minimize]  cubes %d -> %d, literals %d -> %d\n",
                min_stats.cubes_before, min_stats.cubes_after,
                min_stats.literals_before, min_stats.literals_after);

    // 2. Map with the SOI-aware flow, pruning unexcitable discharges.
    GuardOptions gopts;
    gopts.cancel = signal_cancel_token();
    const FlowOutcome outcome = run_flow_guarded(model, options, gopts);
    for (const Diagnostic& warning : outcome.warnings) {
      std::fprintf(stderr, "warning: %s\n", warning.to_string().c_str());
    }
    if (!outcome.result.has_value()) return report(*outcome.diagnostic);
    const FlowResult& flow = *outcome.result;
    const std::string artifact = path.empty() ? "cmp4.blif" : path;
    std::printf("[map]       %s\n", summarize(flow).c_str());
    std::printf("[seq-aware] pruned %d unexcitable discharge point(s)\n",
                flow.discharges_pruned);
    std::printf("[lint]      %s\n", flow.lint.summary().c_str());
    if (want_lint) std::fputs(flow.lint.to_text().c_str(), stdout);
    if (!lint_sarif_path.empty()) {
      write_file_atomic(lint_sarif_path, flow.lint.to_sarif(artifact));
      std::printf("[lint]      wrote %s\n", lint_sarif_path.c_str());
    }
    if (flow.csa.has_value()) {
      const CsaReport& csa = flow.csa->report;
      std::printf("[csa]       %s  max_droop=%.3f over_margin=%d "
                  "overpowered=%d truncated=%d\n",
                  flow.csa->lint.summary().c_str(), csa.max_droop,
                  csa.gates_over_margin, csa.gates_keeper_overpowered,
                  csa.gates_truncated);
      if (!csa_sarif_path.empty()) {
        write_file_atomic(csa_sarif_path, flow.csa->lint.to_sarif(artifact));
        std::printf("[csa]       wrote %s\n", csa_sarif_path.c_str());
      }
    }
    if (flow.race.has_value()) {
      const RaceReport& race = flow.race->report;
      std::printf("[race]      %s  levels=%d crit=%.3f skew_tol=%.3f "
                  "parity=%d mix=%d stale=%d\n",
                  flow.race->lint.summary().c_str(), race.max_level,
                  race.critical_arrival, race.skew_tolerance,
                  race.gates_parity, race.gates_mix, race.gates_stale);
      if (!race_sarif_path.empty()) {
        write_file_atomic(race_sarif_path,
                          flow.race->lint.to_sarif(artifact));
        std::printf("[race]      wrote %s\n", race_sarif_path.c_str());
      }
    }
    if (flow.prove.has_value()) {
      std::printf("[prove]     %s  budget_hits=%d\n",
                  flow.prove->summary().c_str(), flow.prove->budget_hits);
      for (const ProofRecord& r : flow.prove->records) {
        std::printf("[prove]       %-9s %s %s: %s\n",
                    proof_status_name(r.status), r.rule.c_str(),
                    r.location.qualified_name().c_str(),
                    r.certificate.c_str());
      }
    }
    if (outcome.diagnostic.has_value()) return report(*outcome.diagnostic);

    // 3. Timing + hysteresis.
    const TimingReport timing = analyze_timing(flow.netlist);
    std::printf("[timing]    %s", timing.to_string().c_str());

    // 4. Sizing.
    const SizingResult sizing = size_netlist(flow.netlist);
    std::printf("[sizing]    est. delay %.2f -> %.2f (%.2fx), width %.1f -> %.1f\n",
                sizing.estimated_delay_before, sizing.estimated_delay_after,
                sizing.speedup(), sizing.total_width_before,
                sizing.total_width_after);

    // 5. Export (atomic: a crash never leaves a truncated deck).
    SpiceSizing spice_sizing;
    for (const GateSizing& gs : sizing.gates) {
      spice_sizing.pulldown_widths.push_back(gs.pulldown_widths);
      spice_sizing.inverter_widths.push_back(gs.inverter_width);
    }
    const std::string deck =
        export_spice(flow.netlist, model.name, SpiceModels{}, &spice_sizing);
    const std::string verilog = export_verilog(flow.netlist, model.name);
    const std::string sp_path = model.name + ".sp";
    const std::string v_path = model.name + ".v";
    write_file_atomic(sp_path, deck);
    write_file_atomic(v_path, verilog);
    std::printf("[export]    wrote %s (%zu bytes) and %s (%zu bytes)\n",
                sp_path.c_str(), deck.size(), v_path.c_str(), verilog.size());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
