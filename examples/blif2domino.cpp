/// Command-line front end: map a combinational BLIF or structural Verilog
/// file to SOI domino logic.
///
///   build/examples/blif2domino [flags] circuit.{blif,v}
///
/// Flow flags: every flag of the flow group in soidom/batch/flags.hpp
/// (flow, W/H limits, k, objective, analyzers and their fail-on gates).
///
/// Its own flags:
///   --dump                   print the mapped netlist
///   --spice=FILE             write a transistor-level SPICE deck
///   --verilog=FILE           write a structural Verilog view
///   --dnl=FILE               write the netlist interchange format
///   --timing                 print the timing / hysteresis report
///   --power                  print the dynamic-energy estimate
///   --lint                   print the full lint report (all severities)
///   --lint-sarif=FILE        write the lint report as SARIF 2.1.0
///   --csa-sarif=FILE         write the CSA findings as SARIF 2.1.0 (and
///                            run the csa analyzer, printing its report)
///   --race-sarif=FILE        write the race findings as SARIF 2.1.0 (and
///                            run the race analyzer, printing its report)
///   --prove-json=FILE        write the ProveReport (and run the proof tier)
///   --diag-json              print failures/warnings as JSON diagnostics
///
/// Output files (--spice/--verilog/--dnl/--lint-sarif) are written
/// atomically: write to a temp file, fsync, rename.  A crash mid-write
/// never leaves a truncated artifact.  SIGINT/SIGTERM cancel the flow
/// cooperatively and exit with 128+signum (130/143).
///
/// Exit codes (docs/ERRORS.md): 0 success, 2 parse error, 3 mapping
/// infeasible, 4 verification mismatch, 5 deadline/budget, 64 bad usage
/// or options, 1 internal error, 130/143 interrupted by signal.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "soidom/base/fileio.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/flags.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/export.hpp"
#include "soidom/domino/serialize.hpp"
#include "soidom/power/power.hpp"
#include "soidom/timing/timing.hpp"
#include "soidom/verilog/parser.hpp"

using namespace soidom;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [flags] circuit.{blif,v}\n"
               "  [--dump] [--spice=FILE] [--verilog=FILE] [--dnl=FILE]\n"
               "  [--timing] [--power] [--lint] [--lint-sarif=FILE]\n"
               "  [--csa-sarif=FILE] [--race-sarif=FILE] [--prove-json=FILE]\n"
               "  [--diag-json]\n%s",
               argv0, kFlowFlagsUsage);
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  FlowOptions options;
  bool dump = false;
  bool want_timing = false;
  bool want_power = false;
  bool diag_json = false;
  bool want_lint = false;
  std::string lint_sarif_path;
  std::string csa_sarif_path;
  std::string race_sarif_path;
  std::string prove_json_path;
  std::string spice_path;
  std::string verilog_path;
  std::string dnl_path;
  std::string path;

  try {
    for (int i = 1; i < argc; ++i) {
      const Flag flag(argv[i]);
      if (parse_flow_flag(flag, options)) continue;
      if (flag.is("--dump")) {
        dump = true;
      } else if (flag.has("--spice")) {
        spice_path = flag.value();
      } else if (flag.has("--verilog")) {
        verilog_path = flag.value();
      } else if (flag.has("--dnl")) {
        dnl_path = flag.value();
      } else if (flag.is("--timing")) {
        want_timing = true;
      } else if (flag.is("--power")) {
        want_power = true;
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
      } else if (flag.has("--prove-json")) {
        options.prove = true;
        prove_json_path = flag.value();
      } else if (flag.is("--diag-json")) {
        diag_json = true;
      } else if (starts_with(argv[i], "--") || !path.empty()) {
        usage(argv[0]);
      } else {
        path = argv[i];
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  }
  if (path.empty()) usage(argv[0]);

  install_signal_cancel();
  GuardOptions gopts;
  gopts.cancel = signal_cancel_token();

  // Prints a failure and returns its exit code.
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

  FlowOutcome outcome;
  if (path.ends_with(".v") || path.ends_with(".sv")) {
    try {
      outcome = run_flow_guarded(parse_verilog_file(path), options, gopts);
    } catch (const Error& e) {
      outcome.diagnostic =
          Diagnostic{ErrorCode::kParseError, FlowStage::kParse, e.what(), {}};
    }
  } else {
    outcome = run_flow_guarded_file(path, options, gopts);
  }

  for (const Diagnostic& warning : outcome.warnings) {
    if (diag_json) {
      std::printf("%s\n", warning.to_json().c_str());
    } else {
      std::fprintf(stderr, "warning: %s\n", warning.to_string().c_str());
    }
  }
  if (!outcome.result.has_value()) return report(*outcome.diagnostic);

  try {
    const FlowResult& result = *outcome.result;
    std::printf("%s: %s\n", path.c_str(), summarize(result).c_str());
    if (options.sequence_aware) {
      std::printf("sequence-aware pruning removed %d discharge transistor(s)\n",
                  result.discharges_pruned);
    }
    if (dump) std::fputs(result.netlist.dump().c_str(), stdout);
    if (want_lint) std::fputs(result.lint.to_text().c_str(), stdout);
    if (!lint_sarif_path.empty()) {
      write_file_atomic(lint_sarif_path, result.lint.to_sarif(path));
      std::printf("wrote %s\n", lint_sarif_path.c_str());
    }
    if (result.csa.has_value()) {
      const CsaReport& csa = result.csa->report;
      std::printf("csa: %s\n", result.csa->lint.summary().c_str());
      std::printf("%s\n", csa.to_json().c_str());
      if (!csa_sarif_path.empty()) {
        write_file_atomic(csa_sarif_path, result.csa->lint.to_sarif(path));
        std::printf("wrote %s\n", csa_sarif_path.c_str());
      }
    }
    if (result.race.has_value()) {
      std::printf("race: %s\n", result.race->lint.summary().c_str());
      std::printf("%s\n", result.race->report.to_json().c_str());
      if (!race_sarif_path.empty()) {
        write_file_atomic(race_sarif_path, result.race->lint.to_sarif(path));
        std::printf("wrote %s\n", race_sarif_path.c_str());
      }
    }
    if (result.prove.has_value()) {
      std::printf("prove: %s (budget_hits=%d)\n",
                  result.prove->summary().c_str(),
                  result.prove->budget_hits);
      if (!prove_json_path.empty()) {
        write_file_atomic(prove_json_path, result.prove->to_json());
        std::printf("wrote %s\n", prove_json_path.c_str());
      }
    }
    if (want_timing) {
      std::fputs(analyze_timing(result.netlist).to_string().c_str(), stdout);
    }
    if (want_power) {
      const PowerReport p = estimate_power(result.netlist);
      std::printf("energy/cycle: clock=%.1f logic=%.1f input=%.1f total=%.1f\n",
                  p.clock_energy, p.logic_energy, p.input_energy, p.total());
    }
    if (!spice_path.empty()) {
      write_file_atomic(spice_path, export_spice(result.netlist, path));
      std::printf("wrote %s\n", spice_path.c_str());
    }
    if (!verilog_path.empty()) {
      write_file_atomic(verilog_path, export_verilog(result.netlist, "mapped"));
      std::printf("wrote %s\n", verilog_path.c_str());
    }
    if (!dnl_path.empty()) {
      write_dnl_file(result.netlist, dnl_path);
      std::printf("wrote %s\n", dnl_path.c_str());
    }
    // A verification mismatch: the netlist above is still printed /
    // exported for triage, but the run fails with the dedicated code.
    if (outcome.diagnostic.has_value()) return report(*outcome.diagnostic);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
