/// Command-line front end: map a combinational BLIF or structural Verilog
/// file to SOI domino logic.
///
///   build/examples/blif2domino [options] circuit.{blif,v}
///
/// Options:
///   --flow=domino|rs|soi     mapping flow (default soi)
///   --objective=area|depth   cost objective (default area)
///   --wmax=N --hmax=N        pulldown shape limits (default 5 / 8)
///   --k=F                    clock-transistor cost weight (default 1.0)
///   --minimize               two-level minimize covers before mapping (BLIF)
///   --seq-aware              prune unexcitable discharge transistors
///   --exact                  exact BDD equivalence checking
///   --dump                   print the mapped netlist
///   --spice=FILE             write a transistor-level SPICE deck
///   --verilog=FILE           write a structural Verilog view
///   --dnl=FILE               write the netlist interchange format
///   --timing                 print the timing / hysteresis report
///   --power                  print the dynamic-energy estimate
///   --lint                   print the full lint report (all severities)
///   --lint-sarif=FILE        write the lint report as SARIF 2.1.0
///   --lint-fail-on=SEV      fail on lint findings >= error|warning|info
///                            (default error)
///   --csa                    run the static charge-sharing / PBE-safety
///                            analyzer and print its per-gate droop report
///   --csa-sarif=FILE         write the CSA findings as SARIF 2.1.0
///   --csa-margin=X           droop noise margin as a fraction of VDD
///                            (default 0.25)
///   --race                   run the static phase / monotonicity / race
///                            analyzer and print its report (docs/RACE.md)
///   --race-sarif=FILE        write the race findings as SARIF 2.1.0
///   --race-fail-on=SEV       fail on race findings >= error|warning|info
///                            (default error)
///   --race-phases=N          clock phase count (default 1)
///   --race-teval=X           evaluate window (0 = unconstrained)
///   --race-tpre=X            precharge window (0 = unconstrained)
///   --race-skew=X            worst-case clock skew absorbed per handoff
///   --race-margin=X          required skew-tolerance margin (warn below)
///
///   --prove                  exact proof tier over lint/csa/race findings
///                            (docs/PROVE.md): confirmed / refuted / unknown
///   --prove-budget=N         BDD node budget per cone problem (default 2^20)
///   --prove-fail-on=SEV      fail on CONFIRMED findings >= error|warning|info
///   --prove-strict           exit 5 (kProofTimeout) on any budget hit
///   --prove-json=FILE        write the ProveReport (witnesses, certificates)
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
#include <cstring>
#include <string>

#include "soidom/base/fileio.hpp"
#include "soidom/base/strings.hpp"
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
  std::fprintf(
      stderr,
      "usage: %s [--flow=domino|rs|soi] [--objective=area|depth]\n"
      "          [--wmax=N] [--hmax=N] [--k=F] [--minimize]\n"
      "          [--seq-aware]\n"
      "          [--exact] [--dump] [--spice=FILE] [--verilog=FILE]\n"
      "          [--timing] [--power] [--lint] [--lint-sarif=FILE]\n"
      "          [--lint-fail-on=error|warning|info]\n"
      "          [--csa] [--csa-sarif=FILE] [--csa-margin=X]\n"
      "          [--race] [--race-sarif=FILE]\n"
      "          [--race-fail-on=error|warning|info] [--race-phases=N]\n"
      "          [--race-teval=X] [--race-tpre=X] [--race-skew=X]\n"
      "          [--race-margin=X] [--prove] [--prove-budget=N]\n"
      "          [--prove-fail-on=error|warning|info] [--prove-strict]\n"
      "          [--prove-json=FILE] [--diag-json]\n"
      "          circuit.{blif,v}\n",
      argv0);
  std::exit(64);
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
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

  // Strict numeric parses: atoi/atof would turn "--wmax=big" or
  // "--csa-margin=high" into 0 silently.
  auto int_flag = [&](const std::string& text, const char* flag, int* out) {
    if (!parse_int_strict(text, out)) {
      std::fprintf(stderr, "error: %s needs an integer, got '%s'\n", flag,
                   text.c_str());
      usage(argv[0]);
    }
  };
  auto double_flag = [&](const std::string& text, const char* flag,
                         double* out) {
    if (!parse_double_strict(text, out)) {
      std::fprintf(stderr, "error: %s needs a number, got '%s'\n", flag,
                   text.c_str());
      usage(argv[0]);
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flow=domino") {
      options.variant = FlowVariant::kDominoMap;
    } else if (arg == "--flow=rs") {
      options.variant = FlowVariant::kRsMap;
    } else if (arg == "--flow=soi") {
      options.variant = FlowVariant::kSoiDominoMap;
    } else if (arg == "--objective=area") {
      options.mapper.objective = CostObjective::kArea;
    } else if (arg == "--objective=depth") {
      options.mapper.objective = CostObjective::kDepth;
    } else if (arg.rfind("--wmax=", 0) == 0) {
      int_flag(arg.substr(7), "--wmax", &options.mapper.max_width);
    } else if (arg.rfind("--hmax=", 0) == 0) {
      int_flag(arg.substr(7), "--hmax", &options.mapper.max_height);
    } else if (arg.rfind("--k=", 0) == 0) {
      double_flag(arg.substr(4), "--k", &options.mapper.clock_weight);
    } else if (arg == "--minimize") {
      options.decompose.minimize_covers = true;
    } else if (arg == "--seq-aware") {
      options.sequence_aware = true;
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--exact") {
      options.exact_equivalence = true;
    } else if (arg.rfind("--spice=", 0) == 0) {
      spice_path = arg.substr(8);
    } else if (arg.rfind("--verilog=", 0) == 0) {
      verilog_path = arg.substr(10);
    } else if (arg.rfind("--dnl=", 0) == 0) {
      dnl_path = arg.substr(6);
    } else if (arg == "--timing") {
      want_timing = true;
    } else if (arg == "--power") {
      want_power = true;
    } else if (arg == "--lint") {
      want_lint = true;
    } else if (arg.rfind("--lint-sarif=", 0) == 0) {
      lint_sarif_path = arg.substr(13);
    } else if (arg == "--lint-fail-on=error") {
      options.lint_fail_on = LintSeverity::kError;
    } else if (arg == "--lint-fail-on=warning") {
      options.lint_fail_on = LintSeverity::kWarning;
    } else if (arg == "--lint-fail-on=info") {
      options.lint_fail_on = LintSeverity::kInfo;
    } else if (arg == "--csa") {
      options.csa = true;
    } else if (arg.rfind("--csa-sarif=", 0) == 0) {
      options.csa = true;
      csa_sarif_path = arg.substr(12);
    } else if (arg.rfind("--csa-margin=", 0) == 0) {
      options.csa = true;
      double_flag(arg.substr(13), "--csa-margin",
                  &options.csa_options.margin);
    } else if (arg == "--race") {
      options.race = true;
    } else if (arg.rfind("--race-sarif=", 0) == 0) {
      options.race = true;
      race_sarif_path = arg.substr(13);
    } else if (arg == "--race-fail-on=error") {
      options.race = true;
      options.race_fail_on = LintSeverity::kError;
    } else if (arg == "--race-fail-on=warning") {
      options.race = true;
      options.race_fail_on = LintSeverity::kWarning;
    } else if (arg == "--race-fail-on=info") {
      options.race = true;
      options.race_fail_on = LintSeverity::kInfo;
    } else if (arg.rfind("--race-phases=", 0) == 0) {
      options.race = true;
      int_flag(arg.substr(14), "--race-phases",
               &options.race_options.num_phases);
    } else if (arg.rfind("--race-teval=", 0) == 0) {
      options.race = true;
      double_flag(arg.substr(13), "--race-teval",
                  &options.race_options.t_eval);
    } else if (arg.rfind("--race-tpre=", 0) == 0) {
      options.race = true;
      double_flag(arg.substr(12), "--race-tpre",
                  &options.race_options.t_pre);
    } else if (arg.rfind("--race-skew=", 0) == 0) {
      options.race = true;
      double_flag(arg.substr(12), "--race-skew",
                  &options.race_options.skew);
    } else if (arg.rfind("--race-margin=", 0) == 0) {
      options.race = true;
      double_flag(arg.substr(14), "--race-margin",
                  &options.race_options.margin);
    } else if (arg == "--prove") {
      options.prove = true;
    } else if (arg.rfind("--prove-budget=", 0) == 0) {
      options.prove = true;
      int budget = 0;
      int_flag(arg.substr(15), "--prove-budget", &budget);
      options.prove_options.node_budget = static_cast<std::uint32_t>(budget);
    } else if (arg == "--prove-fail-on=error") {
      options.prove = true;
      options.prove_fail_on = LintSeverity::kError;
    } else if (arg == "--prove-fail-on=warning") {
      options.prove = true;
      options.prove_fail_on = LintSeverity::kWarning;
    } else if (arg == "--prove-fail-on=info") {
      options.prove = true;
      options.prove_fail_on = LintSeverity::kInfo;
    } else if (arg == "--prove-strict") {
      options.prove = true;
      options.prove_options.fail_on_budget = true;
    } else if (arg.rfind("--prove-json=", 0) == 0) {
      options.prove = true;
      prove_json_path = arg.substr(13);
    } else if (arg == "--diag-json") {
      diag_json = true;
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (path.empty()) usage(argv[0]);

  install_signal_cancel();
  GuardOptions gopts;
  gopts.cancel = signal_cancel_token();

  auto exit_code_for = [](const Diagnostic& d) {
    if (d.code == ErrorCode::kCancelled && signal_received() != 0) {
      return signal_exit_code(signal_received());
    }
    return cli_exit_code(d);
  };

  FlowOutcome outcome;
  if (ends_with(path, ".v") || ends_with(path, ".sv")) {
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
  if (!outcome.result.has_value()) {
    const Diagnostic& d = *outcome.diagnostic;
    if (diag_json) {
      std::printf("%s\n", d.to_json().c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", d.to_string().c_str());
    }
    return exit_code_for(d);
  }

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
    if (outcome.diagnostic.has_value()) {
      // A verification mismatch: the netlist above is still printed /
      // exported for triage, but the run fails with the dedicated code.
      const Diagnostic& d = *outcome.diagnostic;
      if (diag_json) {
        std::printf("%s\n", d.to_json().c_str());
      } else {
        std::fprintf(stderr, "error: %s\n", d.to_string().c_str());
      }
      return exit_code_for(d);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
