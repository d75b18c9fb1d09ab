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
/// Build & run:   build/examples/asic_flow [--diag-json]
///                                         [--lint] [--lint-sarif=FILE]
///                                         [--csa] [--csa-sarif=FILE]
///                                         [--csa-margin=X]
///                                         [--race] [--race-sarif=FILE]
///                                         [--race-phases=N]
///                                         [--race-teval=X] [--race-tpre=X]
///                                         [--race-skew=X]
///                                         [--race-margin=X]
///                                         [--prove] [--prove-budget=N]
///                                         [--prove-fail-on=SEV]
///                                         [--prove-strict] [circuit.blif]
/// Without a circuit argument a built-in 4-bit comparator BLIF is used.
/// --lint prints the full lint report; --lint-sarif=FILE writes it as
/// SARIF 2.1.0 for CI annotation.  --csa runs the static charge-sharing /
/// PBE-safety analyzer (docs/CSA.md); --csa-sarif=FILE writes its
/// findings as SARIF 2.1.0 and --csa-margin=X sets the droop noise
/// margin as a fraction of VDD (default 0.25).  --race runs the static
/// phase / monotonicity / race analyzer (docs/RACE.md); --race-sarif=FILE
/// writes its findings as SARIF 2.1.0; --race-phases=N sets the clock
/// phase count and --race-teval/--race-tpre/--race-skew/--race-margin
/// configure the evaluate / precharge windows (0 = unconstrained).
/// --prove runs the exact proof tier (docs/PROVE.md) over the lint / csa
/// / race findings: each provable finding becomes confirmed (witness
/// logged), refuted (downgraded to info with a certificate), or unknown
/// (node budget hit).  --prove-budget=N caps BDD nodes per cone (default
/// 2^20); --prove-fail-on=info|warning|error sets the severity at which
/// a CONFIRMED finding fails the flow; --prove-strict exits 5
/// (kProofTimeout) when any proof obligation exceeds the budget.
///
/// Batch mode (src/batch; see docs/BATCH.md):
///   --batch[=a,b,c]   run the asic flow over the named benchmark
///                     circuits (bare --batch: every paper-table circuit)
///                     with watchdog + retry ladder + run journal
///   --resume          skip jobs already terminal in the journal
///   --journal=FILE    JSONL journal (default asic_flow.jsonl)
///   --manifest=FILE   merged manifest (default asic_flow.manifest.json)
///   --timeout-ms=N    per-attempt watchdog   --attempts=N  retry budget
///   --isolate         fork each attempt into a subprocess
///
/// All artifact files are written atomically (write-temp-fsync-rename),
/// so a crash or SIGKILL never leaves a truncated .sp/.v/SARIF on disk.
/// SIGINT/SIGTERM cancel the in-flight work cooperatively and exit with
/// 128+signum (130/143).
///
/// Exit codes (docs/ERRORS.md): 0 success, 2 parse error, 3 mapping
/// infeasible, 4 verification mismatch, 5 deadline/budget, 64 bad
/// options, 1 internal error; batch mode adds 6 (aborted), 7 (jobs
/// failed/quarantined), 130/143 (signal).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "soidom/base/fileio.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/runner.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/benchgen/registry.hpp"
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

std::vector<std::string> split_names(const std::string& list) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) out.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

/// The batch counterpart of the single-circuit flow below: same flow
/// options, many circuits, resilient outer loop.
int run_batch_mode(const std::vector<std::string>& circuits,
                   BatchOptions options) {
  std::vector<BatchJob> jobs;
  if (circuits.empty()) {
    for (const auto& list : {table1_circuits(), table2_circuits(),
                             table3_circuits(), table4_circuits()}) {
      for (const std::string& name : list) {
        bool seen = false;
        for (const BatchJob& j : jobs) seen = seen || j.name == name;
        if (!seen) jobs.push_back(BatchJob{name, ""});
      }
    }
  } else {
    for (const std::string& name : circuits) jobs.push_back(BatchJob{name, ""});
  }

  BatchHooks hooks;
  hooks.on_job_done = [](const JobOutcome& out) {
    const JobRecord& r = out.record;
    std::printf("[batch]     %-12s %-11s attempts=%d ladder=%s %s\n",
                r.job.c_str(), job_status_name(r.status), r.attempts,
                r.ladder.c_str(),
                r.status == JobStatus::kOk ? r.summary.c_str()
                                           : r.message.c_str());
    std::fflush(stdout);
  };

  BatchResult result;
  try {
    result = run_batch(jobs, options, hooks);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  }
  std::printf("[batch]     %zu jobs  ok=%d failed=%d quarantined=%d "
              "resumed=%d\n",
              result.jobs.size(), result.ok, result.failed,
              result.quarantined, result.resumed);
  if (result.interrupted_by_signal != 0) {
    std::fprintf(stderr, "[batch]     interrupted by signal %d; rerun with "
                         "--resume\n",
                 result.interrupted_by_signal);
    return signal_exit_code(result.interrupted_by_signal);
  }
  if (result.aborted.has_value()) {
    std::fprintf(stderr, "[batch]     aborted: %s\n",
                 result.aborted->to_string().c_str());
    return 6;
  }
  return (result.failed == 0 && result.quarantined == 0) ? 0 : 7;
}

}  // namespace

int main(int argc, char** argv) {
  bool diag_json = false;
  bool want_lint = false;
  bool want_csa = false;
  double csa_margin = -1.0;
  bool want_race = false;
  RaceOptions race_options;
  bool want_prove = false;
  ProveOptions prove_options;
  LintSeverity prove_fail_on = LintSeverity::kError;
  bool batch_mode = false;
  std::vector<std::string> batch_circuits;
  BatchOptions batch;
  batch.journal_path = "asic_flow.jsonl";
  batch.manifest_path = "asic_flow.manifest.json";
  std::string lint_sarif_path;
  std::string csa_sarif_path;
  std::string race_sarif_path;
  std::string path;
  // Strict numeric parses: atoi/atof would turn "--jobs=all" or
  // "--csa-margin=high" into 0 silently.
  bool bad_number = false;
  auto int_flag = [&](const char* text, const char* flag, int* out) {
    if (!parse_int_strict(text, out)) {
      std::fprintf(stderr, "error: %s needs an integer, got '%s'\n", flag,
                   text);
      bad_number = true;
    }
  };
  auto double_flag = [&](const char* text, const char* flag, double* out) {
    if (!parse_double_strict(text, out)) {
      std::fprintf(stderr, "error: %s needs a number, got '%s'\n", flag,
                   text);
      bad_number = true;
    }
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--diag-json") == 0) {
      diag_json = true;
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      want_lint = true;
    } else if (std::strncmp(argv[i], "--lint-sarif=", 13) == 0) {
      lint_sarif_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--csa") == 0) {
      want_csa = true;
    } else if (std::strncmp(argv[i], "--csa-sarif=", 12) == 0) {
      want_csa = true;
      csa_sarif_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--csa-margin=", 13) == 0) {
      want_csa = true;
      double_flag(argv[i] + 13, "--csa-margin", &csa_margin);
    } else if (std::strcmp(argv[i], "--race") == 0) {
      want_race = true;
    } else if (std::strncmp(argv[i], "--race-sarif=", 13) == 0) {
      want_race = true;
      race_sarif_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--race-phases=", 14) == 0) {
      want_race = true;
      int_flag(argv[i] + 14, "--race-phases", &race_options.num_phases);
    } else if (std::strncmp(argv[i], "--race-teval=", 13) == 0) {
      want_race = true;
      double_flag(argv[i] + 13, "--race-teval", &race_options.t_eval);
    } else if (std::strncmp(argv[i], "--race-tpre=", 12) == 0) {
      want_race = true;
      double_flag(argv[i] + 12, "--race-tpre", &race_options.t_pre);
    } else if (std::strncmp(argv[i], "--race-skew=", 12) == 0) {
      want_race = true;
      double_flag(argv[i] + 12, "--race-skew", &race_options.skew);
    } else if (std::strncmp(argv[i], "--race-margin=", 14) == 0) {
      want_race = true;
      double_flag(argv[i] + 14, "--race-margin", &race_options.margin);
    } else if (std::strcmp(argv[i], "--prove") == 0) {
      want_prove = true;
    } else if (std::strncmp(argv[i], "--prove-budget=", 15) == 0) {
      want_prove = true;
      int budget = 0;
      int_flag(argv[i] + 15, "--prove-budget", &budget);
      prove_options.node_budget = static_cast<std::uint32_t>(budget);
    } else if (std::strncmp(argv[i], "--prove-fail-on=", 16) == 0) {
      want_prove = true;
      const std::string sev = argv[i] + 16;
      if (sev == "info") prove_fail_on = LintSeverity::kInfo;
      else if (sev == "warning") prove_fail_on = LintSeverity::kWarning;
      else if (sev == "error") prove_fail_on = LintSeverity::kError;
      else {
        std::fprintf(stderr,
                     "error: --prove-fail-on needs info|warning|error, "
                     "got '%s'\n",
                     sev.c_str());
        bad_number = true;
      }
    } else if (std::strcmp(argv[i], "--prove-strict") == 0) {
      want_prove = true;
      prove_options.fail_on_budget = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch_mode = true;
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch_mode = true;
      batch_circuits = split_names(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      batch.resume = true;
    } else if (std::strncmp(argv[i], "--journal=", 10) == 0) {
      batch.journal_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--manifest=", 11) == 0) {
      batch.manifest_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--timeout-ms=", 13) == 0) {
      int timeout_ms = 0;
      int_flag(argv[i] + 13, "--timeout-ms", &timeout_ms);
      batch.job_timeout_ms = timeout_ms;
    } else if (std::strncmp(argv[i], "--attempts=", 11) == 0) {
      int_flag(argv[i] + 11, "--attempts", &batch.retry.max_attempts);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      int_flag(argv[i] + 7, "--jobs", &batch.max_parallel);
    } else if (std::strcmp(argv[i], "--isolate") == 0) {
      batch.isolate = true;
    } else {
      path = argv[i];
    }
  }
  if (bad_number) return 64;

  install_signal_cancel();

  if (batch_mode) {
    batch.flow.variant = FlowVariant::kSoiDominoMap;
    batch.flow.sequence_aware = true;
    batch.flow.exact_equivalence = true;
    batch.flow.csa = want_csa;
    if (csa_margin >= 0.0) batch.flow.csa_options.margin = csa_margin;
    batch.flow.race = want_race;
    batch.flow.race_options = race_options;
    batch.flow.prove = want_prove;
    batch.flow.prove_options = prove_options;
    batch.flow.prove_fail_on = prove_fail_on;
    return run_batch_mode(batch_circuits, batch);
  }

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
    FlowOptions options;
    options.variant = FlowVariant::kSoiDominoMap;
    options.sequence_aware = true;
    options.exact_equivalence = true;
    options.csa = want_csa;
    if (csa_margin >= 0.0) options.csa_options.margin = csa_margin;
    options.race = want_race;
    options.race_options = race_options;
    options.prove = want_prove;
    options.prove_options = prove_options;
    options.prove_fail_on = prove_fail_on;
    GuardOptions gopts;
    gopts.cancel = signal_cancel_token();
    const FlowOutcome outcome = run_flow_guarded(model, options, gopts);
    for (const Diagnostic& warning : outcome.warnings) {
      std::fprintf(stderr, "warning: %s\n", warning.to_string().c_str());
    }
    if (!outcome.result.has_value()) return report(*outcome.diagnostic);
    const FlowResult& flow = *outcome.result;
    std::printf("[map]       %s\n", summarize(flow).c_str());
    std::printf("[seq-aware] pruned %d unexcitable discharge point(s)\n",
                flow.discharges_pruned);
    std::printf("[lint]      %s\n", flow.lint.summary().c_str());
    if (want_lint) std::fputs(flow.lint.to_text().c_str(), stdout);
    if (!lint_sarif_path.empty()) {
      write_file_atomic(lint_sarif_path,
                        flow.lint.to_sarif(path.empty() ? "cmp4.blif" : path));
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
        write_file_atomic(
            csa_sarif_path,
            flow.csa->lint.to_sarif(path.empty() ? "cmp4.blif" : path));
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
        write_file_atomic(
            race_sarif_path,
            flow.race->lint.to_sarif(path.empty() ? "cmp4.blif" : path));
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
