/// Crash-safe batch front end: map a fleet of circuits with per-job
/// watchdogs, a retry/degradation ladder, optional subprocess isolation,
/// and a resumable run journal.  This is the outer loop the paper's
/// Table 1/2 sweeps (and any large mapping campaign) need: one hanging
/// or crashing circuit no longer loses the run.
///
///   build/examples/soidom_batch [options] [circuit.blif ...]
///
/// Job selection (default: every paper-table circuit):
///   --tables                 all circuits of the paper's four tables
///   --circuits=a,b,c         named benchmark-registry circuits
///   circuit.blif ...         BLIF files (journal key = the path)
///
/// Resilience:
///   --jobs=N                 jobs in flight (default 1; 0 = hardware)
///   --timeout-ms=N           per-attempt wall-clock watchdog (0 = off)
///   --attempts=N             retry budget per job (default 3)
///   --backoff-ms=N           base retry backoff, jittered (default 50)
///   --isolate                fork each attempt into a subprocess
///   --journal=FILE           JSONL journal (default soidom_batch.jsonl)
///   --manifest=FILE          merged manifest
///                            (default soidom_batch.manifest.json)
///   --resume                 skip jobs already terminal in the journal
///   --inject=N/D@SEED        seeded per-(job,attempt) fault injection
///   --allow-failures         exit 0 when all jobs are terminal, even if
///                            some failed or were quarantined (soak mode)
///
/// Flow knobs: --flow=domino|rs|soi --wmax=N --hmax=N
///             --seq-aware --exact --verify=N
///             --csa --csa-margin=X  (static charge-sharing / PBE-safety
///             analysis per job; the retry ladder shrinks its state
///             enumeration before relaxing other limits — docs/CSA.md)
///             --race --race-phases=N --race-teval=X --race-tpre=X
///             --race-skew=X --race-margin=X  (static phase / race
///             analysis per job; the ladder drops the clock windows
///             before relaxing other limits — docs/RACE.md)
///             --prove --prove-budget=N --prove-fail-on=SEV --prove-strict
///             (exact proof tier over the analyzer findings; refuted
///             findings are downgraded before the fail-on gates, and the
///             verdict counts ride the journal / manifest byte-identically
///             across --resume — docs/PROVE.md)
///
/// Exit codes (docs/ERRORS.md): 0 all jobs ok (or terminal with
/// --allow-failures), 7 some jobs failed/quarantined, 6 batch aborted
/// (journal I/O), 130/143 interrupted by SIGINT/SIGTERM, 64 bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "soidom/base/strings.hpp"
#include "soidom/batch/runner.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/benchgen/registry.hpp"

using namespace soidom;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--tables] [--circuits=a,b,c] [--jobs=N] [--timeout-ms=N]\n"
      "          [--attempts=N] [--backoff-ms=N] [--isolate]\n"
      "          [--journal=FILE] [--manifest=FILE] [--resume]\n"
      "          [--inject=N/D@SEED] [--allow-failures]\n"
      "          [--flow=domino|rs|soi] [--wmax=N] [--hmax=N]\n"
      "          [--seq-aware] [--exact] [--verify=N]\n"
      "          [--csa] [--csa-margin=X]\n"
      "          [--race] [--race-phases=N] [--race-teval=X] [--race-tpre=X]\n"
      "          [--race-skew=X] [--race-margin=X]\n"
      "          [--prove] [--prove-budget=N]\n"
      "          [--prove-fail-on=error|warning|info] [--prove-strict]\n"
      "          [circuit.blif ...]\n",
      argv0);
  std::exit(64);
}

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

std::vector<std::string> all_table_circuits() {
  std::vector<std::string> out;
  for (const auto& list : {table1_circuits(), table2_circuits(),
                           table3_circuits(), table4_circuits()}) {
    for (const std::string& name : list) {
      bool seen = false;
      for (const std::string& have : out) seen = seen || have == name;
      if (!seen) out.push_back(name);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BatchOptions options;
  options.journal_path = "soidom_batch.jsonl";
  options.manifest_path = "soidom_batch.manifest.json";
  options.retry.backoff_base_ms = 50;
  bool want_tables = false;
  bool allow_failures = false;
  std::vector<std::string> named;
  std::vector<std::string> files;

  // Strict numeric parses: atoi/atof would turn "--jobs=all" or
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
    if (arg == "--tables") {
      want_tables = true;
    } else if (arg.rfind("--circuits=", 0) == 0) {
      for (auto& name : split_names(arg.substr(11))) named.push_back(name);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      int_flag(arg.substr(7), "--jobs", &options.max_parallel);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      int timeout_ms = 0;
      int_flag(arg.substr(13), "--timeout-ms", &timeout_ms);
      options.job_timeout_ms = timeout_ms;
    } else if (arg.rfind("--attempts=", 0) == 0) {
      int_flag(arg.substr(11), "--attempts", &options.retry.max_attempts);
    } else if (arg.rfind("--backoff-ms=", 0) == 0) {
      int_flag(arg.substr(13), "--backoff-ms",
               &options.retry.backoff_base_ms);
    } else if (arg == "--isolate") {
      options.isolate = true;
    } else if (arg.rfind("--journal=", 0) == 0) {
      options.journal_path = arg.substr(10);
    } else if (arg.rfind("--manifest=", 0) == 0) {
      options.manifest_path = arg.substr(11);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg.rfind("--inject=", 0) == 0) {
      unsigned long long numer = 0;
      unsigned long long denom = 0;
      unsigned long long seed = 0;
      if (std::sscanf(arg.c_str() + 9, "%llu/%llu@%llu", &numer, &denom,
                      &seed) != 3 ||
          denom == 0) {
        usage(argv[0]);
      }
      options.fault = BatchFaultPlan{seed, numer, denom};
    } else if (arg == "--allow-failures") {
      allow_failures = true;
    } else if (arg == "--flow=domino") {
      options.flow.variant = FlowVariant::kDominoMap;
    } else if (arg == "--flow=rs") {
      options.flow.variant = FlowVariant::kRsMap;
    } else if (arg == "--flow=soi") {
      options.flow.variant = FlowVariant::kSoiDominoMap;
    } else if (arg.rfind("--wmax=", 0) == 0) {
      int_flag(arg.substr(7), "--wmax", &options.flow.mapper.max_width);
    } else if (arg.rfind("--hmax=", 0) == 0) {
      int_flag(arg.substr(7), "--hmax", &options.flow.mapper.max_height);
    } else if (arg == "--seq-aware") {
      options.flow.sequence_aware = true;
    } else if (arg == "--exact") {
      options.flow.exact_equivalence = true;
    } else if (arg.rfind("--verify=", 0) == 0) {
      int_flag(arg.substr(9), "--verify", &options.flow.verify_rounds);
    } else if (arg == "--csa") {
      options.flow.csa = true;
    } else if (arg.rfind("--csa-margin=", 0) == 0) {
      options.flow.csa = true;
      double_flag(arg.substr(13), "--csa-margin",
                  &options.flow.csa_options.margin);
    } else if (arg == "--race") {
      options.flow.race = true;
    } else if (arg.rfind("--race-phases=", 0) == 0) {
      options.flow.race = true;
      int_flag(arg.substr(14), "--race-phases",
               &options.flow.race_options.num_phases);
    } else if (arg.rfind("--race-teval=", 0) == 0) {
      options.flow.race = true;
      double_flag(arg.substr(13), "--race-teval",
                  &options.flow.race_options.t_eval);
    } else if (arg.rfind("--race-tpre=", 0) == 0) {
      options.flow.race = true;
      double_flag(arg.substr(12), "--race-tpre",
                  &options.flow.race_options.t_pre);
    } else if (arg.rfind("--race-skew=", 0) == 0) {
      options.flow.race = true;
      double_flag(arg.substr(12), "--race-skew",
                  &options.flow.race_options.skew);
    } else if (arg.rfind("--race-margin=", 0) == 0) {
      options.flow.race = true;
      double_flag(arg.substr(14), "--race-margin",
                  &options.flow.race_options.margin);
    } else if (arg == "--prove") {
      options.flow.prove = true;
    } else if (arg.rfind("--prove-budget=", 0) == 0) {
      options.flow.prove = true;
      int budget = 0;
      int_flag(arg.substr(15), "--prove-budget", &budget);
      options.flow.prove_options.node_budget =
          static_cast<std::uint32_t>(budget);
    } else if (arg == "--prove-fail-on=error") {
      options.flow.prove = true;
      options.flow.prove_fail_on = LintSeverity::kError;
    } else if (arg == "--prove-fail-on=warning") {
      options.flow.prove = true;
      options.flow.prove_fail_on = LintSeverity::kWarning;
    } else if (arg == "--prove-fail-on=info") {
      options.flow.prove = true;
      options.flow.prove_fail_on = LintSeverity::kInfo;
    } else if (arg == "--prove-strict") {
      options.flow.prove = true;
      options.flow.prove_options.fail_on_budget = true;
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  std::vector<BatchJob> jobs;
  if (want_tables || (named.empty() && files.empty())) {
    for (const std::string& name : all_table_circuits()) {
      jobs.push_back(BatchJob{name, ""});
    }
  }
  for (const std::string& name : named) jobs.push_back(BatchJob{name, ""});
  for (const std::string& path : files) jobs.push_back(BatchJob{path, path});

  install_signal_cancel();

  BatchHooks hooks;
  hooks.on_job_done = [](const JobOutcome& out) {
    const JobRecord& r = out.record;
    if (r.status == JobStatus::kOk) {
      std::printf("%-12s ok       attempts=%d ladder=%s  %s\n", r.job.c_str(),
                  r.attempts, r.ladder.c_str(), r.summary.c_str());
    } else {
      std::printf("%-12s %-8s attempts=%d ladder=%s  %s: %s: %s\n",
                  r.job.c_str(), job_status_name(r.status), r.attempts,
                  r.ladder.c_str(), r.stage.c_str(), r.code.c_str(),
                  r.message.c_str());
    }
    std::fflush(stdout);
  };

  BatchResult result;
  try {
    result = run_batch(jobs, options, hooks);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  }

  for (const Diagnostic& warn : result.resume_warnings) {
    std::fprintf(stderr, "warning: %s\n", warn.to_string().c_str());
  }

  int not_run = 0;
  for (const JobOutcome& out : result.jobs) not_run += out.terminal ? 0 : 1;
  std::printf(
      "batch: %zu jobs  ok=%d failed=%d quarantined=%d resumed=%d "
      "not_run=%d\n",
      result.jobs.size(), result.ok, result.failed, result.quarantined,
      result.resumed, not_run);

  if (result.interrupted_by_signal != 0) {
    std::fprintf(stderr, "interrupted by signal %d; journal flushed, rerun "
                         "with --resume to continue\n",
                 result.interrupted_by_signal);
    return signal_exit_code(result.interrupted_by_signal);
  }
  if (result.aborted.has_value()) {
    std::fprintf(stderr, "batch aborted: %s\n",
                 result.aborted->to_string().c_str());
    return 6;
  }
  if (!options.manifest_path.empty()) {
    std::printf("wrote %s\n", options.manifest_path.c_str());
  }
  if (allow_failures) return not_run == 0 ? 0 : 7;
  return (result.failed == 0 && result.quarantined == 0 && not_run == 0) ? 0
                                                                         : 7;
}
