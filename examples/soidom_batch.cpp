/// The batch front end: map a fleet of circuits with per-attempt
/// deadlines, a retry/degradation ladder, optional subprocess isolation,
/// and a resumable run journal.  Each job runs on one thread, --jobs of
/// them at a time.  This is the outer loop the paper's Table I-IV sweeps
/// (and any large mapping campaign) need: one hanging or crashing
/// circuit no longer loses the run.  `--seq-aware --exact` runs
/// asic_flow's mapping options over the same circuits.
///
///   build/examples/soidom_batch [flags] [circuit.blif ...]
///
/// Job selection (default: every paper-table circuit):
///   --tables                 all circuits of the paper's four tables
///   --circuits=a,b,c         named benchmark-registry circuits
///   circuit.blif ...         BLIF files (journal key = the path)
///
/// Its own flags:
///   --allow-failures         exit 0 when all jobs are terminal, even if
///                            some failed or were quarantined (soak mode)
///
/// It takes the batch-run group of soidom/batch/flags.hpp, which nests the
/// job and flow groups.  Its defaults: --backoff-ms=50,
/// --journal=soidom_batch.jsonl, --manifest=soidom_batch.manifest.json.
/// The retry ladder shrinks the csa state enumeration before relaxing
/// the shape limits (docs/CSA.md); a verification failure, such as an
/// analyzer fail-on gate, is final and never retried.  Proof verdict
/// counts ride the journal and manifest byte-identically across
/// --resume and --isolate (docs/PROVE.md).
///
/// Exit codes (docs/ERRORS.md): 0 all jobs ok (or terminal with
/// --allow-failures), 7 some jobs failed/quarantined, 6 batch aborted
/// (journal I/O), 130/143 interrupted by SIGINT/SIGTERM, 64 bad usage.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "soidom/base/strings.hpp"
#include "soidom/batch/flags.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/benchgen/registry.hpp"

using namespace soidom;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [flags] [circuit.blif ...]\n"
               "  [--tables] [--circuits=a,b,c] [--allow-failures]\n%s%s%s",
               argv0, kBatchRunFlagsUsage, kJobFlagsUsage, kFlowFlagsUsage);
  std::exit(64);
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

  try {
    for (int i = 1; i < argc; ++i) {
      const Flag flag(argv[i]);
      if (parse_batch_run_flag(flag, options)) continue;
      if (flag.is("--tables")) {
        want_tables = true;
      } else if (flag.has("--circuits")) {
        for (const std::string_view name : split(flag.value(), ",")) {
          named.emplace_back(name);
        }
      } else if (flag.is("--allow-failures")) {
        allow_failures = true;
      } else if (starts_with(argv[i], "--")) {
        usage(argv[0]);
      } else {
        files.emplace_back(argv[i]);
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  }

  std::vector<BatchJob> jobs;
  if (want_tables || (named.empty() && files.empty())) {
    for (const std::string& name : paper_table_circuits()) {
      jobs.push_back(BatchJob{name, ""});
    }
  }
  for (const std::string& name : named) jobs.push_back(BatchJob{name, ""});
  for (const std::string& path : files) jobs.push_back(BatchJob{path, path});

  install_signal_cancel();

  BatchHooks hooks;
  hooks.on_job_done = [](const JobOutcome& out) {
    std::printf("%s\n", job_record_line(out.record).c_str());
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
