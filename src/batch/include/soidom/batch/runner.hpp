/// \file runner.hpp
/// Resilient multi-circuit batch runner over the guarded flow.
///
/// Every front end so far maps one circuit in-process; a single hang,
/// BDD blow-up, or crash loses the whole run.  run_batch schedules many
/// run_flow_guarded jobs over a base/parallel.hpp ThreadPool and makes
/// the campaign survive the misbehavior of any one of them:
///
///  * watchdog  — a dedicated thread cancels (via CancelToken) any job
///    that exceeds its wall-clock budget, and propagates SIGINT/SIGTERM
///    to every in-flight job;
///  * retries   — failed attempts back off exponentially with seeded,
///    deterministic jitter and walk an explicit degradation ladder
///    (drop exact BDD equivalence -> shrink verify rounds -> shrink the
///    csa / race analyses -> relax Wmax/Hmax), every step recorded;
///  * isolation — opt-in: each attempt forks into a subprocess, so a
///    segfault or runaway loop is contained and the job quarantined
///    instead of killing the batch;
///  * journal   — every attempt and terminal state is appended to a
///    crash-safe JSONL journal (journal.hpp); --resume skips completed
///    jobs and the merged manifest is byte-identical to an
///    uninterrupted run.
///
/// Determinism: job outcomes never depend on scheduling.  Backoff
/// jitter and fault-injection streams are seeded per (job, attempt),
/// and the manifest excludes wall-clock fields, so any interleaving of
/// workers — or a kill + resume — converges to the same bytes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "soidom/batch/journal.hpp"
#include "soidom/core/flow.hpp"

namespace soidom {

/// One unit of work.  `name` is the unique journal key.  When
/// `blif_path` is empty the name is looked up in the benchmark registry
/// (benchgen/registry.hpp); otherwise the BLIF file is parsed.
struct BatchJob {
  std::string name;
  std::string blif_path;
};

/// Exponential backoff with deterministic jitter.  The delay before
/// retry n (n >= 2) is  base * factor^(n-2) * u  with u drawn uniformly
/// from [0.5, 1.0) out of a stream seeded by (jitter_seed, job name,
/// n), so reruns reproduce the same schedule.
struct RetryPolicy {
  int max_attempts = 3;        ///< total attempts per job (>= 1)
  int backoff_base_ms = 0;     ///< 0 disables the backoff sleep
  double backoff_factor = 2.0;
  std::uint64_t jitter_seed = 0xB0FF;
};

/// Degradation-ladder steps, cumulative: step n applies every override
/// of the steps before it.  Attempt 1 runs kFull; each retry escalates
/// one step and stays at kRelaxLimits once reached.
enum class LadderStep : std::uint8_t {
  kFull,          ///< the caller's FlowOptions verbatim
  kDropExact,     ///< exact_equivalence = false
  kShrinkVerify,  ///< verify_rounds clamped to 2
  kShrinkCsa,     ///< csa_options.max_states clamped to 256 (the CSA
                  ///< bound degrades to its truncation fallback sooner)
  kShrinkRace,    ///< race_options windows unconstrained (t_eval/t_pre
                  ///< = 0: the structural race rules still run, the
                  ///< window-dependent ones are dropped)
  kRelaxLimits,   ///< Wmax/Hmax doubled (capped at 64), like the
                  ///< guarded flow's infeasible-limit retry
};

const char* ladder_step_name(LadderStep step);

/// The ladder step attempt `attempt` (1-based) runs at.
LadderStep ladder_step_for_attempt(int attempt);

/// Apply `step` (and all prior steps) to a copy of the base options.
FlowOptions apply_ladder(const FlowOptions& base, LadderStep step);

/// Deterministic per-(job, attempt) fault plan for soak testing: each
/// attempt installs FaultInjector::random(mix(seed, job, attempt),
/// numer, denom) around its flow.  denom == 0 disables injection.
struct BatchFaultPlan {
  std::uint64_t seed = 0;
  std::uint64_t numer = 0;
  std::uint64_t denom = 0;
};

struct BatchOptions {
  FlowOptions flow;            ///< base options for every job
  /// Per-flow resource ceilings (deadline/cancel fields are managed by
  /// the runner; only `budget` is taken from here).
  ResourceBudget budget;
  int max_parallel = 1;        ///< jobs in flight; 0 = hardware threads
  std::int64_t job_timeout_ms = 0;  ///< per-attempt watchdog; 0 = none
  RetryPolicy retry;
  bool isolate = false;        ///< fork each attempt into a subprocess
  std::string journal_path;    ///< empty: no journal, no resume
  bool resume = false;         ///< skip jobs with terminal records
  bool journal_durable = true; ///< fsync per journal append
  std::string manifest_path;   ///< empty: no manifest written
  BatchFaultPlan fault;
};

/// In-memory outcome of one job (mirrors the journal's records).
struct JobOutcome {
  JobRecord record;
  std::vector<AttemptRecord> attempts;
  bool resumed = false;   ///< satisfied by a prior run's journal record
  bool terminal = false;  ///< reached ok/failed/quarantined (vs. skipped
                          ///< after a signal or batch abort)
};

struct BatchResult {
  std::vector<JobOutcome> jobs;   ///< in input order
  int ok = 0;
  int failed = 0;
  int quarantined = 0;
  int resumed = 0;
  /// Set when the batch itself aborted (journal I/O failure) or was
  /// interrupted by a signal; jobs without terminal records were not
  /// run and a later --resume will pick them up.
  std::optional<Diagnostic> aborted;
  int interrupted_by_signal = 0;  ///< signum, or 0
  /// Corrupt or torn journal records skipped while loading the prior
  /// journal for --resume (journal.hpp JournalLoad::warnings).  The jobs
  /// they described simply rerun; the warnings exist so an operator can
  /// see that the journal was damaged.
  std::vector<Diagnostic> resume_warnings;

  bool complete() const { return !aborted && interrupted_by_signal == 0; }
};

/// Test / progress seams.  on_attempt_start runs on the job's worker
/// thread (inside the child in isolate mode) before the flow; tests use
/// it to simulate crashes and hangs.  on_job_done runs on the worker
/// that finished the job (journal already updated).
struct BatchHooks {
  std::function<void(const BatchJob&, int attempt)> on_attempt_start;
  std::function<void(const JobOutcome&)> on_job_done;
};

/// Run every job to a terminal state.  Throws soidom::Error only for
/// caller mistakes (duplicate job names, bad policy values); everything
/// else — including a journal that cannot be opened — is reported via
/// BatchResult::aborted.
BatchResult run_batch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options,
                      const BatchHooks& hooks = {});

}  // namespace soidom
