#include "soidom/batch/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "internal.hpp"
#include "soidom/base/parallel.hpp"
#include "soidom/base/rng.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/guard/fault.hpp"

namespace soidom {
namespace {

using batch_detail::execute_attempt_inprocess;
using batch_detail::execute_attempt_isolated;
using batch_detail::failed_record;
using batch_detail::mix_seed;
using SteadyClock = std::chrono::steady_clock;

double elapsed_ms(SteadyClock::time_point since) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - since)
      .count();
}

/// Crash-class failures (hang, cancellation, internal error, injected
/// fault) quarantine after the retry budget; deterministic failures
/// (verification, budget, infeasible) report as plain failures.
bool quarantine_class(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInternal:
    case ErrorCode::kCancelled:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kFaultInjected:
      return true;
    default:
      return false;
  }
}

/// Failures no ladder step can fix: don't burn retries on them.  A
/// verification failure is a verdict on the circuit (a failed
/// equivalence check or an analyzer fail-on gate); rerunning with
/// weaker checks could only hide it.
bool retryable(ErrorCode code) {
  return code != ErrorCode::kParseError &&
         code != ErrorCode::kInvalidOptions &&
         code != ErrorCode::kVerificationFailed;
}

/// Deterministically jittered exponential backoff, interruptible by a
/// signal (10 ms slices).
void backoff_sleep(const std::string& job, int attempt,
                   const RetryPolicy& policy) {
  Rng rng(mix_seed(policy.jitter_seed, job, attempt));
  const double scale =
      std::pow(policy.backoff_factor, static_cast<double>(attempt - 2));
  const double jitter = 0.5 + 0.5 * rng.next_double();
  const auto total = std::chrono::milliseconds(static_cast<std::int64_t>(
      std::llround(policy.backoff_base_ms * scale * jitter)));
  const auto until = SteadyClock::now() + total;
  while (SteadyClock::now() < until && signal_received() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// A journal or manifest write failure, attributed to kBatchJournal
/// unless the failure carries its own attribution (an injected fault).
Diagnostic io_failure(const Error& e) {
  if (const auto* guard = dynamic_cast<const GuardError*>(&e)) {
    return guard->to_diagnostic();
  }
  return Diagnostic{ErrorCode::kInternal, FlowStage::kBatchJournal, e.what(),
                    {}};
}

/// Serialized, abort-on-failure journal access shared by the workers.
struct SharedJournal {
  std::optional<RunJournal> journal;  ///< empty: no journal
  std::atomic<bool> abort{false};
  Diagnostic abort_diag;  ///< the write failure, once `abort` is set
  std::mutex mu;

  /// Run `fn(journal)` under the lock; on a write failure records the
  /// abort diagnostic once and returns false ever after.
  template <typename Fn>
  bool append(Fn&& fn) {
    if (!journal.has_value()) return true;
    std::lock_guard<std::mutex> lock(mu);
    if (abort.load(std::memory_order_relaxed)) return false;
    try {
      fn(*journal);
      return true;
    } catch (const Error& e) {
      abort_diag = io_failure(e);
    }
    abort.store(true, std::memory_order_relaxed);
    return false;
  }

  bool aborted() const { return abort.load(std::memory_order_relaxed); }
};

/// Drive one job through the retry/degradation ladder to a terminal
/// state (or bail without one on signal / journal abort, leaving the
/// job for --resume).
void run_one_job(const BatchJob& job, const BatchOptions& options,
                 const BatchHooks& hooks, SharedJournal& journal,
                 JobOutcome& out) {
  const auto job_start = SteadyClock::now();

  for (int attempt = 1; attempt <= options.retry.max_attempts; ++attempt) {
    if (signal_received() != 0 || journal.aborted()) return;
    if (attempt > 1 && options.retry.backoff_base_ms > 0) {
      backoff_sleep(job.name, attempt, options.retry);
      if (signal_received() != 0) return;
    }

    const LadderStep step = ladder_step_for_attempt(attempt);
    const FlowOptions effective = apply_ladder(options.flow, step);
    const auto attempt_start = SteadyClock::now();

    JobRecord rec;
    try {
      SOIDOM_FAULT_PROBE(FlowStage::kBatchWatchdog);

      // The guard enforces the deadline at its checkpoints, and the
      // SIGINT/SIGTERM handler trips the process-wide token itself.
      GuardOptions gopts;
      gopts.budget = options.budget;
      gopts.cancel = signal_cancel_token();
      if (options.job_timeout_ms > 0) {
        gopts.deadline = Deadline::after_ms(options.job_timeout_ms);
      }
      if (options.isolate) {
        SOIDOM_FAULT_PROBE(FlowStage::kBatchSpawn);
        rec = execute_attempt_isolated(job, effective, gopts, options.fault,
                                       attempt, hooks, options.job_timeout_ms);
      } else {
        rec = execute_attempt_inprocess(job, effective, gopts, options.fault,
                                        attempt, hooks);
      }
    } catch (const GuardError& e) {
      // An injected kBatchWatchdog / kBatchSpawn probe: a synthetic
      // crash-class attempt failure, eligible for retry.
      rec = failed_record(e.to_diagnostic());
    }
    rec.job = job.name;
    rec.attempts = attempt;
    rec.ladder = ladder_step_name(step);

    AttemptRecord ar;
    ar.attempt = attempt;
    ar.ladder = rec.ladder;
    ar.ok = rec.status == JobStatus::kOk;
    if (!ar.ok) {
      ar.diagnostic = Diagnostic{
          error_code_from_name(rec.code).value_or(ErrorCode::kInternal),
          flow_stage_from_name(rec.stage).value_or(FlowStage::kNone),
          rec.message,
          {}};
    }
    ar.ms = elapsed_ms(attempt_start);
    const bool journal_ok =
        journal.append([&](RunJournal& j) { j.append_attempt(job.name, ar); });
    out.attempts.push_back(ar);
    if (!journal_ok) return;  // batch aborting; no terminal record

    if (!ar.ok) {
      // An interrupted job must NOT reach a terminal record, so it
      // reruns on --resume.
      if (signal_received() != 0) return;
      const ErrorCode code = ar.diagnostic->code;
      if (retryable(code) && attempt < options.retry.max_attempts) continue;
      if (quarantine_class(code)) rec.status = JobStatus::kQuarantined;
    }
    rec.ms = elapsed_ms(job_start);
    out.record = std::move(rec);
    if (journal.append([&](RunJournal& j) { j.append_done(out.record); })) {
      out.terminal = true;
    }
    return;
  }
}

}  // namespace

const char* ladder_step_name(LadderStep step) {
  switch (step) {
    case LadderStep::kFull: return "full";
    case LadderStep::kDropExact: return "drop_exact";
    case LadderStep::kShrinkVerify: return "shrink_verify";
    case LadderStep::kShrinkCsa: return "shrink_csa";
    case LadderStep::kRelaxLimits: return "relax_limits";
  }
  return "unknown";
}

LadderStep ladder_step_for_attempt(int attempt) {
  switch (attempt) {
    case 1: return LadderStep::kFull;
    case 2: return LadderStep::kDropExact;
    case 3: return LadderStep::kShrinkVerify;
    case 4: return LadderStep::kShrinkCsa;
    default: return LadderStep::kRelaxLimits;
  }
}

FlowOptions apply_ladder(const FlowOptions& base, LadderStep step) {
  FlowOptions effective = base;
  if (step >= LadderStep::kDropExact) effective.exact_equivalence = false;
  if (step >= LadderStep::kShrinkVerify) {
    effective.verify_rounds = std::min(effective.verify_rounds, 2);
  }
  if (step >= LadderStep::kShrinkCsa) {
    effective.csa_options.max_states =
        std::min(effective.csa_options.max_states, 256L);
  }
  if (step >= LadderStep::kRelaxLimits) {
    effective.mapper.max_width =
        std::min(64, std::max(2, effective.mapper.max_width * 2));
    effective.mapper.max_height =
        std::min(64, std::max(2, effective.mapper.max_height * 2));
  }
  return effective;
}

BatchResult run_batch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options, const BatchHooks& hooks) {
  SOIDOM_REQUIRE(options.retry.max_attempts >= 1,
                 format("RetryPolicy.max_attempts = %d is invalid "
                        "(need max_attempts >= 1)",
                        options.retry.max_attempts));
  SOIDOM_REQUIRE(options.retry.backoff_base_ms >= 0,
                 format("RetryPolicy.backoff_base_ms = %d is invalid "
                        "(need backoff_base_ms >= 0)",
                        options.retry.backoff_base_ms));
  SOIDOM_REQUIRE(options.retry.backoff_factor >= 1.0,
                 format("RetryPolicy.backoff_factor = %g is invalid "
                        "(need backoff_factor >= 1)",
                        options.retry.backoff_factor));
  SOIDOM_REQUIRE(options.max_parallel >= 0,
                 format("BatchOptions.max_parallel = %d is invalid "
                        "(need max_parallel >= 0)",
                        options.max_parallel));
  SOIDOM_REQUIRE(!(options.resume && options.journal_path.empty()),
                 "BatchOptions.resume requires a journal_path");
  {
    std::set<std::string> names;
    for (const BatchJob& job : jobs) {
      SOIDOM_REQUIRE(!job.name.empty(), "BatchJob.name must not be empty");
      SOIDOM_REQUIRE(names.insert(job.name).second,
                     format("duplicate batch job '%s'", job.name.c_str()));
    }
  }

  BatchResult result;
  result.jobs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    result.jobs[i].record.job = jobs[i].name;
  }

  std::map<std::string, JobRecord> prior;
  if (options.resume) {
    JournalLoad loaded = load_journal_checked(options.journal_path);
    prior = std::move(loaded.records);
    result.resume_warnings = std::move(loaded.warnings);
  }

  SharedJournal shared;
  if (!options.journal_path.empty()) {
    try {
      shared.journal.emplace(options.journal_path);
      shared.journal->append_header(jobs.size(), options.isolate,
                                    options.retry.max_attempts);
    } catch (const Error& e) {
      result.aborted = io_failure(e);
      return result;
    }
  }

  const auto run_job = [&](std::size_t i, unsigned) {
    JobOutcome& out = result.jobs[i];
    const auto it = prior.find(jobs[i].name);
    if (it != prior.end()) {
      out.record = it->second;
      out.resumed = true;
      out.terminal = true;
      return;
    }
    if (shared.aborted() || signal_received() != 0) return;
    run_one_job(jobs[i], options, hooks, shared, out);
    if (out.terminal && hooks.on_job_done) hooks.on_job_done(out);
  };
  parallel_for(jobs.size(), static_cast<unsigned>(options.max_parallel),
               run_job);

  for (const JobOutcome& out : result.jobs) {
    if (out.resumed) ++result.resumed;
    if (!out.terminal) continue;
    switch (out.record.status) {
      case JobStatus::kOk: ++result.ok; break;
      case JobStatus::kFailed: ++result.failed; break;
      case JobStatus::kQuarantined: ++result.quarantined; break;
    }
  }

  if (shared.aborted()) {
    result.aborted = shared.abort_diag;
    return result;
  }
  result.interrupted_by_signal = signal_received();
  if (result.interrupted_by_signal != 0) return result;

  if (!options.manifest_path.empty()) {
    std::map<std::string, JobRecord> merged = prior;
    for (const JobOutcome& out : result.jobs) {
      if (out.terminal) merged[out.record.job] = out.record;
    }
    try {
      write_manifest(merged, options.manifest_path);
    } catch (const Error& e) {
      result.aborted = io_failure(e);
    }
  }
  return result;
}

}  // namespace soidom
