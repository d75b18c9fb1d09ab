#include "soidom/batch/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
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

using batch_detail::AttemptOutcome;
using batch_detail::execute_attempt_inprocess;
using batch_detail::execute_attempt_isolated;
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

/// Failures no ladder step can fix: don't burn retries on them.
bool retryable(ErrorCode code) {
  return code != ErrorCode::kParseError && code != ErrorCode::kInvalidOptions;
}

/// One background thread that (a) cancels any armed attempt whose
/// wall-clock deadline passed and (b) propagates a received SIGINT /
/// SIGTERM to every in-flight attempt's CancelToken.  Runs on a 20 ms
/// tick — coarse, but watchdog budgets are tens of milliseconds at the
/// finest.
class Watchdog {
 public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  int arm(std::optional<SteadyClock::time_point> deadline, CancelToken token) {
    std::lock_guard<std::mutex> lock(mu_);
    const int id = next_id_++;
    entries_.emplace(id, Entry{deadline, std::move(token), false});
    return id;
  }

  /// True when the wall-clock deadline (not a signal) fired this entry.
  bool fired_and_disarm(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    const bool fired = it != entries_.end() && it->second.fired;
    if (it != entries_.end()) entries_.erase(it);
    return fired;
  }

 private:
  struct Entry {
    std::optional<SteadyClock::time_point> deadline;
    CancelToken token;
    bool fired;
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      const auto now = SteadyClock::now();
      const bool signalled = signal_received() != 0;
      for (auto& [id, entry] : entries_) {
        if (signalled) entry.token.request_cancel();
        if (!entry.fired && entry.deadline && now >= *entry.deadline) {
          entry.fired = true;
          entry.token.request_cancel();
        }
      }
      cv_.wait_for(lock, std::chrono::milliseconds(20));
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<int, Entry> entries_;
  int next_id_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

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

/// Serialized, abort-on-failure journal access shared by the workers.
class SharedJournal {
 public:
  SharedJournal(std::optional<RunJournal>& journal, std::atomic<bool>& abort,
                Diagnostic& abort_diag, std::mutex& mu)
      : journal_(journal), abort_(abort), abort_diag_(abort_diag), mu_(mu) {}

  /// Run `fn(journal)` under the lock; on a write failure records the
  /// abort diagnostic once and returns false ever after.
  template <typename Fn>
  bool append(Fn&& fn) {
    if (!journal_.has_value()) return true;
    std::lock_guard<std::mutex> lock(mu_);
    if (abort_.load(std::memory_order_relaxed)) return false;
    try {
      fn(*journal_);
      return true;
    } catch (const GuardError& e) {
      abort_diag_ = e.to_diagnostic();
    } catch (const Error& e) {
      abort_diag_ = Diagnostic{ErrorCode::kInternal, FlowStage::kBatchJournal,
                               e.what(),
                               {}};
    }
    abort_.store(true, std::memory_order_relaxed);
    return false;
  }

  bool aborted() const { return abort_.load(std::memory_order_relaxed); }

 private:
  std::optional<RunJournal>& journal_;
  std::atomic<bool>& abort_;
  Diagnostic& abort_diag_;
  std::mutex& mu_;
};

/// Drive one job through the retry/degradation ladder to a terminal
/// state (or bail without one on signal / journal abort, leaving the
/// job for --resume).
void run_one_job(const BatchJob& job, const BatchOptions& options,
                 const BatchHooks& hooks, Watchdog& watchdog,
                 SharedJournal& journal, JobOutcome& out) {
  const auto job_start = SteadyClock::now();
  JobRecord& rec = out.record;

  for (int attempt = 1; attempt <= options.retry.max_attempts; ++attempt) {
    if (signal_received() != 0 || journal.aborted()) return;
    if (attempt > 1 && options.retry.backoff_base_ms > 0) {
      backoff_sleep(job.name, attempt, options.retry);
      if (signal_received() != 0) return;
    }

    const LadderStep step = ladder_step_for_attempt(attempt);
    const FlowOptions effective = apply_ladder(options.flow, step);
    const auto attempt_start = SteadyClock::now();

    AttemptOutcome ao;
    bool watchdog_fired = false;
    try {
      SOIDOM_FAULT_PROBE(FlowStage::kBatchWatchdog);

      GuardOptions gopts;
      gopts.budget = options.budget;
      CancelToken token;
      gopts.cancel = token;
      std::optional<SteadyClock::time_point> deadline;
      if (options.job_timeout_ms > 0) {
        deadline = attempt_start +
                   std::chrono::milliseconds(options.job_timeout_ms);
        gopts.deadline = Deadline::after_ms(options.job_timeout_ms);
      }
      if (options.isolate) {
        SOIDOM_FAULT_PROBE(FlowStage::kBatchSpawn);
        // The parent enforces the timeout itself (SIGKILL); the armed
        // entry only propagates signals to the in-flight child.
        const int id = watchdog.arm(std::nullopt, token);
        ao = execute_attempt_isolated(job, effective, gopts, options.fault,
                                      attempt, hooks, options.job_timeout_ms,
                                      token);
        (void)watchdog.fired_and_disarm(id);
      } else {
        const int id = watchdog.arm(deadline, token);
        ao = execute_attempt_inprocess(job, effective, gopts, options.fault,
                                       attempt, hooks);
        watchdog_fired = watchdog.fired_and_disarm(id);
      }
    } catch (const GuardError& e) {
      // An injected kBatchWatchdog / kBatchSpawn probe: a synthetic
      // crash-class attempt failure, eligible for retry.
      ao.ok = false;
      ao.diagnostic = e.to_diagnostic();
    }

    AttemptRecord ar;
    ar.attempt = attempt;
    ar.ladder = ladder_step_name(step);
    ar.ok = ao.ok;
    ar.diagnostic = ao.diagnostic;
    ar.ms = elapsed_ms(attempt_start);
    if (watchdog_fired && ar.diagnostic.has_value()) {
      ar.diagnostic->context.push_back(
          format("watchdog cancelled after %lld ms",
                 static_cast<long long>(options.job_timeout_ms)));
    }
    const bool journal_ok =
        journal.append([&](RunJournal& j) { j.append_attempt(job.name, ar); });
    out.attempts.push_back(ar);
    if (!journal_ok) return;  // batch aborting; no terminal record

    if (ao.ok) {
      rec.status = JobStatus::kOk;
      rec.attempts = attempt;
      rec.ladder = ar.ladder;
      rec.summary = ao.summary;
      rec.lint_errors = ao.lint_errors;
      rec.lint_warnings = ao.lint_warnings;
      rec.analyzer_errors = ao.analyzer_errors;
      rec.analyzer_warnings = ao.analyzer_warnings;
      rec.prove_confirmed = ao.prove_confirmed;
      rec.prove_refuted = ao.prove_refuted;
      rec.prove_unknown = ao.prove_unknown;
      rec.ms = elapsed_ms(job_start);
      if (journal.append([&](RunJournal& j) { j.append_done(rec); })) {
        out.terminal = true;
      }
      return;
    }

    // A signal produces the same kCancelled shape as the watchdog; an
    // interrupted job must NOT reach a terminal record, so it reruns
    // on --resume.
    if (signal_received() != 0) return;

    const Diagnostic diag = ao.diagnostic.value_or(Diagnostic{
        ErrorCode::kInternal, FlowStage::kNone, "attempt failed", {}});
    if (retryable(diag.code) && attempt < options.retry.max_attempts) {
      continue;
    }
    rec.status = retryable(diag.code) && quarantine_class(diag.code)
                     ? JobStatus::kQuarantined
                     : JobStatus::kFailed;
    rec.attempts = attempt;
    rec.ladder = ar.ladder;
    // Proof verdicts survive into failed records: a confirmed finding is
    // usually the reason the gate failed, and a refutation count of zero
    // vs "prove never ran" matters for triage.
    rec.prove_confirmed = ao.prove_confirmed;
    rec.prove_refuted = ao.prove_refuted;
    rec.prove_unknown = ao.prove_unknown;
    rec.code = error_code_name(diag.code);
    rec.stage = flow_stage_name(diag.stage);
    rec.message = diag.message;
    rec.ms = elapsed_ms(job_start);
    if (journal.append([&](RunJournal& j) { j.append_done(rec); })) {
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
    case LadderStep::kShrinkRace: return "shrink_race";
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
    case 5: return LadderStep::kShrinkRace;
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
  if (step >= LadderStep::kShrinkRace) {
    effective.race_options.t_eval = 0.0;
    effective.race_options.t_pre = 0.0;
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

  std::optional<RunJournal> journal;
  std::atomic<bool> abort{false};
  Diagnostic abort_diag;
  std::mutex journal_mu;
  if (!options.journal_path.empty()) {
    try {
      journal.emplace(options.journal_path, options.journal_durable);
      journal->append_header(jobs.size(), options.isolate,
                             options.retry.max_attempts);
    } catch (const GuardError& e) {
      result.aborted = e.to_diagnostic();
      return result;
    } catch (const Error& e) {
      result.aborted = Diagnostic{ErrorCode::kInternal,
                                  FlowStage::kBatchJournal, e.what(),
                                  {}};
      return result;
    }
  }
  SharedJournal shared(journal, abort, abort_diag, journal_mu);

  {
    Watchdog watchdog;
    ThreadPool pool(options.max_parallel == 0
                        ? 0u
                        : static_cast<unsigned>(options.max_parallel));
    pool.run(jobs.size(), [&](std::size_t i, unsigned) {
      JobOutcome& out = result.jobs[i];
      const auto it = prior.find(jobs[i].name);
      if (it != prior.end()) {
        out.record = it->second;
        out.resumed = true;
        out.terminal = true;
        return;
      }
      if (shared.aborted() || signal_received() != 0) return;
      run_one_job(jobs[i], options, hooks, watchdog, shared, out);
      if (out.terminal && hooks.on_job_done) hooks.on_job_done(out);
    });
  }

  for (const JobOutcome& out : result.jobs) {
    if (out.resumed) ++result.resumed;
    if (!out.terminal) continue;
    switch (out.record.status) {
      case JobStatus::kOk: ++result.ok; break;
      case JobStatus::kFailed: ++result.failed; break;
      case JobStatus::kQuarantined: ++result.quarantined; break;
    }
  }

  if (abort.load()) {
    result.aborted = abort_diag;
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
    } catch (const GuardError& e) {
      result.aborted = e.to_diagnostic();
    } catch (const Error& e) {
      result.aborted = Diagnostic{ErrorCode::kInternal,
                                  FlowStage::kBatchJournal, e.what(),
                                  {}};
    }
  }
  return result;
}

}  // namespace soidom
