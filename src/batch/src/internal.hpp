/// \file internal.hpp
/// Batch-runner internals shared between runner.cpp (scheduling, ladder),
/// attempt.cpp (one attempt in this process) and isolate.cpp (one attempt
/// in a subprocess).  Not installed.
///
/// An attempt's result is the JobRecord the runner journals for it: job,
/// attempts, status kOk or kFailed, and either the summary and counts or
/// the failing diagnostic's code, stage and message.  The runner adds the
/// ladder step and the timing, and decides retry and quarantine.
#pragma once

#include <string>

#include "soidom/batch/runner.hpp"

namespace soidom {
namespace batch_detail {

/// Run one attempt in this process: hook, per-attempt fault injector,
/// then the guarded flow.  Lint and analyzer counts are filled only when
/// the attempt succeeds; proof counts whenever the prove stage ran.
/// Never throws.
JobRecord execute_attempt_inprocess(const BatchJob& job,
                                    const FlowOptions& effective,
                                    const GuardOptions& gopts,
                                    const BatchFaultPlan& fault, int attempt,
                                    const BatchHooks& hooks);

/// Fork and run the attempt in a child process, which sends its record
/// back as one job_record_fields_json line.  The parent enforces
/// `timeout_ms` (SIGKILL on expiry) and converts a crashed / killed /
/// unreadable child into a quarantine-class failed record.  It polls
/// `gopts.cancel`, so a signal to the parent tears the child down
/// promptly.  Never throws (a failed fork is a failed record, not an
/// exception).
JobRecord execute_attempt_isolated(const BatchJob& job,
                                   const FlowOptions& effective,
                                   const GuardOptions& gopts,
                                   const BatchFaultPlan& fault, int attempt,
                                   const BatchHooks& hooks,
                                   std::int64_t timeout_ms);

/// A failed attempt's record: `d`'s code, stage and message.
JobRecord failed_record(const Diagnostic& d);

/// Deterministic per-(job, attempt) seed derivation.
std::uint64_t mix_seed(std::uint64_t seed, const std::string& job,
                       int attempt);

}  // namespace batch_detail
}  // namespace soidom
