/// \file internal.hpp
/// Batch-runner internals shared between runner.cpp (scheduling, ladder)
/// and isolate.cpp (subprocess execution).  Not installed.
#pragma once

#include <optional>
#include <string>

#include "soidom/batch/runner.hpp"

namespace soidom {
namespace batch_detail {

/// What one attempt produced, independent of where it ran.
struct AttemptOutcome {
  bool ok = false;
  std::optional<Diagnostic> diagnostic;
  std::string summary;
  int lint_errors = 0;
  int lint_warnings = 0;
  /// Findings from the optional analyzer stages (CSA + race lint).
  int analyzer_errors = 0;
  int analyzer_warnings = 0;
  /// Proof-tier verdict counts when the flow ran with FlowOptions::prove.
  int prove_confirmed = 0;
  int prove_refuted = 0;
  int prove_unknown = 0;
};

/// Run one attempt in this process: hook, per-attempt fault injector,
/// then the guarded flow.  Never throws.
AttemptOutcome execute_attempt_inprocess(const BatchJob& job,
                                         const FlowOptions& effective,
                                         const GuardOptions& gopts,
                                         const BatchFaultPlan& fault,
                                         int attempt, const BatchHooks& hooks);

/// Fork and run the attempt in a child process.  The parent enforces
/// `timeout_ms` (SIGKILL on expiry) and converts a crashed / killed /
/// unreadable child into a quarantine-class AttemptOutcome.  It polls
/// `gopts.cancel`, so a signal to the parent tears the child down
/// promptly.  Never throws (a failed fork is an AttemptOutcome, not an
/// exception).
AttemptOutcome execute_attempt_isolated(const BatchJob& job,
                                        const FlowOptions& effective,
                                        const GuardOptions& gopts,
                                        const BatchFaultPlan& fault,
                                        int attempt, const BatchHooks& hooks,
                                        std::int64_t timeout_ms);

/// Wire format used on the child->parent pipe (one line, json_escape'd
/// fields, tab separated).  Exposed for tests.
std::string encode_attempt_outcome(const AttemptOutcome& outcome);
std::optional<AttemptOutcome> decode_attempt_outcome(const std::string& line);

/// Deterministic per-(job, attempt) seed derivation.
std::uint64_t mix_seed(std::uint64_t seed, const std::string& job,
                       int attempt);

}  // namespace batch_detail
}  // namespace soidom
