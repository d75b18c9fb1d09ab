#include <exception>

#include "internal.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/guard/fault.hpp"

namespace soidom {
namespace batch_detail {

std::uint64_t mix_seed(std::uint64_t seed, const std::string& job,
                       int attempt) {
  // FNV-1a over the job name, then splitmix64-style finalization with
  // the caller seed and attempt folded in.  The offset basis is
  // historical, one digit short of FNV's 14695981039346656037; it stays
  // so that every --inject stream and backoff schedule is unchanged.
  std::uint64_t z = fnv1a64(job, 1469598103934665603ull) ^ seed ^
                    (static_cast<std::uint64_t>(attempt) *
                     0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

JobRecord failed_record(const Diagnostic& d) {
  JobRecord out;
  out.status = JobStatus::kFailed;
  out.code = error_code_name(d.code);
  out.stage = flow_stage_name(d.stage);
  out.message = d.message;
  return out;
}

JobRecord execute_attempt_inprocess(const BatchJob& job,
                                    const FlowOptions& effective,
                                    const GuardOptions& gopts,
                                    const BatchFaultPlan& fault, int attempt,
                                    const BatchHooks& hooks) {
  JobRecord out;
  try {
    if (hooks.on_attempt_start) hooks.on_attempt_start(job, attempt);

    std::optional<FaultInjector> injector;
    std::optional<FaultScope> fault_scope;
    if (fault.denom != 0) {
      injector = FaultInjector::random(mix_seed(fault.seed, job.name, attempt),
                                       fault.numer, fault.denom);
      fault_scope.emplace(*injector);
    }

    FlowOutcome flow;
    if (job.blif_path.empty()) {
      flow = run_flow_guarded(build_benchmark(job.name), effective, gopts);
    } else {
      flow = run_flow_guarded_file(job.blif_path, effective, gopts);
    }

    if (flow.ok()) {
      out.status = JobStatus::kOk;
      out.summary = summarize(*flow.result);
      out.lint_errors = flow.result->lint.count(LintSeverity::kError);
      out.lint_warnings =
          flow.result->lint.count(LintSeverity::kWarning) - out.lint_errors;
      // Analyzer (csa.* / race.*) findings live in their own reports, not
      // FlowResult::lint; count them separately so they reach the journal
      // and the resumed merged manifest.
      const auto analyzer_counts = [&](const LintReport& report) {
        const int errors = report.count(LintSeverity::kError);
        out.analyzer_errors += errors;
        out.analyzer_warnings +=
            report.count(LintSeverity::kWarning) - errors;
      };
      if (flow.result->csa.has_value()) analyzer_counts(flow.result->csa->lint);
      if (flow.result->race.has_value()) {
        analyzer_counts(flow.result->race->lint);
      }
    } else {
      out = failed_record(flow.diagnostic.value_or(Diagnostic{
          ErrorCode::kInternal, FlowStage::kNone, "attempt failed", {}}));
    }
    // Proof verdicts are facts about the circuit even when a downstream
    // gate fails the attempt (a confirmed finding is usually *why* it
    // failed), so they are filled whatever the status.
    if (flow.result.has_value() && flow.result->prove.has_value()) {
      out.prove_confirmed = flow.result->prove->confirmed;
      out.prove_refuted = flow.result->prove->refuted;
      out.prove_unknown = flow.result->prove->unknown;
    }
  } catch (const GuardError& e) {
    out = failed_record(e.to_diagnostic());
  } catch (const Error& e) {
    // build_benchmark (unknown name) and other recoverable throws.
    out = failed_record(
        Diagnostic{ErrorCode::kParseError, FlowStage::kParse, e.what(), {}});
  } catch (const std::exception& e) {
    out = failed_record(Diagnostic{
        ErrorCode::kInternal, FlowStage::kNone,
        format("unexpected exception in batch attempt: %s", e.what()),
        {}});
  }
  out.job = job.name;
  out.attempts = attempt;
  return out;
}

}  // namespace batch_detail
}  // namespace soidom
