/// \file flags.hpp
/// The command-line flags the example CLIs share, in three nested groups.
/// Each parse_*_flag call is offered one argv entry.  It returns true when
/// the entry is a flag of its group and was applied, and false otherwise,
/// so the CLI can try its own flags next.  A flag of the group with a
/// malformed value throws soidom::Error naming the flag and the value;
/// the CLIs print it as one "error: ..." line and exit 64
/// (docs/ERRORS.md).
///
/// Flow flags fill FlowOptions (blif2domino, asic_flow; kFlowFlagsUsage):
///   --flow=domino|rs|soi     mapping flow
///   --objective=area|depth   cost objective
///   --wmax=N --hmax=N        pulldown shape limits
///   --k=F                    clock-transistor cost weight
///   --minimize               two-level minimize covers before mapping
///   --seq-aware              prune unexcitable discharge transistors
///   --exact                  exact BDD equivalence checking
///   --verify=N               random-simulation verification rounds
///   --lint-fail-on=SEV       fail on lint findings >= SEV
///   --csa                    static charge-sharing / PBE-safety analyzer
///                            (docs/CSA.md)
///   --csa-margin=X           droop noise margin, a fraction of VDD
///   --race                   static phase / race analyzer (docs/RACE.md)
///   --race-fail-on=SEV       fail on race findings >= SEV
///   --race-phases=N          clock phase count
///   --race-teval=X --race-tpre=X
///                            evaluate / precharge windows (0 = unconstrained)
///   --race-skew=X            clock skew absorbed per handoff
///   --race-margin=X          required skew-tolerance margin
///   --prove                  exact proof tier over the analyzer findings
///                            (docs/PROVE.md)
///   --prove-budget=N         BDD node budget per cone problem
///   --prove-fail-on=SEV      fail on CONFIRMED findings >= SEV
///   --prove-strict           fail with kProofTimeout on any budget hit
/// SEV is error|warning|info.  A value flag of an analyzer (csa, race,
/// prove) also turns that analyzer on.  Defaults are FlowOptions's.
///
/// Job flags fill BatchOptions; any other entry goes on to the flow
/// flags, applied to BatchOptions::flow (soidom_serve serve;
/// kJobFlagsUsage):
///   --timeout-ms=N           per-attempt deadline (0 = none)
///   --attempts=N             retry budget per job
///   --backoff-ms=N           base retry backoff, jittered
///   --inject=N/D@SEED        seeded per-(job,attempt) fault injection
///
/// Batch-run flags fill BatchOptions; any other entry goes on to the job
/// flags (soidom_batch; kBatchRunFlagsUsage):
///   --jobs=N                 jobs in flight (0 = hardware threads)
///   --isolate                fork each attempt into a subprocess
///   --journal=FILE           JSONL run journal
///   --manifest=FILE          merged manifest
///   --resume                 skip jobs already terminal in the journal
///
/// Counts, milliseconds and --prove-budget reject negative values.
#pragma once

#include <climits>
#include <string_view>

#include "soidom/batch/runner.hpp"

namespace soidom {

/// One argv entry split at its first '=': `--wmax=5` has name "--wmax"
/// and value "5".  The CLIs read their own flags through it too.
class Flag {
 public:
  explicit Flag(std::string_view text);

  /// The bare switch `name` (no '=').
  bool is(std::string_view name) const;
  /// `name=VALUE`, with any value, empty included.
  bool has(std::string_view name) const;

  std::string_view name() const { return name_; }
  std::string_view value() const { return value_; }
  /// The whole value as a base-10 int >= `min`; throws soidom::Error.
  int integer(int min = INT_MIN) const;
  /// The whole value as a finite decimal number; throws soidom::Error.
  double number() const;

  /// Throws soidom::Error: "<name> needs <what>, got '<value>'".
  [[noreturn]] void reject(const char* what) const;

 private:
  std::string_view name_;
  std::string_view value_;
  bool has_value_ = false;
};

bool parse_flow_flag(const Flag& flag, FlowOptions& flow);
bool parse_job_flag(const Flag& flag, BatchOptions& batch);
bool parse_batch_run_flag(const Flag& flag, BatchOptions& batch);

/// Usage lines of each group's own flags.  A CLI prints the text of every
/// group it takes, nested groups included.
extern const char* const kFlowFlagsUsage;
extern const char* const kJobFlagsUsage;
extern const char* const kBatchRunFlagsUsage;

}  // namespace soidom
