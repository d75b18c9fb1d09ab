/// \file flow.hpp
/// The library's top-level facade: one call runs the full pipeline
///
///   BLIF / Network  ->  2-input decomposition  ->  unate conversion
///     ->  technology mapping (Domino_Map / SOI_Domino_Map)
///     ->  optional post-passes (discharge insertion, stack rearrangement)
///     ->  statistics + structural / functional verification.
///
/// This is the entry point examples and benches use; individual stages
/// remain available through their own modules for finer control.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "soidom/blif/blif.hpp"
#include "soidom/csa/csa.hpp"
#include "soidom/decomp/decompose.hpp"
#include "soidom/domino/netlist.hpp"
#include "soidom/domino/stats.hpp"
#include "soidom/domino/verify.hpp"
#include "soidom/guard/diagnostic.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/mapper/cone.hpp"
#include "soidom/mapper/mapper.hpp"
#include "soidom/network/network.hpp"
#include "soidom/prove/prove.hpp"
#include "soidom/race/race.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {

/// Which flow variant to run (the three algorithms compared in the paper).
enum class FlowVariant : std::uint8_t {
  kDominoMap,     ///< bulk mapper + discharge insertion post-pass
  kRsMap,         ///< bulk mapper + stack rearrangement + discharge insertion
  kSoiDominoMap,  ///< the paper's PBE-aware mapper
};

struct FlowOptions {
  FlowVariant variant = FlowVariant::kSoiDominoMap;
  DecomposeOptions decompose;
  /// Output phase assignment during unate conversion (unate/unate.hpp).
  PhaseAssignment phase_assignment = PhaseAssignment::kPositive;
  /// Mapper knobs; `mapper.engine` is overridden by `variant`.
  MapperOptions mapper;
  /// Sequence-aware discharge pruning (the paper's section VII future-work
  /// item): remove discharge transistors whose PBE-exciting input
  /// condition is provably unsatisfiable.  See domino/seqaware.hpp.
  bool sequence_aware = false;
  /// Post-mapping lint stage (lint/lint.hpp): the flow always records the
  /// full report in FlowResult::lint; findings at or above this severity
  /// fail the flow with a kLint diagnostic.
  LintSeverity lint_fail_on = LintSeverity::kError;
  /// Charge-sharing & PBE-safety static analysis (csa/csa.hpp) after
  /// lint: records the droop report and csa.* findings in
  /// FlowResult::csa; findings at or above `csa_fail_on` fail the flow
  /// with a kCsa diagnostic.
  bool csa = false;
  LintSeverity csa_fail_on = LintSeverity::kError;
  CsaOptions csa_options;
  /// Phase / monotonicity / race static analysis (race/race.hpp) after
  /// CSA: records the race report and race.* findings in
  /// FlowResult::race; findings at or above `race_fail_on` fail the flow
  /// with a kRace diagnostic.
  bool race = false;
  LintSeverity race_fail_on = LintSeverity::kError;
  RaceOptions race_options;
  /// Exact proof tier (prove/prove.hpp) after the analyzers: refines the
  /// provable lint / csa / race findings in place (confirmed / refuted /
  /// unknown, see docs/PROVE.md) and records the ProveReport in
  /// FlowResult::prove.  Refuted findings are downgraded to info before
  /// the fail-on gates run, so a flow that would have failed on a false
  /// positive passes with the proof certificate logged.  Additionally,
  /// CONFIRMED findings at or above `prove_fail_on` fail the flow with a
  /// kProve diagnostic even when their family's own fail-on gate is
  /// looser (a proven hazard is not a conservative bound any more).
  bool prove = false;
  LintSeverity prove_fail_on = LintSeverity::kError;
  ProveOptions prove_options;
  /// Functional verification by random simulation (0 disables).
  int verify_rounds = 8;
  std::uint64_t verify_seed = 0x50D0;
  /// Additionally attempt exact BDD equivalence (skipped on blow-up).
  bool exact_equivalence = false;
  std::size_t bdd_node_limit = 1u << 22;
  /// Optional content-addressed cone cache consulted at the kMap stage
  /// (mapper/cone.hpp).  A hit returns the previously mapped netlist
  /// byte-identically; a miss (or a corrupt cached value) falls through
  /// to the DP and stores the fresh result.  Null disables caching.
  /// The cache only shortcuts the mapper — every downstream stage (post
  /// passes, lint, CSA, race, verification) still runs on the cached
  /// netlist, so a hit changes latency, never the outcome.
  std::shared_ptr<MapConeCache> map_cache;
};

struct FlowResult {
  UnateResult unate;
  DominoNetlist netlist;
  DominoStats stats;
  /// Full structured lint report (all severities, all rules).
  LintReport lint;
  /// Charge-sharing analysis outcome when FlowOptions::csa was set.
  std::optional<CsaResult> csa;
  /// Race analysis outcome when FlowOptions::race was set.
  std::optional<RaceResult> race;
  /// Proof-tier outcome when FlowOptions::prove was set.  The refined
  /// proof statuses also live on the findings inside `lint` / `csa` /
  /// `race` (Finding::proof / original_severity / proof_note).
  std::optional<ProveReport> prove;
  VerifyReport function;
  /// Result of BDD equivalence when requested and tractable.
  std::optional<bool> exact;
  int dp_analyzer_mismatches = 0;
  /// Discharge transistors removed by sequence-aware pruning (0 unless
  /// FlowOptions::sequence_aware).
  int discharges_pruned = 0;

  bool ok() const {
    return lint.clean(LintSeverity::kError) && function.ok() &&
           exact.value_or(true) && dp_analyzer_mismatches == 0;
  }
};

/// Map `source` (any AND/OR/INV/BUF network).
FlowResult run_flow(const Network& source, const FlowOptions& options = {});

/// Decompose and map a flat BLIF model.
FlowResult run_flow(const BlifModel& model, const FlowOptions& options = {});

/// Parse, decompose and map a BLIF file.
FlowResult run_flow_file(const std::string& path,
                         const FlowOptions& options = {});

/// Short human-readable summary line ("gates=12 T_logic=96 ...").
std::string summarize(const FlowResult& result);

// --- guarded facade --------------------------------------------------------

/// What a stage's fallback policy does when the stage fails recoverably.
enum class FallbackAction : std::uint8_t {
  kFail,                ///< surface the failure as the flow's Diagnostic
  kSkip,                ///< skip the stage's result, record a warning
  kRetryRelaxed,        ///< retry once with relaxed limits, record a warning
  kFallbackSimulation,  ///< substitute random simulation, record a warning
};

/// Guard knobs for run_flow_guarded.  Defaults: unbounded, graceful
/// degradation on (infeasible limits retry once with doubled W/H; a BDD
/// blow-up or BDD-budget trip falls back to random simulation).
struct GuardOptions {
  Deadline deadline;     ///< default: unlimited
  CancelToken cancel;    ///< observed at stage checkpoints
  ResourceBudget budget; ///< default: unlimited

  /// Mapper found no feasible pulldown shape under max_width/max_height
  /// (kFail or kRetryRelaxed; anything else behaves like kFail).
  FallbackAction on_infeasible_limits = FallbackAction::kRetryRelaxed;
  /// Exact BDD equivalence hit bdd_node_limit or the BDD-node budget
  /// (kFail, kSkip, or kFallbackSimulation).
  FallbackAction on_exact_blowup = FallbackAction::kFallbackSimulation;
  /// Simulation rounds used by kFallbackSimulation when verify_rounds == 0.
  int fallback_sim_rounds = 8;

  /// When a stage fails, move the stage results that finished before it
  /// into FlowOutcome::partial, so a failing flow still yields them.  A
  /// flow that gets through captures nothing (its results are in
  /// FlowOutcome::result), so this never costs a copy.  Off in strict():
  /// run_flow has no outcome to hold partials.
  bool capture_partials = true;

  /// No fallbacks, no partial capture: the exception-compatible behavior
  /// plain run_flow delegates to.
  static GuardOptions strict() {
    GuardOptions g;
    g.on_infeasible_limits = FallbackAction::kFail;
    g.on_exact_blowup = FallbackAction::kSkip;
    g.capture_partials = false;
    return g;
  }
};

/// Stage results that completed before a failing stage, moved here when
/// GuardOptions::capture_partials.  Empty whenever FlowOutcome::result is
/// set, including verification mismatches, whose netlist is in `result`.
struct FlowPartial {
  std::optional<Network> decomposed;  ///< BLIF / file entry points only
  std::optional<UnateResult> unate;
  std::optional<DominoNetlist> netlist;
};

/// Non-throwing flow outcome: either a FlowResult, or a Diagnostic plus
/// whatever partial stage results completed.  Verification mismatches set
/// BOTH `result` (the mapped netlist is still useful for triage) and
/// `diagnostic` (code kVerificationFailed).
struct FlowOutcome {
  std::optional<FlowResult> result;
  std::optional<Diagnostic> diagnostic;
  FlowPartial partial;
  /// Fallbacks taken and other non-fatal conditions, in stage order.
  std::vector<Diagnostic> warnings;

  bool ok() const { return result.has_value() && !diagnostic.has_value(); }
};

/// Validate every flow knob up front (delegates mapper knobs to
/// validate(MapperOptions)); throws soidom::Error naming the offending
/// field and value.
void validate(const FlowOptions& options);

/// Guarded, non-throwing counterparts of run_flow / run_flow_file: all
/// recoverable failures — bad input, infeasible limits, deadline, budget,
/// cancellation, injected faults — come back as a structured Diagnostic
/// instead of an exception.  See docs/ERRORS.md.
FlowOutcome run_flow_guarded(const Network& source,
                             const FlowOptions& options = {},
                             const GuardOptions& guard_options = {});
FlowOutcome run_flow_guarded(const BlifModel& model,
                             const FlowOptions& options = {},
                             const GuardOptions& guard_options = {});
FlowOutcome run_flow_guarded_file(const std::string& path,
                                  const FlowOptions& options = {},
                                  const GuardOptions& guard_options = {});

/// summarize(result) on success, diagnostic.to_string() on failure.
std::string summarize(const FlowOutcome& outcome);

}  // namespace soidom
