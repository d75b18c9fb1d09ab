/// \file prove.hpp
/// Exact proof tier for the analyzer stack: on-demand BDD refinement of
/// conservative csa / race / lint findings with replayable witnesses.
///
/// The static analyzers (src/csa, src/race, lint's `pbe-protection`) are
/// deliberately conservative dataflows: they enumerate gate states over
/// *independent* input bits, so correlated fanin (`x` and `x.bar` of one
/// primary input, reconvergent cones) produces flagged states no input
/// vector can reach — false positives that force needless remapping,
/// exactly the over-margining the paper's PBE solutions try to avoid.
///
/// run_prove() refines each such finding by reconstructing the flagged
/// gate's transitive fanin cone as a constrained Boolean problem (cone
/// logic over the source primary inputs + the domino monotonicity /
/// precharge-phase constraints of the rule, docs/PROVE.md) and deciding
/// reachability of the offending state with a per-cone BDD:
///
///   * `confirmed` — the state is reachable; the record carries a witness
///     (concrete PI assignment + precharge state, cofactor-extracted).
///     Witnesses whose hazard a single soisim step from reset reproduces
///     are marked replayable; tests/test_prove.cpp replays them through
///     the Droop/Race probes as a zero-false-confirm oracle.
///   * `refuted` — no input vector reaches the state; the finding is
///     downgraded to an info note waiver-style (original severity kept in
///     Finding::original_severity) with the proof certificate logged.
///   * `unknown` — the per-cone node budget was hit (structured
///     ErrorCode::kProofTimeout); the conservative verdict stands.
///
/// Refinements are sound by construction: every constraint removes only
/// assignments the cone logic cannot produce, so the refined state set is
/// still a superset of anything reachable (docs/PROVE.md carries the
/// per-rule arguments, including the first-failure assumption that
/// upstream gates themselves evaluate correctly).
///
/// Layering: prove sits above csa/race/lint/bdd/domino and below
/// core/flow (run_flow drives it as FlowStage::kProve when
/// FlowOptions::prove is set).  Targets are proved one after another on
/// the calling thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "soidom/csa/csa.hpp"
#include "soidom/domino/netlist.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/race/race.hpp"

namespace soidom {

/// Prove-stage knobs.
struct ProveOptions {
  /// BDD node budget per cone problem.  A cone that exceeds it yields a
  /// ProofStatus::kUnknown record tagged kProofTimeout instead of a
  /// verdict; the conservative finding is untouched.
  std::uint32_t node_budget = 1u << 20;
  /// Rule families to refine.
  bool refine_csa = true;   ///< csa.pbe-discharge, csa.droop-margin
  bool refine_race = true;  ///< race.inversion-parity, race.static-mix
  bool refine_lint = true;  ///< pbe-protection (unprotected points)
  /// Strict mode: any budget hit throws GuardError(kProofTimeout) after
  /// the run completes (all other targets still get their verdicts).
  /// Default off: budget hits only yield kUnknown records.
  bool fail_on_budget = false;
};

/// Witness of a confirmed finding.
struct ProofWitness {
  /// Source-PI assignment reaching the flagged state, as (name, value)
  /// pairs over the cone's support in ascending source-PI order.  PIs
  /// outside the cone are "don't care" (replay uses 0).
  std::vector<std::pair<std::string, bool>> inputs;
  /// Full source-PI vector for SoiSimulator::step (index = source PI).
  std::vector<bool> pi_values;
  /// Rule-specific state description (csa: the "in=... pre=..." state
  /// being confirmed; race: the conduction condition).
  std::string state;
  /// A single soisim step from reset reproduces the hazard: for
  /// csa.droop-margin the observed droop equals `predicted_droop` (> 0);
  /// for race.static-mix the gate records a precharge fight.  Witnesses
  /// of multi-cycle hazards (body-charge build-up, intra-evaluate
  /// transients) are real but not single-step replayable.
  bool replayable = false;
  /// Predicted DroopProbe observation of the replay (csa.droop-margin
  /// witnesses only; 0 otherwise).
  double predicted_droop = 0.0;
};

/// Proof outcome for one finding.
struct ProofRecord {
  std::string rule;
  LintLocation location;  ///< same location as the refined finding
  ProofStatus status = ProofStatus::kUnknown;
  /// Human-readable certificate: for refuted findings the exhausted
  /// condition, for confirmed the witness summary, for unknown the
  /// budget diagnostics.  Also mirrored into Finding::proof_note.
  std::string certificate;
  std::optional<ProofWitness> witness;  ///< status == kConfirmed only
};

/// Outcome of a prove run.
struct ProveReport {
  std::vector<ProofRecord> records;  ///< lint, then csa, then race order
  int confirmed = 0;
  int refuted = 0;
  int unknown = 0;
  /// Cone problems that hit ProveOptions::node_budget (each also counts
  /// toward `unknown`).
  int budget_hits = 0;
  // Echoed parameters.
  std::uint32_t node_budget = 0;

  int targets() const { return confirmed + refuted + unknown; }
  /// "prove: clean" / "3 confirmed, 2 refuted, 1 unknown".
  std::string summary() const;
  /// {"node_budget":...,"confirmed":...,"records":[...]}.
  std::string to_json() const;
};

/// Refine the provable findings of the given reports in place: every
/// targeted finding gains Finding::proof / original_severity /
/// proof_note, and refuted findings are downgraded to LintSeverity::kInfo
/// (so downstream fail-on gates skip them, like waivers).  Null report
/// pointers skip the corresponding family.  `lint_options` supplies the
/// PBE re-derivation knobs (grounding, pending model) and must match the
/// lint run that produced `lint`; `csa_options` likewise for `csa`.
///
/// Checkpoints the installed guard under FlowStage::kProve once per
/// target.
ProveReport run_prove(const DominoNetlist& netlist, LintReport* lint,
                      CsaResult* csa, RaceResult* race,
                      const LintOptions& lint_options,
                      const CsaOptions& csa_options,
                      const ProveOptions& options = {});

}  // namespace soidom
