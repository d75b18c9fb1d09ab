/// \file lint.hpp
/// Rule-based static analysis (DRC/ERC) of mapped domino netlists.
///
/// The engine runs a fixed table of built-in rules over a DominoNetlist
/// (optionally cross-checked against the source Network) and produces
/// structured Findings: a stable rule id, a severity, a location (gate /
/// pulldown / junction / output), a message, and an optional fix-it
/// hint.  Reports render as human text, JSON, or SARIF 2.1.0 for CI
/// annotation.  docs/LINT.md is the rule catalogue.
///
/// The headline rule, `pbe-protection`, re-derives every PBE discharge
/// point from the netlist alone (pdn/analyze.hpp — independent of the
/// mapper's DP tuples) and diffs the requirement against the discharge
/// transistors the mapper actually emitted, honouring sequence-aware
/// unexcitability proofs when the caller allows them.
///
/// Layering: lint sits above domino/pdn/network and below csa, race and
/// core/flow.  The csa.* and race.* families build their findings
/// themselves and finish them through make_lint_report, so every family
/// shares one report format, one waiver syntax and one set of emitters.
#pragma once

#include <string>
#include <vector>

#include "soidom/domino/netlist.hpp"
#include "soidom/network/network.hpp"

namespace soidom {

/// Finding severities, ordered so comparisons mean "at least as severe".
enum class LintSeverity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

/// Stable lower-case identifier: "info" / "warning" / "error".
const char* lint_severity_name(LintSeverity severity);
/// SARIF 2.1.0 result level: "note" / "warning" / "error".
const char* lint_severity_sarif_level(LintSeverity severity);

/// Outcome of the exact proof tier (src/prove) for one finding.  kNone
/// means the prove stage never looked at it (not a provable rule, or the
/// stage was off).
enum class ProofStatus : std::uint8_t {
  kNone = 0,   ///< not refined
  kConfirmed,  ///< flagged state proven reachable; a witness exists
  kRefuted,    ///< flagged state proven unreachable; severity downgraded
  kUnknown,    ///< node budget hit; conservative verdict kept
};

/// Stable lower-case identifier: "none" / "confirmed" / "refuted" /
/// "unknown".
const char* proof_status_name(ProofStatus status);

/// Where a finding points inside the netlist.  All indices are optional
/// (-1 = not applicable); `detail` carries the innermost element as text
/// (a canonical junction label like "j2" or "bottom", a signal, ...).
struct LintLocation {
  int gate = -1;    ///< gate index
  int pdn = 0;      ///< 1 or 2 when the finding is inside a specific pulldown
  int output = -1;  ///< output index
  int input = -1;   ///< input-literal index
  std::string detail;

  /// "gate 4 (pdn2) j1" / "output 2 'sum'" / "input 3 'a.bar'" / "netlist".
  std::string to_string(const DominoNetlist* netlist = nullptr) const;
  /// SARIF logicalLocation fullyQualifiedName, e.g. "netlist/gate4/pdn2/j1".
  std::string qualified_name() const;
};

/// One structured lint result.
struct Finding {
  std::string rule;  ///< stable rule id, e.g. "pbe-protection"
  LintSeverity severity = LintSeverity::kError;
  LintLocation location;
  std::string message;
  std::string fixit;  ///< optional suggested repair, empty when none
  /// Matched by a LintOptions::waivers entry: kept in the report (and
  /// rendered as a SARIF suppression) but excluded from count()/clean().
  bool waived = false;
  /// Exact-proof refinement outcome (src/prove).  A kRefuted finding has
  /// its severity downgraded to kInfo waiver-style; `original_severity`
  /// preserves the conservative level so SARIF/JSON consumers and
  /// tools/merge_sarif.py can round-trip the provenance.
  ProofStatus proof = ProofStatus::kNone;
  LintSeverity original_severity = LintSeverity::kInfo;
  /// Proof certificate (refuted/unknown) or witness text (confirmed);
  /// empty when proof == kNone.  Rendered into JSON and as a SARIF
  /// relatedLocation message.
  std::string proof_note;

  /// "error[pbe-protection] gate 4: ... (fix: attach a discharge at j1)".
  std::string to_string() const;
};

/// Knobs for a lint run.  Defaults mirror the mapper's defaults; the flow
/// passes its effective options through.
struct LintOptions {
  GroundingPolicy grounding = GroundingPolicy::kAllGrounded;
  PendingModel pending_model = PendingModel::kCoherent;
  /// Accept an unprotected PBE point when sequence-aware analysis proves
  /// it unexcitable (netlists processed by prune_unexcitable_discharges).
  bool allow_unexcitable_unprotected = false;
  /// Pulldown shape ceilings the mapper was run with; 0 skips the
  /// `shape-limits` rule.
  int max_width = 0;
  int max_height = 0;
  /// Accepted findings: each entry is `rule` or `rule@substring`, where the
  /// substring matches the finding's qualified location name (e.g.
  /// "csa.droop-margin@gate4").  The rule still runs; matching findings
  /// are marked Finding::waived, excluded from count()/clean()/summary(),
  /// and emitted as SARIF suppressions.
  std::vector<std::string> waivers;
};

/// True when `waiver` ("rule" or "rule@substring") matches the finding.
bool waiver_matches(const std::string& waiver, const Finding& finding);

/// Rule metadata captured into the report (drives the SARIF rules table).
struct LintRuleInfo {
  std::string id;
  std::string summary;
  LintSeverity default_severity = LintSeverity::kError;
};

/// Outcome of a lint run.
struct LintReport {
  std::vector<Finding> findings;
  /// Every rule that ran (also the SARIF tool.driver.rules table).
  std::vector<LintRuleInfo> rules;

  /// Findings at or above `at_least` (waived findings excluded).
  int count(LintSeverity at_least) const;
  bool clean(LintSeverity fail_on = LintSeverity::kError) const {
    return count(fail_on) == 0;
  }
  /// "clean" or "2 errors, 1 warning".
  std::string summary() const;

  /// One finding per line; "lint: clean" when empty.
  std::string to_text() const;
  /// {"findings":[...],"summary":...}.
  std::string to_json() const;
  /// A complete SARIF 2.1.0 log with one run.  `artifact_uri` (optional)
  /// attaches a physicalLocation to every result so CI annotates the
  /// input file the netlist was mapped from.
  std::string to_sarif(const std::string& artifact_uri = "") const;
  /// The bare SARIF run object (for tools merging several reports into
  /// one log; to_sarif wraps exactly one of these).
  std::string to_sarif_run(const std::string& artifact_uri = "") const;
};

/// A family's report: `findings` in order, each marked waived when an
/// entry of `waivers` matches it, with `rules` (every rule of the family,
/// including any that did not run) as its rules table.  run_lint, run_csa
/// and run_race all finish their reports here.
LintReport make_lint_report(std::vector<Finding> findings,
                            std::vector<LintRuleInfo> rules,
                            const std::vector<std::string>& waivers);

/// Run the built-in rule table (docs/LINT.md) over the netlist: the
/// foundation rules first, then the rules that index through the netlist,
/// which are skipped (but still listed in LintReport::rules) when a
/// foundation rule reported an error.  Thread-compatible: concurrent
/// calls on distinct netlists are safe.  Checkpoints the installed guard
/// under FlowStage::kLint once per rule.
LintReport run_lint(const DominoNetlist& netlist,
                    const LintOptions& options = {},
                    const Network* source = nullptr);

}  // namespace soidom
