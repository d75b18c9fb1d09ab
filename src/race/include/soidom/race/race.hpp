/// \file race.hpp
/// Static phase / monotonicity / race analysis of mapped domino netlists.
///
/// Domino correctness is a temporal discipline on top of the structural
/// one: every gate input must be monotone-rising during evaluate, every
/// dynamic node must finish precharging inside the precharge window, and
/// every stage handoff must leave margin against clock skew.  This
/// analyzer proves (conservatively) that a mapped netlist obeys that
/// discipline:
///
///   * a *parity dataflow* over each pulldown tree finds series
///     requirements that include both phases of one primary input —
///     conduction would then need a mid-evaluate falling transition,
///     i.e. a non-monotone input (`race.inversion-parity`);
///   * a *precharge-conduction dataflow* finds footless pulldowns that
///     can conduct while the precharge device is on (a crowbar path:
///     possibly-high PI literals and stale-high domino drivers),
///     the illegal static/domino mix (`race.static-mix`);
///   * conservative min/max *arrival intervals* (src/timing) and
///     *precharge-completion intervals* per gate are checked against the
///     evaluate / precharge clock windows: a gate whose precharge bound
///     overruns the precharge window holds a stale high into evaluate and
///     falls mid-phase — the classic hold-style min-delay race
///     (`race.precharge-overrun`); a gate whose worst arrival overruns
///     the evaluate window misses the handoff (`race.eval-overrun`);
///     surviving margins below the required skew tolerance warn
///     (`race.skew-margin`);
///   * gates are assigned *clock phases* by level; with a multi-phase
///     clock, fanin edges that skip a level cross a phase boundary early
///     (wave-pipelining hazard, `race.phase-skip`).
///
/// The report also carries a per-level slack table (the wave-pipelining
/// balance report) as machine-readable JSON, the input the planned
/// path-balancing DP objective consumes.
///
/// Conservativeness is validated dynamically: soisim's race probe
/// (enable_race) measures observed handoff margins and non-monotone
/// evaluate transitions per gate, and tests/test_race.cpp proves every
/// observation is statically flagged (docs/RACE.md has the argument).
///
/// Findings come out in the lint report format as the `race.*` rule
/// family (docs/LINT.md) with waivers, text / JSON / SARIF 2.1.0 emitters.
/// Layering: race sits above lint/timing/pdn/domino and below core/flow
/// (run_flow drives it as FlowStage::kRace when FlowOptions::race is set).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "soidom/domino/netlist.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/timing/timing.hpp"

namespace soidom {

/// Analyzer knobs.  All times are in DelayModel units; a window of 0
/// means "unconstrained" and disables the checks that need it.
struct RaceOptions {
  DelayModel delay;
  /// Clock phases: gates at level L run on phase (L-1) % num_phases.
  /// With 1 phase (default) every stage shares one clock and phase-skip
  /// analysis is moot; >= 2 enables the wave-pipelining hazard checks.
  int num_phases = 1;
  /// Evaluate window: time from the evaluate edge until the next
  /// precharge edge.  0 = unconstrained (no eval-overrun checks).
  double t_eval = 0.0;
  /// Precharge window: time from the precharge edge until the next
  /// evaluate edge.  0 = unconstrained (no precharge-overrun checks).
  double t_pre = 0.0;
  /// Worst-case clock skew between any two communicating stages;
  /// subtracted from every window before slack is computed.
  double skew = 0.0;
  /// Required residual slack: a gate whose surviving margin is below
  /// this (but non-negative) raises `race.skew-margin`.  0 disables.
  double margin = 0.0;
  /// Lint waivers applied to race.* findings ("rule" or "rule@substring").
  std::vector<std::string> waivers;
};

/// Per-gate analysis result.
struct RaceGateReport {
  int gate = -1;
  int level = 0;  ///< 1 = fed only by netlist inputs
  int phase = 0;  ///< (level-1) % num_phases
  int fanout = 0;
  // Conservative intervals (src/timing under RaceOptions::delay).
  double arrival_min = 0.0;
  double arrival_max = 0.0;
  double pre_min = 0.0;
  double pre_max = 0.0;
  // Window slacks (0 when the corresponding window is unconstrained).
  double eval_slack = 0.0;  ///< t_eval - skew - arrival_max
  double pre_slack = 0.0;   ///< t_pre - skew - pre_max
  /// Extra skew this gate tolerates: min over the enabled windows'
  /// slacks (0 when no window is constrained).
  double skew_tolerance = 0.0;
  /// Precharge cannot finish inside t_pre: the output may hold a stale
  /// high into evaluate and fall mid-phase (non-monotone to fanout).
  bool stale_high = false;
  /// Fanin gates that are stale_high (non-monotone input sources).
  int nonmonotone_inputs = 0;
  /// Primary inputs required on a series path in BOTH phases (per
  /// pulldown): conduction needs a mid-evaluate falling transition.
  int parity_pairs = 0;
  int parity_pairs2 = 0;  ///< dual gates only
  /// Footless pulldown that can conduct during precharge (crowbar).
  bool mix1 = false;
  bool mix2 = false;  ///< dual gates only
  /// Fanin edges arriving from more than one level below (phase-skip
  /// hazards under a multi-phase clock); gap is the largest skip.
  int skip_fanins = 0;
  int max_fanin_gap = 0;

  bool parity() const { return parity_pairs > 0 || parity_pairs2 > 0; }
  bool mix() const { return mix1 || mix2; }
};

/// One row of the wave-pipelining balance table.
struct RaceLevelReport {
  int level = 0;
  int gates = 0;
  double arrival_min = 0.0;  ///< earliest arrival_min at this level
  double arrival_max = 0.0;  ///< latest arrival_max at this level
  /// Level imbalance: arrival_max - arrival_min.  The path-balancing DP
  /// minimizes this (buffer insertion evens the wave).
  double spread = 0.0;
  int skip_fanins = 0;  ///< phase-skip edges landing on this level
};

/// Machine-readable race/balance report for the whole netlist.
struct RaceReport {
  std::vector<RaceGateReport> gates;
  std::vector<RaceLevelReport> levels;
  // Echoed analysis parameters.
  int num_phases = 1;
  double t_eval = 0.0;
  double t_pre = 0.0;
  double skew = 0.0;
  double margin = 0.0;
  // Aggregates.
  int max_level = 0;
  double critical_arrival = 0.0;  ///< max arrival_max over all gates
  double min_eval_slack = 0.0;    ///< 0 when t_eval unconstrained
  double min_pre_slack = 0.0;     ///< 0 when t_pre unconstrained
  double skew_tolerance = 0.0;    ///< min gate skew_tolerance (0 = none)
  int gates_parity = 0;
  int gates_mix = 0;
  int gates_stale = 0;
  int gates_eval_overrun = 0;
  int gates_phase_skip = 0;

  /// {"num_phases":...,"gates":[...],"levels":[...],...}
  std::string to_json() const;
};

/// Analysis outcome: the race report plus race.* findings as a
/// LintReport (text / JSON / SARIF emitters apply).
struct RaceResult {
  RaceReport report;
  LintReport lint;
};

/// Run the analyzer over a structurally valid netlist, one gate after
/// another on the calling thread.  Thread-compatible (concurrent calls on
/// distinct netlists are safe); checkpoints the installed guard under
/// FlowStage::kRace once per gate.
RaceResult run_race(const DominoNetlist& netlist,
                    const RaceOptions& options = {});

}  // namespace soidom
