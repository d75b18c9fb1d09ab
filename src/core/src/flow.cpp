#include "soidom/core/flow.hpp"

#include <algorithm>
#include <initializer_list>

#include "soidom/base/strings.hpp"
#include "soidom/domino/exact.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/domino/seqaware.hpp"
#include "soidom/guard/fault.hpp"

namespace soidom {
namespace {

/// Code assumed for a plain soidom::Error (no embedded code) by stage.
ErrorCode default_code_for(FlowStage stage) {
  switch (stage) {
    case FlowStage::kParse:
    case FlowStage::kDecompose:
      return ErrorCode::kParseError;  // input text or model elaboration
    case FlowStage::kValidate:
      return ErrorCode::kInvalidOptions;
    default:
      return ErrorCode::kInternal;
  }
}

/// Stage transition: attribute + honor cancellation/deadline at the
/// boundary even when the stage itself has no inner checkpoints.
void enter(GuardContext& guard, FlowStage stage) {
  guard.set_stage(stage);
  guard.checkpoint();
}

Diagnostic warning_from(const GuardError& e, const std::string& note) {
  Diagnostic d = e.to_diagnostic();
  d.context.push_back(note);
  return d;
}

/// The analyzer fail-on gate: the findings of `reports` at or above
/// `at_least` that are not waived (with `confirmed_only`, also proven by
/// the proof tier) fail the flow in `stage`, one context line each, and
/// the message ends with `summarized.summary()`.  Null reports are
/// skipped.
template <typename Summarized>
std::optional<Diagnostic> fail_on_gate(
    FlowStage stage, const char* what, LintSeverity at_least,
    const Summarized& summarized,
    std::initializer_list<const LintReport*> reports, bool confirmed_only) {
  Diagnostic d{ErrorCode::kVerificationFailed, stage, "", {}};
  for (const LintReport* report : reports) {
    if (report == nullptr) continue;
    for (const Finding& f : report->findings) {
      if (!f.waived && f.severity >= at_least &&
          (!confirmed_only || f.proof == ProofStatus::kConfirmed)) {
        d.context.push_back(f.to_string());
      }
    }
  }
  if (d.context.empty()) return std::nullopt;
  d.message = format("%s at severity >= %s: %s", what,
                     lint_severity_name(at_least),
                     summarized.summary().c_str());
  return d;
}

/// Which of FlowResult's stage results a run has finished so far.
struct Completed {
  bool unate = false;
  bool netlist = false;
};

/// The stage sequence shared by every entry point.  Fills `result` (plus
/// out.diagnostic for verification mismatches); failures propagate as
/// exceptions for the entry points to convert.
void run_stage_sequence(const Network& source, const FlowOptions& options,
                        const GuardOptions& gopts, GuardContext& guard,
                        FlowOutcome& out, FlowResult& result,
                        Completed& completed) {
  enter(guard, FlowStage::kValidate);
  validate(options);

  enter(guard, FlowStage::kUnate);
  result.unate = make_unate(source, options.phase_assignment);
  completed.unate = true;

  enter(guard, FlowStage::kMap);
  MapperOptions mopts = options.mapper;
  mopts.engine = options.variant == FlowVariant::kSoiDominoMap
                     ? MappingEngine::kSoiDominoMap
                     : MappingEngine::kDominoMap;
  // Run the DP through the optional cone cache.  A hit must be
  // byte-identical to a recompute by construction (the key is an exact
  // serialization of the mapper's input — mapper/cone.hpp); a corrupt
  // cached payload is treated as a miss, so the cache can shorten the
  // map stage but never change it.  Infeasible limits throw before the
  // store, so only feasible mappings are ever cached.
  auto run_map = [&](const MapperOptions& effective) -> MappingResult {
    if (options.map_cache == nullptr) {
      return map_to_domino(result.unate, effective);
    }
    const ConeKey key = cone_key(result.unate, effective);
    if (std::optional<CachedMapping> hit = options.map_cache->lookup(key)) {
      try {
        return mapping_from_cached(*hit);
      } catch (const std::exception&) {
        // Undecodable value: fall through to the DP and overwrite it.
      }
    }
    MappingResult fresh = map_to_domino(result.unate, effective);
    options.map_cache->store(key, cached_from_mapping(fresh));
    return fresh;
  };
  MappingResult mapped;
  try {
    mapped = run_map(mopts);
  } catch (const GuardError& e) {
    if (e.code() != ErrorCode::kInfeasibleLimits ||
        gopts.on_infeasible_limits != FallbackAction::kRetryRelaxed) {
      throw;
    }
    MapperOptions relaxed = mopts;
    relaxed.max_width = std::min(64, std::max(2, relaxed.max_width * 2));
    relaxed.max_height = std::min(64, std::max(2, relaxed.max_height * 2));
    out.warnings.push_back(warning_from(
        e, format("retried once with relaxed limits W<=%d H<=%d",
                  relaxed.max_width, relaxed.max_height)));
    mapped = run_map(relaxed);
    mopts = relaxed;  // downstream stages see the effective limits
  }
  result.dp_analyzer_mismatches = mapped.dp_analyzer_mismatches;
  result.netlist = std::move(mapped.netlist);

  enter(guard, FlowStage::kPostPass);
  switch (options.variant) {
    case FlowVariant::kDominoMap:
      insert_discharges(result.netlist, mopts.grounding, mopts.pending_model);
      break;
    case FlowVariant::kRsMap:
      rearrange_stacks(result.netlist, mopts.grounding, mopts.pending_model);
      break;
    case FlowVariant::kSoiDominoMap:
      break;  // discharges are part of the mapping
  }

  if (options.sequence_aware) {
    enter(guard, FlowStage::kSeqAware);
    result.discharges_pruned =
        prune_unexcitable_discharges(result.netlist).points_pruned;
  }

  result.stats = compute_stats(result.netlist);
  completed.netlist = true;

  // Structural checks are lint rules; the kVerifyStructure stage and its
  // probe stay so seeded fault-injection streams keep their positions.
  enter(guard, FlowStage::kVerifyStructure);
  SOIDOM_FAULT_PROBE(FlowStage::kVerifyStructure);
  enter(guard, FlowStage::kLint);
  LintOptions lopts;
  lopts.grounding = mopts.grounding;
  lopts.pending_model = mopts.pending_model;
  lopts.allow_unexcitable_unprotected = options.sequence_aware;
  lopts.max_width = mopts.max_width;
  lopts.max_height = mopts.max_height;
  result.lint = run_lint(result.netlist, lopts, &source);

  if (options.csa) {
    enter(guard, FlowStage::kCsa);
    result.csa = run_csa(result.netlist, options.csa_options);
  }

  if (options.race) {
    enter(guard, FlowStage::kRace);
    result.race = run_race(result.netlist, options.race_options);
  }

  if (options.prove) {
    enter(guard, FlowStage::kProve);
    result.prove = run_prove(
        result.netlist, &result.lint, result.csa ? &*result.csa : nullptr,
        result.race ? &*result.race : nullptr, lopts, options.csa_options,
        options.prove_options);
    if (result.prove->budget_hits > 0) {
      out.warnings.push_back(Diagnostic{
          ErrorCode::kProofTimeout, FlowStage::kProve,
          format("%d of %d proof obligations exceeded the node budget "
                 "(%u); their conservative verdicts stand",
                 result.prove->budget_hits, result.prove->targets(),
                 result.prove->node_budget),
          {}});
    }
  }

  if (options.verify_rounds > 0) {
    enter(guard, FlowStage::kVerifyFunction);
    Rng rng(options.verify_seed);
    result.function =
        verify_function(result.netlist, source, options.verify_rounds, rng);
  }

  if (options.exact_equivalence) {
    enter(guard, FlowStage::kExact);
    bool blew_up = false;
    std::string blowup_reason;
    try {
      result.exact =
          equivalent_exact(result.netlist, source, options.bdd_node_limit);
      if (!result.exact.has_value()) {
        blew_up = true;
        blowup_reason = format("BDD node limit (%zu) exceeded",
                               options.bdd_node_limit);
      }
    } catch (const GuardError& e) {
      // The BDD-node *budget* is a blow-up too as far as degradation is
      // concerned; deadline/cancellation keep propagating.
      if (e.code() != ErrorCode::kBudgetExceeded ||
          gopts.on_exact_blowup == FallbackAction::kFail) {
        throw;
      }
      blew_up = true;
      blowup_reason = e.what();
    }
    if (blew_up) {
      if (gopts.on_exact_blowup == FallbackAction::kFail) {
        throw GuardError(ErrorCode::kBddNodeLimit, FlowStage::kExact,
                         format("exact equivalence intractable: %s",
                                blowup_reason.c_str()));
      }
      Diagnostic warn{ErrorCode::kBddNodeLimit, FlowStage::kExact,
                      blowup_reason, {}};
      if (gopts.on_exact_blowup == FallbackAction::kFallbackSimulation) {
        warn.context.push_back("fell back to random simulation");
        if (options.verify_rounds <= 0 && gopts.fallback_sim_rounds > 0) {
          enter(guard, FlowStage::kVerifyFunction);
          Rng rng(options.verify_seed);
          result.function = verify_function(result.netlist, source,
                                            gopts.fallback_sim_rounds, rng);
        }
      } else {
        warn.context.push_back("exact equivalence skipped");
      }
      out.warnings.push_back(std::move(warn));
    }
  }

  // Verification mismatches become a Diagnostic, but the mapped netlist
  // is still returned for triage.  The first failing gate wins: lint,
  // csa, race and prove; function, exact and the DP cross-check.  The
  // gates run after the proof tier, so a refuted (downgraded) finding no
  // longer fails the flow.  A CONFIRMED finding is a proven hazard, not a
  // conservative bound, so it fails the flow at prove_fail_on even when
  // its family's own gate is looser; it keeps its original severity.
  out.diagnostic = fail_on_gate(FlowStage::kLint, "lint failed",
                                options.lint_fail_on, result.lint,
                                {&result.lint}, false);
  if (!out.diagnostic && result.csa) {
    out.diagnostic = fail_on_gate(
        FlowStage::kCsa, "charge-sharing analysis failed", options.csa_fail_on,
        result.csa->lint, {&result.csa->lint}, false);
  }
  if (!out.diagnostic && result.race) {
    out.diagnostic = fail_on_gate(FlowStage::kRace, "race analysis failed",
                                  options.race_fail_on, result.race->lint,
                                  {&result.race->lint}, false);
  }
  if (!out.diagnostic && result.prove) {
    out.diagnostic = fail_on_gate(
        FlowStage::kProve, "proof tier confirmed findings",
        options.prove_fail_on, *result.prove,
        {&result.lint, result.csa ? &result.csa->lint : nullptr,
         result.race ? &result.race->lint : nullptr},
        true);
  }
  if (out.diagnostic) {
    // Keep the first failure.
  } else if (!result.function.ok()) {
    out.diagnostic = Diagnostic{ErrorCode::kVerificationFailed,
                                FlowStage::kVerifyFunction,
                                result.function.to_string(),
                                {}};
  } else if (result.exact.has_value() && !*result.exact) {
    out.diagnostic =
        Diagnostic{ErrorCode::kVerificationFailed, FlowStage::kExact,
                   "exact BDD equivalence found a functional difference",
                   {}};
  } else if (result.dp_analyzer_mismatches != 0) {
    out.diagnostic =
        Diagnostic{ErrorCode::kVerificationFailed, FlowStage::kMap,
                   format("%d DP/analyzer discharge-count mismatch(es)",
                          result.dp_analyzer_mismatches),
                   {}};
  }

  guard.set_stage(FlowStage::kNone);
}

/// run_stage_sequence into out.result.  When a stage throws, the results
/// finished before it move into out.partial (GuardOptions::
/// capture_partials), so a run that succeeds copies nothing.
void run_stages(const Network& source, const FlowOptions& options,
                const GuardOptions& gopts, GuardContext& guard,
                FlowOutcome& out) {
  FlowResult result;
  Completed completed;
  try {
    run_stage_sequence(source, options, gopts, guard, out, result, completed);
  } catch (...) {
    if (gopts.capture_partials) {
      if (completed.unate) out.partial.unate = std::move(result.unate);
      if (completed.netlist) out.partial.netlist = std::move(result.netlist);
    }
    throw;
  }
  out.result = std::move(result);
}

/// Decompose `model`, then run_stages; when a later stage throws, the
/// decomposed network moves into out.partial as well.
void run_decomposed(const BlifModel& model, const FlowOptions& options,
                    const GuardOptions& gopts, GuardContext& guard,
                    FlowOutcome& out) {
  enter(guard, FlowStage::kDecompose);
  Network net = decompose(model, options.decompose);
  try {
    run_stages(net, options, gopts, guard, out);
  } catch (...) {
    if (gopts.capture_partials) out.partial.decomposed = std::move(net);
    throw;
  }
}

/// Install a guard, run `body`, convert any escaping exception into a
/// Diagnostic.  run_flow_guarded never throws for recoverable failures.
template <typename Body>
FlowOutcome run_guarded(const GuardOptions& gopts, Body&& body) {
  GuardContext guard(gopts.deadline, gopts.cancel, gopts.budget);
  GuardScope scope(guard);
  FlowOutcome out;
  try {
    body(guard, out);
  } catch (const GuardError& e) {
    Diagnostic d = e.to_diagnostic();
    if (d.stage == FlowStage::kNone) d.stage = guard.stage();
    out.diagnostic = std::move(d);
  } catch (const Error& e) {
    out.diagnostic = Diagnostic{default_code_for(guard.stage()), guard.stage(),
                                e.what(),
                                {}};
  } catch (const std::exception& e) {
    out.diagnostic =
        Diagnostic{ErrorCode::kInternal, guard.stage(),
                   format("unexpected exception: %s", e.what()),
                   {}};
  }
  return out;
}

/// Delegation shim for the throwing API: unwrap the result or rethrow the
/// diagnostic as a GuardError (an Error subclass, so existing catch sites
/// keep working).
FlowResult take_result(FlowOutcome&& outcome) {
  if (outcome.result.has_value()) return std::move(*outcome.result);
  const Diagnostic& d = *outcome.diagnostic;
  throw GuardError(d.code, d.stage, d.message);
}

}  // namespace

void validate(const FlowOptions& options) {
  validate(options.mapper);
  SOIDOM_REQUIRE(options.verify_rounds >= 0,
                 format("FlowOptions.verify_rounds = %d is invalid "
                        "(need verify_rounds >= 0)",
                        options.verify_rounds));
  SOIDOM_REQUIRE(options.bdd_node_limit >= 2,
                 format("FlowOptions.bdd_node_limit = %zu is invalid "
                        "(need bdd_node_limit >= 2)",
                        options.bdd_node_limit));
  if (options.csa) {
    SOIDOM_REQUIRE(options.csa_options.max_states >= 1,
                   format("FlowOptions.csa_options.max_states = %ld is "
                          "invalid (need max_states >= 1)",
                          options.csa_options.max_states));
    SOIDOM_REQUIRE(options.csa_options.margin >= 0.0,
                   format("FlowOptions.csa_options.margin = %g is invalid "
                          "(need margin >= 0)",
                          options.csa_options.margin));
    SOIDOM_REQUIRE(options.csa_options.keeper_strength >= 1,
                   format("FlowOptions.csa_options.keeper_strength = %d is "
                          "invalid (need keeper_strength >= 1)",
                          options.csa_options.keeper_strength));
  }
  if (options.prove) {
    SOIDOM_REQUIRE(options.prove_options.node_budget >= 2,
                   format("FlowOptions.prove_options.node_budget = %u is "
                          "invalid (need node_budget >= 2)",
                          options.prove_options.node_budget));
  }
  if (options.race) {
    SOIDOM_REQUIRE(options.race_options.num_phases >= 1,
                   format("FlowOptions.race_options.num_phases = %d is "
                          "invalid (need num_phases >= 1)",
                          options.race_options.num_phases));
    SOIDOM_REQUIRE(options.race_options.t_eval >= 0.0 &&
                       options.race_options.t_pre >= 0.0,
                   format("FlowOptions.race_options windows t_eval = %g / "
                          "t_pre = %g are invalid (need >= 0)",
                          options.race_options.t_eval,
                          options.race_options.t_pre));
    SOIDOM_REQUIRE(options.race_options.skew >= 0.0 &&
                       options.race_options.margin >= 0.0,
                   format("FlowOptions.race_options skew = %g / margin = %g "
                          "are invalid (need >= 0)",
                          options.race_options.skew,
                          options.race_options.margin));
  }
}

FlowOutcome run_flow_guarded(const Network& source, const FlowOptions& options,
                             const GuardOptions& guard_options) {
  return run_guarded(guard_options,
                     [&](GuardContext& guard, FlowOutcome& out) {
                       run_stages(source, options, guard_options, guard, out);
                     });
}

FlowOutcome run_flow_guarded(const BlifModel& model, const FlowOptions& options,
                             const GuardOptions& guard_options) {
  return run_guarded(
      guard_options, [&](GuardContext& guard, FlowOutcome& out) {
        enter(guard, FlowStage::kValidate);
        validate(options);
        run_decomposed(model, options, guard_options, guard, out);
      });
}

FlowOutcome run_flow_guarded_file(const std::string& path,
                                  const FlowOptions& options,
                                  const GuardOptions& guard_options) {
  return run_guarded(
      guard_options, [&](GuardContext& guard, FlowOutcome& out) {
        enter(guard, FlowStage::kParse);
        SOIDOM_FAULT_PROBE(FlowStage::kParse);
        const BlifModel model = parse_blif_file(path);
        run_decomposed(model, options, guard_options, guard, out);
      });
}

FlowResult run_flow(const Network& source, const FlowOptions& options) {
  return take_result(
      run_flow_guarded(source, options, GuardOptions::strict()));
}

FlowResult run_flow(const BlifModel& model, const FlowOptions& options) {
  return take_result(run_flow_guarded(model, options, GuardOptions::strict()));
}

FlowResult run_flow_file(const std::string& path, const FlowOptions& options) {
  return take_result(
      run_flow_guarded_file(path, options, GuardOptions::strict()));
}

std::string summarize(const FlowResult& r) {
  std::string out = format(
      "gates=%d T_logic=%d T_disch=%d T_total=%d T_clock=%d levels=%d "
      "structure=%s function=%s",
      r.stats.num_gates, r.stats.t_logic, r.stats.t_disch, r.stats.t_total,
      r.stats.t_clock, r.stats.levels,
      r.lint.clean(LintSeverity::kError) ? "ok" : "FAIL",
      r.function.ok() ? "ok" : "FAIL");
  if (r.exact.has_value()) {
    out += format(" exact=%s", *r.exact ? "equivalent" : "DIFFERENT");
  }
  if (r.csa.has_value()) {
    out += format(" csa=%s max_droop=%.3f",
                  r.csa->lint.summary().c_str(), r.csa->report.max_droop);
  }
  if (r.race.has_value()) {
    out += format(" race=%s skew_tol=%.3f",
                  r.race->lint.summary().c_str(),
                  r.race->report.skew_tolerance);
  }
  if (r.prove.has_value()) {
    out += format(" prove=%s", r.prove->summary().c_str());
  }
  return out;
}

std::string summarize(const FlowOutcome& outcome) {
  if (outcome.result.has_value()) return summarize(*outcome.result);
  return outcome.diagnostic.has_value() ? outcome.diagnostic->to_string()
                                        : "no result";
}

}  // namespace soidom
