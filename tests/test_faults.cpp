/// Robustness suite for the guarded flow: every injected fault, tripped
/// guard, or bad option must surface from run_flow_guarded as a clean
/// Diagnostic with correct stage attribution — never a crash, hang, or
/// foreign exception.  See docs/ERRORS.md.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <set>

#include "helpers.hpp"
#include "soidom/batch/runner.hpp"
#include "soidom/benchgen/generators.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/serialize.hpp"
#include "soidom/guard/fault.hpp"

namespace soidom {
namespace {

std::string write_temp_blif(const char* name, const char* text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << text;
  return path;
}

constexpr const char* kAdderBlif =
    ".model t\n.inputs a b c\n.outputs z\n"
    ".names a b t1\n11 1\n"
    ".names t1 c z\n1- 1\n-1 1\n.end\n";

// ---------------------------------------------------------------------------
// Fault injection: one probe per stage, each must attribute correctly.

struct FaultCase {
  FlowStage stage;
  bool via_file;       ///< drive through run_flow_guarded_file
  FlowVariant variant = FlowVariant::kSoiDominoMap;
  bool sequence_aware = false;
  bool exact = false;
  bool csa = false;
};

class FaultAtEveryStage : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultAtEveryStage, SurfacesAsDiagnosticWithStage) {
  const FaultCase& fc = GetParam();
  FaultInjector injector = FaultInjector::fail_at(fc.stage);
  FaultScope scope(injector);

  FlowOptions options;
  options.variant = fc.variant;
  options.sequence_aware = fc.sequence_aware;
  options.exact_equivalence = fc.exact;
  options.csa = fc.csa;

  FlowOutcome outcome;
  if (fc.via_file) {
    const std::string path = write_temp_blif("soidom_fault.blif", kAdderBlif);
    outcome = run_flow_guarded_file(path, options);
  } else {
    outcome = run_flow_guarded(testing::full_adder_network(), options);
  }

  EXPECT_FALSE(outcome.ok());
  ASSERT_TRUE(outcome.diagnostic.has_value()) << flow_stage_name(fc.stage);
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kFaultInjected);
  EXPECT_EQ(outcome.diagnostic->stage, fc.stage)
      << "attributed to " << flow_stage_name(outcome.diagnostic->stage);
  EXPECT_FALSE(outcome.result.has_value());
  EXPECT_EQ(injector.hits(fc.stage), 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllProbes, FaultAtEveryStage,
    ::testing::Values(
        FaultCase{FlowStage::kParse, /*via_file=*/true},
        FaultCase{FlowStage::kDecompose, /*via_file=*/true},
        FaultCase{FlowStage::kUnate, false},
        FaultCase{FlowStage::kMap, false},
        FaultCase{FlowStage::kPostPass, false, FlowVariant::kDominoMap},
        FaultCase{FlowStage::kPostPass, false, FlowVariant::kRsMap},
        FaultCase{FlowStage::kSeqAware, false, FlowVariant::kSoiDominoMap,
                  /*sequence_aware=*/true},
        FaultCase{FlowStage::kVerifyStructure, false},
        FaultCase{FlowStage::kLint, false},
        FaultCase{FlowStage::kCsa, false, FlowVariant::kSoiDominoMap,
                  false, false, /*csa=*/true},
        FaultCase{FlowStage::kVerifyFunction, false},
        FaultCase{FlowStage::kExact, false, FlowVariant::kSoiDominoMap,
                  false, /*exact=*/true}),
    [](const auto& param_info) {
      std::string name = flow_stage_name(param_info.param.stage);
      if (param_info.param.variant == FlowVariant::kDominoMap) {
        name += "_domino";
      }
      if (param_info.param.variant == FlowVariant::kRsMap) name += "_rs";
      return name;
    });

TEST(Fault, UninjectedFlowIsUnaffected) {
  // Probes compiled in but no injector installed: behavior is identical
  // to the plain flow.
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), FlowOptions{});
  EXPECT_TRUE(outcome.ok()) << summarize(outcome);
  EXPECT_TRUE(outcome.warnings.empty());
}

TEST(Fault, ThrowingApiGetsGuardErrorWithStage) {
  FaultInjector injector = FaultInjector::fail_at(FlowStage::kMap);
  FaultScope scope(injector);
  try {
    (void)run_flow(testing::fig3_network(), FlowOptions{});
    FAIL() << "expected GuardError";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kFaultInjected);
    EXPECT_EQ(e.stage(), FlowStage::kMap);
  }
}

TEST(Fault, RandomInjectorIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    FaultInjector injector = FaultInjector::random(seed, 1, 3);
    FaultScope scope(injector);
    const FlowOutcome outcome =
        run_flow_guarded(testing::full_adder_network(), FlowOptions{});
    return outcome.diagnostic.has_value()
               ? std::string(flow_stage_name(outcome.diagnostic->stage))
               : std::string("ok");
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_EQ(run_once(123), run_once(123));
}

TEST(Fault, EveryStageProbesOnce) {
  // Armed on a probe a Network flow never reaches, the injector only
  // counts: each stage the flow runs reaches its probe exactly once.
  FaultInjector injector = FaultInjector::fail_at(FlowStage::kParse);
  FaultScope scope(injector);
  FlowOptions options;
  options.csa = true;
  options.race = true;
  options.prove = true;
  const FlowOutcome outcome = run_flow_guarded(build_benchmark("b9"), options);
  ASSERT_TRUE(outcome.result.has_value()) << summarize(outcome);
  const std::set<FlowStage> reached = {
      FlowStage::kUnate, FlowStage::kMap,  FlowStage::kVerifyStructure,
      FlowStage::kLint,  FlowStage::kCsa,  FlowStage::kRace,
      FlowStage::kProve, FlowStage::kVerifyFunction};
  for (std::size_t i = 0; i < kFlowStageCount; ++i) {
    const auto stage = static_cast<FlowStage>(i);
    EXPECT_EQ(injector.hits(stage), static_cast<int>(reached.count(stage)))
        << flow_stage_name(stage);
  }
}

TEST(Fault, PartialResultsCapturedUpToFailure) {
  FaultInjector injector = FaultInjector::fail_at(FlowStage::kVerifyStructure);
  FaultScope scope(injector);
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), FlowOptions{});
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_TRUE(outcome.partial.unate.has_value());
  EXPECT_TRUE(outcome.partial.netlist.has_value());
  EXPECT_FALSE(outcome.partial.netlist->gates().empty());
}

/// `partial` is filled only when a stage fails: a clean run keeps
/// everything in `result`, a failure after the netlist exists captures
/// exactly the clean run's unate network and netlist, and strict()
/// captures nothing.
TEST(Fault, PartialsAreCapturedOnlyOnFailure) {
  const Network net = build_benchmark("z4ml");
  const FlowOutcome clean = run_flow_guarded(net, FlowOptions{});
  ASSERT_TRUE(clean.ok()) << summarize(clean);
  EXPECT_FALSE(clean.partial.decomposed.has_value());
  EXPECT_FALSE(clean.partial.unate.has_value());
  EXPECT_FALSE(clean.partial.netlist.has_value());
  const std::string clean_dnl = write_dnl(clean.result->netlist);
  const std::string clean_unate =
      cone_key(clean.result->unate, MapperOptions{}).text;

  for (const FlowStage stage : {FlowStage::kLint, FlowStage::kVerifyStructure,
                                FlowStage::kVerifyFunction}) {
    SCOPED_TRACE(flow_stage_name(stage));
    FaultInjector injector = FaultInjector::fail_at(stage);
    FaultScope scope(injector);
    const FlowOutcome failed = run_flow_guarded(net, FlowOptions{});
    ASSERT_TRUE(failed.diagnostic.has_value());
    EXPECT_EQ(failed.diagnostic->stage, stage);
    EXPECT_FALSE(failed.result.has_value());
    ASSERT_TRUE(failed.partial.netlist.has_value());
    EXPECT_EQ(write_dnl(*failed.partial.netlist), clean_dnl);
    ASSERT_TRUE(failed.partial.unate.has_value());
    EXPECT_EQ(cone_key(*failed.partial.unate, MapperOptions{}).text,
              clean_unate);
    EXPECT_FALSE(failed.partial.decomposed.has_value());
  }

  {
    FaultInjector injector = FaultInjector::fail_at(FlowStage::kUnate);
    FaultScope scope(injector);
    const FlowOutcome failed =
        run_flow_guarded(parse_blif(kAdderBlif), FlowOptions{});
    ASSERT_TRUE(failed.diagnostic.has_value());
    EXPECT_EQ(failed.diagnostic->stage, FlowStage::kUnate);
    ASSERT_TRUE(failed.partial.decomposed.has_value());
    EXPECT_EQ(failed.partial.decomposed->outputs().size(), 1u);
    EXPECT_FALSE(failed.partial.unate.has_value());
    EXPECT_FALSE(failed.partial.netlist.has_value());
  }

  FaultInjector injector = FaultInjector::fail_at(FlowStage::kLint);
  FaultScope scope(injector);
  const FlowOutcome strict =
      run_flow_guarded(parse_blif(kAdderBlif), FlowOptions{},
                       GuardOptions::strict());
  ASSERT_TRUE(strict.diagnostic.has_value());
  EXPECT_EQ(strict.diagnostic->stage, FlowStage::kLint);
  EXPECT_FALSE(strict.partial.decomposed.has_value());
  EXPECT_FALSE(strict.partial.unate.has_value());
  EXPECT_FALSE(strict.partial.netlist.has_value());
}

// ---------------------------------------------------------------------------
// Deadline / cancellation / budgets.

TEST(Guarded, ExpiredDeadlineTripsCleanly) {
  GuardOptions gopts;
  gopts.deadline = Deadline::after_ms(0);
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), FlowOptions{}, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kDeadlineExceeded);
}

/// A deadline that passes while the flow runs stops it.  The guard reads
/// the clock on its first checkpoint and then every 256th; that clock is
/// the only deadline an in-process batch attempt has.
TEST(Guarded, DeadlineExpiringMidFlowStopsIt) {
  // Built beforehand; mapping it takes far longer than the deadline.
  const Network net = gen_multiplier(48);
  GuardOptions gopts;
  gopts.deadline = Deadline::after_ms(10);
  const FlowOutcome outcome = run_flow_guarded(net, FlowOptions{}, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kDeadlineExceeded);
  EXPECT_GT(outcome.diagnostic->stage, FlowStage::kValidate)
      << flow_stage_name(outcome.diagnostic->stage);
  EXPECT_FALSE(outcome.result.has_value());
}

TEST(Guarded, PreCancelledTokenTripsCleanly) {
  GuardOptions gopts;
  gopts.cancel.request_cancel();
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), FlowOptions{}, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kCancelled);
}

TEST(Guarded, TupleBudgetTripsInMapper) {
  GuardOptions gopts;
  gopts.budget.max_tuples = 1;
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), FlowOptions{}, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kBudgetExceeded);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kMap);
  // The unate network completed before the trip.
  EXPECT_TRUE(outcome.partial.unate.has_value());
}

/// A tight tuple ceiling trips on a random network, and a generous
/// ceiling that accounts for retained-arena growth does not.
TEST(Guarded, TupleBudgetTripsOnlyWhenTight) {
  const Network net = testing::random_network(8, 60, 4, 0x7EA9);
  FlowOptions fopts;
  fopts.verify_rounds = 0;
  GuardOptions gopts;
  gopts.on_infeasible_limits = FallbackAction::kFail;
  gopts.budget.max_tuples = 50;  // raw + retained charges blow past this
  const FlowOutcome tripped = run_flow_guarded(net, fopts, gopts);
  ASSERT_TRUE(tripped.diagnostic.has_value());
  EXPECT_EQ(tripped.diagnostic->code, ErrorCode::kBudgetExceeded);
  EXPECT_EQ(tripped.diagnostic->stage, FlowStage::kMap);

  gopts.budget.max_tuples = 1u << 22;
  const FlowOutcome fine = run_flow_guarded(net, fopts, gopts);
  EXPECT_TRUE(fine.ok()) << summarize(fine);
}

/// The mapper checks the installed guard before every node, so a
/// cancelled token stops the DP pass itself with kCancelled at stage kMap.
/// (Through run_flow_guarded a pre-cancelled token already trips in
/// make_unate, before the mapper runs.)
TEST(Guarded, CancelStopsTheMapperPass) {
  const UnateResult unate = make_unate(build_benchmark("c8"));
  CancelToken cancel;
  cancel.request_cancel();
  GuardContext guard(Deadline::never(), cancel, ResourceBudget{});
  GuardScope scope(guard);
  try {
    (void)map_to_domino(unate, MapperOptions{});
    ADD_FAILURE() << "the mapper ignored a cancelled token";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    EXPECT_EQ(e.stage(), FlowStage::kMap);
  }
}

/// A tuple ceiling that a larger circuit crosses partway through the DP
/// pass (not on its first node) surfaces as a clean kBudgetExceeded
/// Diagnostic at stage kMap, with the unate network kept as a partial.
TEST(Guarded, TupleBudgetTripsPartwayThroughMapping) {
  GuardOptions gopts;
  gopts.budget.max_tuples = 50;
  const FlowOutcome outcome =
      run_flow_guarded(build_benchmark("c8"), FlowOptions{}, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kBudgetExceeded);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kMap);
  EXPECT_TRUE(outcome.partial.unate.has_value());
}

/// Budget accounting includes the retained arena (not just transient raw
/// candidates): the total charged is at least the retained-candidate count
/// the mapper reports.
TEST(Guarded, TupleChargesCoverRetainedArena) {
  const UnateResult unate = make_unate(testing::full_adder_network());
  const MappingResult reference = map_to_domino(unate, MapperOptions{});

  GuardContext guard(Deadline::never(), CancelToken{}, ResourceBudget{});
  {
    GuardScope scope(guard);
    (void)map_to_domino(unate, MapperOptions{});
  }
  EXPECT_GE(guard.used(Resource::kTuples), reference.candidates_retained);
  EXPECT_GE(guard.used(Resource::kTuples), reference.candidates_examined);
}

TEST(Guarded, NetworkNodeBudgetTripsInUnate) {
  GuardOptions gopts;
  gopts.budget.max_network_nodes = 1;
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), FlowOptions{}, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kBudgetExceeded);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kUnate);
}

TEST(Guarded, NetworkNodeBudgetTripsInDecompose) {
  GuardOptions gopts;
  gopts.budget.max_network_nodes = 1;
  const FlowOutcome outcome =
      run_flow_guarded(parse_blif(kAdderBlif), FlowOptions{}, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kBudgetExceeded);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kDecompose);
}

TEST(Guarded, BddBudgetFallsBackToSimulationByDefault) {
  FlowOptions options;
  options.exact_equivalence = true;
  options.verify_rounds = 0;  // force the fallback to supply the check
  GuardOptions gopts;
  gopts.budget.max_bdd_nodes = 8;
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), options, gopts);
  EXPECT_TRUE(outcome.ok()) << summarize(outcome);
  ASSERT_FALSE(outcome.warnings.empty());
  EXPECT_EQ(outcome.warnings[0].code, ErrorCode::kBddNodeLimit);
  EXPECT_EQ(outcome.warnings[0].stage, FlowStage::kExact);
  ASSERT_TRUE(outcome.result.has_value());
  EXPECT_FALSE(outcome.result->exact.has_value());
  EXPECT_TRUE(outcome.result->function.ok());  // fallback simulation ran
}

TEST(Guarded, BddBudgetFailsWhenPolicyIsFail) {
  FlowOptions options;
  options.exact_equivalence = true;
  GuardOptions gopts;
  gopts.budget.max_bdd_nodes = 8;
  gopts.on_exact_blowup = FallbackAction::kFail;
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), options, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kBudgetExceeded);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kExact);
}

TEST(Guarded, BddNodeLimitBlowupFallsBackWithWarning) {
  FlowOptions options;
  options.exact_equivalence = true;
  options.bdd_node_limit = 4;  // tiny: guaranteed blow-up
  const FlowOutcome outcome =
      run_flow_guarded(testing::full_adder_network(), options);
  EXPECT_TRUE(outcome.ok()) << summarize(outcome);
  ASSERT_FALSE(outcome.warnings.empty());
  EXPECT_EQ(outcome.warnings[0].code, ErrorCode::kBddNodeLimit);
}

// ---------------------------------------------------------------------------
// Infeasible-limit fallback.

TEST(Guarded, InfeasibleWidthRetriesRelaxedByDefault) {
  FlowOptions options;
  options.mapper.max_width = 1;  // an OR network cannot map at width 1
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  EXPECT_TRUE(outcome.ok()) << summarize(outcome);
  ASSERT_FALSE(outcome.warnings.empty());
  EXPECT_EQ(outcome.warnings[0].code, ErrorCode::kInfeasibleLimits);
  EXPECT_EQ(outcome.warnings[0].stage, FlowStage::kMap);
}

TEST(Guarded, InfeasibleWidthFailsWhenPolicyIsFail) {
  FlowOptions options;
  options.mapper.max_width = 1;
  GuardOptions gopts;
  gopts.on_infeasible_limits = FallbackAction::kFail;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options, gopts);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kInfeasibleLimits);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kMap);
  EXPECT_NE(outcome.diagnostic->message.find("max_width"), std::string::npos);
}

TEST(Guarded, StrictModeMatchesPlainRunFlow) {
  FlowOptions options;
  options.mapper.max_width = 1;
  const FlowOutcome outcome = run_flow_guarded(
      testing::fig3_network(), options, GuardOptions::strict());
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kInfeasibleLimits);
  EXPECT_THROW((void)run_flow(testing::fig3_network(), options), Error);
}

// ---------------------------------------------------------------------------
// Option validation: every bad field rejects with a message naming it.

template <typename Options>
std::string rejection_message(const Options& options) {
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  if (!outcome.diagnostic.has_value()) return "(accepted)";
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kInvalidOptions);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kValidate);
  return outcome.diagnostic->message;
}

TEST(Validate, BadMaxWidthNamesField) {
  FlowOptions options;
  options.mapper.max_width = 0;
  EXPECT_NE(rejection_message(options).find("max_width"), std::string::npos);
}

TEST(Validate, BadMaxHeightNamesField) {
  FlowOptions options;
  options.mapper.max_height = 0;
  EXPECT_NE(rejection_message(options).find("max_height"), std::string::npos);
}

TEST(Validate, BadBeamWidthNamesField) {
  FlowOptions options;
  options.mapper.beam_width = 0;
  EXPECT_NE(rejection_message(options).find("beam_width"), std::string::npos);
}

TEST(Validate, BadClockWeightNamesField) {
  FlowOptions options;
  options.mapper.clock_weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(rejection_message(options).find("clock_weight"),
            std::string::npos);
  options.mapper.clock_weight = -1.0;
  EXPECT_NE(rejection_message(options).find("clock_weight"),
            std::string::npos);
}

TEST(Validate, BadVerifyRoundsNamesField) {
  FlowOptions options;
  options.verify_rounds = -1;
  EXPECT_NE(rejection_message(options).find("verify_rounds"),
            std::string::npos);
}

TEST(Validate, BadBddNodeLimitNamesField) {
  FlowOptions options;
  options.bdd_node_limit = 1;
  EXPECT_NE(rejection_message(options).find("bdd_node_limit"),
            std::string::npos);
}

TEST(Validate, ThrowingInterfaceStillThrows) {
  FlowOptions options;
  options.mapper.beam_width = -5;
  EXPECT_THROW(validate(options), Error);
  EXPECT_THROW((void)run_flow(testing::fig3_network(), options), Error);
}

TEST(Validate, DefaultsAreValid) {
  EXPECT_NO_THROW(validate(FlowOptions{}));
  EXPECT_NO_THROW(validate(MapperOptions{}));
}

// ---------------------------------------------------------------------------
// Diagnostic formatting.

TEST(Diagnostic, ToStringAndJsonAreStable) {
  Diagnostic d{ErrorCode::kBudgetExceeded, FlowStage::kMap,
               "tuple budget exceeded", {"variant soi", "retry 0"}};
  const std::string text = d.to_string();
  EXPECT_NE(text.find("map"), std::string::npos);
  EXPECT_NE(text.find("budget_exceeded"), std::string::npos);
  EXPECT_NE(text.find("variant soi"), std::string::npos);
  const std::string json = d.to_json();
  EXPECT_NE(json.find("\"code\":\"budget_exceeded\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"map\""), std::string::npos);
  EXPECT_NE(json.find("\"context\":[\"variant soi\",\"retry 0\"]"),
            std::string::npos);
}

TEST(Diagnostic, JsonEscapesSpecials) {
  Diagnostic d{ErrorCode::kParseError, FlowStage::kParse,
               "bad \"token\"\n\tat line 3", {}};
  const std::string json = d.to_json();
  EXPECT_NE(json.find("\\\"token\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(Diagnostic, CliExitCodes) {
  auto code_for = [](ErrorCode c) {
    return cli_exit_code(Diagnostic{c, FlowStage::kNone, "", {}});
  };
  EXPECT_EQ(code_for(ErrorCode::kParseError), 2);
  EXPECT_EQ(code_for(ErrorCode::kInfeasibleLimits), 3);
  EXPECT_EQ(code_for(ErrorCode::kVerificationFailed), 4);
  EXPECT_EQ(code_for(ErrorCode::kDeadlineExceeded), 5);
  EXPECT_EQ(code_for(ErrorCode::kCancelled), 5);
  EXPECT_EQ(code_for(ErrorCode::kBudgetExceeded), 5);
  EXPECT_EQ(code_for(ErrorCode::kInvalidOptions), 64);
  EXPECT_EQ(code_for(ErrorCode::kInternal), 1);
}

/// error_code_from_name / flow_stage_from_name invert the name functions
/// over every value, the last ones included, and reject any other text.
TEST(Diagnostic, NamesDecodeBackToEveryValue) {
  for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
    const auto code = static_cast<ErrorCode>(i);
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code)
        << error_code_name(code);
  }
  for (std::size_t i = 0; i < kFlowStageCount; ++i) {
    const auto stage = static_cast<FlowStage>(i);
    EXPECT_EQ(flow_stage_from_name(flow_stage_name(stage)), stage)
        << flow_stage_name(stage);
  }
  // The counts end at the last named value.
  EXPECT_EQ(error_code_from_name("proof_timeout"), ErrorCode::kProofTimeout);
  EXPECT_STREQ(error_code_name(static_cast<ErrorCode>(kErrorCodeCount)),
               "unknown");
  EXPECT_EQ(flow_stage_from_name("serve_drain"), FlowStage::kServeDrain);
  EXPECT_STREQ(flow_stage_name(static_cast<FlowStage>(kFlowStageCount)),
               "unknown");
  for (const char* text : {"", "unknown", "Parse", "parse_error ", "map\n"}) {
    EXPECT_FALSE(error_code_from_name(text).has_value()) << text;
    EXPECT_FALSE(flow_stage_from_name(text).has_value()) << text;
  }
}

// ---------------------------------------------------------------------------
// Batch-stage probes (src/batch): a journal-write fault aborts the batch
// with correct attribution; spawn/watchdog faults are crash-class attempt
// failures the retry ladder absorbs.  All with max_parallel = 1 so the
// pool runs inline on this thread, where the FaultScope is installed.

namespace {
BatchOptions inline_batch_options() {
  BatchOptions options;
  options.flow.verify_rounds = 2;
  options.max_parallel = 1;
  options.retry.backoff_base_ms = 0;
  return options;
}
}  // namespace

TEST(BatchFault, JournalWriteFaultAbortsBatchWithAttribution) {
  BatchOptions options = inline_batch_options();
  options.journal_path = ::testing::TempDir() + "/soidom_bf_journal.jsonl";
  FaultInjector injector = FaultInjector::fail_at(FlowStage::kBatchJournal);
  FaultScope scope(injector);
  const BatchResult result = run_batch({BatchJob{"z4ml", ""}}, options);
  ASSERT_TRUE(result.aborted.has_value());
  EXPECT_EQ(result.aborted->code, ErrorCode::kFaultInjected);
  EXPECT_EQ(result.aborted->stage, FlowStage::kBatchJournal);
  EXPECT_FALSE(result.jobs[0].terminal);
  EXPECT_EQ(injector.hits(FlowStage::kBatchJournal), 1);
}

TEST(BatchFault, WatchdogFaultIsRetriedToSuccess) {
  BatchOptions options = inline_batch_options();
  options.retry.max_attempts = 2;
  FaultInjector injector = FaultInjector::fail_at(FlowStage::kBatchWatchdog);
  FaultScope scope(injector);
  const BatchResult result = run_batch({BatchJob{"z4ml", ""}}, options);
  EXPECT_EQ(result.ok, 1);
  ASSERT_EQ(result.jobs[0].attempts.size(), 2u);
  ASSERT_TRUE(result.jobs[0].attempts[0].diagnostic.has_value());
  EXPECT_EQ(result.jobs[0].attempts[0].diagnostic->code,
            ErrorCode::kFaultInjected);
  EXPECT_EQ(result.jobs[0].attempts[0].diagnostic->stage,
            FlowStage::kBatchWatchdog);
  EXPECT_TRUE(result.jobs[0].attempts[1].ok);
}

TEST(BatchFault, SpawnFaultIsRetriedToSuccessInIsolateMode) {
  BatchOptions options = inline_batch_options();
  options.isolate = true;
  options.retry.max_attempts = 2;
  FaultInjector injector = FaultInjector::fail_at(FlowStage::kBatchSpawn);
  FaultScope scope(injector);
  const BatchResult result = run_batch({BatchJob{"z4ml", ""}}, options);
  EXPECT_EQ(result.ok, 1);
  EXPECT_EQ(result.jobs[0].record.attempts, 2);
  ASSERT_TRUE(result.jobs[0].attempts[0].diagnostic.has_value());
  EXPECT_EQ(result.jobs[0].attempts[0].diagnostic->stage,
            FlowStage::kBatchSpawn);
}

TEST(BatchFault, ExhaustedInjectedFaultsQuarantine) {
  BatchOptions options = inline_batch_options();
  options.retry.max_attempts = 2;
  // numer == denom: every probe fires, so every attempt fails and the
  // job must end quarantined (crash class) after the budget.
  FaultInjector always = FaultInjector::random(1, 1, 1);
  FaultScope scope(always);
  const BatchResult result = run_batch({BatchJob{"z4ml", ""}}, options);
  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.jobs[0].record.status, JobStatus::kQuarantined);
  EXPECT_EQ(result.jobs[0].record.attempts, 2);
  EXPECT_EQ(result.jobs[0].record.code, "fault_injected");
}

TEST(Guarded, ParseErrorFromFileEntryPoint) {
  const std::string path =
      write_temp_blif("soidom_bad.blif", ".model broken\n.names\n");
  const FlowOutcome outcome = run_flow_guarded_file(path, FlowOptions{});
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kParseError);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kParse);
}

TEST(Guarded, MissingFileIsAParseDiagnosticNotACrash) {
  const FlowOutcome outcome =
      run_flow_guarded_file("/nonexistent/file.blif", FlowOptions{});
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kParseError);
}

}  // namespace
}  // namespace soidom
