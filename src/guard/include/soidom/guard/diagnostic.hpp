/// \file diagnostic.hpp
/// Structured failure reporting for the mapping pipeline.
///
/// A Diagnostic is the machine-readable form of a recoverable failure: an
/// error code, the pipeline stage that failed, a human-readable message,
/// and an optional chain of context strings (outermost first).  GuardError
/// is the exception that carries one; it derives from soidom::Error so
/// every existing `catch (const Error&)` site still works, while the
/// guarded facade (core/flow.hpp) can recover code and stage without
/// parsing prose.  See docs/ERRORS.md for the conventions.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "soidom/base/contracts.hpp"

namespace soidom {

/// Pipeline stages, in flow order.  Used for failure attribution and as
/// fault-injection probe identifiers (one probe per stage).
enum class FlowStage : std::uint8_t {
  kNone = 0,         ///< outside any stage / not attributed
  kParse,            ///< BLIF / Verilog front end
  kValidate,         ///< option validation
  kDecompose,        ///< 2-input decomposition
  kUnate,            ///< binate-to-unate conversion
  kMap,              ///< DP technology mapping
  kPostPass,         ///< discharge insertion / stack rearrangement
  kSeqAware,         ///< sequence-aware discharge pruning
  kVerifyStructure,  ///< probe point before lint (whose rules are the
                     ///< structural netlist checks)
  kLint,             ///< rule-based static lint over the mapped netlist
  kCsa,              ///< charge-sharing / PBE-safety static analysis
  kRace,             ///< phase / monotonicity / race static analysis
  kProve,            ///< exact (BDD) refinement of analyzer findings
  kVerifyFunction,   ///< random-simulation equivalence
  kExact,            ///< BDD exact equivalence
  // Batch-runner stages (batch/runner.hpp); they carry fault-injection
  // probes like the pipeline stages but attribute failures of the
  // orchestration layer, not of any one circuit's flow.
  kBatchJournal,     ///< run-journal append / manifest write
  kBatchSpawn,       ///< forking an isolated job subprocess
  kBatchWatchdog,    ///< attempt set-up; isolated child past its deadline
  // Mapping-service stages (serve/server.hpp): the socket front end and
  // the persistent cone cache.  Probes here let tests prove a cache or
  // transport failure degrades to recompute / structured error, never to
  // a wrong mapping (docs/SERVE.md).
  kServeAccept,      ///< socket accept / request admission
  kServeCacheRead,   ///< cone-cache lookup (memory or spill decode)
  kServeCacheSpill,  ///< cone-cache spill append / flush
  kServeDrain,       ///< graceful drain on SIGINT/SIGTERM
};

/// Number of FlowStage values (for tables indexed by stage).
inline constexpr std::size_t kFlowStageCount =
    static_cast<std::size_t>(FlowStage::kServeDrain) + 1;

/// Stable lower-case identifier, e.g. "verify_function".
const char* flow_stage_name(FlowStage stage);

/// Inverse of flow_stage_name; nullopt for any other text.
std::optional<FlowStage> flow_stage_from_name(std::string_view name);

/// Failure classes.  docs/ERRORS.md has the full table with CLI exit codes.
enum class ErrorCode : std::uint8_t {
  kInternal = 0,       ///< unexpected: an invariant or foreign exception
  kParseError,         ///< malformed input text or inconsistent model
  kInvalidOptions,     ///< out-of-range knob caught by validation
  kInfeasibleLimits,   ///< no feasible mapping under the shape limits
  kDeadlineExceeded,   ///< Deadline expired at a checkpoint
  kCancelled,          ///< CancelToken observed at a checkpoint
  kBudgetExceeded,     ///< a ResourceBudget ceiling was hit
  kBddNodeLimit,       ///< BDD blow-up (node limit of the manager)
  kVerificationFailed, ///< structural / functional / exact check failed
  kFaultInjected,      ///< a FaultInjector probe fired (testing only)
  kProofTimeout,       ///< exact-proof node budget hit; conservative
                       ///< verdict kept (prove stage, docs/PROVE.md)
};

/// Number of ErrorCode values.
inline constexpr std::size_t kErrorCodeCount =
    static_cast<std::size_t>(ErrorCode::kProofTimeout) + 1;

/// Stable lower-case identifier, e.g. "deadline_exceeded".
const char* error_code_name(ErrorCode code);

/// Inverse of error_code_name; nullopt for any other text.
std::optional<ErrorCode> error_code_from_name(std::string_view name);

/// One structured failure (or warning) from the guarded flow.
struct Diagnostic {
  ErrorCode code = ErrorCode::kInternal;
  FlowStage stage = FlowStage::kNone;
  std::string message;
  /// Optional context chain, outermost first ("flow variant soi",
  /// "retry 1 of 1", ...).
  std::vector<std::string> context;

  /// "map: budget_exceeded: tuple budget exceeded ... (context; ...)"
  std::string to_string() const;
  /// One JSON object: {"code":...,"stage":...,"message":...,"context":[...]}.
  std::string to_json() const;
};

/// Suggested process exit code for CLI front ends (docs/ERRORS.md):
/// parse error = 2, infeasible mapping = 3, verification mismatch = 4,
/// deadline/cancel/budget = 5, bad options = 64, everything else = 1.
int cli_exit_code(const Diagnostic& diagnostic);

/// Exception carrying a structured failure through throwing interfaces.
class GuardError : public Error {
 public:
  GuardError(ErrorCode code, FlowStage stage, const std::string& message)
      : Error(message), code_(code), stage_(stage) {}

  ErrorCode code() const { return code_; }
  FlowStage stage() const { return stage_; }

  Diagnostic to_diagnostic() const {
    return Diagnostic{code_, stage_, what(), {}};
  }

 private:
  ErrorCode code_;
  FlowStage stage_;
};

}  // namespace soidom
