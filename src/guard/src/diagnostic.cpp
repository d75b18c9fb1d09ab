#include "soidom/guard/diagnostic.hpp"

#include "soidom/base/strings.hpp"

namespace soidom {

const char* flow_stage_name(FlowStage stage) {
  switch (stage) {
    case FlowStage::kNone: return "none";
    case FlowStage::kParse: return "parse";
    case FlowStage::kValidate: return "validate";
    case FlowStage::kDecompose: return "decompose";
    case FlowStage::kUnate: return "unate";
    case FlowStage::kMap: return "map";
    case FlowStage::kPostPass: return "postpass";
    case FlowStage::kSeqAware: return "seqaware";
    case FlowStage::kVerifyStructure: return "verify_structure";
    case FlowStage::kLint: return "lint";
    case FlowStage::kCsa: return "csa";
    case FlowStage::kRace: return "race";
    case FlowStage::kProve: return "prove";
    case FlowStage::kVerifyFunction: return "verify_function";
    case FlowStage::kExact: return "exact";
    case FlowStage::kBatchJournal: return "batch_journal";
    case FlowStage::kBatchSpawn: return "batch_spawn";
    case FlowStage::kBatchWatchdog: return "batch_watchdog";
    case FlowStage::kServeAccept: return "serve_accept";
    case FlowStage::kServeCacheRead: return "serve_cache_read";
    case FlowStage::kServeCacheSpill: return "serve_cache_spill";
    case FlowStage::kServeDrain: return "serve_drain";
  }
  return "unknown";
}

std::optional<FlowStage> flow_stage_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFlowStageCount; ++i) {
    const auto stage = static_cast<FlowStage>(i);
    if (name == flow_stage_name(stage)) return stage;
  }
  return std::nullopt;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kInvalidOptions: return "invalid_options";
    case ErrorCode::kInfeasibleLimits: return "infeasible_limits";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kBudgetExceeded: return "budget_exceeded";
    case ErrorCode::kBddNodeLimit: return "bdd_node_limit";
    case ErrorCode::kVerificationFailed: return "verification_failed";
    case ErrorCode::kFaultInjected: return "fault_injected";
    case ErrorCode::kProofTimeout: return "proof_timeout";
  }
  return "unknown";
}

std::optional<ErrorCode> error_code_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
    const auto code = static_cast<ErrorCode>(i);
    if (name == error_code_name(code)) return code;
  }
  return std::nullopt;
}

std::string Diagnostic::to_string() const {
  std::string out = format("%s: %s: %s", flow_stage_name(stage),
                           error_code_name(code), message.c_str());
  if (!context.empty()) {
    out += " (";
    for (std::size_t i = 0; i < context.size(); ++i) {
      if (i) out += "; ";
      out += context[i];
    }
    out += ")";
  }
  return out;
}

std::string Diagnostic::to_json() const {
  std::string out = format(R"({"code":"%s","stage":"%s","message":"%s")",
                           error_code_name(code), flow_stage_name(stage),
                           json_escape(message).c_str());
  out += ",\"context\":[";
  for (std::size_t i = 0; i < context.size(); ++i) {
    if (i) out += ",";
    out += '"';
    out += json_escape(context[i]);
    out += '"';
  }
  out += "]}";
  return out;
}

int cli_exit_code(const Diagnostic& diagnostic) {
  switch (diagnostic.code) {
    case ErrorCode::kParseError: return 2;
    case ErrorCode::kInfeasibleLimits: return 3;
    case ErrorCode::kVerificationFailed: return 4;
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kCancelled:
    case ErrorCode::kBudgetExceeded:
    case ErrorCode::kBddNodeLimit:
    case ErrorCode::kProofTimeout: return 5;
    case ErrorCode::kInvalidOptions: return 64;  // EX_USAGE
    case ErrorCode::kInternal:
    case ErrorCode::kFaultInjected: return 1;
  }
  return 1;
}

}  // namespace soidom
