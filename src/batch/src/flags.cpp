#include "soidom/batch/flags.hpp"

#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

#include "soidom/base/strings.hpp"

namespace soidom {

Flag::Flag(std::string_view text) : name_(text) {
  const std::size_t eq = text.find('=');
  if (eq != std::string_view::npos) {
    name_ = text.substr(0, eq);
    value_ = text.substr(eq + 1);
    has_value_ = true;
  }
}

bool Flag::is(std::string_view name) const {
  return !has_value_ && name_ == name;
}

bool Flag::has(std::string_view name) const {
  return has_value_ && name_ == name;
}

int Flag::integer(int min) const {
  int out = 0;
  if (!parse_int_strict(value_, &out)) reject("an integer");
  if (out < min) {
    reject(min == 0 ? "a non-negative integer"
                    : format("an integer >= %d", min).c_str());
  }
  return out;
}

double Flag::number() const {
  double out = 0.0;
  if (!parse_double_strict(value_, &out)) reject("a number");
  return out;
}

void Flag::reject(const char* what) const {
  throw Error(format("%.*s needs %s, got '%.*s'", static_cast<int>(name_.size()),
                     name_.data(), what, static_cast<int>(value_.size()),
                     value_.data()));
}

namespace {

/// The value of `--name=WORD` among `choices`; `what` lists them.
template <typename T>
T choice(const Flag& flag,
         std::initializer_list<std::pair<std::string_view, T>> choices,
         const char* what) {
  for (const auto& [word, value] : choices) {
    if (flag.value() == word) return value;
  }
  flag.reject(what);
}

LintSeverity severity_of(const Flag& flag) {
  return choice<LintSeverity>(flag,
                              {{"error", LintSeverity::kError},
                               {"warning", LintSeverity::kWarning},
                               {"info", LintSeverity::kInfo}},
                              "error|warning|info");
}

}  // namespace

bool parse_flow_flag(const Flag& flag, FlowOptions& flow) {
  if (flag.has("--flow")) {
    flow.variant = choice<FlowVariant>(flag,
                                       {{"domino", FlowVariant::kDominoMap},
                                        {"rs", FlowVariant::kRsMap},
                                        {"soi", FlowVariant::kSoiDominoMap}},
                                       "domino|rs|soi");
  } else if (flag.has("--objective")) {
    flow.mapper.objective = choice<CostObjective>(
        flag,
        {{"area", CostObjective::kArea}, {"depth", CostObjective::kDepth}},
        "area|depth");
  } else if (flag.has("--wmax")) {
    flow.mapper.max_width = flag.integer();
  } else if (flag.has("--hmax")) {
    flow.mapper.max_height = flag.integer();
  } else if (flag.has("--k")) {
    flow.mapper.clock_weight = flag.number();
  } else if (flag.is("--minimize")) {
    flow.decompose.minimize_covers = true;
  } else if (flag.is("--seq-aware")) {
    flow.sequence_aware = true;
  } else if (flag.is("--exact")) {
    flow.exact_equivalence = true;
  } else if (flag.has("--verify")) {
    flow.verify_rounds = flag.integer(0);
  } else if (flag.has("--lint-fail-on")) {
    flow.lint_fail_on = severity_of(flag);
  } else if (flag.is("--csa") || flag.is("--race") || flag.is("--prove")) {
    // Turned on below.
  } else if (flag.has("--csa-margin")) {
    flow.csa_options.margin = flag.number();
  } else if (flag.has("--race-fail-on")) {
    flow.race_fail_on = severity_of(flag);
  } else if (flag.has("--race-phases")) {
    flow.race_options.num_phases = flag.integer(0);
  } else if (flag.has("--race-teval")) {
    flow.race_options.t_eval = flag.number();
  } else if (flag.has("--race-tpre")) {
    flow.race_options.t_pre = flag.number();
  } else if (flag.has("--race-skew")) {
    flow.race_options.skew = flag.number();
  } else if (flag.has("--race-margin")) {
    flow.race_options.margin = flag.number();
  } else if (flag.has("--prove-budget")) {
    flow.prove_options.node_budget =
        static_cast<std::uint32_t>(flag.integer(0));
  } else if (flag.has("--prove-fail-on")) {
    flow.prove_fail_on = severity_of(flag);
  } else if (flag.is("--prove-strict")) {
    flow.prove_options.fail_on_budget = true;
  } else {
    return false;
  }
  // An analyzer's switch and its value flags (--csa, --csa-margin, ...)
  // turn the analyzer on.
  flow.csa = flow.csa || starts_with(flag.name(), "--csa");
  flow.race = flow.race || starts_with(flag.name(), "--race");
  flow.prove = flow.prove || starts_with(flag.name(), "--prove");
  return true;
}

bool parse_job_flag(const Flag& flag, BatchOptions& batch) {
  if (flag.has("--timeout-ms")) {
    batch.job_timeout_ms = flag.integer(0);
  } else if (flag.has("--attempts")) {
    batch.retry.max_attempts = flag.integer(0);
  } else if (flag.has("--backoff-ms")) {
    batch.retry.backoff_base_ms = flag.integer(0);
  } else if (flag.has("--inject")) {
    unsigned long long numer = 0;
    unsigned long long denom = 0;
    unsigned long long seed = 0;
    if (std::sscanf(std::string(flag.value()).c_str(), "%llu/%llu@%llu",
                    &numer, &denom, &seed) != 3 ||
        denom == 0) {
      flag.reject("N/D@SEED with D > 0");
    }
    batch.fault = BatchFaultPlan{seed, numer, denom};
  } else {
    return parse_flow_flag(flag, batch.flow);
  }
  return true;
}

bool parse_batch_run_flag(const Flag& flag, BatchOptions& batch) {
  if (flag.has("--jobs")) {
    batch.max_parallel = flag.integer(0);
  } else if (flag.is("--isolate")) {
    batch.isolate = true;
  } else if (flag.has("--journal")) {
    batch.journal_path = flag.value();
  } else if (flag.has("--manifest")) {
    batch.manifest_path = flag.value();
  } else if (flag.is("--resume")) {
    batch.resume = true;
  } else {
    return parse_job_flag(flag, batch);
  }
  return true;
}

const char* const kFlowFlagsUsage =
    "flow flags (SEV = error|warning|info):\n"
    "  [--flow=domino|rs|soi] [--objective=area|depth] [--wmax=N] [--hmax=N]\n"
    "  [--k=F] [--minimize] [--seq-aware] [--exact] [--verify=N]\n"
    "  [--lint-fail-on=SEV] [--csa] [--csa-margin=X]\n"
    "  [--race] [--race-fail-on=SEV] [--race-phases=N] [--race-teval=X]\n"
    "  [--race-tpre=X] [--race-skew=X] [--race-margin=X]\n"
    "  [--prove] [--prove-budget=N] [--prove-fail-on=SEV] [--prove-strict]\n";

const char* const kJobFlagsUsage =
    "job flags:\n"
    "  [--timeout-ms=N] [--attempts=N] [--backoff-ms=N] [--inject=N/D@SEED]\n";

const char* const kBatchRunFlagsUsage =
    "batch-run flags:\n"
    "  [--jobs=N] [--isolate] [--journal=FILE] [--manifest=FILE] [--resume]\n";

}  // namespace soidom
