#include "soidom/lint/lint.hpp"

#include "soidom/base/strings.hpp"

namespace soidom {

const char* lint_severity_name(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "unknown";
}

const char* lint_severity_sarif_level(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kInfo: return "note";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "none";
}

const char* proof_status_name(ProofStatus status) {
  switch (status) {
    case ProofStatus::kNone: return "none";
    case ProofStatus::kConfirmed: return "confirmed";
    case ProofStatus::kRefuted: return "refuted";
    case ProofStatus::kUnknown: return "unknown";
  }
  return "none";
}

std::string LintLocation::to_string(const DominoNetlist* netlist) const {
  std::string out;
  if (gate >= 0) {
    out = format("gate %d", gate);
    if (pdn == 2) out += " (pdn2)";
    if (!detail.empty()) out += " " + detail;
    return out;
  }
  if (output >= 0) {
    out = format("output %d", output);
    if (netlist != nullptr &&
        static_cast<std::size_t>(output) < netlist->outputs().size()) {
      out += format(
          " '%s'",
          netlist->outputs()[static_cast<std::size_t>(output)].name.c_str());
    }
    if (!detail.empty()) out += " " + detail;
    return out;
  }
  if (input >= 0) {
    out = format("input %d", input);
    if (netlist != nullptr &&
        static_cast<std::size_t>(input) < netlist->inputs().size()) {
      out += format(
          " '%s'",
          netlist->inputs()[static_cast<std::size_t>(input)].name.c_str());
    }
    if (!detail.empty()) out += " " + detail;
    return out;
  }
  return detail.empty() ? "netlist" : "netlist " + detail;
}

std::string LintLocation::qualified_name() const {
  std::string out = "netlist";
  if (gate >= 0) {
    out += format("/gate%d/pdn%s", gate, pdn == 2 ? "2" : "");
  } else if (output >= 0) {
    out += format("/output%d", output);
  } else if (input >= 0) {
    out += format("/input%d", input);
  }
  if (!detail.empty()) out += "/" + detail;
  return out;
}

std::string Finding::to_string() const {
  std::string out = format("%s[%s] %s: %s", lint_severity_name(severity),
                           rule.c_str(), location.to_string().c_str(),
                           message.c_str());
  if (!fixit.empty()) out += format(" (fix: %s)", fixit.c_str());
  if (waived) out += " [waived]";
  if (proof != ProofStatus::kNone) {
    out += format(" [proof: %s]", proof_status_name(proof));
  }
  return out;
}

bool waiver_matches(const std::string& waiver, const Finding& finding) {
  const std::size_t at = waiver.find('@');
  const std::string rule = waiver.substr(0, at);
  if (rule != finding.rule) return false;
  if (at == std::string::npos) return true;
  const std::string fragment = waiver.substr(at + 1);
  return finding.location.qualified_name().find(fragment) !=
         std::string::npos;
}

int LintReport::count(LintSeverity at_least) const {
  int n = 0;
  for (const Finding& f : findings) {
    if (!f.waived && f.severity >= at_least) ++n;
  }
  return n;
}

std::string LintReport::summary() const {
  int waived = 0;
  for (const Finding& f : findings) {
    if (f.waived) ++waived;
  }
  const int live = static_cast<int>(findings.size()) - waived;
  if (live == 0) {
    return waived == 0 ? "clean" : format("clean (%d waived)", waived);
  }
  const int errors = count(LintSeverity::kError);
  const int warnings = count(LintSeverity::kWarning) - errors;
  const int infos = live - errors - warnings;
  std::string out;
  auto append = [&](int n, const char* what) {
    if (n == 0) return;
    if (!out.empty()) out += ", ";
    out += format("%d %s%s", n, what, n == 1 ? "" : "s");
  };
  append(errors, "error");
  append(warnings, "warning");
  append(infos, "info");
  if (waived > 0) out += format(" (%d waived)", waived);
  return out;
}

LintReport make_lint_report(std::vector<Finding> findings,
                            std::vector<LintRuleInfo> rules,
                            const std::vector<std::string>& waivers) {
  for (Finding& f : findings) {
    for (const std::string& waiver : waivers) {
      if (waiver_matches(waiver, f)) {
        f.waived = true;
        break;
      }
    }
  }
  LintReport report;
  report.findings = std::move(findings);
  report.rules = std::move(rules);
  return report;
}

}  // namespace soidom
