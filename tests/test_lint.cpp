/// \file test_lint.cpp
/// The lint engine: one deliberately-corrupted netlist per rule (each must
/// fire exactly its intended rule), report emitters (text / JSON / SARIF
/// 2.1.0 shape), the verify_structure compatibility shim, and the
/// paper-table circuits mapping + linting clean at every thread count.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "helpers.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/domino/verify.hpp"
#include "soidom/lint/lint.hpp"
#include "soidom/network/builder.hpp"

namespace soidom {
namespace {

// --- small JSON well-formedness parser (validates emitter output and the
// --- SARIF 2.1.0 shape without external dependencies) ----------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p; ++p) {
      if (!eat(*p)) return false;
    }
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_++])) == 0) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
    }
    return false;
  }
  bool digit() const {
    return std::isdigit(static_cast<unsigned char>(peek())) != 0;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (digit()) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (digit()) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (digit()) ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      if (!value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }
  bool array() {
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool json_well_formed(const std::string& text) {
  return JsonParser(text).valid();
}

// --- fixture helpers -------------------------------------------------------

/// Number of error-severity findings carrying `rule`.
int errors_with_rule(const LintReport& report, const std::string& rule) {
  int n = 0;
  for (const Finding& f : report.findings) {
    if (f.severity == LintSeverity::kError && f.rule == rule) ++n;
  }
  return n;
}

/// Asserts the report's error findings all carry `rule` (at least one).
void expect_only_error_rule(const LintReport& report, const std::string& rule) {
  EXPECT_GT(errors_with_rule(report, rule), 0) << report.to_text();
  for (const Finding& f : report.findings) {
    if (f.severity == LintSeverity::kError) {
      EXPECT_EQ(f.rule, rule) << f.to_string();
    }
  }
}

/// One footed gate over the first `leaves` input literals, combined
/// `series` or parallel, with a named output.
DominoNetlist simple_netlist(int leaves, bool series) {
  DominoNetlist nl;
  std::vector<std::uint32_t> sigs;
  for (int i = 0; i < leaves; ++i) {
    sigs.push_back(nl.add_input({"x" + std::to_string(i), i, false}));
  }
  DominoGate g;
  std::vector<PdnIndex> kids;
  for (const std::uint32_t s : sigs) kids.push_back(g.pdn.add_leaf(s));
  g.pdn.set_root(series ? g.pdn.add_series(std::move(kids))
                        : g.pdn.add_parallel(std::move(kids)));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  return nl;
}

// --- engine basics ---------------------------------------------------------

TEST(Lint, SeverityNames) {
  EXPECT_STREQ(lint_severity_name(LintSeverity::kError), "error");
  EXPECT_STREQ(lint_severity_name(LintSeverity::kWarning), "warning");
  EXPECT_STREQ(lint_severity_name(LintSeverity::kInfo), "info");
  EXPECT_STREQ(lint_severity_sarif_level(LintSeverity::kError), "error");
  EXPECT_STREQ(lint_severity_sarif_level(LintSeverity::kWarning), "warning");
  EXPECT_STREQ(lint_severity_sarif_level(LintSeverity::kInfo), "note");
}

TEST(Lint, CleanNetlistLintsClean) {
  const LintReport report = run_lint(simple_netlist(2, true));
  EXPECT_TRUE(report.clean(LintSeverity::kInfo)) << report.to_text();
  EXPECT_EQ(report.summary(), "clean");
  EXPECT_GE(report.rules.size(), 13u);  // the full built-in catalogue ran
  EXPECT_EQ(report.to_text(), "lint: clean\n");
}

TEST(Lint, DisabledRulesAreSkipped) {
  DominoNetlist nl = simple_netlist(1, true);
  nl.gates()[0].footed = false;  // footedness violation
  LintOptions options;
  EXPECT_FALSE(run_lint(nl, options).clean());
  options.disabled_rules = {"footedness"};
  const LintReport report = run_lint(nl, options);
  EXPECT_TRUE(report.clean()) << report.to_text();
  for (const LintRuleInfo& info : report.rules) {
    EXPECT_NE(info.id, "footedness");  // not even in the rules table
  }
}

TEST(Lint, CustomRuleGetsIdBackfilled) {
  class AlwaysFires final : public LintRule {
   public:
    const char* id() const override { return "custom-rule"; }
    const char* summary() const override { return "always fires"; }
    bool needs_sound() const override { return false; }
    void run(const LintContext&, std::vector<Finding>& out) const override {
      Finding f;
      f.message = "hello";
      out.push_back(std::move(f));  // rule id left empty on purpose
    }
  };
  LintRegistry registry;
  registry.add(std::make_unique<AlwaysFires>());
  const LintReport report = run_lint(registry, simple_netlist(1, true));
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "custom-rule");
}

// --- one corrupted fixture per rule ----------------------------------------

TEST(LintRules, TopoOrderFires) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  DominoGate g;  // leaf 1 is this gate's own output signal
  g.pdn.set_root(g.pdn.add_series({g.pdn.add_leaf(a), g.pdn.add_leaf(1)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  const LintReport report = run_lint(nl);
  expect_only_error_rule(report, "topo-order");
  EXPECT_NE(report.to_text().find("topologically"), std::string::npos);
}

TEST(LintRules, DanglingRefFiresOnLeafSignal) {
  DominoNetlist nl;
  (void)nl.add_input({"a", 0, false});
  DominoGate g;
  g.pdn.set_root(g.pdn.add_leaf(99));  // no such signal
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  expect_only_error_rule(run_lint(nl), "dangling-ref");
}

TEST(LintRules, DanglingRefFiresOnOutputSignal) {
  DominoNetlist nl = simple_netlist(1, true);
  DominoNetlist bad;
  (void)bad.add_input({"x0", 0, false});
  bad.add_gate(nl.gates()[0]);
  bad.add_output({57, "z", false, -1});  // dangling output
  expect_only_error_rule(run_lint(bad), "dangling-ref");
}

TEST(LintRules, DanglingRefFiresOnBogusDischargePoint) {
  DominoNetlist nl = simple_netlist(1, true);
  nl.gates()[0].discharges.push_back(DischargePoint{0, 5});  // leaf node
  expect_only_error_rule(run_lint(nl), "dangling-ref");
  DominoNetlist nl2 = simple_netlist(1, true);
  nl2.gates()[0].discharges.push_back(DischargePoint{40, 0});  // no such node
  expect_only_error_rule(run_lint(nl2), "dangling-ref");
}

TEST(LintRules, DanglingRefFiresOnDischarges2OfClassicGate) {
  DominoNetlist nl = simple_netlist(1, true);
  nl.gates()[0].discharges2.push_back(DischargePoint{});
  expect_only_error_rule(run_lint(nl), "dangling-ref");
}

TEST(LintRules, EmptyGateFires) {
  DominoNetlist nl = simple_netlist(1, true);
  nl.gates()[0].pdn = Pdn{};  // corrupt post-construction
  expect_only_error_rule(run_lint(nl), "empty-gate");
}

TEST(LintRules, FootednessFires) {
  DominoNetlist nl = simple_netlist(1, true);
  nl.gates()[0].footed = false;  // leaf IS an input literal
  const LintReport report = run_lint(nl);
  expect_only_error_rule(report, "footedness");
  EXPECT_FALSE(report.findings[0].fixit.empty());

  DominoNetlist nl2 = simple_netlist(1, true);
  nl2.gates()[0].footed2 = true;  // classic gate cannot have a second foot
  expect_only_error_rule(run_lint(nl2), "footedness");
}

TEST(LintRules, ShapeLimitsFires) {
  LintOptions options;
  options.max_width = 2;
  options.max_height = 8;
  const DominoNetlist wide = simple_netlist(3, /*series=*/false);
  expect_only_error_rule(run_lint(wide, options), "shape-limits");

  options.max_width = 0;
  options.max_height = 2;
  const DominoNetlist tall = simple_netlist(3, /*series=*/true);
  expect_only_error_rule(run_lint(tall, options), "shape-limits");

  // Limits of 0 disable the rule entirely.
  EXPECT_TRUE(run_lint(wide).clean(LintSeverity::kInfo));
}

TEST(LintRules, InputPhaseFiresOnUnsetProvenance) {
  DominoNetlist nl;
  (void)nl.add_input({"a", -1, false});  // unset source PI
  DominoGate g;
  g.pdn.set_root(g.pdn.add_leaf(0));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  expect_only_error_rule(run_lint(nl), "input-phase");
}

TEST(LintRules, InputPhaseWarnsOnDuplicateLiteral) {
  DominoNetlist nl;
  const std::uint32_t a1 = nl.add_input({"a", 0, false});
  const std::uint32_t a2 = nl.add_input({"a_dup", 0, false});  // same (PI,phase)
  DominoGate g;
  g.pdn.set_root(g.pdn.add_series({g.pdn.add_leaf(a1), g.pdn.add_leaf(a2)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  const LintReport report = run_lint(nl);
  EXPECT_EQ(report.count(LintSeverity::kError), 0) << report.to_text();
  ASSERT_EQ(report.count(LintSeverity::kWarning), 1);
  EXPECT_EQ(report.findings[0].rule, "input-phase");
  EXPECT_EQ(report.findings[0].severity, LintSeverity::kWarning);
}

TEST(LintRules, IoContractFiresOnUnnamedOutput) {
  DominoNetlist nl = simple_netlist(1, true);
  DominoNetlist bad;
  (void)bad.add_input({"x0", 0, false});
  bad.add_gate(nl.gates()[0]);
  bad.add_output({bad.signal_of_gate(0), "", false, -1});
  expect_only_error_rule(run_lint(bad), "io-contract");
}

TEST(LintRules, IoContractFiresAgainstSource) {
  NetworkBuilder b;
  const NodeId a = b.add_pi("x0");
  b.add_output(a, "z");
  const Network source = std::move(b).build();

  DominoNetlist nl = simple_netlist(1, true);
  DominoNetlist renamed;
  (void)renamed.add_input({"x0", 0, false});
  renamed.add_gate(nl.gates()[0]);
  renamed.add_output({renamed.signal_of_gate(0), "y", false, -1});  // not "z"
  expect_only_error_rule(run_lint(renamed, {}, &source), "io-contract");

  DominoNetlist extra = simple_netlist(1, true);  // output named "z"
  EXPECT_TRUE(run_lint(extra, {}, &source).clean());
}

TEST(LintRules, OverheadCountFiresOnDuplicateDischarge) {
  DominoNetlist nl = simple_netlist(2, true);
  const PdnIndex root = nl.gates()[0].pdn.root();
  nl.gates()[0].discharges.push_back(DischargePoint{root, 0});
  nl.gates()[0].discharges.push_back(DischargePoint{root, 0});  // duplicate
  const LintReport report = run_lint(nl);
  expect_only_error_rule(report, "overhead-count");
  EXPECT_NE(report.to_text().find("duplicate discharge"), std::string::npos);
}

TEST(LintRules, ClockFootFiresOnGroundedBottomDischarge) {
  DominoNetlist nl = simple_netlist(2, true);
  nl.gates()[0].discharges.push_back(DischargePoint{});  // bottom marker
  LintOptions options;
  options.grounding = GroundingPolicy::kAllGrounded;  // bottom IS grounded
  expect_only_error_rule(run_lint(nl, options), "clock-foot");
}

TEST(LintRules, ExcessDischargeWarns) {
  DominoNetlist nl = simple_netlist(2, true);
  const PdnIndex root = nl.gates()[0].pdn.root();
  // A grounded two-transistor series chain needs no discharge at all.
  nl.gates()[0].discharges.push_back(DischargePoint{root, 0});
  const LintReport report = run_lint(nl);
  EXPECT_EQ(report.count(LintSeverity::kError), 0) << report.to_text();
  ASSERT_EQ(report.count(LintSeverity::kWarning), 1);
  EXPECT_EQ(report.findings[0].rule, "excess-discharge");
  EXPECT_EQ(report.findings[0].fixit, "remove it");
  EXPECT_EQ(report.findings[0].location.detail, "j0");
}

TEST(LintRules, PbeProtectionFires) {
  const DominoNetlist nl = simple_netlist(2, /*series=*/false);
  LintOptions options;
  options.grounding = GroundingPolicy::kNoneGrounded;  // parallel root floats
  const LintReport report = run_lint(nl, options);
  expect_only_error_rule(report, "pbe-protection");
  // The headline rule suggests the repair at the canonical point label.
  bool fixit_seen = false;
  for (const Finding& f : report.findings) {
    if (f.rule == "pbe-protection" && !f.fixit.empty()) fixit_seen = true;
  }
  EXPECT_TRUE(fixit_seen);
}

TEST(LintRules, PbeProtectionHonorsInsertedDischarges) {
  DominoNetlist nl = simple_netlist(2, /*series=*/false);
  insert_discharges(nl, GroundingPolicy::kNoneGrounded);
  LintOptions options;
  options.grounding = GroundingPolicy::kNoneGrounded;
  const LintReport report = run_lint(nl, options);
  EXPECT_TRUE(report.clean(LintSeverity::kInfo)) << report.to_text();
}

TEST(LintRules, UnusedLogicWarns) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  (void)nl.add_input({"b", 1, false});  // never consumed -> info
  auto add_buffer_gate = [&] {
    DominoGate g;
    g.pdn.set_root(g.pdn.add_leaf(a));
    g.footed = true;
    nl.add_gate(std::move(g));
  };
  add_buffer_gate();  // gate 0: drives the output
  add_buffer_gate();  // gate 1: consumed by nobody -> warning
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  const LintReport report = run_lint(nl);
  EXPECT_EQ(report.count(LintSeverity::kError), 0) << report.to_text();
  EXPECT_EQ(report.count(LintSeverity::kWarning), 1);
  int infos = 0;
  for (const Finding& f : report.findings) {
    if (f.severity == LintSeverity::kInfo) {
      ++infos;
      EXPECT_EQ(f.rule, "unused-logic");
      EXPECT_EQ(f.location.input, 1);
    } else {
      EXPECT_EQ(f.rule, "unused-logic");
      EXPECT_EQ(f.location.gate, 1);
    }
  }
  EXPECT_EQ(infos, 1);
}

TEST(LintRules, MonotoneOutputWarns) {
  DominoNetlist nl;
  (void)nl.add_input({"a.bar", 0, true});  // negative-phase literal
  DominoGate g;
  g.pdn.set_root(g.pdn.add_leaf(0));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({0, "z", true, -1});   // inverts the negated literal
  nl.add_output({0, "k", true, 1});    // inverted constant
  // Consume the gate so unused-logic stays quiet.
  nl.add_output({nl.signal_of_gate(0), "g", false, -1});
  const LintReport report = run_lint(nl);
  EXPECT_EQ(report.count(LintSeverity::kError), 0) << report.to_text();
  EXPECT_EQ(report.count(LintSeverity::kWarning), 2);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.rule, "monotone-output") << f.to_string();
  }
}

// --- emitters --------------------------------------------------------------

TEST(LintEmit, TextAndJson) {
  DominoNetlist nl = simple_netlist(1, true);
  nl.gates()[0].footed = false;
  const LintReport report = run_lint(nl);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("error[footedness] gate 0:"), std::string::npos) << text;
  EXPECT_NE(text.find("lint: 1 error"), std::string::npos) << text;

  const std::string json = report.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"rule\":\"footedness\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"qualified\":\"netlist/gate0/pdn\""), std::string::npos);
}

TEST(LintEmit, SarifShape) {
  DominoNetlist nl = simple_netlist(2, /*series=*/false);
  LintOptions options;
  options.grounding = GroundingPolicy::kNoneGrounded;
  const LintReport report = run_lint(nl, options);
  ASSERT_FALSE(report.clean());

  const std::string sarif = report.to_sarif();
  EXPECT_TRUE(json_well_formed(sarif)) << sarif;
  // The SARIF 2.1.0 shape this project emits: schema + version header,
  // one run with a tool.driver carrying the rule table, and results with
  // ruleId / ruleIndex / level / message / logicalLocations.
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"runs\":[{"), std::string::npos);
  EXPECT_NE(sarif.find("\"driver\":{\"name\":\"soidom-lint\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"id\":\"pbe-protection\""), std::string::npos);
  EXPECT_NE(sarif.find("\"defaultConfiguration\":{\"level\":"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"pbe-protection\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\":"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"logicalLocations\":[{\"kind\":\"element\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\":\"netlist/gate0/pdn"),
            std::string::npos);
  // No artifact URI -> no physicalLocation.
  EXPECT_EQ(sarif.find("physicalLocation"), std::string::npos);

  const std::string with_artifact = report.to_sarif("circuits/adder.blif");
  EXPECT_TRUE(json_well_formed(with_artifact)) << with_artifact;
  EXPECT_NE(with_artifact.find(
                "\"artifacts\":[{\"location\":{\"uri\":\"circuits/adder.blif\""),
            std::string::npos);
  EXPECT_NE(with_artifact.find("\"physicalLocation\":{\"artifactLocation\""),
            std::string::npos);
}

TEST(LintEmit, SarifRunsMerge) {
  const LintReport clean = run_lint(simple_netlist(1, true));
  DominoNetlist nl = simple_netlist(1, true);
  nl.gates()[0].footed = false;
  const LintReport dirty = run_lint(nl);
  const std::string merged = "{\"version\":\"2.1.0\",\"runs\":[" +
                             clean.to_sarif_run("a.blif") + "," +
                             dirty.to_sarif_run("b.blif") + "]}";
  EXPECT_TRUE(json_well_formed(merged)) << merged;
}

TEST(LintEmit, SarifZeroFindings) {
  // A clean run is still a complete SARIF log: schema, rule table, and an
  // explicitly empty results array (CI parsers require the key).
  const LintReport report = run_lint(simple_netlist(2, true));
  ASSERT_TRUE(report.clean());
  const std::string sarif = report.to_sarif();
  EXPECT_TRUE(json_well_formed(sarif)) << sarif;
  EXPECT_NE(sarif.find("\"results\":[]"), std::string::npos);
  EXPECT_NE(sarif.find("\"driver\":{\"name\":\"soidom-lint\""),
            std::string::npos);
  EXPECT_EQ(sarif.find("suppressions"), std::string::npos);

  const std::string with_artifact = report.to_sarif("clean.blif");
  EXPECT_TRUE(json_well_formed(with_artifact)) << with_artifact;
  EXPECT_NE(with_artifact.find("\"uri\":\"clean.blif\""), std::string::npos);
}

TEST(LintEmit, SarifAllWaivedFindings) {
  DominoNetlist nl = simple_netlist(1, true);
  nl.gates()[0].footed = false;
  LintOptions options;
  options.waivers = {"footedness"};
  const LintReport report = run_lint(nl, options);
  ASSERT_FALSE(report.findings.empty());
  for (const Finding& f : report.findings) EXPECT_TRUE(f.waived);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.count(LintSeverity::kInfo), 0);
  EXPECT_NE(report.summary().find("waived"), std::string::npos);

  const std::string sarif = report.to_sarif();
  EXPECT_TRUE(json_well_formed(sarif)) << sarif;
  // Waived results stay in the log, each carrying an accepted external
  // suppression (SARIF viewers grey them out instead of hiding them).
  EXPECT_NE(sarif.find("\"ruleId\":\"footedness\""), std::string::npos);
  EXPECT_NE(
      sarif.find(
          R"("suppressions":[{"kind":"external","status":"accepted"}])"),
      std::string::npos);
}

TEST(LintEmit, SarifMultiFileRunsKeepStableArtifactOrder) {
  // Merging per-circuit runs must preserve caller order and stay byte
  // stable across repeated emission (CI diffs the artifact).
  DominoNetlist dirty = simple_netlist(1, true);
  dirty.gates()[0].footed = false;
  const LintReport a = run_lint(simple_netlist(1, true));
  const LintReport b = run_lint(dirty);
  const LintReport c = run_lint(simple_netlist(3, false));
  auto merge = [&] {
    return "{\"version\":\"2.1.0\",\"runs\":[" + a.to_sarif_run("a.blif") +
           "," + b.to_sarif_run("b.blif") + "," + c.to_sarif_run("c.blif") +
           "]}";
  };
  const std::string merged = merge();
  EXPECT_TRUE(json_well_formed(merged)) << merged;
  const std::size_t pos_a = merged.find("\"uri\":\"a.blif\"");
  const std::size_t pos_b = merged.find("\"uri\":\"b.blif\"");
  const std::size_t pos_c = merged.find("\"uri\":\"c.blif\"");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  ASSERT_NE(pos_c, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_LT(pos_b, pos_c);
  EXPECT_EQ(merged, merge());  // deterministic re-emission
}

// --- waivers ---------------------------------------------------------------

TEST(LintWaivers, MatcherHandlesRuleAndQualifiedForms) {
  Finding f;
  f.rule = "footedness";
  f.location.gate = 4;
  EXPECT_TRUE(waiver_matches("footedness", f));
  EXPECT_FALSE(waiver_matches("topo-order", f));
  // Qualified form: substring of the SARIF qualified name.
  EXPECT_TRUE(waiver_matches("footedness@gate4", f));
  EXPECT_TRUE(waiver_matches("footedness@netlist/gate4", f));
  EXPECT_FALSE(waiver_matches("footedness@gate5", f));
  EXPECT_FALSE(waiver_matches("topo-order@gate4", f));
}

TEST(LintWaivers, QualifiedWaiverLeavesOtherLocationsLive) {
  // Two gates with the same defect; waiving one by location must leave
  // the other counting toward clean().
  DominoNetlist nl;
  const std::uint32_t x = nl.add_input({"x", 0, false});
  for (int g = 0; g < 2; ++g) {
    DominoGate gate;
    gate.pdn.set_root(gate.pdn.add_leaf(x));
    gate.footed = false;
    nl.add_gate(std::move(gate));
  }
  nl.add_output({nl.signal_of_gate(0), "z0", false, -1});
  nl.add_output({nl.signal_of_gate(1), "z1", false, -1});
  LintOptions options;
  options.waivers = {"footedness@gate0"};
  const LintReport report = run_lint(nl, options);
  EXPECT_EQ(errors_with_rule(report, "footedness"), 2);  // both still reported
  EXPECT_EQ(report.count(LintSeverity::kError), 1);      // one counts
  EXPECT_FALSE(report.clean());
  int waived = 0;
  for (const Finding& f : report.findings) waived += f.waived ? 1 : 0;
  EXPECT_EQ(waived, 1);
}

// --- verify_structure compatibility shim -----------------------------------

TEST(LintCompat, VerifyStructureRoutesThroughFindings) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"a", 0, false});
  DominoGate g;
  g.pdn.set_root(g.pdn.add_series({g.pdn.add_leaf(a), g.pdn.add_leaf(1)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  const VerifyReport report =
      verify_structure(nl, GroundingPolicy::kFootlessGrounded);
  ASSERT_FALSE(report.ok());
  // Problems are Finding-formatted: severity[rule] location: message.
  EXPECT_NE(report.to_string().find("error[topo-order] gate 0:"),
            std::string::npos)
      << report.to_string();
  EXPECT_NE(report.to_string().find("topologically"), std::string::npos);
}

TEST(LintCompat, VerifyStructureKeepsHistoricalScope) {
  // The stricter lint-stage rules (here: input-phase's provenance check)
  // must NOT fail the historical entry point.
  DominoNetlist nl;
  (void)nl.add_input({"a", -1, false});
  DominoGate g;
  g.pdn.set_root(g.pdn.add_leaf(0));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "z", false, -1});
  EXPECT_TRUE(verify_structure(nl, GroundingPolicy::kAllGrounded).ok());
  EXPECT_FALSE(run_lint(nl).clean());
}

// --- flow integration ------------------------------------------------------

TEST(LintFlow, FlowPopulatesLintReport) {
  const FlowResult r = run_flow(testing::fig2_network());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError)) << r.lint.to_text();
  EXPECT_GE(r.lint.rules.size(), 13u);
}

TEST(LintFlow, FailOnSeverityTightensTheFlow) {
  // A source network with an unused PI maps to a netlist that lints clean
  // at kError but may carry sub-error findings; tightening to kInfo makes
  // any finding fatal, and the diagnostic is attributed to the lint stage.
  DominoNetlist nl = simple_netlist(2, true);
  LintOptions options;
  const LintReport report = run_lint(nl, options);
  EXPECT_TRUE(report.clean(LintSeverity::kInfo));

  // Drive the flow path with a netlist-level warning via the guarded flow:
  // fig2 maps clean at every severity, so assert the knob's default first.
  FlowOptions fopts;
  fopts.lint_fail_on = LintSeverity::kInfo;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig2_network(), fopts);
  ASSERT_TRUE(outcome.result.has_value());
  if (!outcome.result->lint.clean(LintSeverity::kInfo)) {
    ASSERT_TRUE(outcome.diagnostic.has_value());
    EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kLint);
  }
}

TEST(LintFlow, PaperTableCircuitsMapAndLintClean) {
  std::set<std::string> circuits;
  for (const auto& list : {table1_circuits(), table2_circuits(),
                           table3_circuits(), table4_circuits()}) {
    circuits.insert(list.begin(), list.end());
  }
  for (const std::string& name : circuits) {
    FlowOptions options;
    options.verify_rounds = 0;
    const FlowResult r = run_flow(build_benchmark(name), options);
    EXPECT_TRUE(r.lint.clean(LintSeverity::kError))
        << name << "\n" << r.lint.to_text();
    EXPECT_TRUE(r.structure.ok()) << name;
  }
}

}  // namespace
}  // namespace soidom
