/// Proof-tier performance harness: maps paper-suite circuits with the
/// full analyzer stack (tight droop margin so the proof tier has real
/// work), then times run_prove() at 1, 2 and N threads (N = hardware
/// concurrency), asserts the prove report AND every refined analyzer
/// report are byte-identical across thread counts, and emits
/// BENCH_prove.json (see docs/PROVE.md) including per-circuit verdict
/// counts and refutation rate.
///
/// Usage: perf_prove [output.json]   (default BENCH_prove.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "soidom/base/parallel.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/prove/prove.hpp"

namespace {

using namespace soidom;

struct Run {
  int threads = 1;
  double wall_ms = 0.0;
  double targets_per_sec = 0.0;
};

struct CircuitReport {
  std::string name;
  std::size_t gates = 0;
  int targets = 0;
  int confirmed = 0;
  int refuted = 0;
  int unknown = 0;
  int budget_hits = 0;
  std::vector<Run> runs;
  bool identical = true;
};

/// Analyzer inputs the prove stage refines, captured once per circuit so
/// every timing rep starts from the same conservative findings
/// (run_prove mutates the reports in place).
struct ProveInputs {
  DominoNetlist netlist;
  LintReport lint;
  CsaResult csa;
  RaceResult race;
  LintOptions lint_options;
  CsaOptions csa_options;
};

/// Flow with the analyzer stack on and the proof tier OFF — the bench
/// times run_prove in isolation, on copies of these reports.  The tight
/// droop margin makes csa.droop-margin findings plentiful on the small
/// table circuits (same idiom as tests/test_prove.cpp).
ProveInputs prepare(const std::string& name) {
  FlowOptions options;
  options.verify_rounds = 0;
  options.csa = true;
  options.csa_options.margin = 0.05;
  options.race = true;
  const FlowOutcome outcome = run_flow_guarded(build_benchmark(name), options);
  if (!outcome.result.has_value()) {
    std::fprintf(stderr, "FATAL: flow produced no result for %s\n",
                 name.c_str());
    std::abort();
  }
  ProveInputs in;
  in.netlist = outcome.result->netlist;
  in.lint = outcome.result->lint;
  in.csa = *outcome.result->csa;
  in.race = *outcome.result->race;
  // Mirror the LintOptions run_flow derived for its own lint stage, so
  // the prove stage re-derives PBE protection under the same model.
  in.lint_options.grounding = options.mapper.grounding;
  in.lint_options.pending_model = options.mapper.pending_model;
  in.lint_options.allow_unexcitable_unprotected = options.sequence_aware;
  in.lint_options.max_width = options.mapper.max_width;
  in.lint_options.max_height = options.mapper.max_height;
  in.csa_options = options.csa_options;
  return in;
}

/// Serialized refinement outcome: the prove report plus every report it
/// mutated, so the cross-thread identity check covers the downgraded
/// findings too, not just the verdict records.
std::string refinement_bytes(const ProveReport& report, const LintReport& lint,
                             const CsaResult& csa, const RaceResult& race,
                             const std::string& artifact) {
  return report.to_json() + lint.to_sarif(artifact) +
         csa.lint.to_sarif(artifact) + race.lint.to_sarif(artifact);
}

/// Best-of-k wall time for one thread count; each rep refines a fresh
/// copy of the conservative reports.  Returns the last rep's serialized
/// refinement via *bytes so the caller can compare thread counts.
double time_prove(const ProveInputs& in, int threads, int reps,
                  ProveReport* out, std::string* bytes) {
  ProveOptions opts;
  opts.num_threads = threads;
  double best_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    LintReport lint = in.lint;
    CsaResult csa = in.csa;
    RaceResult race = in.race;
    const auto t0 = std::chrono::steady_clock::now();
    ProveReport r = run_prove(in.netlist, &lint, &csa, &race, in.lint_options,
                              in.csa_options, opts);
    const auto t1 = std::chrono::steady_clock::now();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    *bytes = refinement_bytes(r, lint, csa, race, "bench.circuit");
    *out = std::move(r);
  }
  return best_ms;
}

CircuitReport bench_circuit(const std::string& name,
                            const std::vector<int>& thread_counts, int reps) {
  CircuitReport rep;
  rep.name = name;

  const ProveInputs in = prepare(name);
  rep.gates = in.netlist.gates().size();

  std::string reference;
  for (const int threads : thread_counts) {
    ProveReport r;
    std::string bytes;
    const double ms = time_prove(in, threads, reps, &r, &bytes);
    if (threads == thread_counts.front()) {
      reference = bytes;
      rep.targets = r.targets();
      rep.confirmed = r.confirmed;
      rep.refuted = r.refuted;
      rep.unknown = r.unknown;
      rep.budget_hits = r.budget_hits;
    } else if (bytes != reference) {
      rep.identical = false;
    }
    Run run;
    run.threads = threads;
    run.wall_ms = ms;
    run.targets_per_sec =
        ms > 0.0 ? static_cast<double>(rep.targets) / (ms / 1000.0) : 0.0;
    rep.runs.push_back(run);
    std::printf(
        "  %-12s %2d thread(s): %8.2f ms  (%d targets: %dc/%dr/%du, "
        "%.0f targets/s)\n",
        name.c_str(), threads, ms, rep.targets, rep.confirmed, rep.refuted,
        rep.unknown, run.targets_per_sec);
  }
  return rep;
}

double speedup_at(const CircuitReport& rep, int threads) {
  double base = 0.0, at = 0.0;
  for (const Run& r : rep.runs) {
    if (r.threads == 1) base = r.wall_ms;
    if (r.threads == threads) at = r.wall_ms;
  }
  return at > 0.0 ? base / at : 0.0;
}

void write_json(const std::string& path,
                const std::vector<CircuitReport>& reports,
                const std::vector<int>& thread_counts) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "FATAL: cannot open %s\n", path.c_str());
    std::abort();
  }
  const int n_threads = thread_counts.back();
  std::fprintf(f, "{\n  \"bench\": \"prove\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hardware_thread_count());
  std::fprintf(f, "  \"hardware_concurrency_detected\": %s,\n",
               hardware_thread_count() > 1 ? "true" : "false");
  std::fprintf(f, "  \"thread_counts\": [");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::fprintf(f, "%s%d", i ? ", " : "", thread_counts[i]);
  }
  std::fprintf(f, "],\n  \"circuits\": [\n");
  double log_sum = 0.0;
  bool all_identical = true;
  int total_targets = 0, total_refuted = 0, total_confirmed = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& rep = reports[i];
    all_identical = all_identical && rep.identical;
    total_targets += rep.targets;
    total_refuted += rep.refuted;
    total_confirmed += rep.confirmed;
    const double rate =
        rep.targets > 0
            ? static_cast<double>(rep.refuted) / static_cast<double>(rep.targets)
            : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"gates\": %zu, \"targets\": %d,"
                 " \"confirmed\": %d, \"refuted\": %d,\n"
                 "     \"unknown\": %d, \"budget_hits\": %d,"
                 " \"refutation_rate\": %.4f, \"identical\": %s,\n"
                 "     \"runs\": [",
                 rep.name.c_str(), rep.gates, rep.targets, rep.confirmed,
                 rep.refuted, rep.unknown, rep.budget_hits, rate,
                 rep.identical ? "true" : "false");
    for (std::size_t j = 0; j < rep.runs.size(); ++j) {
      const Run& r = rep.runs[j];
      std::fprintf(f,
                   "%s\n       {\"threads\": %d, \"wall_ms\": %.3f,"
                   " \"targets_per_sec\": %.1f}",
                   j ? "," : "", r.threads, r.wall_ms, r.targets_per_sec);
    }
    std::fprintf(f, "],\n     \"speedup_2t\": %.3f, \"speedup_nt\": %.3f}%s\n",
                 speedup_at(rep, 2), speedup_at(rep, n_threads),
                 i + 1 < reports.size() ? "," : "");
    log_sum += std::log(std::max(speedup_at(rep, n_threads), 1e-9));
  }
  const double total_rate =
      total_targets > 0
          ? static_cast<double>(total_refuted) / static_cast<double>(total_targets)
          : 0.0;
  std::fprintf(f,
               "  ],\n  \"summary\": {\"geomean_speedup_nt\": %.3f,"
               " \"all_identical\": %s,\n"
               "    \"total_targets\": %d, \"total_confirmed\": %d,"
               " \"total_refuted\": %d, \"refutation_rate\": %.4f}\n}\n",
               std::exp(log_sum / static_cast<double>(reports.size())),
               all_identical ? "true" : "false", total_targets,
               total_confirmed, total_refuted, total_rate);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_prove.json";
  const int hw = static_cast<int>(hardware_thread_count());
  std::vector<int> thread_counts = {1, 2, std::max(4, hw)};
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  std::printf("perf_prove: hardware_concurrency=%d, thread counts:", hw);
  for (const int t : thread_counts) std::printf(" %d", t);
  std::printf("\n");

  constexpr int kReps = 3;
  std::vector<CircuitReport> reports;
  // Paper-table circuits with known refutations (b9, c8, x1) plus two
  // confirm-heavy ones; all map + prove in seconds, so the bench stays
  // CI-affordable while exercising every verdict kind.
  for (const char* name : {"b9", "c8", "x1", "count", "mux"}) {
    reports.push_back(bench_circuit(name, thread_counts, kReps));
  }

  write_json(out, reports, thread_counts);

  bool ok = true;
  int refuted = 0, confirmed = 0;
  for (const CircuitReport& rep : reports) {
    ok = ok && rep.identical;
    refuted += rep.refuted;
    confirmed += rep.confirmed;
  }
  std::printf("wrote %s; %d confirmed / %d refuted; refinements %s across "
              "thread counts\n",
              out.c_str(), confirmed, refuted,
              ok ? "IDENTICAL" : "DIVERGENT");
  return ok ? 0 : 1;
}
