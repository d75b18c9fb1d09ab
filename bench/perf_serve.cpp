/// Mapping-service cache harness: times the full flow cold (no cache),
/// warm (content-addressed cone-cache hit), and restarted (fresh cache
/// warmed from the crash-only spill journal), asserts all three produce
/// byte-identical netlists, and emits BENCH_serve.json (see
/// docs/SERVE.md).
///
/// Usage: perf_serve [output.json]   (default BENCH_serve.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/serialize.hpp"
#include "soidom/serve/cache.hpp"

namespace {

using namespace soidom;

struct CircuitReport {
  std::string name;
  std::size_t gates = 0;
  double cold_ms = 0.0;     ///< full flow, no cache
  double warm_ms = 0.0;     ///< full flow, in-memory cache hit
  double restart_ms = 0.0;  ///< full flow, cache warmed from spill
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool identical = true;
};

FlowOptions flow_options() {
  FlowOptions options;
  options.verify_rounds = 0;  // time the mapping path, not the simulator
  return options;
}

/// Best-of-k wall time for one flow configuration; stores the last
/// netlist serialization in *dnl for the identity gate.
double time_flow(const std::string& name,
                 const std::shared_ptr<MapConeCache>& cache, int reps,
                 std::string* dnl) {
  double best_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    FlowOptions options = flow_options();
    options.map_cache = cache;
    const auto t0 = std::chrono::steady_clock::now();
    const FlowResult r = run_flow(build_benchmark(name), options);
    const auto t1 = std::chrono::steady_clock::now();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    *dnl = write_dnl(r.netlist);
  }
  return best_ms;
}

CircuitReport bench_circuit(const std::string& name, int reps) {
  CircuitReport rep;
  rep.name = name;
  rep.gates = run_flow(build_benchmark(name), flow_options())
                  .netlist.gates()
                  .size();

  std::string reference;
  rep.cold_ms = time_flow(name, nullptr, reps, &reference);

  const std::string spill = "perf_serve_spill_" + name + ".jsonl";
  std::remove(spill.c_str());
  {
    ConeCacheOptions co;
    co.spill_path = spill;
    co.durable = false;
    auto cache = std::make_shared<ConeCache>(co);
    std::string primed;
    time_flow(name, cache, 1, &primed);  // prime: miss + store + spill
    rep.identical = rep.identical && primed == reference;
    std::string warm;
    rep.warm_ms = time_flow(name, cache, reps, &warm);
    rep.identical = rep.identical && warm == reference;
    const ConeCacheStats s = cache->stats();
    rep.hits += s.hits;
    rep.misses += s.misses;
  }
  {
    ConeCacheOptions co;
    co.spill_path = spill;
    auto cache = std::make_shared<ConeCache>(co);
    const std::vector<Diagnostic> warnings = cache->load_spill();
    rep.identical = rep.identical && warnings.empty();
    std::string restarted;
    rep.restart_ms = time_flow(name, cache, reps, &restarted);
    rep.identical = rep.identical && restarted == reference;
    const ConeCacheStats s = cache->stats();
    rep.identical = rep.identical && s.misses == 0;  // spill really warmed it
    rep.hits += s.hits;
    rep.misses += s.misses;
  }
  std::remove(spill.c_str());

  std::printf(
      "  %-14s cold %8.2f ms   warm %8.2f ms (%5.1fx)   restart %8.2f ms  %s\n",
      name.c_str(), rep.cold_ms, rep.warm_ms,
      rep.warm_ms > 0.0 ? rep.cold_ms / rep.warm_ms : 0.0, rep.restart_ms,
      rep.identical ? "identical" : "DIVERGENT");
  return rep;
}

void write_json(const std::string& path,
                const std::vector<CircuitReport>& reports) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "FATAL: cannot open %s\n", path.c_str());
    std::abort();
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_cone_cache\",\n  \"circuits\": [\n");
  double log_sum = 0.0;
  std::uint64_t hits = 0, misses = 0;
  bool all_identical = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& rep = reports[i];
    all_identical = all_identical && rep.identical;
    hits += rep.hits;
    misses += rep.misses;
    const double speedup =
        rep.warm_ms > 0.0 ? rep.cold_ms / rep.warm_ms : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"gates\": %zu,"
                 " \"cold_ms\": %.3f, \"warm_ms\": %.3f,"
                 " \"restart_ms\": %.3f,\n"
                 "     \"speedup_warm\": %.3f, \"identical\": %s}%s\n",
                 rep.name.c_str(), rep.gates, rep.cold_ms, rep.warm_ms,
                 rep.restart_ms, speedup, rep.identical ? "true" : "false",
                 i + 1 < reports.size() ? "," : "");
    log_sum += std::log(std::max(speedup, 1e-9));
  }
  const double total =
      static_cast<double>(hits) + static_cast<double>(misses);
  std::fprintf(f,
               "  ],\n  \"summary\": {\"geomean_speedup_warm\": %.3f,"
               " \"cache_hits\": %llu, \"cache_misses\": %llu,"
               " \"hit_rate\": %.3f, \"all_identical\": %s}\n}\n",
               std::exp(log_sum / static_cast<double>(reports.size())),
               static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses),
               total > 0.0 ? static_cast<double>(hits) / total : 0.0,
               all_identical ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_serve.json";
  constexpr int kReps = 3;

  std::printf("perf_serve: cold vs warm vs restarted-from-spill (%d reps)\n",
              kReps);
  std::vector<CircuitReport> reports;
  // Paper-suite circuits spanning small to large, plus one generated
  // scale circuit where the DP dominates and the cache pays off most.
  for (const char* name :
       {"z4ml", "des", "c5315", "c7552", "k2", "xl_mult64"}) {
    reports.push_back(bench_circuit(name, kReps));
  }

  write_json(out, reports);

  bool ok = true;
  for (const CircuitReport& rep : reports) ok = ok && rep.identical;
  std::printf("wrote %s; cold/warm/restarted netlists %s\n", out.c_str(),
              ok ? "IDENTICAL" : "DIVERGENT");
  return ok ? 0 : 1;
}
