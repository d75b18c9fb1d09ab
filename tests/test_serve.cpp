/// Mapping-service suite: the crash-only server and its content-
/// addressed cone cache (docs/SERVE.md).
///
/// The load-bearing properties checked here:
///  * the cone cache never changes an answer: cold, warm, restarted-
///    with-spill, and fault-stormed flows all produce byte-identical
///    netlists, and concurrent mixed workloads keep exact hit/miss
///    accounting;
///  * every spill failure mode — corrupt record, torn line, version
///    mismatch, SIGKILLed writer — degrades to recompute with a
///    structured diagnostic, never a wrong answer or a crash;
///  * the server answers every request with a result or a structured
///    error (backpressure, drain, malformed, injected fault), and its
///    records are byte-compatible with offline soidom_batch manifests.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "soidom/base/fileio.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/base/jsonl.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/serialize.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/serve/server.hpp"

namespace soidom {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/soidom_serve_" +
         std::to_string(::getpid()) + "_" + name;
}

FlowOptions fast_flow() {
  FlowOptions options;
  options.verify_rounds = 2;
  return options;
}

ConeKey key_of(const std::string& text) {
  return ConeKey{text, fnv1a64(text)};
}

/// A CachedMapping whose payload is a real, decodable netlist (the
/// spill loader rejects undecodable payloads, so synthetic cache
/// entries must carry valid DNL).
CachedMapping valid_value(const char* circuit, std::int64_t cost) {
  const FlowResult r = run_flow(build_benchmark(circuit), fast_flow());
  CachedMapping value;
  value.dnl = write_dnl(r.netlist);
  value.predicted_cost = cost;
  value.dp_analyzer_mismatches = 0;
  return value;
}

int connect_uds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // A read the server never answers fails the test instead of hanging it.
  const timeval timeout{10, 0};
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout) <
          0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// VmSize of this process in KiB (/proc/self/status), or -1.
long vm_size_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("VmSize:")) return std::stol(line.substr(7));
  }
  return -1;
}

void send_str(int fd, const std::string& text) {
  ASSERT_EQ(::send(fd, text.data(), text.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(text.size()));
}

std::string read_line_fd(int fd) {
  std::string out;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') out += c;
  return out;
}

/// Runs MappingServer::run() on a background thread (optionally under a
/// FaultScope) and waits until the socket accepts connections.  NOTE:
/// the readiness probe performs one successful connection, so fail_at
/// tests on kServeAccept must target hit 2.
struct TestServer {
  explicit TestServer(const ServeOptions& options,
                      FaultInjector* injector = nullptr) {
    server = std::make_unique<MappingServer>(options);
    thread = std::thread([this, injector] {
      if (injector != nullptr) {
        FaultScope scope(*injector);
        report = server->run();
      } else {
        report = server->run();
      }
    });
    bool up = false;
    for (int i = 0; i < 1000 && !up; ++i) {
      const int fd = connect_uds(options.socket_path);
      if (fd >= 0) {
        ::close(fd);
        up = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    EXPECT_TRUE(up) << "server did not come up on " << options.socket_path;
  }

  ~TestServer() {
    if (thread.joinable()) {
      server->request_stop();
      thread.join();
    }
  }

  ServeReport stop() {
    server->request_stop();
    thread.join();
    return report;
  }

  std::unique_ptr<MappingServer> server;
  std::thread thread;
  ServeReport report;
};

ServeOptions fast_serve(const std::string& socket_path) {
  ServeOptions options;
  options.socket_path = socket_path;
  options.batch.flow = fast_flow();
  options.batch.retry.backoff_base_ms = 0;
  options.cache.durable = false;
  return options;
}

// ---------------------------------------------------------------------------
// Cone keys: exact content addressing.

TEST(ConeKey, DeterministicAndOptionSensitive) {
  const FlowResult r = run_flow(build_benchmark("z4ml"), fast_flow());
  MapperOptions mopts;
  const ConeKey a = cone_key(r.unate, mopts);
  const ConeKey b = cone_key(r.unate, mopts);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_TRUE(a == b);
  EXPECT_NE(a.text.find("soidom-cone-1"), std::string::npos);

  MapperOptions relaxed = mopts;
  relaxed.max_width = mopts.max_width * 2;
  const ConeKey c = cone_key(r.unate, relaxed);
  EXPECT_FALSE(a == c);  // result-affecting knobs are part of the address
}

TEST(ConeKey, DistinctCircuitsGetDistinctKeys) {
  const MapperOptions mopts;
  const FlowResult a = run_flow(build_benchmark("z4ml"), fast_flow());
  const FlowResult b = run_flow(build_benchmark("cm150"), fast_flow());
  EXPECT_FALSE(cone_key(a.unate, mopts) == cone_key(b.unate, mopts));
}

TEST(ConeKey, HashCollisionDegradesToMiss) {
  ConeCacheOptions co;
  ConeCache cache(co);
  const CachedMapping value = valid_value("cm150", 1);
  const ConeKey real = key_of("key-a");
  cache.store(real, value);
  // Same (forged) hash, different text: full-text compare must miss.
  ConeKey forged = key_of("key-b");
  forged.hash = real.hash;
  EXPECT_FALSE(cache.lookup(forged).has_value());
  EXPECT_TRUE(cache.lookup(real).has_value());
}

// ---------------------------------------------------------------------------
// In-memory cache: LRU under a byte budget.

TEST(ConeCache, StoreLookupRoundTrip) {
  ConeCacheOptions co;
  ConeCache cache(co);
  EXPECT_FALSE(cache.lookup(key_of("k1")).has_value());
  const CachedMapping value = valid_value("cm150", 42);
  cache.store(key_of("k1"), value);
  const auto hit = cache.lookup(key_of("k1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dnl, value.dnl);
  EXPECT_EQ(hit->predicted_cost, 42);
  const ConeCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
}

TEST(ConeCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  CachedMapping value;
  value.dnl = "small";
  ConeCacheOptions co;
  co.shards = 1;
  // Room for two entries of ~(key + 5 + 128) bytes, not three.
  co.max_bytes = 2 * (2 + value.dnl.size() + 128) + 20;
  ConeCache cache(co);
  cache.store(key_of("ka"), value);
  cache.store(key_of("kb"), value);
  EXPECT_TRUE(cache.lookup(key_of("ka")).has_value());  // touch: a newest
  cache.store(key_of("kc"), value);                     // evicts b, not a
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.lookup(key_of("ka")).has_value());
  EXPECT_FALSE(cache.lookup(key_of("kb")).has_value());
  EXPECT_TRUE(cache.lookup(key_of("kc")).has_value());
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(ConeCache, KeepsNewestEntryEvenOverBudget) {
  CachedMapping value;
  value.dnl = std::string(1024, 'x');
  ConeCacheOptions co;
  co.shards = 1;
  co.max_bytes = 1;  // budget smaller than any single entry
  ConeCache cache(co);
  cache.store(key_of("ka"), value);
  cache.store(key_of("kb"), value);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_FALSE(cache.lookup(key_of("ka")).has_value());
  EXPECT_TRUE(cache.lookup(key_of("kb")).has_value());
}

// ---------------------------------------------------------------------------
// Flow integration: a cache hit must never change the outcome.

TEST(FlowCache, WarmAndColdRunsAreByteIdentical) {
  FlowOptions uncached = fast_flow();
  const FlowResult reference = run_flow(build_benchmark("z4ml"), uncached);

  FlowOptions cached = fast_flow();
  auto cache = std::make_shared<ConeCache>(ConeCacheOptions{});
  cached.map_cache = cache;
  const FlowResult cold = run_flow(build_benchmark("z4ml"), cached);
  const FlowResult warm = run_flow(build_benchmark("z4ml"), cached);

  EXPECT_EQ(write_dnl(cold.netlist), write_dnl(reference.netlist));
  EXPECT_EQ(write_dnl(warm.netlist), write_dnl(reference.netlist));
  EXPECT_TRUE(warm.ok());
  const ConeCacheStats s = cache->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.stores, 1u);
}

/// Cold (no cache), warm (in-memory hit) and restarted (a fresh cache
/// warmed from the spill journal) flows give byte-identical netlists, on
/// paper circuits from small to large plus one scale circuit where the DP
/// dominates.
TEST(FlowCache, ColdWarmAndSpillRestartedNetlistsAreIdentical) {
  FlowOptions options;
  options.verify_rounds = 0;
  for (const char* name : {"z4ml", "des", "c5315", "c7552", "k2", "xl_mult64"}) {
    SCOPED_TRACE(name);
    const Network net = build_benchmark(name);
    const std::string cold = write_dnl(run_flow(net, options).netlist);

    const std::string spill = temp_path("restart.jsonl");
    std::remove(spill.c_str());
    ConeCacheOptions co;
    co.spill_path = spill;
    co.durable = false;
    {
      FlowOptions cached = options;
      cached.map_cache = std::make_shared<ConeCache>(co);
      EXPECT_EQ(write_dnl(run_flow(net, cached).netlist), cold);  // store
      EXPECT_EQ(write_dnl(run_flow(net, cached).netlist), cold);  // hit
    }
    auto restarted = std::make_shared<ConeCache>(co);
    EXPECT_TRUE(restarted->load_spill().empty());
    FlowOptions cached = options;
    cached.map_cache = restarted;
    EXPECT_EQ(write_dnl(run_flow(net, cached).netlist), cold);
    EXPECT_EQ(restarted->stats().misses, 0u);
    std::remove(spill.c_str());
  }
}

TEST(FlowCache, ConcurrentOverlappingFlowsStayDeterministic) {
  const std::vector<std::string> circuits = {"z4ml", "cm150", "mux", "count"};
  std::map<std::string, std::string> reference;
  for (const std::string& name : circuits) {
    reference[name] =
        write_dnl(run_flow(build_benchmark(name), fast_flow()).netlist);
  }

  auto cache = std::make_shared<ConeCache>(ConeCacheOptions{});
  constexpr int kThreads = 8;
  std::vector<std::string> got(kThreads * circuits.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < circuits.size(); ++i) {
        FlowOptions options = fast_flow();
        options.map_cache = cache;
        const FlowResult r =
            run_flow(build_benchmark(circuits[i]), options);
        got[static_cast<std::size_t>(t) * circuits.size() + i] =
            write_dnl(r.netlist);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(t) * circuits.size() + i],
                reference[circuits[i]])
          << "thread " << t << " circuit " << circuits[i];
    }
  }
  // Exact accounting under concurrency: every lookup is a hit or a
  // miss, every miss stores, and only one entry exists per circuit.
  const ConeCacheStats s = cache->stats();
  const std::uint64_t lookups = kThreads * circuits.size();
  EXPECT_EQ(s.hits + s.misses, lookups);
  EXPECT_EQ(s.stores, s.misses);
  EXPECT_GE(s.misses, circuits.size());
  EXPECT_EQ(cache->entries(), circuits.size());
  EXPECT_EQ(s.read_faults, 0u);
}

// ---------------------------------------------------------------------------
// Spill journal: corruption-safe persistence.

TEST(Spill, RoundTripWarmsARestart) {
  const std::string path = temp_path("roundtrip.jsonl");
  const CachedMapping v1 = valid_value("z4ml", 7);
  const CachedMapping v2 = valid_value("cm150", 9);
  ConeCacheOptions co;
  co.spill_path = path;
  co.durable = false;
  {
    ConeCache cache(co);
    cache.store(key_of("k1"), v1);
    cache.store(key_of("k2"), v2);
  }
  ConeCache fresh(co);
  const std::vector<Diagnostic> warnings = fresh.load_spill();
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(fresh.stats().spill_loaded, 2u);
  const auto h1 = fresh.lookup(key_of("k1"));
  const auto h2 = fresh.lookup(key_of("k2"));
  ASSERT_TRUE(h1.has_value());
  ASSERT_TRUE(h2.has_value());
  EXPECT_EQ(h1->dnl, v1.dnl);
  EXPECT_EQ(h1->predicted_cost, 7);
  EXPECT_EQ(h2->dnl, v2.dnl);
}

TEST(Spill, CorruptRecordIsSkippedWithDiagnostic) {
  const std::string path = temp_path("corrupt.jsonl");
  ConeCacheOptions co;
  co.spill_path = path;
  co.durable = false;
  {
    ConeCache cache(co);
    cache.store(key_of("good"), valid_value("z4ml", 1));
    cache.store(key_of("bad"), valid_value("cm150", 2));
  }
  // Flip bytes inside the "bad" record; its CRC must catch it.
  std::string text = read_file(path);
  const std::size_t at = text.find(R"("key":"bad")");
  ASSERT_NE(at, std::string::npos);
  text[at + 8] = 'B';
  write_file_atomic(path, text);

  ConeCache fresh(co);
  const std::vector<Diagnostic> warnings = fresh.load_spill();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].code, ErrorCode::kParseError);
  EXPECT_EQ(warnings[0].stage, FlowStage::kServeCacheRead);
  EXPECT_NE(warnings[0].message.find("CRC"), std::string::npos);
  EXPECT_EQ(fresh.stats().corrupt_records, 1u);
  EXPECT_TRUE(fresh.lookup(key_of("good")).has_value());
  EXPECT_FALSE(fresh.lookup(key_of("bad")).has_value());
}

TEST(Spill, TornTrailingLineIsSkipped) {
  const std::string path = temp_path("torn.jsonl");
  ConeCacheOptions co;
  co.spill_path = path;
  co.durable = false;
  {
    ConeCache cache(co);
    cache.store(key_of("whole"), valid_value("z4ml", 1));
  }
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << R"({"type":"cone","cost":3,"mm":0,"key":"to)";  // kill -9 tear
  }
  ConeCache fresh(co);
  const std::vector<Diagnostic> warnings = fresh.load_spill();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(fresh.stats().spill_loaded, 1u);
  EXPECT_TRUE(fresh.lookup(key_of("whole")).has_value());
}

TEST(Spill, UnsupportedHeaderIgnoresWholeFile) {
  const std::string path = temp_path("version.jsonl");
  AppendFile file(path, /*durable=*/false);
  file.append_line(jsonl_with_crc(R"({"type":"spill","schema":99})"));
  file.append_line(
      jsonl_with_crc(R"({"type":"cone","cost":1,"mm":0,"key":"k","dnl":""})"));
  ConeCacheOptions co;
  co.spill_path = path;
  ConeCache cache(co);
  const std::vector<Diagnostic> warnings = cache.load_spill();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].message.find("unsupported header"), std::string::npos);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().spill_loaded, 0u);
}

TEST(Spill, MissingFileIsAColdStartNotAnError) {
  ConeCacheOptions co;
  co.spill_path = temp_path("never_written.jsonl");
  ConeCache cache(co);
  EXPECT_TRUE(cache.load_spill().empty());
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(Spill, FlushCompactsStaleVersions) {
  const std::string path = temp_path("compact.jsonl");
  const CachedMapping v1 = valid_value("z4ml", 1);
  const CachedMapping v2 = valid_value("cm150", 2);
  ConeCacheOptions co;
  co.spill_path = path;
  co.durable = false;
  ConeCache cache(co);
  cache.store(key_of("k1"), v1);
  cache.store(key_of("k1"), v2);  // supersedes: appends a second record
  cache.store(key_of("k2"), v1);
  std::size_t lines_before = 0;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) ++lines_before;
  }
  EXPECT_EQ(lines_before, 4u);  // header + 3 appends
  EXPECT_TRUE(cache.flush_spill().empty());
  std::size_t lines_after = 0;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) ++lines_after;
  }
  EXPECT_EQ(lines_after, 3u);  // header + one record per live entry

  ConeCache fresh(co);
  EXPECT_TRUE(fresh.load_spill().empty());
  const auto hit = fresh.lookup(key_of("k1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dnl, v2.dnl);  // the superseding version won
}

TEST(Spill, RepeatedIdenticalStoreAppendsOnce) {
  const std::string path = temp_path("dedup.jsonl");
  ConeCacheOptions co;
  co.spill_path = path;
  co.durable = false;
  ConeCache cache(co);
  const CachedMapping value = valid_value("z4ml", 1);
  cache.store(key_of("k"), value);
  cache.store(key_of("k"), value);
  cache.store(key_of("k"), value);
  std::size_t lines = 0;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2u);  // header + one record
}

TEST(Spill, SigkilledWriterLeavesALoadableJournal) {
  const std::string path = temp_path("killed.jsonl");
  const CachedMapping value = valid_value("z4ml", 5);
  ConeCacheOptions co;
  co.spill_path = path;
  co.durable = true;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: append entries as fast as fsync allows, forever.
    ConeCache cache(co);
    for (int i = 0;; ++i) {
      cache.store(key_of(format("k%d", i)), value);
    }
  }
  struct stat st {};
  for (int i = 0; i < 2000; ++i) {
    if (::stat(path.c_str(), &st) == 0 && st.st_size > 4096) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));

  ConeCache fresh(co);
  const std::vector<Diagnostic> warnings = fresh.load_spill();
  // At most the final line can be torn; everything before it loads.
  EXPECT_LE(warnings.size(), 1u);
  EXPECT_GE(fresh.stats().spill_loaded, 1u);
  const auto hit = fresh.lookup(key_of("k0"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dnl, value.dnl);
}

// ---------------------------------------------------------------------------
// Fault injection on the cache probes: degraded, never wrong.

TEST(CacheFaults, ReadFaultDegradesToRecomputeIdentically) {
  const std::string reference =
      write_dnl(run_flow(build_benchmark("z4ml"), fast_flow()).netlist);
  auto cache = std::make_shared<ConeCache>(ConeCacheOptions{});
  FlowOptions options = fast_flow();
  options.map_cache = cache;
  const FlowResult cold = run_flow(build_benchmark("z4ml"), options);
  EXPECT_EQ(write_dnl(cold.netlist), reference);

  // The warm lookup faults: the flow must recompute the same bytes.
  FaultInjector injector =
      FaultInjector::fail_at(FlowStage::kServeCacheRead, 1);
  {
    FaultScope scope(injector);
    const FlowResult warm = run_flow(build_benchmark("z4ml"), options);
    EXPECT_EQ(write_dnl(warm.netlist), reference);
  }
  const ConeCacheStats s = cache->stats();
  EXPECT_EQ(s.read_faults, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
}

TEST(CacheFaults, SpillFaultKeepsServingFromMemory) {
  const std::string path = temp_path("spillfault.jsonl");
  ConeCacheOptions co;
  co.spill_path = path;
  co.durable = false;
  ConeCache cache(co);
  const CachedMapping v1 = valid_value("z4ml", 1);
  const CachedMapping v2 = valid_value("cm150", 2);
  FaultInjector injector =
      FaultInjector::fail_at(FlowStage::kServeCacheSpill, 1);
  {
    FaultScope scope(injector);
    cache.store(key_of("k1"), v1);  // spill append faults, insert stands
    cache.store(key_of("k2"), v2);  // hit 2: appends fine
  }
  EXPECT_EQ(cache.stats().spill_errors, 1u);
  EXPECT_TRUE(cache.lookup(key_of("k1")).has_value());
  // flush_spill repairs the gap: a restart then sees both entries.
  EXPECT_TRUE(cache.flush_spill().empty());
  ConeCache fresh(co);
  EXPECT_TRUE(fresh.load_spill().empty());
  EXPECT_TRUE(fresh.lookup(key_of("k1")).has_value());
  EXPECT_TRUE(fresh.lookup(key_of("k2")).has_value());
}

TEST(CacheFaults, RandomStormSurvivesThenCleanRunIsIdentical) {
  const std::vector<BatchJob> jobs = {
      {"z4ml", ""}, {"cm150", ""}, {"mux", ""}, {"count", ""}};
  BatchOptions clean;
  clean.flow = fast_flow();
  clean.retry.backoff_base_ms = 0;
  std::map<std::string, JobRecord> reference_records;
  {
    const BatchResult r = run_batch(jobs, clean);
    for (const JobOutcome& out : r.jobs) {
      ASSERT_TRUE(out.terminal);
      reference_records[out.record.job] = out.record;
    }
  }

  // Storm: seeded random faults across every probe (mapper, journal,
  // serve cache...) with the cache in the loop.  Every job must still
  // reach a terminal state and the process must survive.
  BatchOptions stormy = clean;
  stormy.flow.map_cache = std::make_shared<ConeCache>(ConeCacheOptions{});
  stormy.retry.max_attempts = 8;
  stormy.fault = BatchFaultPlan{0xF00D, 1, 7};
  const BatchResult stormed = run_batch(jobs, stormy);
  for (const JobOutcome& out : stormed.jobs) {
    EXPECT_TRUE(out.terminal) << out.record.job;
  }

  // After the storm, a clean run through the same (possibly fault-
  // polluted) cache must still be byte-identical to the reference:
  // faults may have evicted or skipped entries, never poisoned them.
  BatchOptions after = clean;
  after.flow.map_cache = stormy.flow.map_cache;
  const BatchResult rerun = run_batch(jobs, after);
  std::map<std::string, JobRecord> rerun_records;
  for (const JobOutcome& out : rerun.jobs) {
    ASSERT_TRUE(out.terminal);
    rerun_records[out.record.job] = out.record;
  }
  EXPECT_EQ(manifest_json(rerun_records), manifest_json(reference_records));
}

// ---------------------------------------------------------------------------
// The server: every request gets a result or a structured error.

TEST(Server, MapPingStatsAndMalformedRequests) {
  const ServeOptions options = fast_serve(temp_path("basic.sock"));
  TestServer ts(options);

  std::vector<ServeRequest> requests;
  ServeRequest map;
  map.id = "r1";
  map.circuit = "z4ml";
  requests.push_back(map);
  ServeRequest ping;
  ping.kind = ServeRequest::Kind::kPing;
  ping.id = "r2";
  requests.push_back(ping);
  ServeRequest stats;
  stats.kind = ServeRequest::Kind::kStats;
  stats.id = "r3";
  requests.push_back(stats);

  std::vector<ServeResponse> responses;
  std::string error;
  ASSERT_TRUE(run_client(options.socket_path, requests, &responses, &error))
      << error;
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].kind, "result");
  EXPECT_EQ(responses[0].id, "r1");
  EXPECT_EQ(responses[0].record.job, "z4ml");
  EXPECT_EQ(responses[0].record.status, JobStatus::kOk);
  EXPECT_EQ(responses[1].kind, "pong");
  EXPECT_EQ(responses[2].kind, "stats");
  EXPECT_NE(responses[2].raw.find("\"hits\""), std::string::npos);

  // Malformed lines get structured parse errors, not dropped sockets.
  const int fd = connect_uds(options.socket_path);
  ASSERT_GE(fd, 0);
  send_str(fd, "this is not json\n");
  ServeResponse bad;
  ASSERT_TRUE(parse_response(read_line_fd(fd), &bad));
  EXPECT_EQ(bad.kind, "error");
  EXPECT_EQ(bad.code, "parse_error");
  send_str(fd, R"({"type":"map","id":"x"})" "\n");  // neither circuit nor path
  ASSERT_TRUE(parse_response(read_line_fd(fd), &bad));
  EXPECT_EQ(bad.kind, "error");
  EXPECT_EQ(bad.code, "parse_error");
  send_str(fd, R"({"type":"bogus","id":"x"})" "\n");
  ASSERT_TRUE(parse_response(read_line_fd(fd), &bad));
  EXPECT_EQ(bad.code, "parse_error");
  // The connection still works after three bad requests.
  send_str(fd, R"({"type":"ping","id":"still-alive"})" "\n");
  ASSERT_TRUE(parse_response(read_line_fd(fd), &bad));
  EXPECT_EQ(bad.kind, "pong");
  ::close(fd);

  const ServeReport report = ts.stop();
  EXPECT_EQ(report.counters.malformed, 3u);
  EXPECT_EQ(report.counters.results + report.counters.errors,
            report.counters.requests);
}

TEST(Server, UnknownCircuitIsAFailedRecordNotACrash) {
  const ServeOptions options = fast_serve(temp_path("unknown.sock"));
  TestServer ts(options);
  ServeRequest map;
  map.id = "r1";
  map.circuit = "no_such_circuit";
  std::vector<ServeResponse> responses;
  std::string error;
  ASSERT_TRUE(run_client(options.socket_path, {map}, &responses, &error))
      << error;
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].kind, "result");
  EXPECT_EQ(responses[0].record.status, JobStatus::kFailed);
  EXPECT_EQ(responses[0].record.code, "parse_error");
}

TEST(Server, RecordsMatchOfflineBatchByteForByte) {
  const std::string manifest_path = temp_path("offline.manifest.json");
  const std::vector<BatchJob> jobs = {{"z4ml", ""}, {"cm150", ""}};
  BatchOptions offline;
  offline.flow = fast_flow();
  offline.retry.backoff_base_ms = 0;
  offline.manifest_path = manifest_path;
  const BatchResult batch = run_batch(jobs, offline);
  ASSERT_TRUE(batch.complete());

  const ServeOptions options = fast_serve(temp_path("parity.sock"));
  TestServer ts(options);
  std::vector<ServeRequest> requests;
  for (const BatchJob& job : jobs) {
    ServeRequest r;
    r.id = job.name;
    r.circuit = job.name;
    requests.push_back(r);
  }
  std::vector<ServeResponse> responses;
  std::string error;
  ASSERT_TRUE(run_client(options.socket_path, requests, &responses, &error))
      << error;
  std::map<std::string, JobRecord> records;
  for (const ServeResponse& r : responses) {
    ASSERT_EQ(r.kind, "result");
    records[r.record.job] = r.record;
  }
  EXPECT_EQ(manifest_json(records), read_file(manifest_path));
}

TEST(Server, WarmColdAndRestartedResponsesAreIdentical) {
  const std::string spill = temp_path("restart_spill.jsonl");
  ServeOptions options = fast_serve(temp_path("restart.sock"));
  options.cache.spill_path = spill;

  ServeRequest map;
  map.id = "r";
  map.circuit = "z4ml";
  std::string cold_line;
  std::string warm_line;
  {
    TestServer ts(options);
    std::vector<ServeResponse> responses;
    std::string error;
    ASSERT_TRUE(run_client(options.socket_path, {map, map}, &responses,
                           &error))
        << error;
    ASSERT_EQ(responses.size(), 2u);
    cold_line = responses[0].raw;
    warm_line = responses[1].raw;
    const ServeReport report = ts.stop();
    EXPECT_EQ(report.cache.misses, 1u);
    EXPECT_EQ(report.cache.hits, 1u);
  }
  EXPECT_EQ(cold_line, warm_line);
  {
    TestServer ts(options);  // restarts over the compacted spill
    std::vector<ServeResponse> responses;
    std::string error;
    ASSERT_TRUE(run_client(options.socket_path, {map}, &responses, &error))
        << error;
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].raw, cold_line);
    const ServeReport report = ts.stop();
    EXPECT_GE(report.cache.spill_loaded, 1u);
    EXPECT_EQ(report.cache.hits, 1u);
    EXPECT_EQ(report.cache.misses, 0u);
  }
}

TEST(Server, ConnectionBackpressureIsAnExplicitBusyError) {
  ServeOptions options = fast_serve(temp_path("busy.sock"));
  options.max_connections = 1;
  TestServer ts(options);

  // The readiness probe's connection holds the only slot until its
  // handler sees the close, so connection 1 may be refused "busy" at
  // first: retry it until a handler owns it.
  int fd1 = -1;
  std::uint64_t retries = 0;
  for (;; ++retries) {
    ASSERT_LT(retries, 100u);
    fd1 = connect_uds(options.socket_path);
    ASSERT_GE(fd1, 0);
    // A refused connection may already be closed: ignore send errors, the
    // "busy" line is still readable.
    const std::string ping = R"({"type":"ping","id":"a"})" "\n";
    (void)::send(fd1, ping.data(), ping.size(), MSG_NOSIGNAL);
    ServeResponse first;
    ASSERT_TRUE(parse_response(read_line_fd(fd1), &first));
    if (first.kind == "pong") break;
    ASSERT_EQ(first.code, "busy");
    ::close(fd1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const int fd2 = connect_uds(options.socket_path);
  ASSERT_GE(fd2, 0);
  ServeResponse busy;
  ASSERT_TRUE(parse_response(read_line_fd(fd2), &busy));
  EXPECT_EQ(busy.kind, "error");
  EXPECT_EQ(busy.code, "busy");
  EXPECT_EQ(busy.stage, "serve_accept");
  ::close(fd2);
  ::close(fd1);
  const ServeReport report = ts.stop();
  EXPECT_EQ(report.counters.busy_rejections, 1u + retries);
}

TEST(Server, ClosedConnectionsReleaseTheirHandlerThreads) {
  // Every connection gets a handler thread; one that is never joined
  // keeps its stack (8 MiB by default) mapped, so 512 connections would
  // grow VmSize by about 4 GiB.
  const ServeOptions options = fast_serve(temp_path("churn.sock"));
  TestServer ts(options);
  const long before_kib = vm_size_kib();
  ASSERT_GT(before_kib, 0);
  for (int i = 0; i < 512; ++i) {
    const int fd = connect_uds(options.socket_path);
    ASSERT_GE(fd, 0);
    send_str(fd, R"({"type":"ping","id":"p"})" "\n");
    ServeResponse pong;
    ASSERT_TRUE(parse_response(read_line_fd(fd), &pong));
    ASSERT_EQ(pong.kind, "pong") << "connection " << i;
    ::close(fd);
  }
  EXPECT_LT(vm_size_kib() - before_kib, 256L * 1024);
  const ServeReport report = ts.stop();
  EXPECT_EQ(report.counters.results, 512u);
}

TEST(Server, InFlightBackpressureAndSignalDrain) {
  reset_signal_state_for_testing();
  ServeOptions options = fast_serve(temp_path("drain.sock"));
  options.max_in_flight = 1;
  // Keep the slow job in flight until the drain cancels it, however fast
  // the flow gets: verification checks the guard once per round.
  options.batch.flow.verify_rounds = 1 << 20;
  TestServer ts(options);

  // A long-running map occupies the single in-flight slot.
  std::vector<ServeResponse> slow_responses;
  std::string slow_error;
  std::thread slow([&] {
    ServeRequest slow_map;
    slow_map.id = "slow";
    slow_map.circuit = "xl_mult64";
    run_client(options.socket_path, {slow_map}, &slow_responses, &slow_error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  // Admission control: a second map is told to back off, immediately.
  ServeRequest quick;
  quick.id = "quick";
  quick.circuit = "z4ml";
  std::vector<ServeResponse> busy_responses;
  std::string busy_error;
  ASSERT_TRUE(run_client(options.socket_path, {quick}, &busy_responses,
                         &busy_error))
      << busy_error;
  ASSERT_EQ(busy_responses.size(), 1u);
  EXPECT_EQ(busy_responses[0].kind, "error");
  EXPECT_EQ(busy_responses[0].code, "busy");

  // SIGTERM: the in-flight job is cancelled at a guard checkpoint and
  // answered with a structured drain error, and run() returns.
  std::raise(SIGTERM);
  slow.join();
  ts.thread.join();
  reset_signal_state_for_testing();

  ASSERT_EQ(slow_responses.size(), 1u) << slow_error;
  EXPECT_EQ(slow_responses[0].kind, "error");
  EXPECT_EQ(slow_responses[0].code, "cancelled");
  EXPECT_EQ(slow_responses[0].stage, "serve_drain");
  EXPECT_EQ(ts.report.interrupted_by_signal, SIGTERM);
  EXPECT_GE(ts.report.counters.drain_rejections, 1u);
}

TEST(Server, AcceptFaultYieldsStructuredErrorAndServerSurvives) {
  const ServeOptions options = fast_serve(temp_path("acceptfault.sock"));
  // Hit 1 is consumed by TestServer's readiness probe.
  FaultInjector injector = FaultInjector::fail_at(FlowStage::kServeAccept, 2);
  TestServer ts(options, &injector);

  const int fd = connect_uds(options.socket_path);
  ASSERT_GE(fd, 0);
  ServeResponse rejected;
  ASSERT_TRUE(parse_response(read_line_fd(fd), &rejected));
  EXPECT_EQ(rejected.kind, "error");
  EXPECT_EQ(rejected.code, "fault_injected");
  EXPECT_EQ(rejected.stage, "serve_accept");
  ::close(fd);

  // The next connection is served normally.
  ServeRequest ping;
  ping.kind = ServeRequest::Kind::kPing;
  ping.id = "p";
  std::vector<ServeResponse> responses;
  std::string error;
  ASSERT_TRUE(run_client(options.socket_path, {ping}, &responses, &error))
      << error;
  EXPECT_EQ(responses[0].kind, "pong");
  const ServeReport report = ts.stop();
  EXPECT_EQ(report.counters.accept_faults, 1u);
}

TEST(Server, DrainFaultCannotSkipTheSpillFlush) {
  const std::string spill = temp_path("drainfault_spill.jsonl");
  ServeOptions options = fast_serve(temp_path("drainfault.sock"));
  options.cache.spill_path = spill;
  FaultInjector injector = FaultInjector::fail_at(FlowStage::kServeDrain, 1);
  TestServer ts(options, &injector);

  ServeRequest map;
  map.id = "r";
  map.circuit = "cm150";
  std::vector<ServeResponse> responses;
  std::string error;
  ASSERT_TRUE(run_client(options.socket_path, {map}, &responses, &error))
      << error;
  ASSERT_EQ(responses[0].kind, "result");

  const ServeReport report = ts.stop();
  EXPECT_EQ(report.counters.drain_faults, 1u);
  EXPECT_TRUE(report.spill_warnings.empty());

  // The spill survived the faulted drain and warms a fresh cache.
  ConeCacheOptions co;
  co.spill_path = spill;
  ConeCache fresh(co);
  EXPECT_TRUE(fresh.load_spill().empty());
  EXPECT_GE(fresh.stats().spill_loaded, 1u);
}

}  // namespace
}  // namespace soidom
