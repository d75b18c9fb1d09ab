/// \file server.hpp
/// Crash-only persistent mapping service over a Unix-domain socket
/// (docs/SERVE.md).
///
/// MappingServer accepts NDJSON requests (protocol.hpp), runs each map
/// request through the batch runner's guarded single-job machinery on
/// the connection's handler thread (per-attempt deadline,
/// retry/degradation ladder, structured failure classification —
/// byte-identical outcomes to an offline soidom_batch run), and answers every request with exactly one structured response:
/// a result, or an error that says why not.  Overload never queues
/// unboundedly: past max_connections / max_in_flight the server answers
/// an explicit "busy" backpressure error immediately.  Repeated map
/// results are served from the content-addressed cone cache
/// (cache.hpp), which spills to disk and survives kill -9.
///
/// Shutdown is graceful drain: on SIGINT/SIGTERM (or request_stop) the
/// listener closes, in-flight jobs are cancelled at their guard
/// checkpoints through the process-wide signal token, every
/// unanswered request receives a "cancelled"/serve_drain error, the
/// cache spill is compacted, and run() returns; the CLI then exits
/// 128+signum.  Fault probes kServeAccept and kServeDrain let tests
/// storm both paths and assert the response-per-request invariant holds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "soidom/batch/runner.hpp"
#include "soidom/serve/cache.hpp"
#include "soidom/serve/protocol.hpp"

namespace soidom {

struct ServeOptions {
  std::string socket_path;  ///< Unix-domain socket (unlinked/rebound)
  /// Per-job execution options (flow, budget, retry ladder, default
  /// per-attempt timeout).  journal/manifest/isolate/resume fields are
  /// ignored: the service journal is the cone-cache spill, and results
  /// stream to the client instead of a manifest.
  BatchOptions batch;
  ConeCacheOptions cache;
  int max_connections = 32;  ///< concurrent client connections
  int max_in_flight = 4;     ///< concurrent map jobs (admission control)
};

/// Process-lifetime server counters (all responses are counted in
/// exactly one of results / errors).
struct ServeCounters {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t results = 0;
  std::uint64_t errors = 0;            ///< structured error responses
  std::uint64_t busy_rejections = 0;   ///< subset of errors: backpressure
  std::uint64_t drain_rejections = 0;  ///< subset of errors: draining
  std::uint64_t malformed = 0;         ///< subset of errors: bad request
  std::uint64_t accept_faults = 0;     ///< kServeAccept probe fired
  std::uint64_t drain_faults = 0;      ///< kServeDrain probe fired
};

/// Final report returned by run().
struct ServeReport {
  ServeCounters counters;
  ConeCacheStats cache;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  int interrupted_by_signal = 0;  ///< signum that triggered drain, or 0
  /// Structured diagnostics from loading/compacting the cache spill
  /// (corrupt records skipped, flush failures) — informational; the
  /// server ran regardless.
  std::vector<Diagnostic> spill_warnings;

  std::string to_json() const;
};

class MappingServer {
 public:
  /// Validates options and opens the cache (loading the spill).  Throws
  /// soidom::Error for caller mistakes (empty socket path, bad batch
  /// policy); a damaged spill is not a mistake — it produces
  /// spill_warnings and a colder cache.
  explicit MappingServer(const ServeOptions& options);
  ~MappingServer();
  MappingServer(const MappingServer&) = delete;
  MappingServer& operator=(const MappingServer&) = delete;

  /// Bind, listen, and serve until a SIGINT/SIGTERM or request_stop(),
  /// then drain and return the report.  Throws soidom::Error only when
  /// the socket cannot be bound.
  ServeReport run();

  /// Thread-safe: ask a running run() to drain (tests; the CLI uses
  /// signals).
  void request_stop();

  /// The shared cone cache (test introspection; safe concurrently).
  ConeCache& cache();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Minimal blocking client: connect to `socket_path`, send every
/// request line, and collect one response per request (in order).
/// Returns false (with *error set) on connect/transport failure or a
/// short response stream — partial responses are kept in *responses.
bool run_client(const std::string& socket_path,
                const std::vector<ServeRequest>& requests,
                std::vector<ServeResponse>* responses, std::string* error);

}  // namespace soidom
