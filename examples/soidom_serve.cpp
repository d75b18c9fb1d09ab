/// Crash-only persistent mapping service front end (docs/SERVE.md).
///
///   build/examples/soidom_serve serve  --socket=PATH [flags]
///   build/examples/soidom_serve submit --socket=PATH [jobs...] [flags]
///   build/examples/soidom_serve ping   --socket=PATH
///   build/examples/soidom_serve stats  --socket=PATH
///
/// `serve` binds a Unix-domain socket and answers NDJSON mapping
/// requests until SIGINT/SIGTERM, then drains gracefully (in-flight
/// jobs cancelled at guard checkpoints, every pending request answered
/// with a structured error, cone-cache spill compacted) and exits
/// 128+signum.  Repeat mappings are served from a content-addressed
/// cone cache that survives kill -9 via a checksummed spill journal.
///
/// `submit` sends one map request per job, prints per-job outcome lines,
/// and optionally writes a manifest byte-identical to what an offline
/// soidom_batch run over the same jobs would produce.
///
/// serve flags:
///   --socket=PATH            Unix-domain socket path (required)
///   --spill=FILE             cone-cache spill journal (default: none)
///   --cache-mb=N             in-memory cache budget (default 256)
///   --no-durable             skip per-append fsync (tests)
///   --max-connections=N      concurrent clients (default 32)
///   --max-in-flight=N        concurrent map jobs (default 4)
///   --report=FILE            write the final JSON report here too
///   and the job group of soidom/batch/flags.hpp, which nests the flow
///   group.  The batch-run group is rejected: a served job runs alone,
///   in process, without a journal.
///
/// submit flags:
///   --circuits=a,b,c         named benchmark-registry circuits
///   circuit.blif ...         BLIF files (job key = the path)
///   --deadline-ms=N          per-request deadline override
///   --manifest=FILE          write a batch-compatible manifest
///
/// Exit codes (docs/ERRORS.md): serve exits 0 on request_stop-less
/// clean return, 130/143 when drained by SIGINT/SIGTERM, 64 bad usage,
/// 6 socket setup failure.  submit: 0 all jobs ok, 7 some failed or
/// rejected, 6 transport failure, 64 bad usage.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "soidom/base/fileio.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/flags.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/serve/server.hpp"

using namespace soidom;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s serve  --socket=PATH [--spill=FILE] [--cache-mb=N]\n"
      "                 [--no-durable] [--max-connections=N]\n"
      "                 [--max-in-flight=N] [--report=FILE] [flags]\n"
      "       %s submit --socket=PATH [--circuits=a,b,c] [--deadline-ms=N]\n"
      "                 [--manifest=FILE] [circuit.blif ...]\n"
      "       %s ping   --socket=PATH\n"
      "       %s stats  --socket=PATH\n"
      "serve %s%s",
      argv0, argv0, argv0, argv0, kJobFlagsUsage, kFlowFlagsUsage);
  std::exit(64);
}

int run_serve(int argc, char** argv) {
  ServeOptions options;
  std::string report_path;
  try {
    for (int i = 2; i < argc; ++i) {
      const Flag flag(argv[i]);
      if (parse_job_flag(flag, options.batch)) continue;
      if (flag.has("--socket")) {
        options.socket_path = flag.value();
      } else if (flag.has("--spill")) {
        options.cache.spill_path = flag.value();
      } else if (flag.has("--cache-mb")) {
        options.cache.max_bytes = static_cast<std::size_t>(flag.integer(1))
                                  << 20;
      } else if (flag.is("--no-durable")) {
        options.cache.durable = false;
      } else if (flag.has("--max-connections")) {
        options.max_connections = flag.integer(1);
      } else if (flag.has("--max-in-flight")) {
        options.max_in_flight = flag.integer(1);
      } else if (flag.has("--report")) {
        report_path = flag.value();
      } else {
        usage(argv[0]);
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  }
  if (options.socket_path.empty()) usage(argv[0]);

  try {
    MappingServer server(options);
    std::fprintf(stderr, "serving on %s\n", options.socket_path.c_str());
    const ServeReport report = server.run();
    for (const Diagnostic& warn : report.spill_warnings) {
      std::fprintf(stderr, "warning: %s\n", warn.to_string().c_str());
    }
    const std::string json = report.to_json();
    std::fputs(json.c_str(), stdout);
    if (!report_path.empty()) {
      try {
        write_file_atomic(report_path, json);
      } catch (const Error& e) {
        std::fprintf(stderr, "warning: cannot write report: %s\n", e.what());
      }
    }
    if (report.interrupted_by_signal != 0) {
      std::fprintf(stderr, "drained on signal %d\n",
                   report.interrupted_by_signal);
      return signal_exit_code(report.interrupted_by_signal);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 6;
  }
}

int run_submit(int argc, char** argv) {
  std::string socket_path;
  std::string manifest_path;
  std::int64_t deadline_ms = 0;
  std::vector<std::string> named;
  std::vector<std::string> files;
  try {
    for (int i = 2; i < argc; ++i) {
      const Flag flag(argv[i]);
      if (flag.has("--socket")) {
        socket_path = flag.value();
      } else if (flag.has("--circuits")) {
        for (const std::string_view name : split(flag.value(), ",")) {
          named.emplace_back(name);
        }
      } else if (flag.has("--deadline-ms")) {
        deadline_ms = flag.integer(0);
      } else if (flag.has("--manifest")) {
        manifest_path = flag.value();
      } else if (starts_with(argv[i], "--")) {
        usage(argv[0]);
      } else {
        files.emplace_back(argv[i]);
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  }
  if (socket_path.empty() || (named.empty() && files.empty())) usage(argv[0]);

  std::vector<ServeRequest> requests;
  int id = 0;
  for (const std::string& name : named) {
    ServeRequest r;
    r.id = format("r%d", ++id);
    r.circuit = name;
    r.deadline_ms = deadline_ms;
    requests.push_back(r);
  }
  for (const std::string& path : files) {
    ServeRequest r;
    r.id = format("r%d", ++id);
    r.blif_path = path;
    r.deadline_ms = deadline_ms;
    requests.push_back(r);
  }

  std::vector<ServeResponse> responses;
  std::string error;
  const bool transport_ok =
      run_client(socket_path, requests, &responses, &error);

  // The manifest merges result records exactly like soidom_batch merges
  // its journal: same codec, same sort, same bytes.
  std::map<std::string, JobRecord> records;
  int ok = 0;
  int failed = 0;
  int rejected = 0;
  for (const ServeResponse& r : responses) {
    if (r.kind == "result") {
      records[r.record.job] = r.record;
      if (r.record.status == JobStatus::kOk) {
        ++ok;
      } else {
        ++failed;
      }
      std::printf("%s\n", job_record_line(r.record).c_str());
    } else {
      ++rejected;
      std::printf("%-12s rejected %s: %s: %s\n", r.id.c_str(),
                  r.stage.c_str(), r.code.c_str(), r.message.c_str());
    }
    std::fflush(stdout);
  }
  std::printf("submit: %zu jobs  ok=%d failed=%d rejected=%d\n",
              requests.size(), ok, failed, rejected);
  if (!transport_ok) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 6;
  }
  if (!manifest_path.empty()) {
    try {
      write_manifest(records, manifest_path);
      std::printf("wrote %s\n", manifest_path.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "error: cannot write manifest: %s\n", e.what());
      return 6;
    }
  }
  return (failed == 0 && rejected == 0) ? 0 : 7;
}

int run_simple(int argc, char** argv, ServeRequest::Kind kind) {
  std::string socket_path;
  for (int i = 2; i < argc; ++i) {
    const Flag flag(argv[i]);
    if (!flag.has("--socket")) usage(argv[0]);
    socket_path = flag.value();
  }
  if (socket_path.empty()) usage(argv[0]);
  ServeRequest request;
  request.kind = kind;
  request.id = kind == ServeRequest::Kind::kPing ? "ping" : "stats";
  std::vector<ServeResponse> responses;
  std::string error;
  if (!run_client(socket_path, {request}, &responses, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 6;
  }
  if (kind == ServeRequest::Kind::kPing) {
    std::printf("%s\n", responses[0].kind == "pong" ? "pong" : "unexpected");
    return responses[0].kind == "pong" ? 0 : 1;
  }
  std::printf("%s\n", responses[0].raw.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "serve") return run_serve(argc, argv);
  if (mode == "submit") return run_submit(argc, argv);
  if (mode == "ping") return run_simple(argc, argv, ServeRequest::Kind::kPing);
  if (mode == "stats") {
    return run_simple(argc, argv, ServeRequest::Kind::kStats);
  }
  usage(argv[0]);
}
