/// Crash-only persistent mapping service front end (docs/SERVE.md).
///
///   build/examples/soidom_serve serve  --socket=PATH [options]
///   build/examples/soidom_serve submit --socket=PATH [jobs...] [options]
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
/// serve options:
///   --socket=PATH            Unix-domain socket path (required)
///   --spill=FILE             cone-cache spill journal (default: none)
///   --cache-mb=N             in-memory cache budget (default 256)
///   --no-durable             skip per-append fsync (tests)
///   --max-connections=N      concurrent clients (default 32)
///   --max-in-flight=N        concurrent map jobs (default 4)
///   --timeout-ms=N           default per-job watchdog (0 = none)
///   --attempts=N             retry budget per job (default 3)
///   --report=FILE            write the final JSON report here too
///   --inject=N/D@SEED        seeded per-(job,attempt) fault injection
///   flow knobs: --flow=domino|rs|soi --wmax=N --hmax=N
///               --seq-aware --exact --verify=N
///
/// submit options:
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
#include "soidom/batch/signals.hpp"
#include "soidom/serve/server.hpp"

using namespace soidom;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s serve  --socket=PATH [--spill=FILE] [--cache-mb=N]\n"
      "                 [--no-durable] [--max-connections=N]\n"
      "                 [--max-in-flight=N] [--timeout-ms=N] [--attempts=N]\n"
      "                 [--report=FILE] [--inject=N/D@SEED]\n"
      "                 [--flow=domino|rs|soi] [--wmax=N] [--hmax=N]\n"
      "                 [--seq-aware] [--exact] [--verify=N]\n"
      "       %s submit --socket=PATH [--circuits=a,b,c] [--deadline-ms=N]\n"
      "                 [--manifest=FILE] [circuit.blif ...]\n"
      "       %s ping   --socket=PATH\n"
      "       %s stats  --socket=PATH\n",
      argv0, argv0, argv0, argv0);
  std::exit(64);
}

std::vector<std::string> split_names(const std::string& list) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) out.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

int run_serve(int argc, char** argv) {
  ServeOptions options;
  std::string report_path;
  auto int_flag = [&](const std::string& text, const char* flag, int* out) {
    if (!parse_int_strict(text, out)) {
      std::fprintf(stderr, "error: %s needs an integer, got '%s'\n", flag,
                   text.c_str());
      usage(argv[0]);
    }
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      options.socket_path = arg.substr(9);
    } else if (arg.rfind("--spill=", 0) == 0) {
      options.cache.spill_path = arg.substr(8);
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      int mb = 0;
      int_flag(arg.substr(11), "--cache-mb", &mb);
      if (mb < 1) usage(argv[0]);
      options.cache.max_bytes = static_cast<std::size_t>(mb) << 20;
    } else if (arg == "--no-durable") {
      options.cache.durable = false;
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      int_flag(arg.substr(18), "--max-connections", &options.max_connections);
    } else if (arg.rfind("--max-in-flight=", 0) == 0) {
      int_flag(arg.substr(16), "--max-in-flight", &options.max_in_flight);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      int timeout_ms = 0;
      int_flag(arg.substr(13), "--timeout-ms", &timeout_ms);
      options.batch.job_timeout_ms = timeout_ms;
    } else if (arg.rfind("--attempts=", 0) == 0) {
      int_flag(arg.substr(11), "--attempts",
               &options.batch.retry.max_attempts);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg.rfind("--inject=", 0) == 0) {
      unsigned long long numer = 0;
      unsigned long long denom = 0;
      unsigned long long seed = 0;
      if (std::sscanf(arg.c_str() + 9, "%llu/%llu@%llu", &numer, &denom,
                      &seed) != 3 ||
          denom == 0) {
        usage(argv[0]);
      }
      options.batch.fault = BatchFaultPlan{seed, numer, denom};
    } else if (arg == "--flow=domino") {
      options.batch.flow.variant = FlowVariant::kDominoMap;
    } else if (arg == "--flow=rs") {
      options.batch.flow.variant = FlowVariant::kRsMap;
    } else if (arg == "--flow=soi") {
      options.batch.flow.variant = FlowVariant::kSoiDominoMap;
    } else if (arg.rfind("--wmax=", 0) == 0) {
      int_flag(arg.substr(7), "--wmax", &options.batch.flow.mapper.max_width);
    } else if (arg.rfind("--hmax=", 0) == 0) {
      int_flag(arg.substr(7), "--hmax", &options.batch.flow.mapper.max_height);
    } else if (arg == "--seq-aware") {
      options.batch.flow.sequence_aware = true;
    } else if (arg == "--exact") {
      options.batch.flow.exact_equivalence = true;
    } else if (arg.rfind("--verify=", 0) == 0) {
      int_flag(arg.substr(9), "--verify", &options.batch.flow.verify_rounds);
    } else {
      usage(argv[0]);
    }
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
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg.rfind("--circuits=", 0) == 0) {
      for (auto& name : split_names(arg.substr(11))) named.push_back(name);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      int ms = 0;
      if (!parse_int_strict(arg.substr(14), &ms) || ms < 0) usage(argv[0]);
      deadline_ms = ms;
    } else if (arg.rfind("--manifest=", 0) == 0) {
      manifest_path = arg.substr(11);
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
    } else {
      files.push_back(arg);
    }
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
        std::printf("%-12s ok       attempts=%d ladder=%s  %s\n",
                    r.record.job.c_str(), r.record.attempts,
                    r.record.ladder.c_str(), r.record.summary.c_str());
      } else {
        ++failed;
        std::printf("%-12s %-8s attempts=%d ladder=%s  %s: %s: %s\n",
                    r.record.job.c_str(), job_status_name(r.record.status),
                    r.record.attempts, r.record.ladder.c_str(),
                    r.record.stage.c_str(), r.record.code.c_str(),
                    r.record.message.c_str());
      }
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
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else {
      usage(argv[0]);
    }
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
