#include "soidom/serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <list>
#include <thread>
#include <utility>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/guard/fault.hpp"

namespace soidom {
namespace {

/// Pending connections the kernel queues before accept(); the admission
/// limits (max_connections, max_in_flight) bound the work past that.
constexpr int kListenBacklog = 64;

/// Write one NDJSON line; MSG_NOSIGNAL so a vanished client surfaces as
/// an error here instead of a process-killing SIGPIPE.
void send_line(int fd, const std::string& line) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(format("send on connection failed: %s",
                         std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string counters_json(const ServeCounters& c) {
  return format(
      R"({"connections":%llu,"requests":%llu,"results":%llu,"errors":%llu,)"
      R"("busy_rejections":%llu,"drain_rejections":%llu,"malformed":%llu,)"
      R"("accept_faults":%llu,"drain_faults":%llu})",
      static_cast<unsigned long long>(c.connections),
      static_cast<unsigned long long>(c.requests),
      static_cast<unsigned long long>(c.results),
      static_cast<unsigned long long>(c.errors),
      static_cast<unsigned long long>(c.busy_rejections),
      static_cast<unsigned long long>(c.drain_rejections),
      static_cast<unsigned long long>(c.malformed),
      static_cast<unsigned long long>(c.accept_faults),
      static_cast<unsigned long long>(c.drain_faults));
}

}  // namespace

std::string ServeReport::to_json() const {
  std::string warnings;
  for (const Diagnostic& d : spill_warnings) {
    if (!warnings.empty()) warnings += ",";
    warnings += d.to_json();
  }
  return format(
      R"({"schema":"soidom-serve-report-1","counters":%s,"cache":%s,)"
      R"("interrupted_by_signal":%d,"spill_warnings":[%s]})"
      "\n",
      counters_json(counters).c_str(),
      cache_stats_json(cache, cache_entries, cache_bytes).c_str(),
      interrupted_by_signal, warnings.c_str());
}

struct MappingServer::Impl {
  explicit Impl(const ServeOptions& opts)
      : options(opts), cone_cache(std::make_shared<ConeCache>(opts.cache)) {
    // The per-request execution template: one job, in this process,
    // through the shared cone cache.  Journal/manifest/resume belong to
    // offline batch runs; the service's durable state is the spill.
    batch_base = options.batch;
    batch_base.max_parallel = 1;
    batch_base.isolate = false;
    batch_base.journal_path.clear();
    batch_base.manifest_path.clear();
    batch_base.resume = false;
    batch_base.flow.map_cache = cone_cache;
  }

  struct Counters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> results{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> busy_rejections{0};
    std::atomic<std::uint64_t> drain_rejections{0};
    std::atomic<std::uint64_t> malformed{0};
    std::atomic<std::uint64_t> accept_faults{0};
    std::atomic<std::uint64_t> drain_faults{0};

    ServeCounters snapshot() const {
      ServeCounters c;
      c.connections = connections.load(std::memory_order_relaxed);
      c.requests = requests.load(std::memory_order_relaxed);
      c.results = results.load(std::memory_order_relaxed);
      c.errors = errors.load(std::memory_order_relaxed);
      c.busy_rejections = busy_rejections.load(std::memory_order_relaxed);
      c.drain_rejections = drain_rejections.load(std::memory_order_relaxed);
      c.malformed = malformed.load(std::memory_order_relaxed);
      c.accept_faults = accept_faults.load(std::memory_order_relaxed);
      c.drain_faults = drain_faults.load(std::memory_order_relaxed);
      return c;
    }
  };

  /// One structured error response (errors and its subset counter).
  void send_error(int fd, const std::string& id, const char* code,
                  const char* stage, const std::string& message,
                  std::atomic<std::uint64_t>* subset) {
    counters.errors.fetch_add(1, std::memory_order_relaxed);
    if (subset != nullptr) subset->fetch_add(1, std::memory_order_relaxed);
    send_line(fd, response_error(id, code, stage, message));
  }

  void handle_request(int fd, const std::string& line) {
    counters.requests.fetch_add(1, std::memory_order_relaxed);
    std::string id;
    json_find_string(line, "id", &id);  // best effort, even when malformed
    ServeRequest req;
    std::string parse_error;
    if (!parse_request(line, &req, &parse_error)) {
      send_error(fd, id, "parse_error", "serve_accept", parse_error,
                 &counters.malformed);
      return;
    }
    switch (req.kind) {
      case ServeRequest::Kind::kPing:
        counters.results.fetch_add(1, std::memory_order_relaxed);
        send_line(fd, response_pong(req.id));
        return;
      case ServeRequest::Kind::kStats:
        counters.results.fetch_add(1, std::memory_order_relaxed);
        send_line(fd, response_stats(
                          req.id,
                          cache_stats_json(cone_cache->stats(),
                                           cone_cache->entries(),
                                           cone_cache->bytes()),
                          counters_json(counters.snapshot())));
        return;
      case ServeRequest::Kind::kMap:
        break;
    }

    if (draining.load(std::memory_order_relaxed)) {
      send_error(fd, req.id, "cancelled", "serve_drain",
                 "server draining; resubmit after restart",
                 &counters.drain_rejections);
      return;
    }
    // Admission control: never queue past max_in_flight — tell the
    // client to back off instead of growing an unbounded backlog.
    const int running = in_flight.fetch_add(1, std::memory_order_acq_rel);
    if (running >= options.max_in_flight) {
      in_flight.fetch_sub(1, std::memory_order_acq_rel);
      send_error(fd, req.id, "busy", "serve_accept",
                 format("server at capacity (%d map jobs in flight); "
                        "retry later",
                        running),
                 &counters.busy_rejections);
      return;
    }

    BatchResult br;
    std::string internal_error;
    try {
      BatchOptions bo = batch_base;
      if (req.deadline_ms > 0) bo.job_timeout_ms = req.deadline_ms;
      const BatchJob job{
          req.circuit.empty() ? req.blif_path : req.circuit, req.blif_path};
      br = run_batch({job}, bo);
    } catch (const std::exception& e) {
      internal_error = e.what();
    }
    in_flight.fetch_sub(1, std::memory_order_acq_rel);

    if (!internal_error.empty() || br.jobs.empty()) {
      send_error(fd, req.id, "internal", "serve_accept",
                 internal_error.empty() ? "job produced no outcome"
                                        : internal_error,
                 nullptr);
      return;
    }
    const JobOutcome& out = br.jobs[0];
    if (!out.terminal) {
      // Cancelled mid-flight by drain (the signal trips the token every
      // attempt observes): no terminal state exists, so the only honest
      // answer is a structured drain error.
      send_error(fd, req.id, "cancelled", "serve_drain",
                 "request cancelled by server drain; resubmit after restart",
                 &counters.drain_rejections);
      return;
    }
    counters.results.fetch_add(1, std::memory_order_relaxed);
    send_line(fd, response_result(req.id, out.record));
  }

  void handle_connection(int fd) {
    std::string buffer;
    char chunk[4096];
    pollfd pfd{fd, POLLIN, 0};
    try {
      for (;;) {
        // Drain whatever is already buffered before deciding to exit.
        std::size_t nl;
        while ((nl = buffer.find('\n')) != std::string::npos) {
          std::string line = buffer.substr(0, nl);
          buffer.erase(0, nl + 1);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          if (!line.empty()) handle_request(fd, line);
        }
        if (draining.load(std::memory_order_relaxed)) break;
        const int pr = ::poll(&pfd, 1, 100);
        if (pr < 0) {
          if (errno == EINTR) continue;
          break;
        }
        if (pr == 0) continue;
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        if (n == 0) break;  // client hung up
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
    } catch (const std::exception&) {
      // Transport failure (client vanished mid-response): drop the
      // connection; the server must outlive any client.
    }
    ::close(fd);
    active_connections.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// A connection handler; `done` is the thread's last store, so a done
  /// handler joins without blocking.
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Joins and erases the finished handlers, or every handler when `all`.
  /// Only the accept loop calls this, so handler count (and mapped thread
  /// stacks) stay bounded by the open connections, not the connections
  /// ever served.
  void reap_handlers(bool all) {
    std::erase_if(handlers, [all](Handler& h) {
      if (!all && !h.done.load(std::memory_order_acquire)) return false;
      h.thread.join();
      return true;
    });
  }

  const ServeOptions options;
  BatchOptions batch_base;
  std::shared_ptr<ConeCache> cone_cache;
  Counters counters;
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> draining{false};
  std::atomic<int> in_flight{0};
  std::atomic<int> active_connections{0};
  std::list<Handler> handlers;  ///< stable addresses for the done flags
  std::vector<Diagnostic> spill_warnings;
};

MappingServer::MappingServer(const ServeOptions& options)
    : impl_(std::make_unique<Impl>(options)) {
  SOIDOM_REQUIRE(!options.socket_path.empty(),
                 "ServeOptions.socket_path must not be empty");
  SOIDOM_REQUIRE(options.max_connections >= 1,
                 format("ServeOptions.max_connections = %d is invalid "
                        "(need >= 1)",
                        options.max_connections));
  SOIDOM_REQUIRE(options.max_in_flight >= 1,
                 format("ServeOptions.max_in_flight = %d is invalid "
                        "(need >= 1)",
                        options.max_in_flight));
  impl_->spill_warnings = impl_->cone_cache->load_spill();
}

MappingServer::~MappingServer() = default;

void MappingServer::request_stop() {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
}

ConeCache& MappingServer::cache() { return *impl_->cone_cache; }

ServeReport MappingServer::run() {
  install_signal_cancel();

  const std::string& path = impl_->options.socket_path;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SOIDOM_REQUIRE(path.size() < sizeof addr.sun_path,
                 format("socket path '%s' is too long for a Unix-domain "
                        "socket (max %zu bytes)",
                        path.c_str(), sizeof addr.sun_path - 1));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    throw Error(format("socket() failed: %s", std::strerror(errno)));
  }
  ::unlink(path.c_str());  // a stale socket from a killed server is fine
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd, kListenBacklog) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd);
    throw Error(format("cannot listen on %s: %s", path.c_str(), why.c_str()));
  }

  pollfd pfd{listen_fd, POLLIN, 0};
  while (signal_received() == 0 &&
         !impl_->stop_requested.load(std::memory_order_relaxed)) {
    impl_->reap_handlers(/*all=*/false);
    // SA_RESTART keeps syscalls from waking on the signal, so the loop
    // polls with a timeout and re-checks the flags each tick.
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    impl_->counters.connections.fetch_add(1, std::memory_order_relaxed);
    try {
      SOIDOM_FAULT_PROBE(FlowStage::kServeAccept);
    } catch (const std::exception&) {
      // Injected accept failure: the connection still gets a structured
      // goodbye, never silence or a crash.
      impl_->counters.accept_faults.fetch_add(1, std::memory_order_relaxed);
      try {
        impl_->send_error(fd, "", "fault_injected", "serve_accept",
                          "connection rejected by injected accept fault",
                          nullptr);
      } catch (const std::exception&) {
      }
      ::close(fd);
      continue;
    }
    const int active =
        impl_->active_connections.fetch_add(1, std::memory_order_acq_rel);
    if (active >= impl_->options.max_connections) {
      impl_->active_connections.fetch_sub(1, std::memory_order_acq_rel);
      try {
        impl_->send_error(fd, "", "busy", "serve_accept",
                          format("server at capacity (%d connections); "
                                 "retry later",
                                 active),
                          &impl_->counters.busy_rejections);
      } catch (const std::exception&) {
      }
      ::close(fd);
      continue;
    }
    Impl::Handler& handler = impl_->handlers.emplace_back();
    handler.thread = std::thread([impl = impl_.get(), fd, &handler] {
      impl->handle_connection(fd);
      handler.done.store(true, std::memory_order_release);
    });
  }

  // Drain: stop accepting, cancel in-flight work (the signal handler
  // tripped the token every in-flight attempt observes), answer
  // everything still pending with a structured drain error, then
  // compact the spill.  An injected kServeDrain fault must not be able
  // to skip any of that.
  impl_->draining.store(true, std::memory_order_relaxed);
  try {
    SOIDOM_FAULT_PROBE(FlowStage::kServeDrain);
  } catch (const std::exception&) {
    impl_->counters.drain_faults.fetch_add(1, std::memory_order_relaxed);
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  impl_->reap_handlers(/*all=*/true);

  ServeReport report;
  for (const Diagnostic& d : impl_->cone_cache->flush_spill()) {
    impl_->spill_warnings.push_back(d);
  }
  report.counters = impl_->counters.snapshot();
  report.cache = impl_->cone_cache->stats();
  report.cache_entries = impl_->cone_cache->entries();
  report.cache_bytes = impl_->cone_cache->bytes();
  report.interrupted_by_signal = signal_received();
  report.spill_warnings = impl_->spill_warnings;
  return report;
}

bool run_client(const std::string& socket_path,
                const std::vector<ServeRequest>& requests,
                std::vector<ServeResponse>* responses, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    *error = format("socket path '%s' is too long", socket_path.c_str());
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = format("socket() failed: %s", std::strerror(errno));
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    *error = format("cannot connect to %s: %s", socket_path.c_str(),
                    std::strerror(errno));
    ::close(fd);
    return false;
  }

  std::string buffer;
  char chunk[4096];
  auto read_line = [&](std::string* line) -> bool {
    for (;;) {
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        *line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        return true;
      }
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        *error = format("read failed: %s", std::strerror(errno));
        return false;
      }
      if (n == 0) {
        *error = "server closed the connection before responding";
        return false;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  };

  // One request, one response, in lockstep: no pipelining, so neither
  // side can deadlock on a full socket buffer.
  for (const ServeRequest& request : requests) {
    try {
      send_line(fd, request_json(request));
    } catch (const std::exception& e) {
      *error = e.what();
      ::close(fd);
      return false;
    }
    std::string line;
    if (!read_line(&line)) {
      ::close(fd);
      return false;
    }
    ServeResponse response;
    if (!parse_response(line, &response)) {
      *error = format("unparseable response: %s", line.c_str());
      ::close(fd);
      return false;
    }
    responses->push_back(std::move(response));
  }
  ::close(fd);
  return true;
}

}  // namespace soidom
