/// Subprocess isolation for batch attempts.
///
/// Each attempt forks; the child runs the ordinary in-process attempt,
/// writes one encoded result line to a pipe, and _exit(0)s.  The parent
/// polls the pipe under the attempt's wall-clock budget and translates
/// every way a child can misbehave — crash on a signal, nonzero exit,
/// garbage on the pipe, overrunning its time budget — into a
/// quarantine-class AttemptOutcome.  A runaway or segfaulting job is
/// thereby contained: the batch process itself never executes the
/// job's code in isolate mode.
///
/// Note on fork() and threads: the child inherits only the forking
/// thread, so any lock another thread held at the fork stays held in the
/// child.  glibc re-arms its own allocator locks via pthread_atfork, but
/// that does not cover a sanitizer's allocator.  With one job at a time
/// (--jobs=1) run_batch starts no thread, so the fork happens in a
/// single-threaded process; with --jobs>1 it happens beside the other
/// jobs' workers.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "internal.hpp"
#include "soidom/base/strings.hpp"

namespace soidom {
namespace batch_detail {
namespace {

constexpr std::size_t kNumErrorCodes =
    static_cast<std::size_t>(ErrorCode::kFaultInjected) + 1;

std::optional<ErrorCode> error_code_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumErrorCodes; ++i) {
    const auto code = static_cast<ErrorCode>(i);
    if (name == error_code_name(code)) return code;
  }
  return std::nullopt;
}

std::optional<FlowStage> flow_stage_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFlowStageCount; ++i) {
    const auto stage = static_cast<FlowStage>(i);
    if (name == flow_stage_name(stage)) return stage;
  }
  return std::nullopt;
}

AttemptOutcome quarantine_outcome(const std::string& message) {
  AttemptOutcome out;
  out.ok = false;
  out.diagnostic =
      Diagnostic{ErrorCode::kInternal, FlowStage::kBatchSpawn, message, {}};
  return out;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string encode_attempt_outcome(const AttemptOutcome& outcome) {
  if (outcome.ok) {
    return format("OK\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s", outcome.lint_errors,
                  outcome.lint_warnings, outcome.analyzer_errors,
                  outcome.analyzer_warnings, outcome.prove_confirmed,
                  outcome.prove_refuted, outcome.prove_unknown,
                  json_escape(outcome.summary).c_str());
  }
  const Diagnostic d = outcome.diagnostic.value_or(
      Diagnostic{ErrorCode::kInternal, FlowStage::kNone, "missing", {}});
  return format("ERR\t%s\t%s\t%s", error_code_name(d.code),
                flow_stage_name(d.stage), json_escape(d.message).c_str());
}

std::optional<AttemptOutcome> decode_attempt_outcome(const std::string& line) {
  // json_escape removes raw tabs/newlines from the payload fields, so a
  // plain tab split is unambiguous; the final field keeps everything.
  // OK records carry 8 payload fields, ERR records 3.
  const std::size_t t1 = line.find('\t');
  if (t1 == std::string::npos) return std::nullopt;
  const std::string kind = line.substr(0, t1);
  const std::size_t want = kind == "OK" ? 8 : 3;
  std::vector<std::string> fields;
  std::size_t at = t1;
  while (fields.size() + 1 < want) {
    const std::size_t next = line.find('\t', at + 1);
    if (next == std::string::npos) return std::nullopt;
    fields.push_back(line.substr(at + 1, next - at - 1));
    at = next;
  }
  fields.push_back(line.substr(at + 1));

  AttemptOutcome out;
  if (kind == "OK") {
    out.ok = true;
    out.lint_errors = std::atoi(fields[0].c_str());
    out.lint_warnings = std::atoi(fields[1].c_str());
    out.analyzer_errors = std::atoi(fields[2].c_str());
    out.analyzer_warnings = std::atoi(fields[3].c_str());
    out.prove_confirmed = std::atoi(fields[4].c_str());
    out.prove_refuted = std::atoi(fields[5].c_str());
    out.prove_unknown = std::atoi(fields[6].c_str());
    out.summary = json_unescape(fields[7]);
    return out;
  }
  if (kind == "ERR") {
    const auto code = error_code_from_name(fields[0]);
    const auto stage = flow_stage_from_name(fields[1]);
    if (!code || !stage) return std::nullopt;
    out.ok = false;
    out.diagnostic = Diagnostic{*code, *stage, json_unescape(fields[2]), {}};
    return out;
  }
  return std::nullopt;
}

AttemptOutcome execute_attempt_isolated(const BatchJob& job,
                                        const FlowOptions& effective,
                                        const GuardOptions& gopts,
                                        const BatchFaultPlan& fault,
                                        int attempt, const BatchHooks& hooks,
                                        std::int64_t timeout_ms) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return quarantine_outcome(
        format("pipe failed: %s", std::strerror(errno)));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return quarantine_outcome(
        format("fork failed: %s", std::strerror(errno)));
  }

  if (pid == 0) {
    // Child: run the attempt and ship one result line.  _exit (not
    // exit) so the parent's atexit/stream state is never replayed.
    ::close(fds[0]);
    const AttemptOutcome outcome = execute_attempt_inprocess(
        job, effective, gopts, fault, attempt, hooks);
    const std::string line = encode_attempt_outcome(outcome) + "\n";
    const bool sent = write_all(fds[1], line.data(), line.size());
    ::close(fds[1]);
    ::_exit(sent ? 0 : 9);
  }

  // Parent: drain the pipe under the wall-clock budget.
  ::close(fds[1]);
  const auto start = std::chrono::steady_clock::now();
  // No milliseconds::max() sentinel here: converting it to the clock's
  // (finer) duration overflows, which would read as an instant timeout.
  std::string received;
  bool timed_out = false;
  bool cancelled = false;
  for (;;) {
    if (gopts.cancel.cancelled()) {
      cancelled = true;
      ::kill(pid, SIGTERM);
      break;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (timeout_ms > 0 && elapsed >= std::chrono::milliseconds(timeout_ms)) {
      timed_out = true;
      ::kill(pid, SIGKILL);
      break;
    }
    struct pollfd pfd{fds[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 20);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    char buffer[4096];
    const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: child finished (or died) after writing
    received.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);

  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }

  if (cancelled) {
    AttemptOutcome out;
    out.ok = false;
    out.diagnostic = Diagnostic{ErrorCode::kCancelled, FlowStage::kNone,
                                "batch interrupted: child terminated",
                                {}};
    return out;
  }
  if (timed_out) {
    AttemptOutcome out;
    out.ok = false;
    out.diagnostic = Diagnostic{
        ErrorCode::kDeadlineExceeded, FlowStage::kBatchWatchdog,
        format("job exceeded %lld ms; child killed",
               static_cast<long long>(timeout_ms)),
        {}};
    return out;
  }
  if (WIFSIGNALED(wstatus)) {
    return quarantine_outcome(format("child crashed on signal %d (%s)",
                                     WTERMSIG(wstatus),
                                     strsignal(WTERMSIG(wstatus))));
  }
  const std::size_t newline = received.find('\n');
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 &&
      newline != std::string::npos) {
    if (auto decoded = decode_attempt_outcome(received.substr(0, newline))) {
      return *decoded;
    }
    return quarantine_outcome("child result line unparseable");
  }
  return quarantine_outcome(
      format("child exited with status %d without a result",
             WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1));
}

}  // namespace batch_detail
}  // namespace soidom
