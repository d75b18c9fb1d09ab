/// Subprocess isolation for batch attempts.
///
/// Each attempt forks; the child runs the ordinary in-process attempt,
/// writes its record to a pipe as one job_record_fields_json line (the
/// codec of the journal, the manifest and the serve wire), and
/// _exit(0)s.  The parent reads it back with parse_job_record_fields
/// under the attempt's wall-clock budget and translates every way a
/// child can misbehave — crash on a signal, nonzero exit, garbage on the
/// pipe, overrunning its time budget — into a quarantine-class failed
/// record.  A runaway or segfaulting job is thereby contained: the batch
/// process itself never executes the job's code in isolate mode.
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
#include <string_view>

#include "internal.hpp"
#include "soidom/base/strings.hpp"

namespace soidom {
namespace batch_detail {
namespace {

JobRecord quarantine_record(const std::string& message) {
  return failed_record(
      Diagnostic{ErrorCode::kInternal, FlowStage::kBatchSpawn, message, {}});
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

JobRecord execute_attempt_isolated(const BatchJob& job,
                                   const FlowOptions& effective,
                                   const GuardOptions& gopts,
                                   const BatchFaultPlan& fault, int attempt,
                                   const BatchHooks& hooks,
                                   std::int64_t timeout_ms) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return quarantine_record(format("pipe failed: %s", std::strerror(errno)));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return quarantine_record(format("fork failed: %s", std::strerror(errno)));
  }

  if (pid == 0) {
    // Child: run the attempt and ship one result line.  _exit (not
    // exit) so the parent's atexit/stream state is never replayed.
    ::close(fds[0]);
    std::string line = job_record_fields_json(execute_attempt_inprocess(
        job, effective, gopts, fault, attempt, hooks));
    line += '\n';
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
    return failed_record(Diagnostic{ErrorCode::kCancelled, FlowStage::kNone,
                                    "batch interrupted: child terminated",
                                    {}});
  }
  if (timed_out) {
    return failed_record(Diagnostic{
        ErrorCode::kDeadlineExceeded, FlowStage::kBatchWatchdog,
        format("job exceeded %lld ms; child killed",
               static_cast<long long>(timeout_ms)),
        {}});
  }
  if (WIFSIGNALED(wstatus)) {
    return quarantine_record(format("child crashed on signal %d (%s)",
                                    WTERMSIG(wstatus),
                                    strsignal(WTERMSIG(wstatus))));
  }
  const std::size_t newline = received.find('\n');
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 &&
      newline != std::string::npos) {
    JobRecord record;
    if (parse_job_record_fields(std::string_view(received).substr(0, newline),
                                &record)) {
      return record;
    }
    return quarantine_record("child result line unparseable");
  }
  return quarantine_record(
      format("child exited with status %d without a result",
             WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1));
}

}  // namespace batch_detail
}  // namespace soidom
