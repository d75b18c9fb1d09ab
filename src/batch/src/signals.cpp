/// \file signals.cpp
/// One audited sigaction() installation for graceful SIGINT/SIGTERM,
/// shared by every front end (blif2domino, asic_flow, soidom_batch,
/// soidom_serve).
///
/// Plain std::signal() installation has two races: System-V style
/// handler reset (on some platforms the disposition reverts to SIG_DFL
/// *before* the handler runs, so two quick signals could kill the
/// process without flushing journals), and interrupted slow syscalls
/// (without SA_RESTART, a SIGINT during a blocking write(2) to the
/// journal surfaces as a spurious EINTR failure at a random call site).
/// sigaction() with SA_RESTART fixes both: the disposition stays
/// installed until we deliberately restore SIG_DFL, and interruptible
/// syscalls resume — cancellation is delivered cooperatively through the
/// CancelToken polled at guard checkpoints, never by torn I/O.  Event
/// loops that must wake up promptly (the serve accept loop) poll with
/// short timeouts instead of relying on EINTR.
///
/// The handler itself is async-signal-safe: it records the signal
/// number, trips the token (a relaxed atomic store on a pre-allocated
/// flag), and re-installs SIG_DFL so a second signal kills the process
/// the usual way.
#include "soidom/batch/signals.hpp"

#include <csignal>

#include <atomic>

namespace soidom {
namespace {

std::atomic<int> g_signal{0};

/// One process-wide token, created before handlers are installed so the
/// handler only performs an atomic store (no allocation, no locking).
CancelToken& global_token() {
  static CancelToken token;
  return token;
}

void on_signal(int signum) {
  g_signal.store(signum, std::memory_order_relaxed);
  global_token().request_cancel();
  // Deliberately restore the default disposition (BSD semantics keep the
  // handler installed otherwise): a repeat of the same signal force-kills
  // a wedged run.  sigaction is async-signal-safe per POSIX.
  struct sigaction dfl;
  sigemptyset(&dfl.sa_mask);
  dfl.sa_handler = SIG_DFL;
  dfl.sa_flags = 0;
  sigaction(signum, &dfl, nullptr);
}

void arm(int signum) {
  struct sigaction sa;
  sigemptyset(&sa.sa_mask);
  // Block the sibling signal while the handler runs so an interleaved
  // SIGINT+SIGTERM pair cannot run two handlers concurrently.
  sigaddset(&sa.sa_mask, SIGINT);
  sigaddset(&sa.sa_mask, SIGTERM);
  sa.sa_handler = on_signal;
  sa.sa_flags = SA_RESTART;
  sigaction(signum, &sa, nullptr);
}

}  // namespace

void install_signal_cancel() {
  (void)global_token();  // construct before any signal can arrive
  arm(SIGINT);
  arm(SIGTERM);
}

CancelToken signal_cancel_token() { return global_token(); }

int signal_received() { return g_signal.load(std::memory_order_relaxed); }

int signal_exit_code(int signum) { return signum > 0 ? 128 + signum : 1; }

void reset_signal_state_for_testing() {
  global_token() = CancelToken();  // fresh flag for the next test
  g_signal.store(0, std::memory_order_relaxed);
  install_signal_cancel();
}

}  // namespace soidom
