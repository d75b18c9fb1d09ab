#!/usr/bin/env python3
"""Soak the crash-only mapping service (docs/SERVE.md).

Drives build/examples/soidom_serve through the full crash-only story:

  1. serve with seeded fault injection + a durable cone-cache spill;
     hammer it with a few hundred mixed map jobs from parallel submit
     clients (valid circuits and unknown names) — every client must get
     a result or a structured error, never a hang or a torn connection;
  2. SIGKILL the server mid-load — in-flight clients may see transport
     errors, but must terminate;
  3. restart over the same spill (no fault injection), assert the cache
     warmed from the journal the kill -9 left behind, submit the full
     suite with a manifest;
  4. map the same suite offline with soidom_batch and require the two
     manifests to be byte-identical;
  5. open CHURN_CONNECTIONS ping-and-close connections to the restarted
     server (retrying on `busy`, as docs/SERVE.md advises) and require
     its thread count, VmRSS and VmSize to stay flat;
  6. SIGTERM the restarted server and require a graceful drain: exit
     code 128+15 and a parseable JSON report.

Exit 0 when every gate holds, 1 otherwise.
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

CIRCUITS = [
    "z4ml", "cm150", "mux", "count", "decod", "b9", "c8", "f51m",
    "9symml", "frg1", "x1", "cordic", "t481", "c432", "c499", "c880",
    "c1355", "c1908", "k2", "c5315", "c7552", "des",
]
BOGUS = ["no_such_circuit", "also_missing"]
CHURN_CONNECTIONS = 100000


def log(msg):
    print("serve_soak: " + msg, flush=True)


def fail(msg):
    log("FAIL: " + msg)
    sys.exit(1)


class Server:
    """One soidom_serve process; start/await-ready/kill/terminate."""

    def __init__(self, serve_bin, socket_path, spill, inject=None,
                 report=None):
        cmd = [serve_bin, "serve", "--socket=" + socket_path,
               "--spill=" + spill, "--attempts=4", "--max-in-flight=4",
               "--timeout-ms=120000"]
        if inject:
            cmd.append("--inject=" + inject)
        if report:
            cmd.append("--report=" + report)
        self.serve_bin = serve_bin
        self.socket_path = socket_path
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)

    def wait_ready(self, timeout_s=30.0):
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            if self.proc.poll() is not None:
                fail("server exited early with code %d" % self.proc.returncode)
            r = subprocess.run(
                [self.serve_bin, "ping", "--socket=" + self.socket_path],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            if r.returncode == 0:
                return
            time.sleep(0.05)
        fail("server never became ready on " + self.socket_path)

    def stats(self):
        r = subprocess.run(
            [self.serve_bin, "stats", "--socket=" + self.socket_path],
            stdout=subprocess.PIPE, text=True)
        if r.returncode != 0:
            fail("stats query failed")
        return json.loads(r.stdout)

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def sigterm(self):
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=120)
        return self.proc.returncode, out


def proc_status(pid):
    """Threads, VmRSS and VmSize (KiB) from /proc/<pid>/status."""
    fields = {}
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("Threads", "VmRSS", "VmSize"):
                fields[key] = int(value.split()[0])
    return fields


def ping_and_close(socket_path, i):
    """One connection: ping, read the answer, close.  Returns the parsed
    response (`pong`, or the `busy` error of a refused connection)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(10)
        s.connect(socket_path)
        try:
            s.sendall(b'{"type":"ping","id":"c%d"}\n' % i)
        except (BrokenPipeError, ConnectionResetError):
            pass  # refused before reading: its busy line is still queued
        with s.makefile("rb") as f:
            line = f.readline()
    if not line:
        fail("churn connection %d closed without an answer" % i)
    return json.loads(line)


def churn(server, socket_path, n):
    """N ping-and-close connections; the server must end with no more
    threads than before and VmRSS / VmSize growth under 16 / 256 MiB."""
    before = proc_status(server.proc.pid)
    retries = 0
    start = time.time()
    for i in range(n):
        give_up = time.time() + 10
        while True:
            response = ping_and_close(socket_path, i)
            if response.get("type") == "pong":
                break
            if response.get("code") != "busy":
                fail("churn connection %d answered %r" % (i, response))
            if time.time() > give_up:
                fail("churn connection %d was refused busy for 10 s" % i)
            retries += 1
    elapsed = time.time() - start
    # The last handler thread may still be exiting.
    deadline = time.time() + 5
    after = proc_status(server.proc.pid)
    while after["Threads"] > before["Threads"] and time.time() < deadline:
        time.sleep(0.05)
        after = proc_status(server.proc.pid)
    log("churn: %d connections (%d busy retries) in %.1f s; Threads %d -> %d, "
        "VmRSS %d -> %d KiB, VmSize %d -> %d KiB" %
        (n, retries, elapsed, before["Threads"], after["Threads"],
         before["VmRSS"], after["VmRSS"], before["VmSize"], after["VmSize"]))
    if after["Threads"] > before["Threads"]:
        fail("thread count grew under connection churn")
    if after["VmRSS"] - before["VmRSS"] >= 16 * 1024:
        fail("VmRSS grew by 16 MiB or more under connection churn")
    if after["VmSize"] - before["VmSize"] >= 256 * 1024:
        fail("VmSize grew by 256 MiB or more under connection churn")


def submit(serve_bin, socket_path, circuits, manifest=None, timeout_s=600):
    cmd = [serve_bin, "submit", "--socket=" + socket_path,
           "--circuits=" + ",".join(circuits)]
    if manifest:
        cmd.append("--manifest=" + manifest)
    r = subprocess.run(cmd, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True,
                       timeout=timeout_s)
    return r.returncode, r.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True, help="soidom_serve binary")
    ap.add_argument("--batch", required=True, help="soidom_batch binary")
    ap.add_argument("--workdir", default="serve_soak.out")
    ap.add_argument("--jobs", type=int, default=200)
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--inject", default="1/7@11")
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    sock = os.path.join(args.workdir, "soak.sock")
    spill = os.path.join(args.workdir, "soak_spill.jsonl")
    report = os.path.join(args.workdir, "soak_report.json")
    serve_manifest = os.path.join(args.workdir, "serve_soak.manifest.json")
    batch_manifest = os.path.join(args.workdir, "batch_ref.manifest.json")
    batch_journal = os.path.join(args.workdir, "batch_ref.jsonl")
    for path in (spill, report, serve_manifest, batch_manifest, batch_journal):
        if os.path.exists(path):
            os.remove(path)

    # Phase 1: fault-stormed load.  A mixed rotation of real and bogus
    # circuit names; injected faults make individual jobs fail after
    # retries, which is fine — exit 0 (all ok) and 7 (structured
    # failures) are both acceptable, a transport error (6) is not.
    mixed = [(CIRCUITS + BOGUS)[i % (len(CIRCUITS) + len(BOGUS))]
             for i in range(args.jobs)]
    storm_jobs = mixed[:args.jobs // 2]
    kill_jobs = mixed[args.jobs // 2:]

    log("phase 1: %d jobs under fault injection %s" %
        (len(storm_jobs), args.inject))
    server = Server(args.serve, sock, spill, inject=args.inject)
    server.wait_ready()

    chunk = max(1, len(storm_jobs) // args.clients)
    slices = [storm_jobs[i:i + chunk]
              for i in range(0, len(storm_jobs), chunk)]
    results = [None] * len(slices)

    def client(i):
        results[i] = submit(args.serve, sock, slices[i])

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(slices))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    answered = 0
    for code, out in results:
        if code not in (0, 7):
            fail("storm client exited %d:\n%s" % (code, out))
        answered += len(re.findall(r"^submit: ", out, re.M))
    log("phase 1 ok: every storm client got structured answers")

    if not os.path.exists(spill) or os.path.getsize(spill) == 0:
        fail("spill journal was never written under load")

    # Phase 2: SIGKILL mid-load.  Clients racing the kill may see
    # anything except a hang.
    log("phase 2: SIGKILL mid-load (%d jobs in flight)" % len(kill_jobs))
    slices = [kill_jobs[i:i + chunk]
              for i in range(0, len(kill_jobs), chunk)]
    results = [None] * len(slices)
    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(slices))]
    for t in threads:
        t.start()
    time.sleep(0.5)
    server.sigkill()
    for t in threads:
        t.join(timeout=120)
        if t.is_alive():
            fail("a submit client hung after the server was SIGKILLed")
    log("phase 2 ok: kill -9 survived, no client hung")

    # Phase 3: restart over the torn spill, clean (no injection).
    log("phase 3: restart over the spill, no fault injection")
    server = Server(args.serve, sock, spill, report=report)
    server.wait_ready()
    stats = server.stats()
    loaded = stats["cache"]["spill_loaded"]
    if loaded < 1:
        fail("restarted server loaded nothing from the spill journal")
    log("restart warmed %d cache entries from the kill -9 spill" % loaded)

    code, out = submit(args.serve, sock, CIRCUITS, manifest=serve_manifest)
    if code != 0:
        fail("clean submit after restart exited %d:\n%s" % (code, out))

    # Phase 4: the serve manifest must be byte-identical to an offline
    # soidom_batch run over the same suite.
    log("phase 4: offline soidom_batch reference run")
    r = subprocess.run(
        [args.batch, "--circuits=" + ",".join(CIRCUITS),
         "--journal=" + batch_journal, "--manifest=" + batch_manifest],
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        fail("offline soidom_batch reference exited %d" % r.returncode)
    with open(serve_manifest, "rb") as f:
        served = f.read()
    with open(batch_manifest, "rb") as f:
        offline = f.read()
    if served != offline:
        fail("serve manifest differs from the offline batch manifest")
    log("phase 4 ok: manifests are byte-identical (%d bytes)" % len(served))

    # Phase 5: connection churn keeps threads and memory flat.
    log("phase 5: %d ping-and-close connections" % CHURN_CONNECTIONS)
    churn(server, sock, CHURN_CONNECTIONS)
    log("phase 5 ok: threads and memory stayed flat")

    # Phase 6: graceful drain on SIGTERM.
    code, out = server.sigterm()
    if code != 128 + signal.SIGTERM:
        fail("drain exit code was %d, want %d" % (code, 128 + signal.SIGTERM))
    final = json.loads(out)
    if final.get("interrupted_by_signal") != int(signal.SIGTERM):
        fail("drain report does not record the signal: " + out)
    log("phase 6 ok: graceful drain, report schema %s" %
        final.get("schema", "?"))

    log("PASS: %d storm jobs answered, kill -9 + restart + manifest "
        "identity + connection churn all held" % len(storm_jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
