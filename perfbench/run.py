#!/usr/bin/env python3
"""SAGMA benchmark: one workload against the shipped sagma_server.

    python3 perfbench/run.py --workload dashboard-64 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. Builds bin/sagma_server.exe and
perfbench/bench_client.exe with dune, starts the server as its own
process on a free loopback port, runs the closed-loop client against it,
stops the server and prints one JSON result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Exits non-zero on a failed build, a missing source
tree, any failed or wrong operation, or a failed determinism check.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVER = os.path.join(ROOT, "_build", "default", "bin", "sagma_server.exe")
CLIENT = os.path.join(ROOT, "_build", "default", "perfbench", "bench_client.exe")
RUN_LIMIT_S = 170  # one run, build excluded, must end well inside 180 s


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "bin/sagma_server.ml", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"not a SAGMA source checkout: {need} is missing", 2)
    # The shared dune cache lives outside the checkout; keep every build
    # product under _build/.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./bin/sagma_server.exe",
             "./perfbench/bench_client.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except FileNotFoundError:
        fail("dune is not installed", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def source_digest():
    """sha256 over the program sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """sagma_server as a child process, stopped and reaped on exit."""

    def __init__(self, flags):
        self.flags = flags
        self.proc = None
        self.err = []

    def start(self):
        for _ in range(5):
            port = free_port()
            self.proc = subprocess.Popen(
                [SERVER, "--port", str(port)] + self.flags,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            threading.Thread(target=lambda: self.err.extend(self.proc.stderr),
                             daemon=True).start()
            banner = self.proc.stdout.readline()
            if "listening" in banner:
                # The banner precedes bind(); the client retries its
                # connect until the listener is up, and a lost port race
                # shows as an early exit here.
                time.sleep(0.2)
                if self.proc.poll() is None:
                    return port
            self.stop()
        fail("sagma_server did not start: " + "".join(self.err[-5:]))

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    # A single-domain server: connections served on the main domain, no
    # aggregation pool, no watchdog domain. One closed-loop client needs
    # no more, and every extra domain joins each stop-the-world minor
    # collection, which on a small shared host measures the scheduler.
    flags = ["--workers", "0", "--agg-domains", "1", "--watchdog-interval-ms", "0"]
    server = Server(flags)
    started = time.time()
    try:
        port = server.start()
        steal0, total0 = cpu_times()
        try:
            r = subprocess.run(
                [CLIENT, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--port", str(port)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(10, RUN_LIMIT_S - (time.time() - started)))
        except subprocess.TimeoutExpired:
            fail("client timed out")
        steal1, total1 = cpu_times()
        lines = r.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if r.returncode != 0 or not lines:
            sys.stderr.write(r.stderr)
            fail(f"client exited with code {r.returncode}")
        out = json.loads(lines[-1])
        metrics = out["metrics"]
        if not args.trace:
            rss = server.peak_rss_mb()
            metrics["server_peak_rss_mb"] = {"value": rss, "unit": "MB"}
            print(f"  {'server_peak_rss_mb':<38s} {rss:16.6f} MB")
    finally:
        server.stop()

    report = dict(out["report"])
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "source_sha256": source_digest(), "nproc": nproc, "cpu_model": cpu_model(),
        # Share of CPU time the hypervisor gave to other guests during
        # the client's run: a diagnostic, like host.ref_loop_ms.
        "host.steal_frac": (steal1 - steal0) / max(1, total1 - total0),
        "server_flags": " ".join(flags)})
    print(json.dumps({"meta": report}))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for name in missing:
        print(f"perfbench: metric {name} was not produced", file=sys.stderr)
    failed = out["failed"]
    correct = failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
