#!/usr/bin/env python3
"""Measure what one advisory request costs the server: start
``rdladder serve --paper-model``, send it N seeded requests of G GOPs one
after another, and print the client's median latency and the server
process's CPU milliseconds per request.

Usage:
    python3 scripts/serve_cpu.py --requests 3000 --gops 1 --seed 1

The server's CPU time is its utime + stime from /proc/<pid>/stat (Linux
only), read after one warm-up request and after the last one, so its
start-up is left out. It counts server work only, without client or
scheduling waits. Its resolution is one clock tick (usually 10 ms): send
enough requests for the total to span many ticks.
"""

import argparse
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import rdladder as rl  # noqa: E402

TIERS = ("360p", "540p", "720p", "1080p")
# Distinct request bodies sent in turn; more would only cost set-up time.
POOL = 16


def request_bodies(seed: int, count: int, gops: int) -> list[bytes]:
    """Requests shaped like the benchmark's: GOPs of random clusters and
    tiers with 4 noisy points on their paper curve, and a random target."""
    model = rl.builtin_model()
    rng = np.random.default_rng(seed)
    bodies = []
    for n in range(count):
        entries = []
        for i in range(gops):
            cluster, tier = int(rng.integers(1, model.k + 1)), TIERS[int(rng.integers(4))]
            bitrates = 0.2 + (np.arange(4) + rng.uniform(size=4)) / 4 * 5.8
            psnr = rl.eval_cubic(model.model(cluster, rl.tier_from_name(tier)), bitrates)
            psnr = psnr + rng.uniform(-0.1, 0.1, size=4)
            entries.append({"gop_id": f"q{n}-{i}", "tier": tier,
                            "points": [[float(b), float(q)] for b, q in zip(bitrates, psnr)]})
        bodies.append(json.dumps({"target_bitrate": float(rng.uniform(0.2, 6.0)),
                                  "modes": ["trans_size", "vl", "nzs"], "gops": entries}).encode())
    return bodies


def start_server() -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rdladder", "serve", "--paper-model", "--bind", "127.0.0.1:0"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    line = proc.stdout.readline().decode()
    found = re.fullmatch(r"advisory endpoint on http://127\.0\.0\.1:(\d+)/v1/recommend\n", line)
    if not found:
        proc.kill()
        proc.wait()
        raise SystemExit(f"serve did not start: {line!r}")
    return proc, int(found.group(1))


def post(port: int, body: bytes) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/v1/recommend", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, in seconds."""
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=3000)
    parser.add_argument("--gops", type=int, default=1, help="GOPs per request")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.requests < 1 or args.gops < 1:
        parser.error("--requests and --gops must be at least 1")

    bodies = request_bodies(args.seed, min(args.requests, POOL), args.gops)
    proc, port = start_server()
    try:
        if post(port, bodies[0]) != 200:
            raise SystemExit("the warm-up request was not answered 200")
        cpu_before = cpu_seconds(proc.pid)
        latencies, failed = [], 0
        for n in range(args.requests):
            start = time.perf_counter()
            status = post(port, bodies[n % len(bodies)])
            latencies.append(time.perf_counter() - start)
            failed += status != 200
        cpu = cpu_seconds(proc.pid) - cpu_before
    finally:
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=10)
    print(f"requests {args.requests} gops_per_request {args.gops} seed {args.seed}")
    print(f"client_p50_ms {1e3 * statistics.median(latencies):.3f}")
    print(f"server_cpu_ms_per_request {1e3 * cpu / args.requests:.3f}")
    if failed or code != 0:
        print(f"error: {failed} requests not answered 200; serve exited {code}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
