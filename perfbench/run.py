#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of rdladder, run the way users run it.

Usage, from the repository root (nothing needs installing):

    python3 perfbench/run.py --workload serve-single --seed 1 --seconds 35 --trace 0

Workloads:
  serve-single       `rdladder serve --paper-model` in its own process, one
                     closed-loop client, one GOP per request
  serve-batch        the same server and loop, 1000 GOPs per request
  offline            `rdladder train` on an off-grid measurement CSV, then
                     `rdladder recommend --model <that file> --format json`
                     on a CSV of GOPs at mixed native tiers

With --trace 0 the run prints the end-to-end metrics of the workload.
With --trace 1 it makes the traced run instead, which is the same for
every workload: untraced, traced, traced and untraced passes of each
workload's operation, with the tracer installed in the program's own
process (traced_cli.py), reporting every per-layer metric and the
tracing overhead. Every answer is checked against the oracle (oracle.py). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Outputs go to .perfbench/ at the root.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from oracle import Oracle
from tracer import CPU, PARENT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("serve-single", "serve-batch", "offline")

CLI_TIMEOUT = 60.0  # s for one CLI command
SERVER_START_TIMEOUT = 30.0  # s from spawn to the printed address
REQUEST_TIMEOUT = 30.0  # s for one HTTP request
STOP_TIMEOUT = 10.0  # s from SIGTERM to SIGKILL
TOLERANCE = 1e-6  # Mbps on bitrates, dB on PSNR, against the oracle
TINY_TRAIN_GOPS = 24  # input of the start-up runs of `train` in offline
TAIL_SAMPLES = 100  # a p90 needs ten samples beyond it; fewer and only the median is given

ADDRESS = re.compile(rb"advisory endpoint on http://[^:/]+:(\d+)/")


@dataclass(frozen=True)
class Sizes:
    single_pool: int = 1000  # distinct one-GOP requests, cycled
    batch_pool: int = 6  # distinct batch requests, cycled
    batch_gops: int = 1000
    train_gops: int = 1500
    recommend_gops: int = 1500
    recommend_targets: int = 4  # target bitrates, cycled over recommend runs
    setup_spawns: int = 5  # cold starts timed per run; setup_s is their median


class BenchError(Exception):
    """The run cannot produce a result: a child hung or never started."""


class Child:
    """One program process. Output goes to files, so no pipe can fill up;
    a reaper thread waits for it with wait4, which also gives its peak RSS."""

    def __init__(self, args: list[str], log: Path, trace: Path | None = None):
        if trace is None:
            cmd = [sys.executable, "-u", "-m", "rdladder.cli", *args]
        else:
            cmd = [sys.executable, "-u", str(HERE / "traced_cli.py"), str(trace), *args]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.args = args
        self.stdout = log.with_suffix(".out")
        self.stderr = log.with_suffix(".err")
        self.code: int | None = None
        self.maxrss_kb = 0
        self.ended = 0.0
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
        self._reaper = threading.Thread(target=self._reap, daemon=True)
        self._reaper.start()

    def _reap(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.ended = time.perf_counter()
        self.maxrss_kb = usage.ru_maxrss
        self.code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.code

    @property
    def running(self) -> bool:
        return self._reaper.is_alive()

    @property
    def wall(self) -> float:
        return self.ended - self.started

    def wait(self, timeout: float = CLI_TIMEOUT) -> int:
        self._reaper.join(timeout)
        if self.running:
            self.kill()
            raise BenchError(f"rdladder {' '.join(self.args)} did not end within {timeout:g} s")
        return self.code

    def kill(self):
        if self.running:
            self.proc.kill()
            self._reaper.join(STOP_TIMEOUT)

    def stop(self):
        """SIGTERM, then SIGKILL if the process is still there."""
        if self.running:
            self.proc.send_signal(signal.SIGTERM)
            self._reaper.join(STOP_TIMEOUT)
        self.kill()

    def tail(self) -> str:
        return self.stderr.read_text(errors="replace")[-800:]


@dataclass
class Run:
    """What one benchmark run has attempted, and what went wrong."""

    rng: np.random.Generator
    work: Path
    sizes: Sizes
    seconds: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    children: list[Child] = field(default_factory=list)
    _logs: int = 0

    def child(self, args: list[str], trace: Path | None = None) -> Child:
        self._logs += 1
        child = Child([str(a) for a in args], self.work / f"child{self._logs:03d}", trace)
        self.children.append(child)
        return child

    def operation(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"failed: {what}")

    def check(self, ok: bool, what: str):
        if not ok and len(self.problems) < 50:
            self.problems.append(f"wrong: {what}")

    def stop_all(self):
        for child in self.children:
            child.stop()


# --- the program, imported from this checkout only ------------------------


def _program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rdladder

    return rdladder


def paper_oracle() -> Oracle:
    """Oracle over the built-in (published) coefficient table."""
    rl = _program()
    return model_oracle(rl.save_model(rl.builtin_model()))


def _height(tier: str) -> int:
    return int(tier.rstrip("p"))


def model_oracle(text: str) -> Oracle:
    """Oracle over the coefficients a model file stores, read as plain JSON."""
    doc = json.loads(text)
    coeffs = {
        (cluster["index"], entry["tier"]): tuple(entry["coeffs"])
        for cluster in doc["clusters"]
        for entry in cluster["tiers"]
    }
    return Oracle(coeffs, sorted(doc["tiers"], key=_height))


# --- checks ------------------------------------------------------------------


def check_answers(run: Run, text, target: float, expected, what: str):
    """A recommendation document (JSON text) against the oracle's answers."""
    try:
        doc = json.loads(text)
    except ValueError:
        run.check(False, f"{what}: answer is not JSON")
        return
    recs = doc.get("recommendations") if isinstance(doc, dict) else None
    if not isinstance(recs, list) or len(recs) != len(expected):
        run.check(False, f"{what}: expected {len(expected)} answers")
        return
    try:
        for rec, exp in zip(recs, expected):
            ok = (
                "error" not in rec
                and rec["gop_id"] == exp.gop_id
                and rec["cluster"] == exp.cluster
                and rec["tier"] == exp.tier
                and rec["target_bitrate"] == target
                and abs(rec["proposed_bitrate"] - exp.proposed) <= TOLERANCE
                and abs(rec["predicted_psnr"] - exp.predicted) <= TOLERANCE
                and rec["proposed_bitrate"] <= target
            )
            run.check(ok, f"{what}: {rec} != {exp}")
        savings = doc["savings"]
        total_target = sum(r["target_bitrate"] for r in recs)
        total_proposed = sum(r["proposed_bitrate"] for r in recs)
        ok = (
            abs(savings["total_target"] - total_target) <= 1e-9 * total_target
            and abs(savings["total_proposed"] - total_proposed) <= 1e-9 * total_target
            and abs(savings["saving_percent"]
                    - 100.0 * (total_target - total_proposed) / total_target) <= 1e-9
        )
        run.check(ok, f"{what}: savings {savings} do not sum the answers")
    except (KeyError, TypeError) as exc:
        run.check(False, f"{what}: malformed answer ({exc!r})")


def check_model(run: Run, path: Path, what: str):
    """The trained model file: save -> load -> save is byte-stable; each
    cubic is the least-squares cubic of its stored centroid on the grid;
    clusters are numbered by ascending mean PSNR at the highest tier."""
    rl = _program()
    text = path.read_text(encoding="utf-8")
    run.check(rl.save_model(rl.load_model(text)) == text, f"{what}: save/load/save differs")
    doc = json.loads(text)
    grid = np.asarray(doc["grid"], dtype=float)
    top = max(doc["tiers"], key=_height)
    means = []
    for cluster in doc["clusters"]:
        for entry in cluster["tiers"]:
            centroid = np.asarray(entry["centroid"], dtype=float)
            refit = np.polyval(np.polyfit(grid, centroid, 3), grid)
            stored = np.polyval(np.asarray(entry["coeffs"], dtype=float)[::-1], grid)
            run.check(
                float(np.max(np.abs(refit - stored))) <= TOLERANCE,
                f"{what}: cluster {cluster['index']} {entry['tier']} cubic is not the "
                "least-squares fit of its centroid",
            )
            if entry["tier"] == top:
                means.append((cluster["index"], float(centroid.mean())))
    order = [index for index, _ in sorted(means, key=lambda m: m[1])]
    run.check(order == sorted(order), f"{what}: clusters not numbered by mean PSNR at {top}")


def check_verify_paper(run: Run):
    child = run.child(["verify-paper", "--format", "json"])
    code = child.wait()
    run.operation(code == 0, f"verify-paper exited {code}")
    if code == 0:
        rows = json.loads(child.stdout.read_text())
        failed = [row["name"] for row in rows if row["status"] == "fail"]
        run.check(not failed, f"verify-paper failed rows: {failed}")


# --- HTTP --------------------------------------------------------------------


def post(port: int, body: bytes) -> tuple[int, bytes]:
    """(HTTP status, body); status 0 when the connection failed. A request
    that gets no answer in time fails the run."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        conn.request("POST", "/v1/recommend", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    except TimeoutError:
        raise BenchError(f"a request got no answer within {REQUEST_TIMEOUT:g} s") from None
    except (OSError, http.client.HTTPException) as exc:
        return 0, str(exc).encode()
    finally:
        conn.close()


def start_server(run: Run, trace: Path | None = None) -> tuple[Child, int]:
    child = run.child(["serve", "--paper-model", "--bind", "127.0.0.1:0"], trace)
    deadline = time.monotonic() + SERVER_START_TIMEOUT
    while True:
        found = ADDRESS.search(child.stdout.read_bytes())
        if found:
            return child, int(found.group(1))
        if not child.running:
            raise BenchError(f"server exited with {child.code} before binding: {child.tail()}")
        if time.monotonic() > deadline:
            child.stop()
            raise BenchError(f"server printed no address within {SERVER_START_TIMEOUT:g} s")
        time.sleep(0.002)


def answer(run: Run, request: inputs.Request, status: int, data: bytes, what: str):
    run.operation(status == 200, f"{what}: HTTP {status} {data[:200]!r}")
    if status == 200:
        check_answers(run, data, request.target, request.expected, what)


def closed_loop(run: Run, port: int, requests: list, seconds: float,
                limit: int | None = None) -> tuple[list[float], int, float]:
    """One client sends its next request when the last one is answered,
    until ``seconds`` have passed or ``limit`` requests have been sent.
    Answers are checked after the loop. Returns latencies (s), GOPs
    answered and the window from the first send to the last answer (s)."""
    done = []
    start = time.perf_counter()
    end = start
    while len(done) < (limit or sys.maxsize) and end - start < seconds:
        index = len(done) % len(requests)
        t0 = time.perf_counter()
        status, data = post(port, requests[index].body)
        end = time.perf_counter()
        done.append((index, end - t0, status, data))
    latencies, gops = [], 0
    for index, latency, status, data in done:
        request = requests[index]
        answer(run, request, status, data, f"request {index}")
        latencies.append(latency)
        if status == 200:
            gops += len(request.expected)
    return latencies, gops, end - start


# --- workloads ---------------------------------------------------------------


def median(values: list[float]) -> float:
    """Median, or 0 for a layer that was never called."""
    return statistics.median(values) if values else 0.0


def p50_ms(values: list[float]) -> float:
    return 1e3 * median(values)


def end_to_end(setups, latencies, gops_per_s, children) -> dict:
    if len(latencies) >= TAIL_SAMPLES:
        p90 = 1e3 * statistics.quantiles(latencies, n=10)[8]
        print(f"latency p90 {p90:.3f} ms over {len(latencies)} samples")
    return {
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (p50_ms(latencies), "ms"),
        "gops_per_s": (gops_per_s, "1/s"),
        "peak_rss_mb": (max(c.maxrss_kb for c in children) / 1024.0, "MB"),
    }


def serve_workload(run: Run, gops_per_request: int, pool: int) -> dict:
    """setup_s: spawn to first answered request, median of the spawns; the
    last server spawned then serves the closed loop."""
    requests = inputs.serve_requests(run.rng, paper_oracle(), pool, gops_per_request)
    setups, servers = [], []
    for i in range(run.sizes.setup_spawns):
        t0 = time.perf_counter()
        server, port = start_server(run)
        servers.append(server)
        status, data = post(port, requests[0].body)
        setups.append(time.perf_counter() - t0)
        answer(run, requests[0], status, data, f"first request of server {i}")
        if i + 1 < run.sizes.setup_spawns:
            server.stop()
    latencies, gops, window = closed_loop(run, port, requests, run.seconds)
    server.stop()
    return end_to_end(setups, latencies, gops / window, servers)


def train_once(run: Run, csv: Path, model: Path, trace: Path | None = None) -> Child:
    child = run.child(["train", csv, "--out", model], trace)
    code = child.wait()
    run.operation(code == 0, f"train {csv.name} exited {code}: {child.tail()}")
    if code == 0:
        check_model(run, model, f"train {csv.name}")
    return child


@dataclass(frozen=True)
class OfflineCase:
    train_csv: Path
    model: Path  # written by an untimed `train` of train_csv
    csv: Path  # GOPs to recommend
    tiny_csv: Path  # its first GOP
    targets: list[float]
    expected: dict  # target -> oracle answers, in CSV order


def offline_inputs(run: Run, truth: Oracle) -> OfflineCase:
    """Train a model (not timed), then draw GOPs whose nearest cluster
    under that model is clear, and targets off its decision boundaries."""
    train_csv = run.work / "train.csv"
    train_csv.write_text(inputs.training_csv(run.rng, truth, run.sizes.train_gops))
    model = run.work / "reference_model.json"
    if train_once(run, train_csv, model).code != 0:
        raise BenchError("train could not write the model that recommend reads")
    judge = model_oracle(model.read_text(encoding="utf-8"))
    text, gops, ids = inputs.recommend_csv(run.rng, truth, judge, run.sizes.recommend_gops)
    csv = run.work / "recommend.csv"
    csv.write_text(text)
    tiny_csv = run.work / "recommend_tiny.csv"
    tiny_csv.write_text("\n".join(text.splitlines()[: 1 + inputs.POINTS_PER_GOP]) + "\n")
    targets = [inputs.draw_target(run.rng, judge) for _ in range(run.sizes.recommend_targets)]
    expected = {t: inputs.expected_answers(judge, gops, ids, t) for t in targets}
    return OfflineCase(train_csv, model, csv, tiny_csv, targets, expected)


def recommend_once(run: Run, case: OfflineCase, model: Path, target: float, tiny: bool = False,
                   trace: Path | None = None) -> Child:
    csv = case.tiny_csv if tiny else case.csv
    child = run.child(
        ["recommend", "--model", model, csv, "--target-bitrate", repr(target), "--format", "json"],
        trace,
    )
    code = child.wait()
    what = f"recommend {csv.name} at {target:.4f}"
    run.operation(code == 0, f"{what} exited {code}: {child.tail()}")
    if code == 0:
        expected = case.expected[target][:1] if tiny else case.expected[target]
        check_answers(run, child.stdout.read_bytes(), target, expected, what)
    return child


def offline(run: Run) -> dict:
    """One operation is the pipeline a user runs: `train` on the training
    CSV, then `recommend` with the model file that run wrote. Training is
    deterministic, so that file must equal the reference model the
    expected answers come from. setup_s: the same two commands on minimal
    inputs (TINY_TRAIN_GOPS GOPs, one GOP), i.e. the start-up cost each
    invocation pays."""
    truth = paper_oracle()
    check_verify_paper(run)
    case = offline_inputs(run, truth)
    reference = case.model.read_text(encoding="utf-8")
    tiny_train = run.work / "train_tiny.csv"
    tiny_train.write_text(inputs.training_csv(run.rng, truth, TINY_TRAIN_GOPS))
    setups = []
    for _ in range(run.sizes.setup_spawns):
        train = train_once(run, tiny_train, run.work / "tiny_model.json")
        setups.append(train.wall + recommend_once(run, case, case.model, case.targets[0],
                                                  tiny=True).wall)
    model = run.work / "model.json"
    trains, recommends = [], []
    start = time.perf_counter()
    while not trains or time.perf_counter() - start < run.seconds:
        trains.append(train_once(run, case.train_csv, model))
        run.check(model.read_text(encoding="utf-8") == reference,
                  "train wrote a model other than the reference model of the same CSV")
        target = case.targets[len(recommends) % len(case.targets)]
        recommends.append(recommend_once(run, case, model, target))
    cycles = [t.wall + r.wall for t, r in zip(trains, recommends)]
    print(f"train {p50_ms([t.wall for t in trains]):.1f} ms, recommend "
          f"{p50_ms([r.wall for r in recommends]):.1f} ms (medians of {len(cycles)} runs)")
    gops = run.sizes.train_gops + run.sizes.recommend_gops
    return end_to_end(setups, cycles, gops / median(cycles), trains + recommends)


# --- traced run --------------------------------------------------------------


class Trace:
    """Spans written by traced_cli.py, from one or more traced processes,
    with CPU self time per span."""

    def __init__(self, paths: list[Path]):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        for path in paths:
            doc = json.loads(path.read_text())
            offset = len(self.spans)
            for span in doc["spans"]:
                if span[PARENT] >= 0:
                    span[PARENT] += offset
                self.spans.append(span)
            for name, count in doc["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + count
        child_cpu = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_cpu[span[PARENT]] += span[CPU]
        self._self = [s[CPU] - c for s, c in zip(self.spans, child_cpu)]

    def n(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def cpu_ms(self, name: str) -> list[float]:
        return [s[CPU] / 1e6 for s in self.spans if s[0] == name]

    def self_ms(self, name: str) -> list[float]:
        return [own / 1e6 for s, own in zip(self.spans, self._self) if s[0] == name]


def per(total: float, count: int) -> float:
    return total / count if count else 0.0


# Untraced, traced, traced, untraced: a steady drift in machine speed
# during the four passes cancels out of the tracing overhead.
ABBA = (False, True, True, False)


def abba(run: Run, name: str, measure):
    """Runs ``measure(trace_path or None) -> (time, requests, gops)`` in
    ABBA order. Returns the traces, the mean traced time, the tracing
    overhead (%) and the requests and GOPs the traced passes answered."""
    plain, traced, paths, requests, gops = [], [], [], 0, 0
    for i, on in enumerate(ABBA):
        path = run.work / f"{name}.{i}.trace.json" if on else None
        elapsed, n, g = measure(path)
        if not on:
            plain.append(elapsed)
            continue
        if not path.is_file():
            raise BenchError(f"traced {name} wrote no trace")
        paths.append(path)
        traced.append(elapsed)
        requests, gops = requests + n, gops + g
    traced_mean = statistics.mean(traced)
    overhead = (100.0 * (traced_mean / statistics.mean(plain) - 1.0), "%")
    return Trace(paths), traced_mean, overhead, requests, gops


def serve_pass(run: Run, requests: list, seconds: float, limit: int | None = None):
    def measure(trace: Path | None):
        server, port = start_server(run, trace)
        latencies, gops, _ = closed_loop(run, port, requests, seconds, limit)
        server.stop()
        return p50_ms(latencies), len(latencies), gops

    return measure


def traced_run(run: Run) -> dict:
    """Per-layer metrics: times are the CPU time of the calling thread, so
    a span leaves out the time its thread waited for the processor."""
    truth = paper_oracle()
    sizes = run.sizes
    phase = max(1.0, 0.1 * run.seconds)  # s per serve-single pass
    tables = ("build_ladders", "vl_thresholds", "nzs_intervals")
    m = {}

    single = inputs.serve_requests(run.rng, truth, sizes.single_pool, 1)
    t, traced, overhead, requests, _ = abba(run, "serve-single", serve_pass(run, single, phase))
    for table in tables:
        m[f"decision.{table}.ms"] = (median(t.cpu_ms(f"decision.{table}")), "ms")
    builds = sum(t.n(f"decision.{table}") for table in tables)
    m["decision.table_builds_per_request"] = (per(builds, requests), "count")
    m["decision.curve_intersections.calls_per_request"] = (
        per(t.counts.get("decision.curve_intersections", 0), requests), "count")
    m["service.wait_ms"] = (traced - median(t.cpu_ms("service.request")), "ms")
    m["tracing.serve-single.overhead_pct"] = overhead

    batch = inputs.serve_requests(run.rng, truth, sizes.batch_pool, sizes.batch_gops)
    # Each serve-batch pass sends every batch once, so per-GOP counts
    # repeat exactly for a seed.
    t, _, overhead, _, gops = abba(
        run, "serve-batch", serve_pass(run, batch, float("inf"), limit=len(batch)))
    m["clustering.assign_cluster_multi.us_per_gop"] = (
        1e3 * per(sum(t.cpu_ms("clustering.assign_cluster_multi")), gops), "us")
    m["rd_model.eval_cubic.calls_per_gop"] = (per(t.counts.get("rd_model.eval_cubic", 0), gops), "count")
    m["decision.recommend.self_us_per_gop"] = (1e3 * per(sum(t.self_ms("decision.recommend")), gops), "us")
    m["service.handle_recommend_request.self_ms"] = (
        median(t.self_ms("service.handle_recommend_request")), "ms")
    m["service.json_decode.ms"] = (median(t.cpu_ms("service.json_decode")), "ms")
    m["service.json_encode.ms"] = (median(t.cpu_ms("service.json_encode")), "ms")
    m["tracing.serve-batch.overhead_pct"] = overhead

    case = offline_inputs(run, truth)
    t, _, overhead, runs, _ = abba(
        run, "train",
        lambda trace: (train_once(run, case.train_csv, run.work / "model.json", trace).wall, 1, 0))
    rows = len(case.train_csv.read_text().splitlines()) - 1
    parse_ms = per(sum(t.cpu_ms("ingest.parse_measurements")), runs)
    m["ingest.parse_measurements.ms"] = (parse_ms, "ms")
    m["ingest.parse_measurements.rows_per_s"] = (per(1e3 * rows, parse_ms), "1/s")
    m["ingest.save_model.ms"] = (per(sum(t.cpu_ms("ingest.save_model")), runs), "ms")
    for name in ("clustering.resample_to_grid", "clustering.kmeans", "rd_model.fit_polynomial",
                 "rd_model.compare_fits"):
        m[f"{name}.ms"] = (per(sum(t.cpu_ms(name)), runs), "ms")
    m["clustering.kmeans.iterations"] = (
        per(t.counts.get("clustering.kmeans.iterations", 0), runs), "count")
    m["clustering.train_details.self_ms"] = (per(sum(t.self_ms("clustering.train_details")), runs), "ms")
    m["cli.cmd_train.self_ms"] = (per(sum(t.self_ms("cli.cmd_train")), runs), "ms")
    m["tracing.offline.train_overhead_pct"] = overhead

    t, _, overhead, runs, _ = abba(
        run, "recommend",
        lambda trace: (recommend_once(run, case, case.model, case.targets[0], trace=trace).wall,
                       1, 0))
    m["ingest.load_model.ms"] = (per(sum(t.cpu_ms("ingest.load_model")), runs), "ms")
    m["cli.cmd_recommend.self_ms"] = (per(sum(t.self_ms("cli.cmd_recommend")), runs), "ms")
    m["decision.savings_report.ms"] = (per(sum(t.cpu_ms("decision.savings_report")), runs), "ms")
    m["tracing.offline.recommend_overhead_pct"] = overhead
    return m


# --- command line ------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
                 work_root: Path = WORK) -> dict:
    """One run; returns the result object (metrics as {name: {value, unit}})."""
    work = work_root / (f"{workload}-trace" if trace else workload)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(np.random.default_rng(seed), work, sizes, seconds)
    try:
        if trace:
            metrics = traced_run(run)
        elif workload == "serve-single":
            metrics = serve_workload(run, 1, sizes.single_pool)
        elif workload == "serve-batch":
            metrics = serve_workload(run, sizes.batch_gops, sizes.batch_pool)
        else:
            metrics = offline(run)
    finally:
        run.stop_all()
    for problem in run.problems:
        print(problem)
    print(f"workload {workload}{' (traced run)' if trace else ''}: "
          f"{run.attempted} operations attempted, {run.failed} failed")
    result = {
        "correct": not any(p.startswith("wrong") for p in run.problems),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rdladder benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rdladder" / "cli.py").is_file():
        print(f"error: no rdladder sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
