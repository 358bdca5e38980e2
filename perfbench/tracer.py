"""In-process spans and counts around rdladder's public functions.

``install`` replaces each traced function at every place the package
holds it (its defining module and every module that imported the name),
so calls between modules are traced without editing the package. A span
records its name, wall-clock start and end, the calling thread's CPU time
spent inside it, its parent span and a request id shared by the spans of
one CLI command or one HTTP request. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter

# (module, function) pairs recorded as spans; the first two open a request.
ROOTS = [("rdladder.cli", "cmd_train"), ("rdladder.cli", "cmd_recommend")]
SPANS = [
    ("rdladder.service", "handle_recommend_request"),
    ("rdladder.decision", "build_ladders"),
    ("rdladder.decision", "vl_thresholds"),
    ("rdladder.decision", "nzs_intervals"),
    ("rdladder.decision", "recommend"),
    ("rdladder.decision", "savings_report"),
    ("rdladder.clustering", "assign_cluster_multi"),
    ("rdladder.clustering", "resample_to_grid"),
    ("rdladder.clustering", "kmeans"),
    ("rdladder.clustering", "train_details"),
    ("rdladder.rd_model", "fit_polynomial"),
    ("rdladder.rd_model", "compare_fits"),
    ("rdladder.ingest", "parse_measurements"),
    ("rdladder.ingest", "load_model"),
    ("rdladder.ingest", "save_model"),
]
# Functions too small and frequent for a span: only their calls are counted.
COUNTED = [("rdladder.rd_model", "eval_cubic"), ("rdladder.decision", "curve_intersections")]

# Span record fields.
NAME, START, END, CPU, PARENT, REQUEST = range(6)


def layer_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._requests = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counts[name] += n

    def span(self, name: str, fn, root: bool = False):
        """``fn`` wrapped so that every call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            request = next(self._requests) if root or parent < 0 else self.spans[parent][REQUEST]
            record = [name, time.perf_counter_ns(), 0, time.thread_time_ns(), parent, request]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[CPU] = time.thread_time_ns() - record[CPU]
                record[END] = time.perf_counter_ns()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        """``fn`` wrapped so that calls made inside a span are counted;
        calls at start-up, outside any request, are not."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack():
                self.count(name)
            return fn(*args, **kwargs)

        return counted

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _replace_everywhere(original, replacement):
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("rdladder"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class _TracedJson:
    """Stands in for the ``json`` module inside rdladder.service, so the
    request body decode and response encode get spans of their own."""

    def __init__(self, tracer: Tracer, real):
        self._real = real
        self.loads = tracer.span("service.json_decode", real.loads)
        self.dumps = tracer.span("service.json_encode", real.dumps)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer):
    """Wrap every traced function of an imported rdladder package."""
    def originals(targets):
        # A function the package no longer has is skipped; its metrics read 0.
        for module_name, function in targets:
            module = importlib.import_module(module_name)
            if callable(getattr(module, function, None)):
                yield module_name, function, getattr(module, function)

    for module_name, function, original in originals(ROOTS + SPANS):
        wrapped = tracer.span(layer_name(module_name, function), original,
                              root=(module_name, function) in ROOTS)
        if function == "kmeans":
            wrapped = _count_iterations(tracer, wrapped)
        _replace_everywhere(original, wrapped)
    for module_name, function, original in originals(COUNTED):
        _replace_everywhere(original, tracer.counted(layer_name(module_name, function), original))

    service = importlib.import_module("rdladder.service")
    if hasattr(service, "json"):
        service.json = _TracedJson(tracer, service.json)
    make_server = getattr(service, "make_server", None)
    if make_server is None:
        return

    @functools.wraps(make_server)
    def traced_make_server(*args, **kwargs):
        server = make_server(*args, **kwargs)
        handler = server.RequestHandlerClass
        handler.do_POST = tracer.span("service.request", handler.do_POST, root=True)
        return server

    _replace_everywhere(make_server, traced_make_server)


def _count_iterations(tracer: Tracer, kmeans):
    @functools.wraps(kmeans)
    def counted(*args, **kwargs):
        result = kmeans(*args, **kwargs)
        tracer.count("clustering.kmeans.iterations", getattr(result, "n_iter", 0))
        return result

    return counted
