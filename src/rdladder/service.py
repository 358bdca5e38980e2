"""Stateless advisory endpoint: POST /v1/recommend takes observed
(bitrate, psnr) points per GOP plus a target bitrate and modes, and
answers with per-GOP recommendations and a savings summary.

Requests are independent and served over decision tables built once at
start-up and never mutated, so the worker threads need no locking.
Malformed requests get structured error documents, never dropped
connections.

Request document:
    {"target_bitrate": 3.0, "modes": ["vl"],
     "gops": [{"gop_id": "g1", "tier": "1080p", "points": [[0.8, 37.1], ...]}]}

Response document:
    {"recommendations": [...one entry per request GOP, in order...],
     "savings": {"total_target": ..., "total_proposed": ..., "saving_percent": ...}}

A GOP that cannot be answered gets {"gop_id": ..., "error": ...} in its
slot; the savings summary covers the answered GOPs (null if none).
"""

from __future__ import annotations

import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

from .clustering import ClusterModelSet
from .decision import DecisionConfig, DecisionTables, Modes, ObservationBatch
from .errors import ValidationError
from .tiers import ResolutionTier, tier_from_name

RECOMMEND_PATH = "/v1/recommend"
# Longest request body read (bytes); a longer declared Content-Length is
# answered 413 before any of the body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024
# Threads that accept and serve connections, one connection at a time
# each; more connections wait in the listen backlog.
WORKERS = 8
# Seconds one read or write on a connection may wait before the
# connection is closed: a client that stops sending holds a worker that
# long at most.
CONNECTION_TIMEOUT_S = 10.0


def _number(value) -> float | None:
    """A JSON number as a float (infinite for an integer too large for
    one, as json reads 1e400); None for anything else, bools included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _gop_fields(entry, index: int) -> tuple[ResolutionTier, list[tuple[float, float]]]:
    """One request GOP's tier and (bitrate, psnr) points; ValidationError
    names what is malformed."""
    if not isinstance(entry, dict):
        raise ValidationError(f"gops[{index}] must be an object")
    gop_id = entry.get("gop_id")
    if not isinstance(gop_id, str) or not gop_id:
        raise ValidationError(f"gops[{index}]: gop_id must be a non-empty string")
    tier_name = entry.get("tier")
    if not isinstance(tier_name, str):
        raise ValidationError(f"gops[{index}]: tier must be a string")
    tier = tier_from_name(tier_name)
    points = entry.get("points")
    if not isinstance(points, list) or not points:
        raise ValidationError(f"gops[{index}]: points must be a non-empty list")
    pairs = []
    for p in points:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ValidationError(f"gops[{index}]: each point must be a [bitrate, psnr] pair")
        pair = (_number(p[0]), _number(p[1]))
        if None in pair:
            raise ValidationError(
                f"gops[{index}]: each point must be a [bitrate, psnr] pair of numbers"
            )
        pairs.append(pair)
    return tier, pairs


def _observation_batch(gops: list) -> ObservationBatch:
    """The request's GOPs as one batch, in request order. A malformed
    entry gets its message in ``errors``, no points and no tier, and
    keeps its ``gop_id`` when that is a string ("" otherwise: a number
    could be NaN or infinite, which the answer's JSON cannot carry)."""
    gop_ids, tiers, errors, offsets, points = [], [], [], [0], []
    for index, entry in enumerate(gops):
        gop_id = entry.get("gop_id") if isinstance(entry, dict) else None
        gop_ids.append(gop_id if isinstance(gop_id, str) else "")
        try:
            tier, pairs = _gop_fields(entry, index)
            error = None
        except ValidationError as exc:
            tier, pairs, error = None, [], str(exc)
        tiers.append(tier)
        errors.append(error)
        points += pairs
        offsets.append(len(points))
    bitrates, psnr = np.array(points, dtype=float).reshape(-1, 2).T
    return ObservationBatch(
        gop_ids=gop_ids,
        tiers=tiers,
        offsets=np.array(offsets),
        bitrates=bitrates,
        psnr=psnr,
        errors=errors,
    )


def handle_recommend_request(payload, tables: DecisionTables) -> tuple[int, dict]:
    """Process one advisory request document; returns (http_status, body).
    Pure function: all the protocol logic lives here, the HTTP handler
    only moves bytes."""
    if not isinstance(payload, dict):
        return 400, {"error": "request body must be a JSON object"}
    target = _number(payload.get("target_bitrate"))
    if target is None:
        return 400, {"error": "target_bitrate must be a number"}
    modes_field = payload.get("modes", [])
    if not isinstance(modes_field, list) or not all(isinstance(m, str) for m in modes_field):
        return 400, {"error": "modes must be a list of strings"}
    try:
        modes = Modes.parse(",".join(modes_field))
    except ValidationError as exc:
        return 400, {"error": str(exc)}
    if not modes.any_enabled:
        return 400, {"error": "at least one mode must be enabled"}
    gops = payload.get("gops")
    if not isinstance(gops, list) or not gops:
        return 400, {"error": "gops must be a non-empty list"}
    if not (math.isfinite(target) and target > 0):
        return 400, {"error": "target_bitrate must be finite and > 0"}
    return 200, tables.advise(_observation_batch(gops), target, modes)


class _AdvisoryServer(HTTPServer):
    """``serve_forever`` runs ``WORKERS`` threads, each of which accepts a
    connection on the listening socket and serves it to the end: no
    thread is started per connection and none hands sockets to another."""

    # socketserver's default listen backlog of 5 overflows when a burst of
    # clients connects at once; the excess connections were then reset
    # instead of queued.
    request_queue_size = 128

    def __init__(self, server_address, handler_class):
        super().__init__(server_address, handler_class)
        # Held until a stop is asked for; serve_forever waits to acquire it.
        # A lock and not an Event: a signal handler may release it at any
        # point of the thread it interrupts without deadlocking.
        self._running = threading.Lock()
        self._running.acquire()
        self._stopping = threading.Event()
        self._stopped = threading.Event()

    def serve_forever(self):
        """Serve until ``stop`` or ``shutdown`` is called; every in-flight
        request is finished and every worker has ended when this returns."""
        workers = []
        try:
            for _ in range(WORKERS):
                worker = threading.Thread(target=self._serve_connections, daemon=True)
                worker.start()
                workers.append(worker)
            self._running.acquire()
        finally:
            self._stopping.set()
            # Once _stopping is set a worker accepts one more connection at
            # most, so one loopback connection per worker wakes each one
            # blocked in accept(); it serves it as an empty request and ends.
            for _ in workers:
                try:
                    socket.create_connection(self.server_address, timeout=1).close()
                except OSError:
                    pass
            for worker in workers:
                worker.join()
            self._stopped.set()

    def stop(self):
        """Ask ``serve_forever`` to return, without waiting for it; safe
        to call from a signal handler."""
        try:
            self._running.release()
        except RuntimeError:  # asked before
            pass

    def shutdown(self):
        """Stop ``serve_forever`` from another thread; returns once it has."""
        self.stop()
        self._stopped.wait()

    def _serve_connections(self):
        # A plain blocking accept(), with no timeout and no select(): Linux
        # then wakes one waiting worker per connection, not all of them.
        while not self._stopping.is_set():
            try:
                request, client_address = self.get_request()
            except OSError:  # the client gave up before it was accepted
                continue
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)


def make_server(
    model_set: ClusterModelSet,
    host: str = "127.0.0.1",
    port: int = 8080,
    cfg: DecisionConfig | None = None,
    quiet: bool = True,
) -> _AdvisoryServer:
    """Build (but do not start) the advisory HTTP server; callers run
    ``serve_forever``, then ``shutdown`` from another thread, then
    ``server_close``, which keeps tests and the CLI honest about
    ownership of the listening socket. The decision tables are built
    here, once, and every request reuses them."""
    tables = DecisionTables(model_set, cfg or DecisionConfig())

    class AdvisoryHandler(BaseHTTPRequestHandler):
        # http.server closes a connection whose read or write times out.
        timeout = CONNECTION_TIMEOUT_S

        def _send(self, status: int, body: dict):
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            if self.path != RECOMMEND_PATH:
                self._send(404, {"error": f"unknown path {self.path!r}; POST {RECOMMEND_PATH}"})
                return
            length_field = self.headers.get("Content-Length")
            if length_field is None:
                self._send(411, {"error": "Content-Length required"})
                return
            try:
                length = int(length_field)
            except ValueError:
                length = -1
            if length < 0:
                # rfile.read(-1) would wait for the client to close.
                self._send(400, {"error": "Content-Length must be a non-negative integer"})
                return
            if length > MAX_BODY_BYTES:
                self._send(413, {"error": "request body too large"})
                return
            try:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._send(400, {"error": "request body must be valid JSON"})
                return
            try:
                status, body = handle_recommend_request(payload, tables)
            except Exception as exc:  # defensive: never drop the connection
                self._send(500, {"error": f"internal error: {exc}"})
                return
            self._send(status, body)

        def do_GET(self):
            self._send(405, {"error": f"only POST {RECOMMEND_PATH} is supported"})

        def log_message(self, fmt, *args):
            if not quiet:
                super().log_message(fmt, *args)

    return _AdvisoryServer((host, port), AdvisoryHandler)
