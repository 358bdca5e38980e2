"""The advisory endpoint: POST /v1/recommend takes observed (bitrate,
psnr) points per GOP plus a target bitrate and modes, and answers with
per-GOP recommendations and a savings summary (README's "Advisory
service wire format" gives both documents).

The HTTP layer is a plain socket loop: each of ``WORKERS`` threads
accepts a connection, reads one request against one deadline, answers
it in HTTP/1.0 and closes the connection. Protocol faults get JSON error
documents, as malformed requests do. The decision tables are built once
at start-up and never mutated, so the workers need no locking.
"""

from __future__ import annotations

import json
import math
import re
import socket
import sys
import threading
import time
from contextlib import suppress
from http import HTTPStatus

from .clustering import ClusterModelSet
from .decision import Advice, DecisionConfig, DecisionTables, Modes, ObservationBatch, check_target
from .errors import ValidationError
from .tiers import tier_from_name

RECOMMEND_PATH = "/v1/recommend"
# Longest request body read (bytes); a longer declared Content-Length is
# answered 413 before any of the body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024
# Threads that accept and serve connections, one connection at a time
# each; more connections wait in the listen backlog.
WORKERS = 8
# Seconds a client has to send its whole request, headers and body, and
# that each write of the answer may wait; the connection is closed after
# that, so a client that stops or trickles holds a worker that long at most.
CONNECTION_TIMEOUT_S = 10.0
# Longest request head (request line and headers) read, in bytes; a
# longer one is answered 431.
MAX_HEAD_BYTES = 64 * 1024
# The blank line that ends a request head; a bare LF ends a line too.
_HEAD_END = re.compile(rb"\r?\n\r?\n")
# Control characters are written escaped in the log, as http.server does.
_LOG_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7f, 0xa0))}


def _number(value) -> float | None:
    """A JSON number as a float (infinite for an integer too large for
    one, as json reads 1e400); None for anything else, bools included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _observation_batch(gops: list) -> ObservationBatch:
    """The request's GOPs as one batch, in request order, checked and
    converted in one pass. A malformed entry gets the message of its
    first fault in ``errors``, no points and no tier, and keeps its
    ``gop_id`` when that is a string ("" otherwise: a number could be NaN
    or infinite, which the answer's JSON cannot carry). The common point,
    a list of two floats, is checked by exact type first; any other
    coordinate is converted by ``_number``, so bools are not numbers."""
    gop_ids, tiers, errors, offsets, bitrates, psnr = [], [], [None] * len(gops), [0], [], []
    for index, entry in enumerate(gops):
        gop_id = None
        try:
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
            for pair in points:
                if (type(pair) is not list and not isinstance(pair, (list, tuple))) or len(pair) != 2:
                    raise ValidationError(f"gops[{index}]: each point must be a [bitrate, psnr] pair")
                r, q = pair
                if type(r) is not float or type(q) is not float:
                    r, q = _number(r), _number(q)
                    if r is None or q is None:
                        raise ValidationError(
                            f"gops[{index}]: each point must be a [bitrate, psnr] pair of numbers")
                bitrates.append(r)
                psnr.append(q)
        except ValidationError as exc:  # the GOP gives back the points it appended
            del bitrates[offsets[-1]:], psnr[offsets[-1]:]
            gop_ids.append(gop_id if isinstance(gop_id, str) else "")
            tiers.append(None)
            errors[index] = str(exc)
        else:
            gop_ids.append(gop_id)
            tiers.append(tier)
        offsets.append(len(bitrates))
    return ObservationBatch(gop_ids, tiers, offsets, bitrates, psnr, errors)


def handle_recommend_request(payload, tables: DecisionTables) -> tuple[int, Advice | dict]:
    """Process one advisory request document; returns (http_status,
    body), the body an ``Advice`` when the status is 200 and an error
    document otherwise. Pure function: all the protocol logic lives
    here, the HTTP handler only moves bytes."""
    if not isinstance(payload, dict):
        return 400, {"error": "request body must be a JSON object"}
    target = _number(payload.get("target_bitrate"))
    if target is None:
        return 400, {"error": "target_bitrate must be a number"}
    modes_field = payload.get("modes", [])
    if not isinstance(modes_field, list) or not all(isinstance(m, str) for m in modes_field):
        return 400, {"error": "modes must be a list of strings"}
    unknown = [name for name in modes_field if name not in Modes._fields]
    if unknown:
        return 400, {"error": f"unknown mode(s): {', '.join(map(repr, unknown))}"}
    modes = Modes._make(name in modes_field for name in Modes._fields)
    if not modes.any_enabled:
        return 400, {"error": "at least one mode must be enabled"}
    gops = payload.get("gops")
    if not isinstance(gops, list) or not gops:
        return 400, {"error": "gops must be a non-empty list"}
    try:
        check_target(target, "target_bitrate")
    except ValidationError as exc:
        return 400, {"error": str(exc)}
    return 200, tables.advise(_observation_batch(gops), target, modes)


def encode_body(body: Advice | dict) -> bytes:
    """The bytes of an answer: an advice's own encoding, which equals
    ``json.dumps(advice.document()).encode()``, and ``json.dumps`` of
    any other body."""
    if isinstance(body, Advice):
        return body.encode()
    return json.dumps(body).encode()


class _Exchange:
    """One connection: ``handle`` reads the request head and hands a POST
    to ``do_POST``. Each server subclasses it with its ``tables`` and
    ``quiet``; a wrapper put on the subclass's ``do_POST`` sees every POST."""

    def __init__(self, connection: socket.socket, client_address):
        self.connection = connection
        self.client_address = client_address
        self.deadline = time.monotonic() + CONNECTION_TIMEOUT_S
        self.requestline = ""

    def _receiving(self) -> socket.socket:
        """The connection, set to wait no later than the request deadline."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request deadline passed")
        self.connection.settimeout(left)
        return self.connection

    def _send(self, status: int, body: Advice | dict):
        data = encode_body(body)
        head = (f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
                f"Date: {time.strftime('%a, %d %b %Y %H:%M:%S GMT', time.gmtime())}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n")
        self.connection.settimeout(CONNECTION_TIMEOUT_S)
        self.connection.sendall(head.encode() + data)
        if not self.quiet:  # the Common Log Format line of http.server
            sys.stderr.write(f'{self.client_address[0]} - - [{time.strftime("%d/%b/%Y %H:%M:%S")}] '
                             f'"{self.requestline.translate(_LOG_ESCAPES)}" {status} -\n')

    def handle(self):
        data, end = bytearray(), None
        while end is None and len(data) <= MAX_HEAD_BYTES:
            chunk = self._receiving().recv(65536)
            if not chunk:  # the client closed before its head ended
                return
            data += chunk
            end = _HEAD_END.search(data, max(0, len(data) - len(chunk) - 3))
        if end is None or end.start() > MAX_HEAD_BYTES:
            return self._send(431, {"error": "request head too large"})
        requestline, *lines = data[:end.start()].decode("latin-1").split("\n")
        self.requestline = requestline.rstrip("\r")
        words = self.requestline.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            return self._send(400, {"error": "malformed request line"})
        fields = [line.partition(":") for line in lines]
        if not all(colon for _, colon, _ in fields):
            return self._send(400, {"error": "malformed header line"})
        # Names are matched in lower case; the first of a repeated field counts.
        self.headers = {name.lower(): value.strip() for name, _, value in reversed(fields)}
        method, self.path, _ = words
        self.rest = memoryview(data)[end.end():]  # the body's first bytes
        if method != "POST":
            return self._send(405, {"error": f"only POST {RECOMMEND_PATH} is supported"})
        self.do_POST()

    def do_POST(self):
        if self.path != RECOMMEND_PATH:
            return self._send(404, {"error": f"unknown path {self.path!r}; POST {RECOMMEND_PATH}"})
        length_field = self.headers.get("content-length")
        if length_field is None:
            return self._send(411, {"error": "Content-Length required"})
        try:  # ASCII digits only: int() also reads "+5" and "1_0"
            length = int(length_field) if length_field.isascii() and length_field.isdigit() else -1
        except ValueError:  # more digits than int() converts
            length = -1
        if length < 0:
            return self._send(400, {"error": "Content-Length must be a non-negative integer"})
        if length > MAX_BODY_BYTES:
            return self._send(413, {"error": "request body too large"})
        body = bytearray(length)  # the only copy of the body
        got = min(length, len(self.rest))
        body[:got] = self.rest[:got]
        with memoryview(body) as view:
            while got < length and (n := self._receiving().recv_into(view[got:])):
                got += n
        del body[got:]  # a client that closed early sent less
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError):  # RecursionError: arrays or objects nested too deeply
            return self._send(400, {"error": "request body must be valid JSON"})
        try:
            status, answer = handle_recommend_request(payload, self.tables)
        except Exception as exc:  # defensive: never drop the connection
            status, answer = 500, {"error": f"internal error: {exc}"}
        self._send(status, answer)


class _AdvisoryServer:
    """``serve_forever`` runs ``WORKERS`` threads; each accepts a connection,
    answers one request on it and closes it. No thread is started per connection."""

    def __init__(self, server_address, handler_class: type[_Exchange]):
        self.RequestHandlerClass = handler_class
        # A burst of clients overflows a short backlog: the excess is reset.
        self.socket = socket.create_server(server_address, backlog=128)
        self.server_address = self.socket.getsockname()
        # Held until a stop is asked for; serve_forever waits to acquire it.
        # Not an Event: a signal handler may release a lock without deadlock.
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
            # most, so one empty loopback connection per worker wakes each
            # one blocked in accept(), and it ends.
            for _ in workers:
                with suppress(OSError):
                    socket.create_connection(self.server_address, timeout=1).close()
            for worker in workers:
                worker.join()
            self._stopped.set()

    def stop(self):
        """Ask ``serve_forever`` to return without waiting; safe in a signal handler."""
        with suppress(RuntimeError):  # asked before
            self._running.release()

    def shutdown(self):
        """Stop ``serve_forever`` from another thread; returns once it has."""
        self.stop()
        self._stopped.wait()

    def server_close(self):
        self.socket.close()

    def _serve_connections(self):
        # A plain blocking accept(), with no timeout and no select(): Linux
        # then wakes one waiting worker per connection, not all of them.
        while not self._stopping.is_set():
            try:
                connection, client_address = self.socket.accept()
            except OSError:  # the client gave up before it was accepted
                continue
            with connection:
                try:
                    self.RequestHandlerClass(connection, client_address).handle()
                except OSError:  # the client went away, or its deadline passed
                    pass
                except Exception:  # a fault in one connection ends no worker
                    sys.excepthook(*sys.exc_info())


def make_server(model_set: ClusterModelSet, host: str = "127.0.0.1", port: int = 8080,
                cfg: DecisionConfig | None = None, quiet: bool = True) -> _AdvisoryServer:
    """Build (but do not start) the advisory HTTP server; callers run
    ``serve_forever``, then ``shutdown`` from another thread, then
    ``server_close``, which owns the listening socket. The decision
    tables are built here, once, and every request reuses them."""
    tables = DecisionTables(model_set, cfg or DecisionConfig())
    handler = type("AdvisoryHandler", (_Exchange,), {"tables": tables, "quiet": quiet})
    return _AdvisoryServer((host, port), handler)
