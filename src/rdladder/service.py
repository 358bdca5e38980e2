"""Stateless advisory endpoint: POST /v1/recommend takes observed
(bitrate, psnr) points per GOP plus a target bitrate and modes, and
answers with per-GOP recommendations and a savings summary.

Requests are independent and served over decision tables built once at
start-up and never mutated, so the threading server needs no locking.
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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .clustering import ClusterModelSet
from .decision import DecisionConfig, DecisionTables, Modes, ObservationBatch
from .errors import ValidationError
from .tiers import ResolutionTier, tier_from_name

RECOMMEND_PATH = "/v1/recommend"


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


class _AdvisoryServer(ThreadingHTTPServer):
    # socketserver's default listen backlog of 5 overflows when a burst of
    # clients connects at once; the excess connections were then reset
    # instead of queued.
    request_queue_size = 128


def make_server(
    model_set: ClusterModelSet,
    host: str = "127.0.0.1",
    port: int = 8080,
    cfg: DecisionConfig | None = None,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Build (but do not start) the advisory HTTP server; callers run
    ``serve_forever`` themselves, which keeps tests and the CLI honest
    about ownership of the listening socket. The decision tables are
    built here, once, and every request reuses them."""
    tables = DecisionTables(model_set, cfg or DecisionConfig())

    class AdvisoryHandler(BaseHTTPRequestHandler):
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
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if length < 0:
                # rfile.read(-1) would wait for the client to close.
                self._send(400, {"error": "Content-Length must be a non-negative integer"})
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
