"""Shared test utilities: independent oracles and synthetic-data builders.

The oracles here stay deliberately dumb (dense scans, bisection, finite
differences, one GOP at a time) so they cannot share a failure mode
with the code under test.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rdladder as rl
from rdladder.decision import MAX_TARGET_BITRATE
from rdladder.errors import (
    ConflictError,
    CoverageError,
    InsufficientDataError,
    ParseError,
    RDLadderError,
    ValidationError,
)
from rdladder.ingest import MEASUREMENT_HEADER
from rdladder.service import handle_recommend_request

SRC = Path(__file__).resolve().parent.parent / "src"
SCRIPTS = SRC.parent / "scripts"


def package_env() -> dict:
    """The environment of a child ``python``: the package on its path and,
    as in a plain shell, output buffered when it is not a terminal."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def bisection_roots(coeffs_desc, lo: float, hi: float, step: float = 1e-4,
                    tol: float = 1e-12) -> list[float]:
    """Sign-change scan plus bisection: an independent root finder for
    polynomials with descending coefficients."""
    coeffs = np.asarray(coeffs_desc, dtype=float)
    xs = np.arange(lo, hi + step / 2, step)
    vals = np.polyval(coeffs, xs)
    roots = []
    for i in range(len(xs) - 1):
        a, b = float(vals[i]), float(vals[i + 1])
        if a == 0.0:
            roots.append(float(xs[i]))
            continue
        if a * b < 0.0:
            left, right, f_left = float(xs[i]), float(xs[i + 1]), a
            while right - left > tol:
                mid = 0.5 * (left + right)
                f_mid = float(np.polyval(coeffs, mid))
                if f_left * f_mid <= 0.0:
                    right = mid
                else:
                    left, f_left = mid, f_mid
            roots.append(0.5 * (left + right))
    if float(vals[-1]) == 0.0:
        roots.append(float(xs[-1]))
    return roots


def scalar_real_roots(coeffs_desc) -> list[float]:
    """Reference for the table build's root finder, one polynomial at a
    time: ``np.roots`` after dropping leading coefficients at or below
    1e-13 of the largest, then up to six Newton steps per real root
    through ``np.polyval``, keeping the iterate of least residual."""
    p = np.asarray(coeffs_desc, dtype=float)
    scale = np.max(np.abs(p))
    if scale == 0.0:
        return []
    p = p[int(np.argmax(np.abs(p) > 1e-13 * scale)):]
    if p.size <= 1:
        return []
    deriv = np.polyder(p)
    out = []
    for z in np.roots(p):
        if abs(z.imag) > 1e-6 * max(1.0, abs(z.real)):
            continue
        r = best = float(z.real)
        best_val = abs(float(np.polyval(p, r)))
        for _ in range(6):
            df = float(np.polyval(deriv, r))
            if df == 0.0 or not math.isfinite(df):
                break
            step = float(np.polyval(p, r)) / df
            if not math.isfinite(step):
                break
            r -= step
            val = abs(float(np.polyval(p, r)))
            if val < best_val:
                best, best_val = r, val
            if abs(step) <= 1e-15 * max(1.0, abs(r)):
                break
        out.append(best)
    return sorted(out)


def central_difference(model: rl.CubicRD, r: float, h: float = 1e-5) -> float:
    return (rl.eval_cubic(model, r + h) - rl.eval_cubic(model, r - h)) / (2 * h)


def curve_points(model: rl.CubicRD, bitrates) -> list[tuple[float, float]]:
    return [(float(b), rl.eval_cubic(model, float(b))) for b in bitrates]


def measurement_csv(gop_clusters, tiers, bitrates, model_set=None, noise=None,
                    rng=None) -> str:
    """Build a measurement CSV whose GOP curves lie on the given clusters'
    centroid curves (plus optional uniform noise)."""
    model_set = model_set or rl.builtin_model()
    rows = ["gop_id,resolution,bitrate_mbps,psnr_db"]
    for index, cluster in enumerate(gop_clusters):
        for tier in tiers:
            model = model_set.model(cluster, tier)
            for b in bitrates:
                q = rl.eval_cubic(model, float(b))
                if noise:
                    q += rng.uniform(-noise, noise)
                rows.append(f"gop{index:03d},{tier.name},{b:.17g},{q:.17g}")
    return "\n".join(rows) + "\n"


def grid_set(groups, psnr, grid) -> rl.MeasurementSet:
    """A MeasurementSet whose group ``g``, the (gop_id, tier) pair
    ``groups[g]``, is measured at every bitrate of ``grid``, with the PSNR
    values ``psnr[g]``."""
    return rl.MeasurementSet(
        groups=tuple(groups),
        offsets=np.arange(len(groups) + 1) * len(grid),
        bitrates=np.tile(grid.as_array(), len(groups)),
        psnr=np.asarray(psnr, dtype=float).reshape(len(groups) * len(grid)),
    )


def grid_measurements(gop_clusters, tiers, grid, model_set=None, noise=None, rng=None):
    """On-grid measurements drawn from the given clusters' centroid curves:
    GOP ``gop{i:03d}`` of cluster ``gop_clusters[i]`` at every tier, tier
    by tier, resampling to its PSNR values at the grid's bitrates."""
    model_set = model_set or rl.builtin_model()
    groups, rows = [], []
    for tier in tiers:
        for index, cluster in enumerate(gop_clusters):
            model = model_set.model(cluster, tier)
            psnr = [rl.eval_cubic(model, b) for b in grid.bitrates]
            if noise:
                psnr = [q + rng.uniform(-noise, noise) for q in psnr]
            groups.append((f"gop{index:03d}", tier))
            rows.append(psnr)
    return grid_set(groups, rows, grid)


@dataclass(frozen=True)
class RDSample:
    """Reference record: one measured (GOP, resolution, bitrate, PSNR)
    observation, validated on construction."""

    gop_id: str
    tier: rl.ResolutionTier
    bitrate: float
    psnr: float

    def __post_init__(self):
        if not self.gop_id:
            raise ValidationError("gop_id must be non-empty")
        if not (math.isfinite(self.bitrate) and self.bitrate > 0):
            raise ValidationError(f"gop {self.gop_id!r}: bitrate must be finite and > 0")
        if not (math.isfinite(self.psnr) and 0 < self.psnr <= 100):
            raise ValidationError(f"gop {self.gop_id!r}: psnr must be in (0, 100] dB")


def reference_parse(text: str, source: str = "") -> dict:
    """Reference measurement parser, one RDSample per row: returns
    {(gop_id, tier): samples sorted by bitrate}, groups in order of first
    appearance, and raises what ``parse_measurements`` must raise."""
    rows = [
        (i, line.strip())
        for i, line in enumerate(text.split("\n"), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows:
        raise ParseError(f"{source or 'measurements'}: empty file (no header)")
    header_line, header = rows[0]
    if header != MEASUREMENT_HEADER:
        raise ParseError(
            f"line {header_line}: expected header {MEASUREMENT_HEADER!r}, got {header!r}"
        )

    grouped: dict = {}
    for lineno, line in rows[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 comma-separated fields, got {len(parts)}")
        gop_id, resolution, bitrate_s, psnr_s = parts
        try:
            tier = rl.tier_from_name(resolution)
            bitrate = float(bitrate_s)
            psnr = float(psnr_s)
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        try:
            sample = RDSample(gop_id=gop_id, tier=tier, bitrate=bitrate, psnr=psnr)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        bucket = grouped.setdefault((sample.gop_id, sample.tier), {})
        prev = bucket.get(sample.bitrate)
        if prev is not None and prev[0] != sample.psnr:
            raise ConflictError(
                f"line {lineno}: gop {gop_id!r} at {resolution} {bitrate:g} Mbps already has "
                f"psnr {prev[0]:g} from line {prev[1]} (got {psnr:g})"
            )
        bucket[sample.bitrate] = (sample.psnr, lineno)

    return {
        key: tuple(
            RDSample(gop_id=key[0], tier=key[1], bitrate=bitrate, psnr=bucket[bitrate][0])
            for bitrate in sorted(bucket)
        )
        for key, bucket in grouped.items()
    }


def reference_resample(samples, grid) -> np.ndarray:
    """Reference piecewise-linear resampling of one GOP x tier's samples
    onto ``grid``; never extrapolates."""
    if len(samples) < 2:
        raise InsufficientDataError("resampling needs at least 2 samples")
    gop_id = samples[0].gop_id
    tier = samples[0].tier
    if any(s.gop_id != gop_id or s.tier != tier for s in samples):
        raise ValidationError("resample_to_grid expects samples for a single gop and tier")

    by_bitrate: dict[float, float] = {}
    for s in samples:
        prev = by_bitrate.get(s.bitrate)
        if prev is not None and prev != s.psnr:
            raise ConflictError(
                f"gop {gop_id!r}: duplicate bitrate {s.bitrate} Mbps with differing PSNR "
                f"({prev} vs {s.psnr})"
            )
        by_bitrate[s.bitrate] = s.psnr
    if len(by_bitrate) < 2:
        raise InsufficientDataError("resampling needs at least 2 distinct bitrates")

    rs = np.asarray(sorted(by_bitrate), dtype=float)
    qs = np.asarray([by_bitrate[r] for r in rs], dtype=float)
    gx = grid.as_array()
    for g in gx:
        if g < rs[0] or g > rs[-1]:
            raise CoverageError(
                f"gop {gop_id!r}: grid bitrate {g:g} Mbps outside measured span "
                f"[{rs[0]:g}, {rs[-1]:g}]"
            )
    return np.interp(gx, rs, qs)


def random_cubics(count: int, seed: int) -> list[rl.CubicRD]:
    """Mixed random cubics: half from raw coefficients, half built from
    roots placed around the operating range so intersections are common."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i % 2 == 0:
            c0 = rng.uniform(10, 50)
            c1 = rng.uniform(-8, 20)
            c2 = rng.uniform(-6, 3)
            c3 = rng.uniform(-0.5, 0.8)
        else:
            roots = rng.uniform(0.0, 7.0, size=3)
            lead = rng.uniform(-2.0, 2.0)
            while abs(lead) < 1e-3:
                lead = rng.uniform(-2.0, 2.0)
            poly = lead * np.poly(roots)  # descending coefficients
            c3, c2, c1, c0 = (float(v) for v in poly)
            c0 += rng.uniform(20, 40)  # lift so curves look like PSNR
        out.append(rl.CubicRD(c0, c1, c2, c3, valid_range=(0.2, 6.0)))
    return out


def model_set_of(models, provenance="hand-built") -> rl.ClusterModelSet:
    """A model set of the given {(cluster, tier): CubicRD} curves on the
    default grid, with flat 40 dB centroids."""
    grid = rl.BitrateGrid.default()
    return rl.ClusterModelSet(
        k=max(cluster for cluster, _ in models), grid=grid,
        tiers=tuple(sorted({tier for _, tier in models})),
        centroids={key: (40.0,) * len(grid) for key in models}, models=models, seed=0,
        provenance=provenance,
    )


def pairwise_knees(pairs) -> list[tuple[float, ...]]:
    """``DecisionTables.knees`` of each (a, b) curve pair: cluster i + 1 of
    one model set has ``pairs[i]``'s a at 360p and its b at 720p."""
    low, high = rl.tier_from_name("360p"), rl.tier_from_name("720p")
    models = {}
    for cluster, (a, b) in enumerate(pairs, start=1):
        models[(cluster, low)], models[(cluster, high)] = a, b
    knees = rl.DecisionTables(model_set_of(models), rl.DecisionConfig()).knees
    return [knees[(cluster, low, high)] for cluster in range(1, len(pairs) + 1)]


def observation_batch(gops, errors=None) -> rl.ObservationBatch:
    """A batch of (gop_id, tier, points) GOPs, points as given, with
    ``errors`` (default: none) as rejected before assignment."""
    counts = [len(points) for _, _, points in gops]
    flat = [point for _, _, points in gops for point in points]
    bitrates, psnr = np.array(flat, dtype=float).reshape(-1, 2).T
    return rl.ObservationBatch(
        gop_ids=[gop_id for gop_id, _, _ in gops],
        tiers=[tier for _, tier, _ in gops],
        offsets=np.concatenate(([0], np.cumsum(counts, dtype=int))),
        bitrates=bitrates,
        psnr=psnr,
        errors=errors or [None] * len(gops),
    )


def scalar_assign(points, model_set, tier) -> tuple[int, float]:
    """Reference cluster assignment, one GOP at a time: the cluster with
    the smallest RMS PSNR residual by scalar evaluation (ties toward the
    lower cluster index) and that residual. Squares are ``d * d`` and are
    summed in point order, as ``DecisionTables.assign`` sums them."""
    if not points:
        raise ValidationError("assignment needs at least one (bitrate, psnr) point")
    if not model_set.has_tier(tier):
        raise ValidationError(f"model has no tier {tier}")
    for bitrate, psnr in points:
        if not (math.isfinite(bitrate) and bitrate > 0):
            raise ValidationError(f"bitrate must be finite and > 0, got {bitrate}")
        if not math.isfinite(psnr):
            raise ValidationError("psnr must be finite")

    def rms(cluster: int) -> float:
        model = model_set.model(cluster, tier)
        total = 0.0
        for bitrate, psnr in points:
            d = psnr - rl.eval_cubic(model, bitrate)
            total += d * d
        return math.sqrt(total / len(points))

    distances = {c: rms(c) for c in model_set.clusters}
    best = min(model_set.clusters, key=lambda c: (distances[c], c))
    return best, distances[best]


def scalar_recommend(gop_id, native, points, tables, modes, target_r) -> dict:
    """Reference decision pipeline for one GOP, reading the one ladder,
    threshold and interval it needs from ``tables``; returns the GOP's
    entry of the advice document."""
    model_set = tables.model_set
    cluster, distance = scalar_assign(points, model_set, native)
    notes = [f"cluster {cluster} (rms {distance:.3f} dB)"]
    applied = []

    tier = native
    if modes.trans_size:
        lo, hi = rl.OPERATING_RANGE
        if not (lo <= target_r <= hi):
            notes.append(f"target outside operating range, tier chosen at {min(max(target_r, lo), hi):g}")
        tier = tables.ladders[cluster].tier_at(target_r)
        if tier != native:
            applied.append("trans_size")
            notes.append(f"trans-size {native} -> {tier}")
        else:
            notes.append(f"keep {tier}")

    bitrate = target_r
    threshold = tables.vl[(cluster, tier)]
    if modes.vl and threshold is not None and target_r > threshold:
        applied.append("vl")
        notes.append(f"visually-lossless cap {bitrate:g} -> {threshold:g}")
        bitrate = threshold
    interval = tables.nzs[(cluster, tier)]
    if modes.nzs and interval is not None and interval[0] < bitrate <= interval[1]:
        applied.append("nzs")
        notes.append(f"near-zero-slope reduction {bitrate:g} -> {interval[0]:g}")
        bitrate = interval[0]

    final_model = model_set.model(cluster, tier)
    predicted = rl.eval_cubic(final_model, bitrate)
    if not final_model.covers(bitrate):
        notes.append("prediction extrapolates beyond the fitted bitrate span")

    return {
        "gop_id": gop_id,
        "cluster": cluster,
        "tier": tier.name,
        "target_bitrate": target_r,
        "proposed_bitrate": bitrate,
        "predicted_psnr": predicted,
        "modes_applied": applied,
        "rationale": "; ".join(notes),
    }


def scalar_advise(batch, model_set, cfg, modes, target_r) -> dict:
    """Reference advice document: ``scalar_recommend`` per GOP, an error
    entry for each GOP the batch or it rejects, savings over the answered
    GOPs."""
    if not modes.any_enabled:
        raise ValidationError("at least one mode must be enabled")
    if not (math.isfinite(target_r) and target_r > 0):
        raise ValidationError("target bitrate must be finite and > 0")
    tables = rl.DecisionTables(model_set, cfg)
    entries = []
    for g, (gop_id, tier, error) in enumerate(zip(batch.gop_ids, batch.tiers, batch.errors)):
        lo, hi = batch.offsets[g], batch.offsets[g + 1]
        points = list(zip(batch.bitrates[lo:hi].tolist(), batch.psnr[lo:hi].tolist()))
        try:
            if error is not None:
                raise ValidationError(error)
            entries.append(scalar_recommend(gop_id, tier, points, tables, modes, target_r))
        except RDLadderError as exc:
            entries.append({"gop_id": gop_id, "error": str(exc)})
    pairs = [(e["target_bitrate"], e["proposed_bitrate"]) for e in entries if "error" not in e]
    return {"recommendations": entries, "savings": rl.savings_report(pairs) if pairs else None}


def _reference_parse_gop(entry, index: int):
    if not isinstance(entry, dict):
        raise ValidationError(f"gops[{index}] must be an object")
    gop_id = entry.get("gop_id")
    if not isinstance(gop_id, str) or not gop_id:
        raise ValidationError(f"gops[{index}]: gop_id must be a non-empty string")
    tier_name = entry.get("tier")
    if not isinstance(tier_name, str):
        raise ValidationError(f"gops[{index}]: tier must be a string")
    tier = rl.tier_from_name(tier_name)
    points = entry.get("points")
    if not isinstance(points, list) or not points:
        raise ValidationError(f"gops[{index}]: points must be a non-empty list")
    parsed = []
    for p in points:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ValidationError(f"gops[{index}]: each point must be a [bitrate, psnr] pair")
        if not all(type(v) in (int, float) for v in p):
            raise ValidationError(f"gops[{index}]: each point must be a [bitrate, psnr] pair of numbers")
        parsed.append((_reference_float(p[0]), _reference_float(p[1])))
    return gop_id, tier, tuple(parsed)


def _reference_float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range, as json reads 1e400
        return math.inf if value > 0 else -math.inf


def reference_handle(payload, tables) -> tuple[int, dict]:
    """Reference request handling in two phases: parse each GOP on its
    own, advise the parsed ones as one batch, then merge the answers back
    between the GOPs that failed to parse, each of which echoes its
    ``gop_id`` only when that is a string. Point coordinates must be
    ints or floats (not bools); an integer too large for a float reads as
    infinite. Each mode must be exactly one of the three names. The
    target is converted with ``float()``, so it may be a bool or a
    numeric string; a NaN or non-positive target is answered "must be
    > 0", and a target above ``MAX_TARGET_BITRATE`` "must be at most"."""
    if not isinstance(payload, dict):
        return 400, {"error": "request body must be a JSON object"}
    try:
        target = float(payload.get("target_bitrate"))
    except (TypeError, ValueError):
        return 400, {"error": "target_bitrate must be a number"}
    modes_field = payload.get("modes", [])
    if not isinstance(modes_field, list) or not all(isinstance(m, str) for m in modes_field):
        return 400, {"error": "modes must be a list of strings"}
    unknown = [m for m in modes_field if m not in ("trans_size", "vl", "nzs")]
    if unknown:
        return 400, {"error": "unknown mode(s): " + ", ".join(repr(m) for m in unknown)}
    modes = rl.Modes(**{m: True for m in modes_field})
    if not modes.any_enabled:
        return 400, {"error": "at least one mode must be enabled"}
    gops = payload.get("gops")
    if not isinstance(gops, list) or not gops:
        return 400, {"error": "gops must be a non-empty list"}
    if not (target > 0):
        return 400, {"error": "target_bitrate must be > 0"}
    if target > MAX_TARGET_BITRATE:
        return 400, {"error": f"target_bitrate must be at most {MAX_TARGET_BITRATE:g} Mbps"}

    slots = []
    for index, entry in enumerate(gops):
        try:
            slots.append(_reference_parse_gop(entry, index))
        except (RDLadderError, TypeError, ValueError) as exc:
            gop_id = entry.get("gop_id") if isinstance(entry, dict) else None
            slots.append({"gop_id": gop_id if isinstance(gop_id, str) else "", "error": str(exc)})
    advice = tables.advise(observation_batch([s for s in slots if isinstance(s, tuple)]), target, modes)
    document = advice.document()
    answers = iter(document["recommendations"])
    document["recommendations"] = [s if isinstance(s, dict) else next(answers) for s in slots]
    return 200, document


def document_of(status: int, body) -> dict:
    """The document an answer's bytes must be ``json.dumps`` of: an
    advice's ``document()``, which a 200 answer always has, and any other
    body as it is."""
    assert isinstance(body, rl.Advice) == (status == 200)
    return body.document() if status == 200 else body


def handle_document(payload, tables) -> tuple[int, dict]:
    """``handle_recommend_request``'s status and body, with an advice
    given as its document."""
    status, body = handle_recommend_request(payload, tables)
    return status, document_of(status, body)
