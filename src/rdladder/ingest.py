"""Measurement-file parsing, model persistence, and the built-in
reference model.

Measurement files are UTF-8 CSV with header
``gop_id,resolution,bitrate_mbps,psnr_db``; ``#``-prefixed lines are
comments. Model files are JSON with all numbers rounded to 12 significant
digits so save -> load -> save is byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

from .clustering import BitrateGrid, ClusterModelSet
from .errors import ConflictError, ParseError, SchemaVersionError, ValidationError
from .rd_model import CubicRD, eval_cubic
from .tiers import ResolutionTier, tier_from_name

MEASUREMENT_HEADER = "gop_id,resolution,bitrate_mbps,psnr_db"
MODEL_SCHEMA_VERSION = "1"
BUILTIN_PROVENANCE = "paper-table-2"


@dataclass(frozen=True)
class RDSample:
    """One measured (GOP, resolution, bitrate, PSNR) observation."""

    gop_id: str
    tier: ResolutionTier
    bitrate: float
    psnr: float

    def __post_init__(self):
        if not self.gop_id:
            raise ValidationError("gop_id must be non-empty")
        if not (math.isfinite(self.bitrate) and self.bitrate > 0):
            raise ValidationError(f"gop {self.gop_id!r}: bitrate must be finite and > 0")
        if not (math.isfinite(self.psnr) and 0 < self.psnr <= 100):
            raise ValidationError(f"gop {self.gop_id!r}: psnr must be in (0, 100] dB")


@dataclass(frozen=True)
class MeasurementSet:
    """Validated samples grouped per (gop, tier), sorted by bitrate."""

    samples: dict[tuple[str, ResolutionTier], tuple[RDSample, ...]]
    source: str = ""

    def groups(self) -> Iterator[tuple[tuple[str, ResolutionTier], tuple[RDSample, ...]]]:
        return iter(self.samples.items())

    def gop_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for gop_id, _ in self.samples:
            seen.setdefault(gop_id)
        return list(seen)

    def tiers_for(self, gop_id: str) -> list[ResolutionTier]:
        return sorted(t for g, t in self.samples if g == gop_id)

    def __len__(self) -> int:
        return sum(len(v) for v in self.samples.values())


def parse_measurements(text: str, source: str = "") -> MeasurementSet:
    """Parse and validate a measurement CSV. Every failure names the
    offending 1-based line; nothing is dropped silently (exact duplicate
    rows collapse, contradictory ones are an error)."""
    lines = text.splitlines()
    rows: list[tuple[int, str]] = [
        (i, line.strip())
        for i, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows:
        raise ParseError(f"{source or 'measurements'}: empty file (no header)")
    header_line, header = rows[0]
    if header != MEASUREMENT_HEADER:
        raise ParseError(
            f"line {header_line}: expected header {MEASUREMENT_HEADER!r}, got {header!r}"
        )

    grouped: dict[tuple[str, ResolutionTier], dict[float, tuple[float, int]]] = {}
    for lineno, line in rows[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 comma-separated fields, got {len(parts)}")
        gop_id, resolution, bitrate_s, psnr_s = parts
        try:
            tier = tier_from_name(resolution)
            bitrate = float(bitrate_s)
            psnr = float(psnr_s)
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        try:
            sample = RDSample(gop_id=gop_id, tier=tier, bitrate=bitrate, psnr=psnr)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        key = (sample.gop_id, sample.tier)
        bucket = grouped.setdefault(key, {})
        prev = bucket.get(sample.bitrate)
        if prev is not None and prev[0] != sample.psnr:
            raise ConflictError(
                f"line {lineno}: gop {gop_id!r} at {resolution} {bitrate:g} Mbps already has "
                f"psnr {prev[0]:g} from line {prev[1]} (got {psnr:g})"
            )
        bucket[sample.bitrate] = (sample.psnr, lineno)

    samples = {
        key: tuple(
            RDSample(gop_id=key[0], tier=key[1], bitrate=bitrate, psnr=bucket[bitrate][0])
            for bitrate in sorted(bucket)
        )
        for key, bucket in grouped.items()
    }
    return MeasurementSet(samples=samples, source=source)


def format_measurements(mset: MeasurementSet) -> str:
    """Serialize a MeasurementSet back to the CSV format parse accepts.
    Values keep full float fidelity (repr), so parse -> format -> parse is
    lossless."""
    out = [MEASUREMENT_HEADER]
    for (gop_id, tier), samples in sorted(mset.samples.items()):
        for s in samples:
            out.append(f"{gop_id},{tier.name},{s.bitrate!r},{s.psnr!r}")
    return "\n".join(out) + "\n"


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def save_model(model_set: ClusterModelSet) -> str:
    """Serialize a model to JSON text, numbers at 12 significant digits."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "k": model_set.k,
        "grid": [_round12(b) for b in model_set.grid.bitrates],
        "tiers": [t.name for t in model_set.tiers],
        "clusters": [
            {
                "index": cluster,
                "tiers": [
                    {
                        "tier": tier.name,
                        "coeffs": [_round12(c) for c in model_set.model(cluster, tier).coefficients],
                        "valid_range": [
                            _round12(v) for v in model_set.model(cluster, tier).valid_range
                        ],
                        "centroid": [_round12(v) for v in model_set.centroid(cluster, tier)],
                    }
                    for tier in model_set.tiers
                ],
            }
            for cluster in model_set.clusters
        ],
        "seed": model_set.seed,
        "provenance": model_set.provenance,
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"model file: missing {key!r} in {where}")
    return doc[key]


def load_model(text: str) -> ClusterModelSet:
    """Parse a model file; rejects unknown schema versions explicitly."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    if not isinstance(doc, dict):
        raise ParseError("model file: top-level value must be an object")
    version = _require(doc, "schema_version", "document")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"model file: unsupported schema_version {version!r} (expected {MODEL_SCHEMA_VERSION!r})"
        )
    try:
        k = int(_require(doc, "k", "document"))
        grid = BitrateGrid(tuple(float(b) for b in _require(doc, "grid", "document")))
        tiers = tuple(tier_from_name(name) for name in _require(doc, "tiers", "document"))
        centroids: dict[tuple[int, ResolutionTier], tuple[float, ...]] = {}
        models: dict[tuple[int, ResolutionTier], CubicRD] = {}
        for cluster_doc in _require(doc, "clusters", "document"):
            index = int(_require(cluster_doc, "index", "cluster"))
            for tier_doc in _require(cluster_doc, "tiers", f"cluster {index}"):
                where = f"cluster {index}"
                tier = tier_from_name(_require(tier_doc, "tier", where))
                c0, c1, c2, c3 = (float(c) for c in _require(tier_doc, "coeffs", where))
                lo, hi = (float(v) for v in _require(tier_doc, "valid_range", where))
                centroid = tuple(float(v) for v in _require(tier_doc, "centroid", where))
                models[(index, tier)] = CubicRD(c0, c1, c2, c3, valid_range=(lo, hi))
                centroids[(index, tier)] = centroid
        seed = int(_require(doc, "seed", "document"))
        provenance = str(_require(doc, "provenance", "document"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"model file: malformed field ({exc})") from None
    return ClusterModelSet(
        k=k, grid=grid, tiers=tiers, centroids=centroids, models=models,
        seed=seed, provenance=provenance,
    )


# Built-in reference centroid fits: (cluster, tier name) -> (c0, c1, c2, c3),
# quality in dB over bitrate in Mbps, fitted on the 0.2..6 Mbps span.
_BUILTIN_COEFFS: dict[tuple[int, str], tuple[float, float, float, float]] = {
    (1, "360p"): (16.857, 6.307, -1.554, 0.129),
    (1, "540p"): (17.382, 5.932, -1.571, 0.133),
    (1, "720p"): (17.034, 6.274, -1.499, 0.123),
    (1, "1080p"): (15.749, 7.627, -1.643, 0.133),
    (2, "360p"): (20.253, 7.171, -1.880, 0.158),
    (2, "540p"): (20.245, 7.419, -1.840, 0.152),
    (2, "720p"): (20.290, 7.799, -1.857, 0.152),
    (2, "1080p"): (18.596, 9.071, -1.958, 0.156),
    (3, "360p"): (22.660, 10.014, -2.867, 0.252),
    (3, "540p"): (22.494, 10.715, -2.904, 0.250),
    (3, "720p"): (22.166, 11.467, -2.987, 0.254),
    (3, "1080p"): (20.103, 12.650, -2.915, 0.236),
    (4, "360p"): (22.210, 13.527, -3.578, 0.297),
    (4, "540p"): (22.658, 12.318, -2.880, 0.223),
    (4, "720p"): (22.410, 12.845, -2.985, 0.231),
    (4, "1080p"): (22.564, 14.786, -3.571, 0.294),
    (5, "360p"): (29.598, 7.619, -1.888, 0.161),
    (5, "540p"): (29.483, 9.405, -2.604, 0.234),
    (5, "720p"): (28.743, 10.075, -2.700, 0.239),
    (5, "1080p"): (27.468, 15.563, -4.010, 0.341),
    (6, "360p"): (30.278, 14.048, -3.814, 0.327),
    (6, "540p"): (30.229, 14.374, -3.801, 0.323),
    (6, "720p"): (30.558, 13.695, -3.644, 0.311),
    (6, "1080p"): (33.335, 17.415, -4.521, 0.383),
}


def builtin_model() -> ClusterModelSet:
    """The built-in 6-cluster x 4-tier reference model. Centroid vectors
    are the cubics evaluated on the default grid; no training involved."""
    grid = BitrateGrid.default()
    tiers = tuple(sorted({tier_from_name(name) for _, name in _BUILTIN_COEFFS}))
    models: dict[tuple[int, ResolutionTier], CubicRD] = {}
    centroids: dict[tuple[int, ResolutionTier], tuple[float, ...]] = {}
    for (cluster, tier_name), (c0, c1, c2, c3) in _BUILTIN_COEFFS.items():
        tier = tier_from_name(tier_name)
        model = CubicRD(c0, c1, c2, c3, valid_range=grid.span)
        models[(cluster, tier)] = model
        centroids[(cluster, tier)] = tuple(eval_cubic(model, b) for b in grid.bitrates)
    return ClusterModelSet(
        k=6, grid=grid, tiers=tiers, centroids=centroids, models=models,
        seed=0, provenance=BUILTIN_PROVENANCE,
    )
