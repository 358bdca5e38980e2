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
from itertools import compress, count, filterfalse
from operator import eq

import numpy as np

from .clustering import BitrateGrid, ClusterModelSet
from .errors import ConflictError, ParseError, SchemaVersionError, ValidationError
from .rd_model import CubicRD, eval_cubic
from .tiers import ResolutionTier, tier_from_name

MEASUREMENT_HEADER = "gop_id,resolution,bitrate_mbps,psnr_db"
MODEL_SCHEMA_VERSION = "1"
BUILTIN_PROVENANCE = "paper-table-2"
PARSE_BLOCK_LINES = 1024  # lines checked and converted in bulk at a time


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Validated measurements as flat columns.

    A group is one (gop, tier) pair: ``groups[g]`` names group ``g``, and
    groups are numbered in the order they first appear in the file. Rows
    are sorted by group, then by bitrate, one row per distinct bitrate;
    group ``g`` owns rows ``offsets[g]:offsets[g + 1]``.
    """

    groups: tuple[tuple[str, ResolutionTier], ...]
    offsets: np.ndarray
    bitrates: np.ndarray
    psnr: np.ndarray
    source: str = ""

    def __len__(self) -> int:
        return len(self.bitrates)


class _Columns:
    """Accepted rows as per-block column arrays, and the (gop, tier)
    groups numbered in order of first appearance."""

    def __init__(self):
        self.tiers: dict[str, ResolutionTier] = {}  # by resolution name
        self.groups: dict[tuple[str, str], int] = {}  # (gop_id, resolution) -> group
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, rows: list[str], linenos: np.ndarray, commas: np.ndarray, padded: bool) -> bool:
        """Convert and append stripped data rows, each with its line number
        and comma count, in bulk; ``padded`` says whether the fields may hold
        whitespace. Returns False and changes nothing when any row has a
        fault."""
        n = len(rows)
        if not n:
            return True
        if (commas != 3).any():
            return False
        fields = ",".join(rows).split(",")
        if padded:
            # float() skips less whitespace than strip() (not \x1c-\x1f),
            # so number fields are stripped too.
            fields = list(map(str.strip, fields))
        gop_ids, names = fields[0::4], fields[1::4]
        # A run is a stretch of rows of one group; keys are looked up per run.
        same = np.fromiter(map(eq, gop_ids[1:], gop_ids), dtype=bool, count=n - 1)
        same &= np.fromiter(map(eq, names[1:], names), dtype=bool, count=n - 1)
        runs = np.flatnonzero(np.concatenate(([True], ~same)))
        first_rows = runs.tolist()
        run_gop_ids = list(map(gop_ids.__getitem__, first_rows))
        run_names = list(map(names.__getitem__, first_rows))
        try:
            bitrates = np.array(fields[2::4], dtype=float)
            psnr = np.array(fields[3::4], dtype=float)
            new_tiers = {
                name: tier_from_name(name)
                for name in filterfalse(self.tiers.__contains__, dict.fromkeys(run_names))
            }
        except (ValueError, ValidationError):
            return False
        in_range = (bitrates > 0) & (bitrates < math.inf) & (psnr > 0) & (psnr <= 100)
        if "" in run_gop_ids or not in_range.all():
            return False
        keys = list(zip(run_gop_ids, run_names))

        self.tiers.update(new_tiers)
        fresh = list(filterfalse(self.groups.__contains__, dict.fromkeys(keys)))
        self.groups.update(zip(fresh, count(len(self.groups))))
        numbers = np.fromiter(map(self.groups.__getitem__, keys), dtype=np.int64, count=len(keys))
        self.blocks.append((numbers.repeat(np.diff(runs, append=n)), linenos, bitrates, psnr))
        return True

    def group_keys(self) -> tuple[tuple[str, ResolutionTier], ...]:
        return tuple((gop_id, self.tiers[name]) for gop_id, name in self.groups)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every accepted row's group, line number, bitrate and PSNR, as
        whole columns; the blocks are let go."""
        blocks, self.blocks = self.blocks, []
        if not blocks:
            return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0)
        return tuple(map(np.concatenate, zip(*blocks)))


def _first_fault(rows: list[str], linenos: np.ndarray) -> tuple[int, ValidationError]:
    """The first faulty row of a block that failed a bulk check: its index
    in ``rows`` and the error that names it."""
    for index, (line, lineno) in enumerate(zip(rows, linenos.tolist())):
        parts = line.split(",")
        if len(parts) != 4:
            return index, ParseError(
                f"line {lineno}: expected 4 comma-separated fields, got {len(parts)}"
            )
        gop_id, resolution, bitrate_s, psnr_s = map(str.strip, parts)
        try:
            tier_from_name(resolution)
            bitrate = float(bitrate_s)
            psnr = float(psnr_s)
        except (ValueError, ValidationError) as exc:
            return index, ParseError(f"line {lineno}: {exc}")
        if not gop_id:
            return index, ValidationError(f"line {lineno}: gop_id must be non-empty")
        if not 0 < bitrate < math.inf:
            return index, ValidationError(
                f"line {lineno}: gop {gop_id!r}: bitrate must be finite and > 0"
            )
        if not 0 < psnr <= 100:
            return index, ValidationError(
                f"line {lineno}: gop {gop_id!r}: psnr must be in (0, 100] dB"
            )
    raise AssertionError("a block that failed a bulk check has no faulty row")


def _read_blocks(text: str, source: str) -> tuple[_Columns, ValidationError | None]:
    """The rows of ``text`` up to its first fault, and that fault (None
    if there is none). A fault in the header line, or a missing header, is
    raised at once."""
    # The file goes through in blocks of PARSE_BLOCK_LINES lines, each
    # checked and converted in bulk; only a block that fails a check is
    # walked row by row, to name its first fault. Splitting the whole file
    # into fields at once would cost several times its size in memory.
    # Lines end at "\n" only (strip() drops a "\r"); with one appended,
    # every line does. "\n" is never part of a longer UTF-8 sequence, so
    # each block's bytes decode on their own; surrogatepass carries lone
    # surrogates, which a str may hold.
    raw = text.encode("utf-8", "surrogatepass") + b"\n"
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n")) + 1
    cuts = [0, *ends[PARSE_BLOCK_LINES - 1 : -1 : PARSE_BLOCK_LINES].tolist(), len(raw)]
    columns = _Columns()
    header_line = 0
    fault: ValidationError | None = None
    for block, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        chunk = raw[lo:hi]
        lines = chunk.decode("utf-8", "surrogatepass").split("\n")
        lines.pop()  # after the last "\n"
        buf = np.frombuffer(chunk, dtype=np.uint8)
        # Whitespace is among the ASCII controls, the space and non-ASCII.
        padded = bool(((buf <= ord(" ")) & (buf != ord("\n"))).any() or (buf > 127).any())
        if padded:
            lines = list(map(str.strip, lines))
            chunk = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")
            buf = np.frombuffer(chunk, dtype=np.uint8)
        # Line i starts at byte starts[i] of buf.
        starts = np.concatenate(([0], np.flatnonzero(buf == ord("\n"))[:-1] + 1))
        kept = (buf[starts] != ord("\n")) & (buf[starts] != ord("#"))
        commas = np.add.reduceat(buf == ord(","), starts)[kept]
        rows = list(compress(lines, kept))
        linenos = block * PARSE_BLOCK_LINES + 1 + np.flatnonzero(kept)
        if not header_line and rows:
            if rows[0] != MEASUREMENT_HEADER:
                raise ParseError(
                    f"line {linenos[0]}: expected header {MEASUREMENT_HEADER!r}, got {rows[0]!r}"
                )
            header_line = linenos[0]
            rows, linenos, commas = rows[1:], linenos[1:], commas[1:]
        if not columns.add(rows, linenos, commas, padded):
            index, fault = _first_fault(rows, linenos)
            columns.add(rows[:index], linenos[:index], commas[:index], padded)
            break  # raised below, unless an earlier row conflicts
    if fault is None and not header_line:
        raise ParseError(f"{source or 'measurements'}: empty file (no header)")
    return columns, fault


def parse_measurements(text: str, source: str = "") -> MeasurementSet:
    """Parse and validate a measurement CSV. Every failure names the
    offending 1-based line, and of several faults the first in file order
    is reported; nothing is dropped silently (exact duplicate rows
    collapse, contradictory ones are an error)."""
    # The encoded copy of the text that _read_blocks cuts into blocks is
    # let go before the columns are joined.
    columns, fault = _read_blocks(text, source)
    keys = columns.group_keys()
    group, lines, bitrates, psnr = columns.arrays()
    # Files are often written group by group in bitrate order, and then
    # the rows are sorted already. lexsort is stable, so rows with one
    # (group, bitrate) stay in file order.
    step = np.diff(group)
    if not ((step > 0) | (step == 0) & (np.diff(bitrates) >= 0)).all():
        order = np.lexsort((bitrates, group))
        group, lines, bitrates, psnr = group[order], lines[order], bitrates[order], psnr[order]
    repeat = (group[1:] == group[:-1]) & (bitrates[1:] == bitrates[:-1])
    clashes = np.flatnonzero(repeat & (psnr[1:] != psnr[:-1])) + 1
    if clashes.size:
        i = clashes[lines[clashes].argmin()]
        gop_id, tier = keys[group[i]]
        raise ConflictError(
            f"line {lines[i]}: gop {gop_id!r} at {tier.name} {bitrates[i]:g} Mbps already has "
            f"psnr {psnr[i - 1]:g} from line {lines[i - 1]} (got {psnr[i]:g})"
        )
    if fault is not None:
        raise fault
    keep = np.ones(len(group), dtype=bool)
    keep[1:] = ~repeat
    return MeasurementSet(
        groups=keys,
        offsets=np.searchsorted(group[keep], np.arange(len(keys) + 1)),
        bitrates=bitrates[keep],
        psnr=psnr[keep],
        source=source,
    )


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
    except RecursionError:
        raise ParseError("model file: JSON nested too deeply") from None
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
                if (index, tier) in models:
                    raise ParseError(f"model file: {where} lists tier {tier} twice")
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
