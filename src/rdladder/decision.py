"""Transcoding decisions derived from cubic R-D curves: knee points,
per-cluster resolution ladders, visually-lossless bitrate thresholds,
near-zero-slope intervals, per-GOP recommendations and savings totals.

``DecisionTables`` derives every table of a (model, config) pair once and
answers batches of GOPs from them; the CLI, the service, ``verify-paper``
and the scripts all decide through it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .clustering import ClusterModelSet, nearest_clusters
from .errors import IdenticalCurvesError, ValidationError
from .rd_model import CubicRD, eval_cubic, eval_derivative
from .tiers import ResolutionTier

# Quality ties below this (dB) are invisible; argmax resolves to the higher tier.
_TIER_TIE_TOL = 1e-9


# Bitrate range (Mbps) that ladders and near-zero-slope intervals cover.
OPERATING_RANGE = (0.2, 6.0)
# Visually-lossless thresholds may sit past the operating range (such
# results are flagged as extrapolation), so their search reaches further.
VL_SEARCH_RANGE = (0.2, 12.0)


@dataclass(frozen=True)
class DecisionConfig:
    """Quality target (dB) for the visually-lossless cap and slope
    threshold (dB/Mbps) for the near-zero-slope reduction."""

    vl_psnr: float = 40.0
    nzs_slope: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.vl_psnr) and self.vl_psnr > 0):
            raise ValidationError("vl_psnr must be finite and > 0")
        if not (math.isfinite(self.nzs_slope) and self.nzs_slope > 0):
            raise ValidationError("nzs_slope must be finite and > 0")


def _polish_root(coeffs_desc: np.ndarray, r: float, iters: int = 6) -> float:
    """A few Newton steps against the exact polynomial; keeps the companion
    matrix roots honest down at root-finding tolerance."""
    deriv = np.polyder(coeffs_desc)
    best, best_val = r, abs(float(np.polyval(coeffs_desc, r)))
    for _ in range(iters):
        df = float(np.polyval(deriv, r))
        if df == 0.0 or not math.isfinite(df):
            break
        step = float(np.polyval(coeffs_desc, r)) / df
        if not math.isfinite(step):
            break
        r -= step
        val = abs(float(np.polyval(coeffs_desc, r)))
        if val < best_val:
            best, best_val = r, val
        if abs(step) <= 1e-15 * max(1.0, abs(r)):
            break
    return best


def _real_roots(coeffs_desc: Sequence[float]) -> list[float]:
    """All real roots of a polynomial given in descending-coefficient order,
    Newton-polished, ascending. Near-real companion eigenvalues (double
    roots surface as conjugate pairs with tiny imaginary parts) count as
    real."""
    p = np.asarray(coeffs_desc, dtype=float)
    scale = np.max(np.abs(p)) if p.size else 0.0
    if scale == 0.0:
        return []
    keep = np.abs(p) > 1e-13 * scale
    first = int(np.argmax(keep)) if keep.any() else p.size
    p = p[first:]
    if p.size <= 1:
        return []
    roots = np.roots(p)
    out = []
    for z in roots:
        if abs(z.imag) <= 1e-6 * max(1.0, abs(z.real)):
            out.append(_polish_root(p, float(z.real)))
    return sorted(out)


@dataclass(frozen=True)
class CurveIntersection:
    """A bitrate where two curves meet. ``tangential`` marks touch points
    (even multiplicity): the quality ordering does not flip there."""

    bitrate: float
    tangential: bool = False


def curve_intersections(
    a: CubicRD,
    b: CubicRD,
    r_range: tuple[float, float],
) -> list[CurveIntersection]:
    """Real roots of (a - b)(R) = 0 inside ``r_range``, ascending, with
    roots closer than 1e-6 merged. Raises IdenticalCurvesError when the curves
    coincide coefficient-wise (every bitrate 'intersects', which is not an
    empty result)."""
    lo, hi = r_range
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or lo >= hi:
        raise ValidationError("intersection range must satisfy 0 < lo < hi")
    diff = np.asarray(
        [a.c3 - b.c3, a.c2 - b.c2, a.c1 - b.c1, a.c0 - b.c0], dtype=float
    )
    if np.all(diff == 0.0):
        raise IdenticalCurvesError("curves are coefficient-wise identical")

    roots = [r for r in _real_roots(diff) if lo <= r <= hi]
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 1e-6:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)

    out = []
    for i, r in enumerate(merged):
        h = 1e-5 * max(1.0, abs(r))
        gap = min(
            abs(r - merged[i - 1]) if i > 0 else math.inf,
            abs(merged[i + 1] - r) if i + 1 < len(merged) else math.inf,
        )
        h = min(h, gap / 4.0)
        left = float(np.polyval(diff, r - h))
        right = float(np.polyval(diff, r + h))
        out.append(CurveIntersection(bitrate=r, tangential=left * right > 0.0))
    return out


@dataclass(frozen=True)
class LadderSegment:
    lo: float
    hi: float
    tier: ResolutionTier


@dataclass(frozen=True)
class ResolutionLadder:
    """Piecewise map from bitrate to the best resolution for one cluster.

    Segments tile the operating range exactly. Boundaries belong to the
    segment on their left (the lower-bitrate side).
    """

    cluster: int
    segments: tuple[LadderSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("ladder needs at least one segment")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if prev.hi != nxt.lo:
                raise ValidationError("ladder segments must tile the range contiguously")
            if prev.tier == nxt.tier:
                raise ValidationError("adjacent ladder segments must differ in tier")
        for seg in self.segments:
            if seg.lo >= seg.hi:
                raise ValidationError("ladder segment bounds must be increasing")

    @property
    def span(self) -> tuple[float, float]:
        return (self.segments[0].lo, self.segments[-1].hi)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(seg.hi for seg in self.segments[:-1])

    def tier_at(self, r: float) -> ResolutionTier:
        """Tier for a target bitrate; out-of-range targets clamp to the
        nearest end. A breakpoint bitrate belongs to its left segment."""
        lo, hi = self.span
        r = min(max(r, lo), hi)
        for seg in self.segments:
            if r <= seg.hi:
                return seg.tier
        return self.segments[-1].tier


def build_ladder(model_set: ClusterModelSet, cluster: int) -> ResolutionLadder:
    """Partition the operating range at the cluster's pairwise curve
    intersections and keep, per segment, the tier with the highest quality
    at the segment midpoint (quality ties go to the higher tier).
    Tangential intersections never flip the argmax and create no
    breakpoints; adjacent same-tier segments are merged."""
    if cluster not in model_set.clusters:
        raise ValidationError(f"unknown cluster index {cluster}")
    lo, hi = OPERATING_RANGE
    tiers = model_set.tiers
    curves = {t: model_set.model(cluster, t) for t in tiers}

    cuts: list[float] = []
    for i, t1 in enumerate(tiers):
        for t2 in tiers[i + 1 :]:
            try:
                hits = curve_intersections(curves[t1], curves[t2], OPERATING_RANGE)
            except IdenticalCurvesError:
                continue
            cuts.extend(x.bitrate for x in hits if not x.tangential and lo < x.bitrate < hi)

    merged_cuts: list[float] = []
    for r in sorted(cuts):
        if merged_cuts and abs(r - merged_cuts[-1]) <= 1e-9:
            continue
        merged_cuts.append(r)

    edges = [lo, *merged_cuts, hi]
    segments: list[LadderSegment] = []
    for seg_lo, seg_hi in zip(edges, edges[1:]):
        mid = 0.5 * (seg_lo + seg_hi)
        qualities = {t: eval_cubic(curves[t], mid) for t in tiers}
        best_q = max(qualities.values())
        tier = max(t for t, q in qualities.items() if q >= best_q - _TIER_TIE_TOL)
        if segments and segments[-1].tier == tier:
            segments[-1] = LadderSegment(segments[-1].lo, seg_hi, tier)
        else:
            segments.append(LadderSegment(seg_lo, seg_hi, tier))
    return ResolutionLadder(cluster=cluster, segments=tuple(segments))


@dataclass(frozen=True)
class VlThreshold:
    """Minimal bitrate predicted to reach the visually-lossless quality.

    ``clamped`` marks curves already at/above the target at the search
    range minimum; ``extrapolated`` marks thresholds outside the curve's
    fitted bitrate span.
    """

    bitrate: float
    clamped: bool = False
    extrapolated: bool = False


def vl_threshold(model: CubicRD, cfg: DecisionConfig) -> Optional[VlThreshold]:
    """Smallest bitrate in the search range where the curve crosses
    ``cfg.vl_psnr`` on a rising branch; None when the curve never gets
    there. A curve already at/above the target at the range minimum clamps
    to that minimum."""
    lo, hi = VL_SEARCH_RANGE
    if eval_cubic(model, lo) >= cfg.vl_psnr:
        return VlThreshold(bitrate=lo, clamped=True, extrapolated=not model.covers(lo))
    candidates = [
        r
        for r in _real_roots([model.c3, model.c2, model.c1, model.c0 - cfg.vl_psnr])
        if lo <= r <= hi and eval_derivative(model, r) > 0.0
    ]
    if not candidates:
        return None
    r = min(candidates)
    return VlThreshold(bitrate=r, extrapolated=not model.covers(r))


@dataclass(frozen=True)
class NzsInterval:
    """Bitrate interval where the curve's slope stays below the
    near-zero-slope threshold, clamped to the operating range."""

    lo: float
    hi: float
    clamped_lo: bool = False
    clamped_hi: bool = False

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValidationError("near-zero-slope interval must have lo < hi")


def nzs_interval(model: CubicRD, cfg: DecisionConfig) -> Optional[NzsInterval]:
    """Solve slope(R) = cfg.nzs_slope; when the slope dips below the
    threshold between two real roots, return that interval clamped to the
    operating range (None when the dip never happens or clamping empties
    the interval)."""
    a = 3.0 * model.c3
    b = 2.0 * model.c2
    c = model.c1 - cfg.nzs_slope
    if a <= 0.0:
        # The slope parabola must open upward for a bounded below-threshold
        # dip between two roots.
        return None
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    sqrt_disc = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sqrt_disc, b)) if b != 0.0 else 0.5 * sqrt_disc
    r1, r2 = sorted((q / a, c / q)) if q != 0.0 else (-sqrt_disc / (2 * a), sqrt_disc / (2 * a))
    op_lo, op_hi = OPERATING_RANGE
    lo, hi = max(r1, op_lo), min(r2, op_hi)
    if lo >= hi:
        return None
    return NzsInterval(lo=lo, hi=hi, clamped_lo=r1 < op_lo, clamped_hi=r2 > op_hi)


@dataclass(frozen=True)
class Modes:
    """Which decision stages run: trans-sizing, visually-lossless capping,
    near-zero-slope reduction."""

    trans_size: bool = False
    vl: bool = False
    nzs: bool = False

    _NAMES = ("trans_size", "vl", "nzs")

    @classmethod
    def parse(cls, spec: str) -> "Modes":
        names = [p.strip() for p in spec.split(",") if p.strip()]
        unknown = [n for n in names if n not in cls._NAMES]
        if unknown:
            raise ValidationError(f"unknown mode(s): {', '.join(unknown)}")
        return cls(**{n: True for n in names})

    @property
    def any_enabled(self) -> bool:
        return self.trans_size or self.vl or self.nzs

    @property
    def enabled(self) -> tuple[str, ...]:
        return tuple(n for n in self._NAMES if getattr(self, n))


@dataclass(frozen=True, eq=False)
class ObservationBatch:
    """The GOPs a recommendation is made for, as columns. GOP ``g`` is
    ``gop_ids[g]`` at native tier ``tiers[g]`` and owns the unvalidated
    points ``offsets[g]:offsets[g + 1]`` of ``bitrates`` and ``psnr``.
    ``errors[g]`` is None, or the message of a GOP rejected before
    assignment, which owns no points and may have no tier."""

    gop_ids: Sequence
    tiers: Sequence[Optional[ResolutionTier]]
    offsets: np.ndarray
    bitrates: np.ndarray
    psnr: np.ndarray
    errors: Sequence[Optional[str]]

    def __len__(self) -> int:
        return len(self.gop_ids)


def gather_groups(offsets: np.ndarray, groups) -> tuple[np.ndarray, np.ndarray]:
    """For rows grouped so that group g owns ``offsets[g]:offsets[g + 1]``:
    the rows of ``groups``, group after group, and the offsets of the
    groups within them."""
    groups = np.asarray(groups, dtype=int)
    starts = offsets[groups]
    counts = offsets[groups + 1] - starts
    gathered = np.concatenate(([0], np.cumsum(counts)))
    rows = np.arange(gathered[-1]) + np.repeat(starts - gathered[:-1], counts)
    return rows, gathered


@dataclass(frozen=True)
class VideoSavings:
    video_id: str
    total_target: float
    total_proposed: float
    saving_percent: float


@dataclass(frozen=True)
class SavingsReport:
    videos: tuple[VideoSavings, ...]
    total_target: float
    total_proposed: float
    saving_percent: float


def savings_report(groups: Mapping[str, Sequence[tuple[float, float]]]) -> SavingsReport:
    """Totals and bitrate-saving percentages per video and overall, from
    (target, proposed) pairs grouped by video id. Saving is
    (sum(target) - sum(proposed)) / sum(target) * 100."""
    if not groups or all(not rows for rows in groups.values()):
        raise ValidationError("savings report needs at least one (target, proposed) row")
    videos = []
    for video_id, rows in groups.items():
        if not rows:
            raise ValidationError(f"video {video_id!r} has no rows")
        for target, proposed in rows:
            if target <= 0 or proposed <= 0:
                raise ValidationError(f"video {video_id!r}: bitrates must be > 0")
            if proposed > target:
                raise ValidationError(f"video {video_id!r}: proposed exceeds target")
        total_target = float(sum(t for t, _ in rows))
        total_proposed = float(sum(p for _, p in rows))
        videos.append(
            VideoSavings(
                video_id=video_id,
                total_target=total_target,
                total_proposed=total_proposed,
                saving_percent=100.0 * (total_target - total_proposed) / total_target,
            )
        )
    total_target = sum(v.total_target for v in videos)
    total_proposed = sum(v.total_proposed for v in videos)
    return SavingsReport(
        videos=tuple(videos),
        total_target=total_target,
        total_proposed=total_proposed,
        saving_percent=100.0 * (total_target - total_proposed) / total_target,
    )


@dataclass(frozen=True, eq=False)
class DecisionTables:
    """Everything a decision needs that depends only on the model and the
    config, built once when constructed: the ladder of every cluster, the
    visually-lossless threshold and near-zero-slope interval of every
    (cluster, tier), and the cubics stacked as
    ``coeffs[tier_index, cluster - 1] = (c0, c1, c2, c3)`` with tiers in
    ``model_set.tiers`` order, ``tier_index`` mapping each tier to its
    row. Immutable, so one instance can serve concurrent requests.
    """

    model_set: ClusterModelSet
    cfg: DecisionConfig
    ladders: Mapping[int, ResolutionLadder] = field(init=False, repr=False)
    vl: Mapping[tuple[int, ResolutionTier], Optional[VlThreshold]] = field(init=False, repr=False)
    nzs: Mapping[tuple[int, ResolutionTier], Optional[NzsInterval]] = field(init=False, repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)
    tier_index: Mapping[ResolutionTier, int] = field(init=False, repr=False)

    def __post_init__(self):
        model_set, cfg = self.model_set, self.cfg
        clusters, tiers = model_set.clusters, model_set.tiers
        keys = [(c, t) for c in clusters for t in tiers]
        coeffs = np.array([[model_set.model(c, t).coefficients for c in clusters] for t in tiers])
        coeffs.flags.writeable = False
        set_field = functools.partial(object.__setattr__, self)
        ladders = {c: build_ladder(model_set, c) for c in clusters}
        set_field("ladders", MappingProxyType(ladders))
        set_field("vl", MappingProxyType({k: vl_threshold(model_set.model(*k), cfg) for k in keys}))
        set_field("nzs", MappingProxyType({k: nzs_interval(model_set.model(*k), cfg) for k in keys}))
        set_field("coeffs", coeffs)
        set_field("tier_index", MappingProxyType({t: i for i, t in enumerate(tiers)}))

    def assign(self, batch: ObservationBatch) -> tuple[np.ndarray, np.ndarray, list]:
        """Assign each GOP to the cluster whose curve at the GOP's tier is
        nearest to its measured points, by RMS PSNR residual; ties resolve
        toward the lower cluster index. Returns every GOP's 1-based cluster
        and RMS residual (0 and NaN when unassigned) and the batch's
        ``errors`` extended with the GOPs that have no points, a tier the
        model lacks, or a point with a non-finite value or a bitrate <= 0
        (the first such point names the fault, bitrate before PSNR)."""
        n = len(batch)
        errors = list(batch.errors)
        bitrates, psnr = batch.bitrates, batch.psnr
        bad_bitrate = ~(np.isfinite(bitrates) & (bitrates > 0))
        bad_rows = (bad_bitrate | ~np.isfinite(psnr)).nonzero()[0]
        owners = batch.offsets.searchsorted(bad_rows, side="right") - 1
        # Walked backwards, each GOP's first bad point is the one kept.
        first_bad = dict(zip(owners[::-1].tolist(), bad_rows[::-1].tolist()))

        tier_index = self.tier_index
        by_tier: dict[int, list[int]] = {}
        counts = (batch.offsets[1:] - batch.offsets[:-1]).tolist()
        for g, (error, tier, count) in enumerate(zip(batch.errors, batch.tiers, counts)):
            if error is not None:
                continue
            index = tier_index.get(tier)
            if not count:
                errors[g] = "assignment needs at least one (bitrate, psnr) point"
            elif index is None:
                errors[g] = f"model has no tier {tier}"
            elif g in first_bad:
                row = first_bad[g]
                errors[g] = (
                    f"bitrate must be finite and > 0, got {bitrates[row].item()}"
                    if bad_bitrate[row]
                    else "psnr must be finite"
                )
            else:
                by_tier.setdefault(index, []).append(g)

        clusters, rms = np.zeros(n, dtype=int), np.full(n, np.nan)
        for index, members in by_tier.items():
            if len(members) == n:  # every GOP, in order: nothing to gather
                points = bitrates, psnr, batch.offsets
            else:
                rows, offsets = gather_groups(batch.offsets, members)
                points = bitrates[rows], psnr[rows], offsets
            clusters[members], rms[members] = nearest_clusters(self.coeffs[index], *points)
        return clusters, rms, errors

    def advise(self, batch: ObservationBatch, target_r: float, modes: Modes) -> dict:
        """The decision pipeline for a batch of GOPs: assign each a
        cluster from its measured points, pick a tier (the ladder's when
        trans-sizing is on, the native one otherwise), then apply the
        visually-lossless cap and the near-zero-slope reduction to the
        target bitrate, in that order.

        Returns the advice document, as the service answers it and
        ``recommend --format json`` prints it: ``recommendations`` holds
        one entry per GOP in input order, and ``savings`` the totals over
        the answered GOPs (None when no GOP was answered). An answered
        GOP's entry holds ``gop_id``, ``cluster``, ``tier`` (its name),
        ``target_bitrate``, ``proposed_bitrate``, ``predicted_psnr``,
        ``modes_applied`` and ``rationale``; a GOP that cannot be answered
        gets ``{"gop_id", "error"}``."""
        if not modes.any_enabled:
            raise ValidationError("at least one mode must be enabled")
        if not (math.isfinite(target_r) and target_r > 0):
            raise ValidationError("target bitrate must be finite and > 0")
        clusters, rms, errors = self.assign(batch)
        decisions: dict[tuple[int, ResolutionTier], tuple] = {}
        entries: list[dict] = []
        pairs: list[tuple[float, float]] = []
        for gop_id, native, cluster, distance, error in zip(
            batch.gop_ids, batch.tiers, clusters.tolist(), rms.tolist(), errors
        ):
            if error is not None:
                entries.append({"gop_id": gop_id, "error": error})
                continue
            key = (cluster, native)
            if key not in decisions:
                tier, bitrate, applied, predicted, notes = self.decide(cluster, native, target_r, modes)
                suffix = "".join(f"; {note}" for note in notes)
                decisions[key] = (tier.name, bitrate, predicted, applied, suffix)
            tier_name, bitrate, predicted, applied, notes = decisions[key]
            entries.append({
                "gop_id": gop_id,
                "cluster": cluster,
                "tier": tier_name,
                "target_bitrate": target_r,
                "proposed_bitrate": bitrate,
                "predicted_psnr": predicted,
                "modes_applied": list(applied),
                "rationale": f"cluster {cluster} (rms {distance:.3f} dB){notes}",
            })
            pairs.append((target_r, bitrate))
        savings = None
        if pairs:
            report = savings_report({"all": pairs})
            savings = {
                "total_target": report.total_target,
                "total_proposed": report.total_proposed,
                "saving_percent": report.saving_percent,
            }
        return {"recommendations": entries, "savings": savings}

    def decide(self, cluster: int, native: ResolutionTier, target_r: float, modes: Modes):
        """(tier, proposed bitrate, modes applied, predicted PSNR, notes)
        for every GOP of ``cluster`` measured at ``native``: the ladder's
        tier when trans-sizing is on (the native one otherwise), then the
        target capped at the visually-lossless threshold when one exists
        below it, then dropped to the near-zero-slope interval's lower end
        when it lies inside that interval (endpoints inclusive). The
        proposed bitrate is checked to lie in (0, target]."""
        if not (math.isfinite(target_r) and target_r > 0):
            raise ValidationError("target bitrate must be finite and > 0")
        self.model_set.model(cluster, native)  # rejects an unknown cluster or tier
        notes: list[str] = []
        applied: list[str] = []
        tier = native
        if modes.trans_size:
            lo, hi = OPERATING_RANGE
            if not (lo <= target_r <= hi):
                notes.append(f"target outside operating range, tier chosen at {min(max(target_r, lo), hi):g}")
            tier = self.ladders[cluster].tier_at(target_r)
            if tier != native:
                applied.append("trans_size")
                notes.append(f"trans-size {native} -> {tier}")
            else:
                notes.append(f"keep {tier}")

        bitrate = target_r
        threshold = self.vl[(cluster, tier)]
        if modes.vl and threshold is not None and threshold.bitrate < bitrate:
            applied.append("vl")
            notes.append(f"visually-lossless cap {bitrate:g} -> {threshold.bitrate:g}")
            bitrate = threshold.bitrate
        interval = self.nzs[(cluster, tier)]
        if modes.nzs and interval is not None and interval.lo < bitrate <= interval.hi:
            applied.append("nzs")
            notes.append(f"near-zero-slope reduction {bitrate:g} -> {interval.lo:g}")
            bitrate = interval.lo
        if bitrate <= 0:
            raise ValidationError("proposed bitrate must be > 0")
        if bitrate > target_r:
            raise ValidationError("proposed bitrate must never exceed the target")

        final_model = self.model_set.model(cluster, tier)
        predicted = eval_cubic(final_model, bitrate)
        if not final_model.covers(bitrate):
            notes.append("prediction extrapolates beyond the fitted bitrate span")
        return tier, bitrate, tuple(applied), predicted, tuple(notes)
