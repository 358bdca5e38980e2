"""Transcoding decisions derived from cubic R-D curves: knee points,
per-cluster resolution ladders, visually-lossless bitrate thresholds,
near-zero-slope intervals, per-GOP recommendations and savings totals.

``DecisionTables`` is the only place these tables are built. It stacks
every polynomial of a (model, config) pair, each tier-pair difference of
each cluster and each curve minus the visually-lossless target, solves
them all in one ``_real_roots`` call, and derives every table from those
roots. It then answers batches of GOPs from the tables; the CLI, the
service, ``verify-paper`` and the scripts all decide through it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .clustering import ClusterModelSet, nearest_clusters
from .errors import ValidationError
from .rd_model import eval_cubic
from .tiers import ResolutionTier

# Quality ties below this (dB) are invisible; argmax resolves to the higher tier.
_TIER_TIE_TOL = 1e-9


# Bitrate range (Mbps) that ladders and near-zero-slope intervals cover.
OPERATING_RANGE = (0.2, 6.0)
# Visually-lossless thresholds may sit past the operating range (such
# results are flagged as extrapolation), so their search reaches further.
VL_SEARCH_RANGE = (0.2, 12.0)
# Largest target bitrate (Mbps) a decision takes. Far above any stream, it
# keeps every number of an answer finite: a model's cubic overflows near
# 1e102 Mbps, and the savings totals over many GOPs much sooner.
MAX_TARGET_BITRATE = 1e6


def check_target(target_r: float, name: str = "target bitrate") -> None:
    """Raise ValidationError, naming the target ``name``, unless
    ``target_r`` is in (0, MAX_TARGET_BITRATE]."""
    if not (math.isfinite(target_r) and target_r > 0):
        raise ValidationError(f"{name} must be finite and > 0")
    if target_r > MAX_TARGET_BITRATE:
        raise ValidationError(f"{name} must be at most {MAX_TARGET_BITRATE:g} Mbps")


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


def _horner(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of ``p`` (descending coefficients) at its ``x``, with
    ``np.polyval``'s arithmetic; leading zero columns change nothing."""
    y = np.zeros_like(x)
    for column in p.T:
        y = y * x + column
    return y


def _real_roots(polys: np.ndarray) -> np.ndarray:
    """The real roots of each row of an [n, 4] array of cubics in
    descending-coefficient order: [n, 3], each row ascending, padded with
    NaN.

    Per row it does what ``np.roots`` and a few Newton steps would:
    coefficients at or below 1e-13 of the row's largest are dropped from
    the front, exact trailing zeros are stripped and each adds a root at 0,
    and the rest is solved as the eigenvalues of its companion matrix, one
    ``np.linalg.eigvals`` per degree. Near-real eigenvalues (double roots
    surface as conjugate pairs with tiny imaginary parts) count as real.
    Each real root is then polished against the polynomial with its front
    dropped but its trailing zeros kept, keeping the iterate of least
    residual."""
    size = np.abs(polys)
    kept = size > 1e-13 * size.max(axis=1, keepdims=True)
    first = np.where(kept.any(axis=1), kept.argmax(axis=1), 4)
    trimmed = np.where(np.arange(4) >= first[:, None], polys, 0.0)
    last = 3 - (trimmed != 0)[:, ::-1].argmax(axis=1)  # a row of zeros gets 3
    degree = np.maximum(last - first, 0)
    zeros = 3 - last

    slot = np.arange(3)  # NaN marks a slot without a root, and fails every test below
    z = np.where((slot >= degree[:, None]) & (slot < (degree + zeros)[:, None]), 0j, np.nan)
    for d in (1, 2, 3):
        rows = np.flatnonzero(degree == d)
        if rows.size:
            q = trimmed[rows[:, None], first[rows, None] + np.arange(d + 1)]
            companion = np.zeros((rows.size, d, d))
            companion[:, 1:, :-1] = np.eye(d - 1)
            companion[:, 0] = -q[:, 1:] / q[:, :1]
            z[rows, :d] = np.linalg.eigvals(companion)

    real = np.abs(z.imag) <= 1e-6 * np.maximum(1.0, np.abs(z.real))
    owner, slots = real.nonzero()
    p = trimmed[owner]
    dp = p[:, :3] * np.arange(3, 0, -1)
    r = best = z.real[owner, slots]
    f = _horner(p, r)
    best_val = np.abs(f)
    active = np.ones(len(r), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(6):
            df = _horner(dp, r)
            step = f / df
            active &= (df != 0.0) & np.isfinite(df) & np.isfinite(step)
            if not active.any():
                break
            r = np.where(active, r - step, r)
            f = _horner(p, r)
            better = active & (np.abs(f) < best_val)
            best = np.where(better, r, best)
            best_val = np.where(better, np.abs(f), best_val)
            active &= np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(r))

    roots = np.full((len(polys), 3), np.nan)
    roots[owner, slots] = best
    roots.sort(axis=1)
    return roots


def _crossings(diff: np.ndarray, roots: np.ndarray) -> tuple[float, ...]:
    """The roots of ``diff``, the difference of two curves, that lie in
    ``OPERATING_RANGE`` and where the difference changes sign, ascending;
    roots closer than 1e-6 are merged. Touch points are left out: the
    quality ordering does not flip there."""
    lo, hi = OPERATING_RANGE
    merged: list[float] = []
    for r in roots[(roots >= lo) & (roots <= hi)].tolist():
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
        if float(np.polyval(diff, r - h)) * float(np.polyval(diff, r + h)) <= 0.0:
            out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class ResolutionLadder:
    """Piecewise map from bitrate to the best resolution for one cluster,
    tiling ``OPERATING_RANGE``: ``tiers[i]`` holds the bitrates above
    ``breakpoints[i - 1]`` up to and including ``breakpoints[i]``, and the
    last tier the rest of the range.
    """

    cluster: int
    breakpoints: tuple[float, ...]
    tiers: tuple[ResolutionTier, ...]

    def __post_init__(self):
        if len(self.tiers) != len(self.breakpoints) + 1:
            raise ValidationError("a ladder needs one more tier than breakpoints")
        edges = (OPERATING_RANGE[0], *self.breakpoints, OPERATING_RANGE[1])
        if not all(left < right for left, right in zip(edges, edges[1:])):
            raise ValidationError("ladder breakpoints must increase strictly inside the operating range")
        if any(left == right for left, right in zip(self.tiers, self.tiers[1:])):
            raise ValidationError("adjacent ladder tiers must differ")

    def tier_at(self, r: float) -> ResolutionTier:
        """Tier for a target bitrate; out-of-range targets get the nearest
        end's tier. A breakpoint bitrate belongs to the tier on its left."""
        if math.isnan(r):
            raise ValidationError("ladder bitrate must not be NaN")
        return self.tiers[bisect.bisect_left(self.breakpoints, r)]


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


def savings_report(pairs: Sequence[tuple[float, float]]) -> dict:
    """The totals of (target, proposed) bitrate pairs and the saving,
    (sum(target) - sum(proposed)) / sum(target) * 100, as the advice
    document's ``{"total_target", "total_proposed", "saving_percent"}``."""
    if not pairs:
        raise ValidationError("savings report needs at least one (target, proposed) pair")
    for target, proposed in pairs:
        if target <= 0 or proposed <= 0:
            raise ValidationError("savings report bitrates must be > 0")
        if proposed > target:
            raise ValidationError("savings report: proposed exceeds target")
    total_target = float(sum(t for t, _ in pairs))
    total_proposed = float(sum(p for _, p in pairs))
    return {
        "total_target": total_target,
        "total_proposed": total_proposed,
        "saving_percent": 100.0 * (total_target - total_proposed) / total_target,
    }


@dataclass(frozen=True, eq=False)
class DecisionTables:
    """Everything a decision needs that depends only on the model and the
    config, built once when constructed, in one pass over all curves:

    - ``knees[(cluster, lower_tier, higher_tier)]``: the bitrates in
      ``OPERATING_RANGE`` where the two tiers' curves cross, ascending.
      Touch points, where one curve meets the other without crossing it,
      are left out, and identical curves have none.
    - ``ladders[cluster]``: the operating range cut at the cluster's
      knees, each segment taking the tier of highest quality at its
      midpoint (ties within 1e-9 dB go to the higher tier), with adjacent
      segments of one tier merged.
    - ``vl[(cluster, tier)]``: the smallest bitrate in ``VL_SEARCH_RANGE``
      where the curve reaches ``cfg.vl_psnr`` while rising, the range's
      minimum when the curve already reaches it there, or None. A
      threshold ``r`` is extrapolated when ``not model.covers(r)``.
    - ``nzs[(cluster, tier)]``: the interval where the slope dips below
      ``cfg.nzs_slope`` between the two roots of slope(R) = nzs_slope,
      clamped to the operating range, or None.
    - ``coeffs[tier_index, cluster - 1] = (c0, c1, c2, c3)``: the cubics,
      tiers in ``model_set.tiers`` order, ``tier_index`` mapping each tier
      to its row.

    Immutable, so one instance can serve concurrent requests.
    """

    model_set: ClusterModelSet
    cfg: DecisionConfig
    knees: Mapping[tuple[int, ResolutionTier, ResolutionTier], tuple[float, ...]] = field(
        init=False, repr=False)
    ladders: Mapping[int, ResolutionLadder] = field(init=False, repr=False)
    vl: Mapping[tuple[int, ResolutionTier], Optional[float]] = field(init=False, repr=False)
    nzs: Mapping[tuple[int, ResolutionTier], Optional[tuple[float, float]]] = field(init=False, repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)
    tier_index: Mapping[ResolutionTier, int] = field(init=False, repr=False)

    def __post_init__(self):
        model_set, cfg = self.model_set, self.cfg
        clusters, tiers = model_set.clusters, model_set.tiers
        coeffs = np.array([[model_set.model(c, t).coefficients for c in clusters] for t in tiers])
        coeffs.flags.writeable = False
        c0, c1, c2, c3 = np.moveaxis(coeffs, -1, 0)  # each [tier, cluster]

        # One root solve for every polynomial: the difference of each pair
        # of tiers, lower minus higher, then each curve minus vl_psnr.
        by_height = sorted(range(len(tiers)), key=tiers.__getitem__)
        pairs = list(itertools.combinations(by_height, 2))
        lower, higher = np.array(pairs, dtype=int).reshape(-1, 2).T
        descending = coeffs[..., ::-1]
        diffs = descending[lower] - descending[higher]  # [pair, cluster, 4]
        vl_polys = descending - np.array([0.0, 0.0, 0.0, cfg.vl_psnr])
        roots = _real_roots(np.concatenate((diffs.reshape(-1, 4), vl_polys.reshape(-1, 4))))
        knee_roots = roots[: diffs.size // 4].reshape(len(pairs), len(clusters), 3)
        vl_roots = roots[diffs.size // 4 :].reshape(len(tiers), len(clusters), 3)

        lo, hi = OPERATING_RANGE
        knees, ladders = {}, {}
        for ci, cluster in enumerate(clusters):
            cuts: list[float] = []
            for p, (a, b) in enumerate(pairs):
                hits = _crossings(diffs[p, ci], knee_roots[p, ci])
                knees[(cluster, tiers[a], tiers[b])] = hits
                cuts += (r for r in hits if lo < r < hi)
            merged: list[float] = []  # knees of several tier pairs may coincide
            for r in sorted(cuts):
                if not merged or abs(r - merged[-1]) > 1e-9:
                    merged.append(r)
            edges = np.array([lo, *merged, hi])
            mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
            curves = (by_height, ci)  # the cluster's cubics, lowest tier first
            quality = c0[curves] + mid * (c1[curves] + mid * (c2[curves] + mid * c3[curves]))
            near_best = quality >= quality.max(axis=1, keepdims=True) - _TIER_TIE_TOL  # [segment, tier]
            best = [tiers[by_height[-1 - i]] for i in near_best[:, ::-1].argmax(axis=1).tolist()]
            changes = [i for i in range(1, len(best)) if best[i] != best[i - 1]]
            ladders[cluster] = ResolutionLadder(
                cluster=cluster,
                breakpoints=tuple(edges[changes].tolist()),
                tiers=(best[0], *(best[i] for i in changes)),
            )

        vl_lo, vl_hi = VL_SEARCH_RANGE
        r = vl_roots
        slope = c1[..., None] + r * (2.0 * c2[..., None] + r * (3.0 * c3[..., None]))
        rising = (r >= vl_lo) & (r <= vl_hi) & (slope > 0.0)
        first_rising = np.take_along_axis(r, rising.argmax(axis=-1)[..., None], axis=-1)[..., 0]
        first_rising[~rising.any(axis=-1)] = np.nan
        at_lo = c0 + vl_lo * (c1 + vl_lo * (c2 + vl_lo * c3))
        thresholds = np.where(at_lo >= cfg.vl_psnr, vl_lo, first_rising)

        # slope(R) - nzs_slope = qa R^2 + qb R + qc dips below 0 between two
        # roots only when the parabola opens upward. The roots are taken in
        # the form that avoids cancellation; q is never 0 when disc > 0.
        qa, qb, qc = 3.0 * c3, 2.0 * c2, c1 - cfg.nzs_slope
        disc = qb * qb - 4.0 * qa * qc
        with np.errstate(all="ignore"):
            sqrt_disc = np.sqrt(disc)
            q = np.where(qb != 0.0, -0.5 * (qb + np.copysign(sqrt_disc, qb)), 0.5 * sqrt_disc)
            r1, r2 = q / qa, qc / q
        dip_lo, dip_hi = np.maximum(np.minimum(r1, r2), lo), np.minimum(np.maximum(r1, r2), hi)
        dips = (qa > 0.0) & (disc > 0.0) & (dip_lo < dip_hi)

        thresholds, dip_lo, dip_hi, dips = (x.tolist() for x in (thresholds, dip_lo, dip_hi, dips))
        vl, nzs = {}, {}
        for ci, cluster in enumerate(clusters):
            for ti, tier in enumerate(tiers):
                vl[(cluster, tier)] = None if math.isnan(thresholds[ti][ci]) else thresholds[ti][ci]
                nzs[(cluster, tier)] = (dip_lo[ti][ci], dip_hi[ti][ci]) if dips[ti][ci] else None
        set_field = functools.partial(object.__setattr__, self)
        set_field("knees", MappingProxyType(knees))
        set_field("ladders", MappingProxyType(ladders))
        set_field("vl", MappingProxyType(vl))
        set_field("nzs", MappingProxyType(nzs))
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
        check_target(target_r)
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
        return {"recommendations": entries, "savings": savings_report(pairs) if pairs else None}

    def decide(self, cluster: int, native: ResolutionTier, target_r: float, modes: Modes):
        """(tier, proposed bitrate, modes applied, predicted PSNR, notes)
        for every GOP of ``cluster`` measured at ``native``: the ladder's
        tier when trans-sizing is on (the native one otherwise), then the
        target capped at the visually-lossless threshold when one exists
        below it, then dropped to the near-zero-slope interval's lower end
        when it lies inside that interval (endpoints inclusive). The
        proposed bitrate is checked to lie in (0, target]."""
        check_target(target_r)
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
        if modes.vl and threshold is not None and threshold < bitrate:
            applied.append("vl")
            notes.append(f"visually-lossless cap {bitrate:g} -> {threshold:g}")
            bitrate = threshold
        interval = self.nzs[(cluster, tier)]
        if modes.nzs and interval is not None and interval[0] < bitrate <= interval[1]:
            applied.append("nzs")
            notes.append(f"near-zero-slope reduction {bitrate:g} -> {interval[0]:g}")
            bitrate = interval[0]
        if bitrate <= 0:
            raise ValidationError("proposed bitrate must be > 0")
        if bitrate > target_r:
            raise ValidationError("proposed bitrate must never exceed the target")

        final_model = self.model_set.model(cluster, tier)
        predicted = eval_cubic(final_model, bitrate)
        if not final_model.covers(bitrate):
            notes.append("prediction extrapolates beyond the fitted bitrate span")
        return tier, bitrate, tuple(applied), predicted, tuple(notes)
