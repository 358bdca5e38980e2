"""Independent oracle for the paper's per-GOP decision rules.

Everything here works from raw cubic coefficients (c0, c1, c2, c3), with
quality Q(R) = c0 + c1*R + c2*R^2 + c3*R^3, using plain numpy. Thresholds
and intervals come from a dense scan followed by bisection, never from a
polynomial root finder, so the oracle shares no failure mode with the
program it checks:

- nearest curve: smallest RMS residual over the GOP's points, ties to the
  lower cluster index;
- ladder tier: the tier whose curve is highest at the target clamped to
  the operating range, ties to the higher tier;
- visually-lossless (VL) threshold: the first rising crossing of the
  VL quality inside the VL search range (the range minimum when the curve
  already starts above it);
- near-zero-slope (NZS) interval: where the slope is below the NZS
  threshold inside the operating range.
"""

from __future__ import annotations

import numpy as np

SCAN_STEP = 1e-3  # Mbps between scanned bitrates
BISECT_TOL = 1e-12  # Mbps
# Targets and GOPs closer than this to a decision boundary have no
# well-defined answer at float precision; the input generator avoids them.
AMBIGUITY = 1e-6

VL_PSNR = 40.0
NZS_SLOPE = 0.1
OPERATING_RANGE = (0.2, 6.0)
VL_SEARCH_RANGE = (0.2, 12.0)


def quality(coeffs, r):
    """Q(r) for coefficient rows ``coeffs[..., 4]`` (ascending order)."""
    c = np.asarray(coeffs, dtype=float)
    r = np.asarray(r, dtype=float)
    return c[..., 0] + c[..., 1] * r + c[..., 2] * r**2 + c[..., 3] * r**3


def slope(coeffs, r):
    c = np.asarray(coeffs, dtype=float)
    r = np.asarray(r, dtype=float)
    return c[..., 1] + 2.0 * c[..., 2] * r + 3.0 * c[..., 3] * r**2


def _bisect(pred, lo: float, hi: float) -> float:
    """Boundary between ``lo`` (where pred is False) and ``hi`` (True),
    or the reverse: returns the point where ``pred`` flips."""
    want = bool(pred(hi))
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if bool(pred(mid)) == want:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _scan(pred, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    n = int(np.ceil((hi - lo) / SCAN_STEP)) + 1
    xs = np.linspace(lo, hi, n)
    return xs, np.asarray(pred(xs), dtype=bool)


def flips(pred, lo: float, hi: float) -> list[float]:
    """Every point in [lo, hi] where the vectorised predicate changes value."""
    xs, vals = _scan(pred, lo, hi)
    idx = np.flatnonzero(vals[1:] != vals[:-1])
    return [_bisect(pred, float(xs[i]), float(xs[i + 1])) for i in idx]


def first_rising_crossing(coeffs, level: float, lo: float, hi: float) -> float | None:
    """Smallest bitrate in [lo, hi] where Q rises to ``level``; ``lo`` when
    Q already starts at or above it; None when it never gets there."""
    def above(r):
        return quality(coeffs, r) >= level

    if above(lo):
        return lo
    xs, vals = _scan(above, lo, hi)
    rises = np.flatnonzero(~vals[:-1] & vals[1:])
    if rises.size == 0:
        return None
    i = int(rises[0])
    return _bisect(above, float(xs[i]), float(xs[i + 1]))


def low_slope_interval(coeffs, threshold: float, lo: float, hi: float):
    """(start, end) of the set in [lo, hi] where the slope is below
    ``threshold``; None when it is empty. Raises when the set is not one
    interval, which a cubic with positive c3 cannot produce."""
    def flat(r):
        return slope(coeffs, r) < threshold

    xs, vals = _scan(flat, lo, hi)
    if not vals.any():
        return None
    edges = flips(flat, lo, hi)
    start = lo if vals[0] else edges.pop(0)
    end = hi if vals[-1] else edges.pop(0)
    if edges:
        raise ValueError("slope is below the threshold on more than one interval")
    return (start, end)


def crossings(a, b, lo: float, hi: float) -> list[float]:
    """Bitrates in [lo, hi] where curves ``a`` and ``b`` cross."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return flips(lambda r: quality(diff, r) > 0.0, lo, hi)


class Oracle:
    """The decision rules applied to one coefficient table.

    ``coeffs`` maps (cluster, tier name) to (c0, c1, c2, c3); ``tiers``
    lists tier names from lowest to highest resolution. All three modes
    (trans-sizing, VL cap, NZS reduction) are on.
    """

    def __init__(self, coeffs: dict, tiers: list[str]):
        self.tiers = list(tiers)
        self.clusters = sorted({c for c, _ in coeffs})
        self.table = np.array(
            [[coeffs[(c, t)] for t in self.tiers] for c in self.clusters], dtype=float
        )  # [cluster, tier, 4]
        lo, hi = OPERATING_RANGE
        self.vl: dict[tuple[int, str], float | None] = {}
        self.nzs: dict[tuple[int, str], tuple[float, float] | None] = {}
        boundaries: list[float] = []
        for ci, c in enumerate(self.clusters):
            for ti, t in enumerate(self.tiers):
                curve = self.table[ci, ti]
                self.vl[(c, t)] = first_rising_crossing(curve, VL_PSNR, *VL_SEARCH_RANGE)
                self.nzs[(c, t)] = low_slope_interval(curve, NZS_SLOPE, lo, hi)
                if self.vl[(c, t)] is not None:
                    boundaries.append(self.vl[(c, t)])
                if self.nzs[(c, t)] is not None:
                    boundaries.extend(self.nzs[(c, t)])
                for other in self.table[ci, ti + 1 :]:
                    boundaries.extend(crossings(curve, other, lo, hi))
        self.boundaries = np.array(sorted(boundaries))

    def target_is_ambiguous(self, target: float) -> bool:
        """True when ``target`` sits on a knee, VL threshold or NZS edge of
        any curve, where rounding alone could change the answer."""
        return bool(np.any(np.abs(self.boundaries - target) < AMBIGUITY))

    def assign(self, tier: str, bitrates, psnrs) -> tuple[np.ndarray, np.ndarray]:
        """Nearest cluster per GOP (rows of ``bitrates``/``psnrs``, all at
        ``tier``) and its RMS margin over the runner-up."""
        curves = self.table[:, self.tiers.index(tier)]  # [cluster, 4]
        r = np.asarray(bitrates, dtype=float)[:, None, :]
        q = np.asarray(psnrs, dtype=float)[:, None, :]
        rms = np.sqrt(np.mean((q - quality(curves[None, :, None, :], r)) ** 2, axis=2))
        best = np.argmin(rms, axis=1)  # first minimum: the lower index wins ties
        ordered = np.sort(rms, axis=1)
        return np.asarray(self.clusters)[best], ordered[:, 1] - ordered[:, 0]

    def decide(self, cluster: int, target: float) -> tuple[str, float, float]:
        """(tier, proposed bitrate, predicted PSNR) for a GOP of ``cluster``."""
        ci = self.clusters.index(cluster)
        lo, hi = OPERATING_RANGE
        at = quality(self.table[ci], min(max(target, lo), hi))
        ti = len(at) - 1 - int(np.argmax(at[::-1]))  # ties to the higher tier
        tier = self.tiers[ti]
        proposed = target
        vl = self.vl[(cluster, tier)]
        if vl is not None and proposed > vl:
            proposed = vl
        nzs = self.nzs[(cluster, tier)]
        if nzs is not None and nzs[0] <= proposed <= nzs[1]:
            proposed = nzs[0]
        return tier, proposed, float(quality(self.table[ci, ti], proposed))
