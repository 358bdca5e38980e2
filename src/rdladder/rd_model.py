"""Cubic quality-vs-bitrate models: evaluation, differentiation, and
least-squares fitting.

Quality Q (PSNR, dB) is modelled as Q(R) = c0 + c1*R + c2*R^2 + c3*R^3
over bitrate R in Mbps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConditioningError, InsufficientDataError, ValidationError

PointSeq = Sequence[tuple[float, float]]

# Column-scaled least squares beyond this condition number is not trusted.
_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class CubicRD:
    """A fitted cubic R-D curve plus the bitrate interval the fit is
    trusted on. Evaluation outside ``valid_range`` is allowed; callers that
    care flag it as extrapolation."""

    c0: float
    c1: float
    c2: float
    c3: float
    valid_range: tuple[float, float]

    def __post_init__(self):
        for name in ("c0", "c1", "c2", "c3"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"coefficient {name} is not finite")
        lo, hi = self.valid_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("valid_range bounds must be finite")
        if lo <= 0 or lo >= hi:
            raise ValidationError(f"valid_range must satisfy 0 < lo < hi, got ({lo}, {hi})")

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.c0, self.c1, self.c2, self.c3)

    def covers(self, r: float) -> bool:
        lo, hi = self.valid_range
        return lo <= r <= hi


def _check_bitrate(r):
    """``r`` checked finite and >= 0: a float as it is, which the plain
    arithmetic of the callers takes without numpy's per-call overhead, and
    anything else as an array. Both give the same IEEE operations."""
    if type(r) is float:
        if not math.isfinite(r):
            raise ValidationError("bitrate must be finite")
        if r < 0:
            raise ValidationError("bitrate must be >= 0")
        return r
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("bitrate must be finite")
    if np.any(arr < 0):
        raise ValidationError("bitrate must be >= 0")
    return arr


def eval_cubic(model: CubicRD, r):
    """Quality in dB at bitrate ``r`` (Mbps); scalar in, float out, array
    in, array out.

    Pure Horner evaluation, no clamping: range policy belongs to callers.
    """
    x = _check_bitrate(r)
    out = model.c0 + x * (model.c1 + x * (model.c2 + x * model.c3))
    return float(out) if type(x) is float or x.ndim == 0 else out


def eval_derivative(model: CubicRD, r):
    """Slope dQ/dR in dB per Mbps at bitrate ``r``; scalar in, float out."""
    x = _check_bitrate(r)
    out = model.c1 + x * (2.0 * model.c2 + x * (3.0 * model.c3))
    return float(out) if type(x) is float or x.ndim == 0 else out


def _as_points(points: PointSeq) -> tuple[np.ndarray, np.ndarray]:
    pts = list(points)
    if not pts:
        raise InsufficientDataError("no points given")
    rs = np.asarray([p[0] for p in pts], dtype=float)
    qs = np.asarray([p[1] for p in pts], dtype=float)
    if not (np.all(np.isfinite(rs)) and np.all(np.isfinite(qs))):
        raise ValidationError("points contain non-finite values")
    return rs, qs


def _distinct_count(values: np.ndarray) -> int:
    """How many distinct values a non-empty array holds. ``np.unique``
    gives the same, but on numpy 2.x its first call imports numpy.ma,
    which costs every ``train`` process 13-18 ms."""
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def fit_polynomial(points: PointSeq) -> CubicRD:
    """Least-squares cubic fit through ``points``.

    The system is solved via SVD on a column-scaled Vandermonde matrix
    rather than the normal equations; narrow bitrate ranges make the raw
    normal system needlessly ill-conditioned.
    """
    rs, qs = _as_points(points)
    n_distinct = _distinct_count(rs)
    if n_distinct < 4:
        raise InsufficientDataError(f"a cubic needs at least 4 distinct bitrates, got {n_distinct}")

    vand = rs[:, None] ** np.arange(4)[None, :]
    scale = np.linalg.norm(vand, axis=0)
    scale[scale == 0.0] = 1.0
    coef, _, rank, sv = np.linalg.lstsq(vand / scale, qs, rcond=None)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if rank < 4 or condition > _MAX_CONDITION:
        raise ConditioningError(
            f"normal system is numerically singular (condition ~ {condition:.3e})",
            condition=condition,
        )
    coef = coef / scale
    return CubicRD(*coef, valid_range=(float(rs.min()), float(rs.max())))
