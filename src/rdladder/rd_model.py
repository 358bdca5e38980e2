"""Cubic quality-vs-bitrate models: evaluation, differentiation, and
least-squares fitting with a small model-family comparison.

Quality Q (PSNR, dB) is modelled as Q(R) = c0 + c1*R + c2*R^2 + c3*R^3
over bitrate R in Mbps. Lower-degree fits are stored in the same shape
with the upper coefficients zeroed, so every downstream consumer deals
with exactly one curve type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConditioningError, InsufficientDataError, ValidationError

PointSeq = Sequence[tuple[float, float]]

# Tie tolerance (dB^2) under which two family MSEs count as equal and the
# simpler family wins.
_MSE_TIE_TOL = 1e-12

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
    arr = _check_bitrate(r)
    out = model.c0 + arr * (model.c1 + arr * (model.c2 + arr * model.c3))
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def eval_derivative(model: CubicRD, r):
    """Slope dQ/dR in dB per Mbps at bitrate ``r``; scalar in, float out."""
    arr = _check_bitrate(r)
    out = model.c1 + arr * (2.0 * model.c2 + arr * (3.0 * model.c3))
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


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


def fit_polynomial(points: PointSeq, degree: int) -> CubicRD:
    """Least-squares polynomial fit of the given degree (1, 2 or 3),
    returned as a CubicRD with the unused high-order coefficients zero.

    The system is solved via SVD on a column-scaled Vandermonde matrix
    rather than the normal equations; narrow bitrate ranges make the raw
    normal system needlessly ill-conditioned.
    """
    if degree not in (1, 2, 3):
        raise ValidationError(f"degree must be 1, 2 or 3, got {degree}")
    rs, qs = _as_points(points)
    n_distinct = _distinct_count(rs)
    if n_distinct < degree + 1:
        raise InsufficientDataError(
            f"degree {degree} needs at least {degree + 1} distinct bitrates, got {n_distinct}"
        )

    vand = rs[:, None] ** np.arange(degree + 1)[None, :]
    scale = np.linalg.norm(vand, axis=0)
    scale[scale == 0.0] = 1.0
    coef, _, rank, sv = np.linalg.lstsq(vand / scale, qs, rcond=None)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if rank < degree + 1 or condition > _MAX_CONDITION:
        raise ConditioningError(
            f"normal system is numerically singular (condition ~ {condition:.3e})",
            condition=condition,
        )
    coef = coef / scale

    full = np.zeros(4)
    full[: degree + 1] = coef
    return CubicRD(*full, valid_range=(float(rs.min()), float(rs.max())))


@dataclass(frozen=True)
class LogFit:
    """Least-squares fit of Q = a*log(b*R).

    The fit itself is linear in (a, intercept) with intercept = a*log(b);
    ``predict`` uses that linear form directly, which stays exact in the
    degenerate a -> 0 case where b is reported as 1.
    """

    a: float
    b: float
    intercept: float

    def predict(self, r) -> float:
        arr = np.asarray(r, dtype=float)
        out = self.a * np.log(arr) + self.intercept
        return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def fit_log(points: PointSeq) -> LogFit:
    """Fit Q = a*log(b*R) by linearising to a*log(R) + a*log(b)."""
    rs, qs = _as_points(points)
    if rs.size < 2:
        raise InsufficientDataError("log fit needs at least 2 points")
    if np.any(rs <= 0):
        raise ValidationError("log fit requires all bitrates > 0")
    design = np.column_stack([np.log(rs), np.ones_like(rs)])
    (a, intercept), _, _, _ = np.linalg.lstsq(design, qs, rcond=None)
    b = 1.0 if abs(a) < 1e-12 else float(math.exp(intercept / a))
    return LogFit(a=float(a), b=b, intercept=float(intercept))


FAMILIES = ("linear", "poly2", "poly3", "log")


@dataclass(frozen=True)
class FitReport:
    """Per-family mean squared error and the winning family.

    Families that failed to fit are absent from ``mse`` and carry their
    error message in ``failures`` instead of a fake zero.
    """

    mse: Mapping[str, float]
    chosen: str
    failures: Mapping[str, str] = field(default_factory=dict)


def _mse(predicted: np.ndarray, qs: np.ndarray) -> float:
    resid = predicted - qs
    return float(np.mean(resid * resid))


def compare_fits(points: PointSeq) -> FitReport:
    """Fit all four families to the same points and report per-family MSE.

    The winner is the minimum-MSE family; MSEs within 1e-12 dB^2 of the
    minimum count as ties and resolve toward the simpler family, in the
    order linear, poly2, poly3, log.
    """
    rs, qs = _as_points(points)
    if _distinct_count(rs) < 4:
        raise InsufficientDataError("fit comparison needs at least 4 distinct bitrates")

    mse: dict[str, float] = {}
    failures: dict[str, str] = {}
    for family, degree in (("linear", 1), ("poly2", 2), ("poly3", 3)):
        try:
            model = fit_polynomial(points, degree)
            mse[family] = _mse(eval_cubic(model, rs), qs)
        except (ValidationError, ConditioningError) as exc:
            failures[family] = str(exc)
    try:
        logfit = fit_log(points)
        mse["log"] = _mse(logfit.predict(rs), qs)
    except (ValidationError, ConditioningError) as exc:
        failures["log"] = str(exc)

    if not mse:
        raise ConditioningError("no model family could be fitted")
    best = min(mse.values())
    chosen = next(f for f in FAMILIES if f in mse and mse[f] <= best + _MSE_TIE_TOL)
    return FitReport(mse=mse, chosen=chosen, failures=failures)
