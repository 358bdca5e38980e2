"""Fixed-grid R-D vectors, K-means clustering of them, and cluster
assignment for new measurements.

Each GOP's measured curve is resampled onto a shared bitrate grid, the
resulting PSNR vectors are clustered per resolution tier with K-means
(k-means++ seeding, Lloyd iterations), and each cluster centroid gets a
cubic fit. Cluster indices are 1-based in the assembled model; raw
K-means labels are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import CoverageError, InsufficientDataError, ValidationError
from .rd_model import CubicRD, fit_polynomial
from .tiers import ResolutionTier

if TYPE_CHECKING:  # ingest imports this module
    from .ingest import MeasurementSet

KMEANS_MAX_ITER = 300
KMEANS_DISPLACEMENT_TOL = 1e-6  # dB; max centroid movement at convergence


@dataclass(frozen=True)
class BitrateGrid:
    """Strictly increasing bitrates (Mbps) all PSNR vectors align to."""

    bitrates: tuple[float, ...]

    def __post_init__(self):
        if len(self.bitrates) < 4:
            raise ValidationError("grid needs at least 4 bitrates")
        arr = np.asarray(self.bitrates, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("grid bitrates must be finite")
        if arr[0] <= 0:
            raise ValidationError("grid bitrates must be > 0")
        if np.any(np.diff(arr) <= 0):
            raise ValidationError("grid bitrates must be strictly increasing")

    @classmethod
    def linspace(cls, lo: float = 0.2, hi: float = 6.0, count: int = 10) -> "BitrateGrid":
        return cls(tuple(float(x) for x in np.linspace(lo, hi, count)))

    @classmethod
    def default(cls) -> "BitrateGrid":
        return cls.linspace()

    def as_array(self) -> np.ndarray:
        return np.asarray(self.bitrates, dtype=float)

    @property
    def span(self) -> tuple[float, float]:
        return (self.bitrates[0], self.bitrates[-1])

    def __len__(self) -> int:
        return len(self.bitrates)


@dataclass(frozen=True, eq=False)
class TierVectors:
    """PSNR vectors of GOPs at one resolution tier, on one bitrate grid:
    row ``i`` of ``psnr`` belongs to GOP ``gop_ids[i]``."""

    tier: ResolutionTier
    gop_ids: tuple[str, ...]
    psnr: np.ndarray

    def __post_init__(self):
        psnr = np.asarray(self.psnr, dtype=float)
        object.__setattr__(self, "psnr", psnr)
        if psnr.ndim != 2 or len(psnr) != len(self.gop_ids):
            raise ValidationError("PSNR vectors must form a matrix with one row per GOP")
        finite = np.isfinite(psnr).all(axis=1) & (psnr.shape[1] > 0)
        in_range = ((psnr > 0) & (psnr <= 100)).all(axis=1)
        bad = np.flatnonzero(~(finite & in_range))
        if bad.size:
            gop_id = self.gop_ids[bad[0]]
            if not finite[bad[0]]:
                raise ValidationError(f"gop {gop_id!r}: PSNR vector must be finite and non-empty")
            raise ValidationError(f"gop {gop_id!r}: PSNR values must be in (0, 100] dB")

    def __len__(self) -> int:
        return len(self.gop_ids)


def resample_to_grid(
    mset: MeasurementSet, grid: BitrateGrid
) -> dict[ResolutionTier, TierVectors]:
    """Piecewise-linear resampling of every (gop, tier) group of ``mset``
    onto ``grid``. Returns one matrix per tier, with a row per GOP in the
    order its group first appears in the measurements.

    Never extrapolates: every group's samples must span the whole grid.
    """
    gx = grid.as_array()
    starts, ends = mset.offsets[:-1], mset.offsets[1:]
    few = ends - starts < 2
    lo, hi = mset.bitrates[starts], mset.bitrates[ends - 1]
    bad = np.flatnonzero(few | (lo > gx[0]) | (hi < gx[-1]))
    if bad.size:
        g = bad[0]
        if few[g]:
            raise InsufficientDataError("resampling needs at least 2 samples")
        outside = gx[0] if gx[0] < lo[g] else gx[gx > hi[g]][0]
        raise CoverageError(
            f"gop {mset.groups[g][0]!r}: grid bitrate {outside:g} Mbps outside measured span "
            f"[{lo[g]:g}, {hi[g]:g}]"
        )

    # np.interp over every group at once, by its formula and rules: a grid
    # point's left sample is the group's last one at or below it, and a
    # grid point on a sample takes that sample's PSNR (the grid ends inside
    # every group, so only there can the right neighbour be missing).
    # np.interp also retries a NaN from the right sample; between finite
    # samples no NaN arises, and next to a non-finite one both results are
    # non-finite, which TierVectors rejects.
    bitrates, psnr = mset.bitrates, mset.psnr
    left = starts[:, None] - 1 + np.add.reduceat(gx[:, None] >= bitrates, starts, axis=1).T
    right = np.minimum(left + 1, ends[:, None] - 1)
    x0, y0, x1, y1 = bitrates[left], psnr[left], bitrates[right], psnr[right]
    with np.errstate(all="ignore"):
        values = np.where(x0 == gx, y0, (y1 - y0) / (x1 - x0) * (gx - x0) + y0)

    members: dict[ResolutionTier, list[int]] = {}
    for g, (_, tier) in enumerate(mset.groups):
        members.setdefault(tier, []).append(g)
    return {
        tier: TierVectors(tier, tuple(mset.groups[g][0] for g in rows), values[rows])
        for tier, rows in members.items()
    }


@dataclass(frozen=True)
class KMeansResult:
    """Labels are 0-based row indices into ``centroids``."""

    labels: tuple[int, ...]
    centroids: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: tuple[float, ...]


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    for i in range(1, k):
        d2 = _sq_dists(x, centers[:i]).min(axis=1)
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = x[idx]
    return centers


def kmeans(
    vectors: np.ndarray,
    k: int,
    seed: int = 42,
    init_centroids: np.ndarray | None = None,
) -> KMeansResult:
    """Deterministic K-means over the rows of a [vectors, grid] PSNR
    matrix, such as one tier's ``TierVectors.psnr``.

    k-means++ seeding from ``seed``, Lloyd iterations, Euclidean distance.
    Converges when the largest centroid displacement drops below
    ``KMEANS_DISPLACEMENT_TOL`` dB or after ``KMEANS_MAX_ITER`` iterations.
    A centroid that loses all members is re-seeded at the point farthest
    from its currently assigned centroid. ``init_centroids`` overrides the
    k-means++ seeding (useful for reproducing specific runs).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2:
        raise ValidationError("k-means expects a [vectors, grid] matrix")
    if len(x) < k:
        raise InsufficientDataError(f"k-means needs at least k={k} vectors, got {len(x)}")

    rng = np.random.default_rng(seed)
    if init_centroids is not None:
        centers = np.array(init_centroids, dtype=float, copy=True)
        if centers.shape != (k, x.shape[1]):
            raise ValidationError(f"init_centroids must have shape ({k}, {x.shape[1]})")
    else:
        centers = _kmeanspp_init(x, k, rng)

    history: list[float] = []
    labels = np.zeros(len(x), dtype=int)
    for iteration in range(1, KMEANS_MAX_ITER + 1):
        d2 = _sq_dists(x, centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(len(x)), labels].sum())
        history.append(inertia)

        new_centers = centers.copy()
        for j in range(k):
            members = x[labels == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        empties = [j for j in range(k) if not np.any(labels == j)]
        if empties:
            # Farthest-point re-seed; each empty centroid takes the next
            # farthest point so two empties never collapse onto one point.
            point_d2 = d2[np.arange(len(x)), labels]
            order = np.argsort(point_d2)[::-1]
            for empty, idx in zip(empties, order):
                new_centers[empty] = x[idx]

        displacement = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if displacement < KMEANS_DISPLACEMENT_TOL and not empties:
            break

    d2 = _sq_dists(x, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(x)), labels].sum())
    if not history or inertia < history[-1]:
        history.append(inertia)
    return KMeansResult(
        labels=tuple(int(v) for v in labels),
        centroids=centers,
        inertia=inertia,
        n_iter=iteration,
        inertia_history=tuple(history),
    )


@dataclass(frozen=True)
class ClusterModelSet:
    """The trained model: per (cluster, tier) a centroid vector and its
    cubic fit, plus the grid they live on. Cluster indices are 1-based."""

    k: int
    grid: BitrateGrid
    tiers: tuple[ResolutionTier, ...]
    centroids: Mapping[tuple[int, ResolutionTier], tuple[float, ...]]
    models: Mapping[tuple[int, ResolutionTier], CubicRD]
    seed: int
    provenance: str

    def __post_init__(self):
        expected = {(c, t) for c in self.clusters for t in self.tiers}
        if set(self.models) != expected or set(self.centroids) != expected:
            raise ValidationError("model set must hold exactly k x |tiers| entries")
        for key, centroid in self.centroids.items():
            if len(centroid) != len(self.grid):
                raise ValidationError(f"centroid {key} length does not match grid")

    @property
    def clusters(self) -> range:
        return range(1, self.k + 1)

    def has_tier(self, tier: ResolutionTier) -> bool:
        return tier in self.tiers

    def model(self, cluster: int, tier: ResolutionTier) -> CubicRD:
        try:
            return self.models[(cluster, tier)]
        except KeyError:
            raise ValidationError(f"model has no entry for cluster {cluster} at {tier}") from None

    def centroid(self, cluster: int, tier: ResolutionTier) -> tuple[float, ...]:
        try:
            return self.centroids[(cluster, tier)]
        except KeyError:
            raise ValidationError(f"model has no centroid for cluster {cluster} at {tier}") from None


def _greedy_match(
    ref_sets: list[set], ref_means: list[float], other_sets: list[set], other_means: list[float]
) -> dict[int, int]:
    """Match each reference cluster (row) to one other-tier cluster (column).

    Primary signal is shared GOP membership; mean-PSNR distance breaks ties
    and covers tiers with disjoint GOP ids. Returns {ref_index: other_index}.
    """
    k = len(ref_sets)
    pairs = []
    for i in range(k):
        for j in range(k):
            overlap = len(ref_sets[i] & other_sets[j])
            pairs.append((-overlap, abs(ref_means[i] - other_means[j]), i, j))
    pairs.sort()
    mapping: dict[int, int] = {}
    used = set()
    for _, _, i, j in pairs:
        if i in mapping or j in used:
            continue
        mapping[i] = j
        used.add(j)
    return mapping


def train_details(
    vectors_by_tier: Mapping[ResolutionTier, TierVectors],
    grid: BitrateGrid,
    k: int = 6,
    seed: int = 42,
) -> tuple[ClusterModelSet, dict[ResolutionTier, KMeansResult]]:
    """Cluster each tier independently, fit a cubic per centroid, and
    assemble the full model. Also returns the per-tier K-means results,
    for callers that report inertia or convergence diagnostics.

    The highest tier is the reference: its clusters are numbered 1..k by
    ascending mean centroid PSNR, and every other tier's clusters are
    matched to reference clusters greedily by shared GOP membership (mean
    PSNR distance as tie-break/fallback).
    """
    if not vectors_by_tier:
        raise InsufficientDataError("no training vectors")
    tiers = tuple(sorted(vectors_by_tier))
    for tier in tiers:
        vectors = vectors_by_tier[tier]
        if len(vectors) < k:
            raise InsufficientDataError(f"tier {tier}: {len(vectors)} vectors < k={k}")
        if vectors.psnr.shape[1] != len(grid):
            raise ValidationError(f"gop {vectors.gop_ids[0]!r}: vector length does not match grid")
        if vectors.tier != tier:
            raise ValidationError(f"gop {vectors.gop_ids[0]!r}: tier mismatch in training groups")

    results = {tier: kmeans(vectors_by_tier[tier].psnr, k, seed) for tier in tiers}

    def member_sets(tier: ResolutionTier) -> list[set]:
        sets: list[set] = [set() for _ in range(k)]
        for gop_id, label in zip(vectors_by_tier[tier].gop_ids, results[tier].labels):
            sets[label].add(gop_id)
        return sets

    ref = max(tiers)
    ref_means = results[ref].centroids.mean(axis=1)
    ref_order = list(np.argsort(ref_means, kind="stable"))  # cluster 1 = lowest mean PSNR
    ref_sets = member_sets(ref)

    centroids: dict[tuple[int, ResolutionTier], tuple[float, ...]] = {}
    models: dict[tuple[int, ResolutionTier], CubicRD] = {}
    for tier in tiers:
        if tier == ref:
            label_for_cluster = {c: ref_order[c - 1] for c in range(1, k + 1)}
        else:
            other_means = list(results[tier].centroids.mean(axis=1))
            matched = _greedy_match(
                [ref_sets[ref_order[c - 1]] for c in range(1, k + 1)],
                [float(ref_means[ref_order[c - 1]]) for c in range(1, k + 1)],
                member_sets(tier),
                other_means,
            )
            label_for_cluster = {c: matched[c - 1] for c in range(1, k + 1)}
        for cluster in range(1, k + 1):
            centroid = results[tier].centroids[label_for_cluster[cluster]]
            centroids[(cluster, tier)] = tuple(float(v) for v in centroid)
            models[(cluster, tier)] = fit_polynomial(list(zip(grid.bitrates, centroid)), 3)

    model_set = ClusterModelSet(
        k=k,
        grid=grid,
        tiers=tiers,
        centroids=centroids,
        models=models,
        seed=seed,
        provenance="trained",
    )
    return model_set, results


def nearest_clusters(
    coeffs: np.ndarray, bitrates: np.ndarray, psnr: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assign a batch of GOPs measured at one tier to the cluster whose
    centroid curve is nearest to their (bitrate, psnr) points, by RMS PSNR
    residual. Ties resolve toward the lower cluster index.

    ``coeffs[j]`` holds cluster j+1's cubic as (c0, c1, c2, c3). GOP g owns
    points ``offsets[g]:offsets[g + 1]`` of ``bitrates`` and ``psnr``, at
    least one. Returns the 1-based clusters and their RMS residuals, one
    per GOP.
    """
    r = bitrates[:, None]
    c0, c1, c2, c3 = coeffs.T
    resid = psnr[:, None] - (c0 + r * (c1 + r * (c2 + r * c3)))  # [point, cluster]
    counts = offsets[1:] - offsets[:-1]
    rms = np.sqrt(np.add.reduceat(resid * resid, offsets[:-1], axis=0) / counts[:, None])
    best = rms.argmin(axis=1)
    return best + 1, rms[np.arange(len(best)), best]
