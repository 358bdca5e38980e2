"""Fixed-grid R-D vectors, K-means clustering of them, and cluster
assignment for new measurements.

Each GOP's measured curve at every resolution tier is resampled onto a
shared bitrate grid, one matrix row per (gop, tier) group. The GOPs are
clustered with one K-means over their tier rows laid end to end (k-means++
seeding, Lloyd iterations), so a GOP has one cluster at every tier, and
each (cluster, tier) block of a centroid gets a cubic fit. Cluster
indices are 1-based in the assembled model; raw K-means labels are
0-based.
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


def resample_to_grid(mset: MeasurementSet, grid: BitrateGrid) -> np.ndarray:
    """Piecewise-linear resampling of every (gop, tier) group of ``mset``
    onto ``grid``: a [groups, grid] PSNR matrix, row ``g`` for group ``g``.

    Never extrapolates: every group's samples must span the whole grid.
    Every resampled value must be finite and in (0, 100] dB, which a
    MeasurementSet built by hand need not give.
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
    # non-finite, which is rejected below.
    bitrates, psnr = mset.bitrates, mset.psnr
    left = starts[:, None] - 1 + np.add.reduceat(gx[:, None] >= bitrates, starts, axis=1).T
    right = np.minimum(left + 1, ends[:, None] - 1)
    x0, y0, x1, y1 = bitrates[left], psnr[left], bitrates[right], psnr[right]
    with np.errstate(all="ignore"):
        values = np.where(x0 == gx, y0, (y1 - y0) / (x1 - x0) * (gx - x0) + y0)

    finite = np.isfinite(values).all(axis=1)
    bad = np.flatnonzero(~(finite & ((values > 0) & (values <= 100)).all(axis=1)))
    if bad.size:
        gop_id = mset.groups[bad[0]][0]
        if not finite[bad[0]]:
            raise ValidationError(f"gop {gop_id!r}: PSNR vector must be finite")
        raise ValidationError(f"gop {gop_id!r}: PSNR values must be in (0, 100] dB")
    return values


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


def kmeans(vectors: np.ndarray, k: int, seed: int = 42) -> KMeansResult:
    """Deterministic K-means over the rows of a PSNR matrix, such as
    ``train_details``' [GOPs, tiers x grid] matrix of each GOP's resampled
    tier vectors laid end to end.

    k-means++ seeding from ``seed``, Lloyd iterations, Euclidean distance.
    Converges when the largest centroid displacement drops below
    ``KMEANS_DISPLACEMENT_TOL`` dB or after ``KMEANS_MAX_ITER`` iterations.
    A centroid that loses all members is re-seeded at the point farthest
    from its currently assigned centroid.
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

    centers = _kmeanspp_init(x, k, np.random.default_rng(seed))

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
        if self.k < 1:
            raise ValidationError(f"model set needs k >= 1, got {self.k}")
        if not self.tiers:
            raise ValidationError("model set needs at least one tier")
        if len(set(self.tiers)) != len(self.tiers):
            repeated = next(t for i, t in enumerate(self.tiers) if t in self.tiers[:i])
            raise ValidationError(f"model set lists tier {repeated} twice")
        expected = {(c, t) for c in self.clusters for t in self.tiers}
        if set(self.models) != expected or set(self.centroids) != expected:
            raise ValidationError("model set must hold exactly k x |tiers| entries")
        for (cluster, tier), centroid in self.centroids.items():
            if len(centroid) != len(self.grid):
                raise ValidationError(f"centroid for cluster {cluster} at {tier}: length does not match grid")

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


def train_details(
    mset: MeasurementSet, grid: BitrateGrid, k: int = 6, seed: int = 42
) -> tuple[ClusterModelSet, KMeansResult]:
    """Resample ``mset`` onto ``grid``, cluster the GOPs measured at every
    tier with one K-means over their tier vectors laid end to end, lowest
    tier first, fit a cubic to each (cluster, tier) block of every
    centroid, and assemble the full model. Also returns the K-means result
    (inertia and convergence diagnostics), whose rows are the clustered
    GOPs in sorted ``gop_id`` order.

    GOPs missing a tier are left out. Clusters are numbered 1..k by
    ascending mean PSNR of their centroid's highest-tier block.
    """
    values = resample_to_grid(mset, grid)
    tiers = tuple(sorted({tier for _, tier in mset.groups}))
    gop_ids = sorted({gop_id for gop_id, _ in mset.groups})
    row_of = {gop_id: i for i, gop_id in enumerate(gop_ids)}
    column_of = {tier: j for j, tier in enumerate(tiers)}
    index = np.full((len(gop_ids), len(tiers)), -1)  # [GOP, tier] -> group
    for g, (gop_id, tier) in enumerate(mset.groups):
        index[row_of[gop_id], column_of[tier]] = g
    if np.count_nonzero(index >= 0) < len(mset.groups):
        raise ValidationError("a GOP may have only one group per tier")
    complete = index[(index >= 0).all(axis=1)]
    if len(complete) < k:
        raise InsufficientDataError(
            f"{len(complete)} of {len(gop_ids)} GOPs are measured at every tier, fewer than k={k}"
        )

    result = kmeans(values[complete].reshape(len(complete), -1), k, seed)
    n = len(grid)
    order = np.argsort(result.centroids[:, -n:].mean(axis=1), kind="stable")
    centroids: dict[tuple[int, ResolutionTier], tuple[float, ...]] = {}
    models: dict[tuple[int, ResolutionTier], CubicRD] = {}
    for cluster, label in enumerate(order, start=1):
        for block, tier in enumerate(tiers):
            centroid = result.centroids[label, block * n : (block + 1) * n]
            centroids[(cluster, tier)] = tuple(float(v) for v in centroid)
            models[(cluster, tier)] = fit_polynomial(list(zip(grid.bitrates, centroid)))

    model_set = ClusterModelSet(
        k=k, grid=grid, tiers=tiers, centroids=centroids, models=models, seed=seed, provenance="trained"
    )
    return model_set, result


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
