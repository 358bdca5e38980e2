"""Seeded benchmark inputs, drawn from the published coefficient table.

Every GOP belongs to a random cluster and tier; its points lie on that
curve plus uniform noise of at most NOISE_DB. Observation points are
stratified over the operating range (one per quarter), so a GOP is
seen across the whole curve. A GOP whose nearest curve is not the one
that generated it, or is within oracle.AMBIGUITY dB RMS of the runner-up,
has no well-defined answer and is drawn again; so is a target bitrate
that sits on a decision boundary. The same seed gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from oracle import AMBIGUITY, OPERATING_RANGE, Oracle, quality

TIERS = ["360p", "540p", "720p", "1080p"]
NOISE_DB = 0.1
POINTS_PER_GOP = 4
TRAIN_SAMPLES = 12  # bitrates per GOP and tier: both grid ends plus 10 jittered
CSV_HEADER = "gop_id,resolution,bitrate_mbps,psnr_db"
MODES = ["trans_size", "vl", "nzs"]


@dataclass(frozen=True)
class Expected:
    """The oracle's answer for one GOP."""

    gop_id: str
    cluster: int
    tier: str
    proposed: float
    predicted: float


@dataclass(frozen=True)
class Request:
    body: bytes
    target: float
    expected: tuple[Expected, ...]


@dataclass(frozen=True)
class Gops:
    """GOPs as parallel arrays: generating cluster, native tier index,
    and the (bitrate, PSNR) points."""

    clusters: np.ndarray
    tiers: np.ndarray
    bitrates: np.ndarray
    psnrs: np.ndarray


def _round6(x: np.ndarray) -> np.ndarray:
    """Values as a CSV written with six decimals gives them back."""
    return np.array([float(f"{v:.6f}") for v in x.ravel()]).reshape(x.shape)


def draw_gops(rng, truth: Oracle, n: int, judge: Oracle | None = None, csv: bool = False) -> Gops:
    """``n`` GOPs generated from ``truth``. With ``judge`` None the GOP's
    nearest cluster must be its generating cluster; otherwise only the
    judge's assignment must be unambiguous. ``csv`` rounds the points as a
    measurement CSV will."""
    lo, hi = OPERATING_RANGE
    clusters = np.empty(n, dtype=int)
    tiers = np.empty(n, dtype=int)
    bitrates = np.empty((n, POINTS_PER_GOP))
    psnrs = np.empty((n, POINTS_PER_GOP))
    todo = np.arange(n)
    while todo.size:
        m = todo.size
        clusters[todo] = rng.choice(truth.clusters, size=m)
        tiers[todo] = rng.integers(len(TIERS), size=m)
        strata = (np.arange(POINTS_PER_GOP) + rng.uniform(size=(m, POINTS_PER_GOP))) / POINTS_PER_GOP
        r = lo + strata * (hi - lo)
        curves = truth.table[np.searchsorted(truth.clusters, clusters[todo]), tiers[todo]]
        q = quality(curves[:, None, :], r) + rng.uniform(-NOISE_DB, NOISE_DB, size=r.shape)
        bitrates[todo], psnrs[todo] = (_round6(r), _round6(q)) if csv else (r, q)
        ok = np.zeros(m, dtype=bool)
        for ti, tier in enumerate(TIERS):
            rows = np.flatnonzero(tiers[todo] == ti)
            if rows.size == 0:
                continue
            idx = todo[rows]
            assigned, margin = (judge or truth).assign(tier, bitrates[idx], psnrs[idx])
            good = margin >= AMBIGUITY
            if judge is None:
                good &= assigned == clusters[idx]
            ok[rows] = good
        todo = todo[~ok]
    return Gops(clusters, tiers, bitrates, psnrs)


def draw_target(rng, oracle: Oracle) -> float:
    while True:
        target = float(rng.uniform(*OPERATING_RANGE))
        if not oracle.target_is_ambiguous(target):
            return target


def expected_answers(oracle: Oracle, gops: Gops, ids: list[str], target: float) -> tuple[Expected, ...]:
    out = []
    assigned = np.empty(len(ids), dtype=int)
    for ti, tier in enumerate(TIERS):
        rows = np.flatnonzero(gops.tiers == ti)
        if rows.size:
            assigned[rows] = oracle.assign(tier, gops.bitrates[rows], gops.psnrs[rows])[0]
    for gop_id, cluster in zip(ids, assigned):
        tier, proposed, predicted = oracle.decide(int(cluster), target)
        out.append(Expected(gop_id, int(cluster), tier, proposed, predicted))
    return tuple(out)


def serve_requests(rng, oracle: Oracle, count: int, gops_per_request: int) -> list[Request]:
    """``count`` POST /v1/recommend bodies, one random target each, with
    the oracle's answers."""
    requests = []
    for n in range(count):
        gops = draw_gops(rng, oracle, gops_per_request)
        target = draw_target(rng, oracle)
        ids = [f"q{n}-{i}" for i in range(gops_per_request)]
        doc = {
            "target_bitrate": target,
            "modes": MODES,
            "gops": [
                {
                    "gop_id": gop_id,
                    "tier": TIERS[gops.tiers[i]],
                    "points": [[float(b), float(q)] for b, q in zip(gops.bitrates[i], gops.psnrs[i])],
                }
                for i, gop_id in enumerate(ids)
            ],
        }
        requests.append(
            Request(json.dumps(doc).encode(), target, expected_answers(oracle, gops, ids, target))
        )
    return requests


def training_csv(rng, truth: Oracle, n_gops: int) -> str:
    """Off-grid training measurements: every GOP at every tier, sampled at
    both ends of the operating range and at jittered bitrates between.
    A GOP's bitrates are drawn again until they differ at six decimals, as
    two rows of one GOP and tier at one bitrate would conflict."""
    lo, hi = OPERATING_RANGE
    lines = [CSV_HEADER]
    for g in range(n_gops):
        cluster = int(rng.choice(truth.clusters))
        while True:
            inner = np.sort(rng.uniform(lo, hi, size=TRAIN_SAMPLES - 2))
            r = np.concatenate([[lo], inner, [hi]])
            if np.unique(_round6(r)).size == r.size:
                break
        for ti, tier in enumerate(TIERS):
            curve = truth.table[truth.clusters.index(cluster), ti]
            q = quality(curve, r) + rng.uniform(-NOISE_DB, NOISE_DB, size=r.size)
            lines.extend(f"t{g:05d},{tier},{b:.6f},{v:.6f}" for b, v in zip(r, q))
    return "\n".join(lines) + "\n"


def recommend_csv(rng, truth: Oracle, judge: Oracle, n_gops: int) -> tuple[str, Gops, list[str]]:
    """Measurements of ``n_gops`` GOPs, each at one random native tier,
    whose nearest cluster under ``judge`` (the trained model) is clear."""
    gops = draw_gops(rng, truth, n_gops, judge=judge, csv=True)
    ids = [f"r{i:05d}" for i in range(n_gops)]
    lines = [CSV_HEADER]
    for i, gop_id in enumerate(ids):
        tier = TIERS[gops.tiers[i]]
        lines.extend(
            f"{gop_id},{tier},{b:.6f},{q:.6f}" for b, q in zip(gops.bitrates[i], gops.psnrs[i])
        )
    return "\n".join(lines) + "\n", gops, ids
