import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdladder as rl
from rdladder.clustering import train_details
from rdladder.errors import (
    ConflictError,
    CoverageError,
    InsufficientDataError,
    RDLadderError,
    ValidationError,
)
from rdladder.ingest import MEASUREMENT_HEADER

from helpers import grouped_vectors, observation_batch


def measurements(gop_id, tier, pairs):
    rows = [MEASUREMENT_HEADER] + [f"{gop_id},{tier.name},{r!r},{q!r}" for r, q in pairs]
    return rl.parse_measurements("\n".join(rows) + "\n")


def resampled(gop_id, tier, pairs, grid):
    """The one resampled PSNR vector of a single (gop, tier) group."""
    return rl.resample_to_grid(measurements(gop_id, tier, pairs), grid)[tier].psnr[0].tolist()


def const_vectors(value, count, length=10):
    return np.full((count, length), value)


class TestGrid:
    def test_default(self):
        grid = rl.BitrateGrid.default()
        assert len(grid) == 10
        assert grid.bitrates[0] == 0.2 and grid.bitrates[-1] == 6.0
        assert all(b2 > b1 for b1, b2 in zip(grid.bitrates, grid.bitrates[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            rl.BitrateGrid((1.0, 2.0, 3.0))
        with pytest.raises(ValidationError):
            rl.BitrateGrid((0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ValidationError):
            rl.BitrateGrid((1.0, 2.0, 2.0, 3.0))


def test_tier_vectors_validation(t1080):
    cases = [
        (((30.0, 31.0), (30.0, float("nan"))), "gop 'g1': PSNR vector must be finite and non-empty"),
        (((30.0, 31.0), (0.0, 30.0)), "gop 'g1': PSNR values must be in (0, 100] dB"),
        (((30.0, 101.0), (30.0, 31.0)), "gop 'g0': PSNR values must be in (0, 100] dB"),
        (((), ()), "gop 'g0': PSNR vector must be finite and non-empty"),
    ]
    for rows, message in cases:
        with pytest.raises(ValidationError) as exc:
            rl.TierVectors(t1080, ("g0", "g1"), np.array(rows))
        assert str(exc.value) == message
    with pytest.raises(ValidationError):
        rl.TierVectors(t1080, ("g0",), np.full((2, 4), 30.0))


class TestResample:
    def test_linear_midpoint(self, t720):
        psnr = resampled("g", t720, [(1.0, 30.0), (3.0, 34.0)], rl.BitrateGrid((1.0, 1.5, 2.0, 3.0)))
        assert psnr == [30.0, 31.0, 32.0, 34.0]

    def test_identity_at_grid_bitrates(self, paper_model, t1080):
        grid = rl.BitrateGrid.default()
        model = paper_model.model(4, t1080)
        pairs = [(b, rl.eval_cubic(model, b)) for b in grid.bitrates]
        assert resampled("g", t1080, pairs, grid) == [q for _, q in pairs]

    def test_off_grid_interpolation_stays_close_to_curve(self, paper_model, t720):
        # 20 off-grid samples from the cluster-2 720p curve; the linear
        # interpolant onto the default grid must track the cubic closely.
        grid = rl.BitrateGrid.default()
        model = paper_model.model(2, t720)
        sample_bitrates = np.linspace(0.2, 6.0, 20)
        pairs = [(float(b), rl.eval_cubic(model, float(b))) for b in sample_bitrates]
        psnr = resampled("g", t720, pairs, grid)
        deviations = [abs(q - rl.eval_cubic(model, b)) for b, q in zip(grid.bitrates, psnr)]
        assert max(deviations) < 0.05

    def test_coverage_error_names_gop_and_bitrate(self, t720):
        mset = measurements("gop7", t720, [(0.5, 30.0), (4.0, 35.0)])
        with pytest.raises(CoverageError) as exc:
            rl.resample_to_grid(mset, rl.BitrateGrid.default())
        assert "gop7" in str(exc.value) and "0.2" in str(exc.value)

    def test_conflicting_duplicates(self, t720):
        # Conflicting rows are rejected while parsing, before any resampling.
        with pytest.raises(ConflictError):
            measurements("g", t720, [(1.0, 30.0), (1.0, 31.0), (3.0, 34.0)])

    def test_rows_follow_first_appearance_per_tier(self, t720, t1080):
        text = "\n".join([
            MEASUREMENT_HEADER,
            "b,720p,1.0,30.0", "a,1080p,1.0,31.0", "a,720p,3.0,33.0", "b,720p,3.0,34.0",
            "a,1080p,3.0,35.0", "a,720p,1.0,32.0",
        ])
        by_tier = rl.resample_to_grid(rl.parse_measurements(text), rl.BitrateGrid((1, 1.5, 2, 3)))
        assert by_tier[t720].gop_ids == ("b", "a")
        assert by_tier[t720].psnr.tolist() == [[30.0, 31.0, 32.0, 34.0], [32.0, 32.25, 32.5, 33.0]]
        assert by_tier[t1080].gop_ids == ("a",)


@st.composite
def resample_cases(draw):
    """A MeasurementSet and a grid it covers: groups of 2 to 7 samples at
    two tiers, samples on grid points and one float step below them, at
    bitrates near 1 Mbps or near 1e-300 Mbps (neighbours about 1e-300
    apart), and PSNR values up to 1e308 apart, where slopes overflow, or
    not finite, where np.interp falls back from NaN."""
    scale = draw(st.sampled_from([1.0, 1e-300]))
    grid = rl.BitrateGrid(tuple(scale * v for v in sorted(draw(
        st.sets(st.integers(2, 40), min_size=4, max_size=6)))))
    lo, hi = grid.span
    on_grid = st.sampled_from(grid.bitrates)
    below_grid = on_grid.map(lambda b: float(np.nextafter(b, 0)))
    psnr_values = st.floats(0.5, 99.0) if draw(st.integers(0, 3)) else st.sampled_from(
        [-1e308, 50.0, 1e308, np.inf, -np.inf, np.nan])
    groups, offsets, bitrates, psnr = [], [0], [], []
    for g in range(draw(st.integers(1, 6))):
        ends = [lo * draw(st.sampled_from([1.0, 0.5])), hi * draw(st.sampled_from([1.0, 1.5]))]
        inner = draw(st.lists(st.one_of(on_grid, below_grid, st.floats(lo, hi)), max_size=5))
        rows = sorted({*ends, *inner})
        groups.append((f"g{g}", draw(st.sampled_from([rl.tier_from_name("720p"),
                                                     rl.tier_from_name("1080p")]))))
        bitrates += rows
        psnr += draw(st.lists(psnr_values, min_size=len(rows), max_size=len(rows)))
        offsets.append(len(bitrates))
    mset = rl.MeasurementSet(groups=tuple(groups), offsets=np.array(offsets),
                             bitrates=np.array(bitrates), psnr=np.array(psnr))
    return mset, grid


def interp_each(mset, grid):
    """Reference resampling: np.interp once per group."""
    by_tier: dict = {}
    for g, (gop_id, tier) in enumerate(mset.groups):
        ids, rows = by_tier.setdefault(tier, ([], []))
        ids.append(gop_id)
        rows.append(np.interp(grid.as_array(), *mset.rows(g)))
    return {tier: rl.TierVectors(tier, tuple(ids), np.array(rows))
            for tier, (ids, rows) in by_tier.items()}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=resample_cases())
def test_resample_matches_per_group_interp(case):
    mset, grid = case

    def outcome(fn):
        try:
            return fn(), None
        except RDLadderError as exc:
            return None, (type(exc), str(exc))

    expected, expected_error = outcome(lambda: interp_each(mset, grid))
    vectors, error = outcome(lambda: rl.resample_to_grid(mset, grid))
    assert error == expected_error
    if error:
        return
    assert list(vectors) == list(expected)
    for tier, want in expected.items():
        assert vectors[tier].gop_ids == want.gop_ids
        assert vectors[tier].psnr.tobytes() == want.psnr.tobytes()


class TestKMeans:
    def test_k1_centroid_is_mean(self, t1080):
        rng = np.random.default_rng(5)
        vectors = rng.uniform(20, 50, (8, 10))
        result = rl.kmeans(vectors, k=1, seed=0)
        assert np.allclose(result.centroids[0], vectors.mean(axis=0), atol=1e-12)

    def test_separated_groups_recovered_exactly(self, t1080):
        vectors = np.concatenate(
            [const_vectors(10.0, 4), const_vectors(50.0, 4), const_vectors(90.0, 4)]
        )
        result = rl.kmeans(vectors, k=3, seed=1)
        assert result.inertia == 0.0
        labels = result.labels
        assert len({labels[0:4], labels[4:8], labels[8:12]}) == 3
        for group in (labels[0:4], labels[4:8], labels[8:12]):
            assert len(set(group)) == 1

    def test_determinism(self, t1080):
        rng = np.random.default_rng(9)
        vectors = rng.uniform(20, 60, (30, 10))
        a = rl.kmeans(vectors, k=4, seed=42)
        b = rl.kmeans(vectors, k=4, seed=42)
        assert a.labels == b.labels
        assert np.array_equal(a.centroids, b.centroids)

    def test_inertia_history_non_increasing(self, t1080):
        rng = np.random.default_rng(17)
        vectors = rng.uniform(15, 60, (50, 10))
        for seed in range(5):
            result = rl.kmeans(vectors, k=5, seed=seed)
            history = result.inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_labels_are_nearest_centroids(self, t1080):
        rng = np.random.default_rng(23)
        vectors = rng.uniform(15, 60, (40, 10))
        result = rl.kmeans(vectors, k=4, seed=3)
        d2 = ((vectors[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(np.asarray(result.labels), d2.argmin(axis=1))

    def test_insufficient_vectors(self, t1080):
        with pytest.raises(InsufficientDataError):
            rl.kmeans(const_vectors(30.0, 1), k=2, seed=0)

    def test_empty_cluster_reseeded_at_farthest_point(self, t1080):
        # Force an empty cluster via an explicit init far from all data.
        offsets = 0.01 * np.arange(5)[:, None]
        vectors = np.concatenate([const_vectors(10.0, 5) + offsets, const_vectors(50.0, 5) + offsets])
        init = np.stack(
            [
                np.full(10, 10.0),
                np.full(10, 10.5),
                np.full(10, 99.0),  # nobody will pick this one
            ]
        )
        result = rl.kmeans(vectors, k=3, seed=0, init_centroids=init)
        assert sorted(set(result.labels)) == [0, 1, 2]
        history = result.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_recovers_reference_partition_with_noise(self, paper_model, t1080):
        grid = paper_model.grid
        clusters = [c for c in range(1, 7) for _ in range(10)]
        for seed in (0, 1, 2):
            rng = np.random.default_rng(1000 + seed)
            by_tier = grouped_vectors(clusters, [t1080], grid, paper_model, noise=0.1, rng=rng)
            result = rl.kmeans(by_tier[t1080].psnr, k=6, seed=seed)
            mapping = {}
            for want, got in zip(clusters, result.labels):
                mapping.setdefault(want, set()).add(got)
            assert all(len(v) == 1 for v in mapping.values())
            assert len({v.pop() for v in mapping.values()}) == 6


class TestTrain:
    def test_single_tier_reproduces_generating_cubics(self, paper_model, t1080):
        grid = paper_model.grid
        by_tier = grouped_vectors([1, 2, 3, 4, 5, 6], [t1080], grid, paper_model)
        trained, _ = train_details(by_tier, grid, k=6, seed=42)
        for c in range(1, 7):
            got = trained.model(c, t1080).coefficients
            want = paper_model.model(c, t1080).coefficients
            assert got == pytest.approx(want, abs=1e-6)

    def test_two_identical_tiers_match_identically(self, paper_model, t720, t1080):
        grid = paper_model.grid
        base = grouped_vectors([1, 2, 3, 4, 5, 6], [t1080], grid, paper_model)
        clone = rl.TierVectors(t720, base[t1080].gop_ids, base[t1080].psnr)
        trained, _ = train_details({t1080: base[t1080], t720: clone}, grid, k=6, seed=42)
        for c in range(1, 7):
            assert trained.model(c, t720).coefficients == trained.model(c, t1080).coefficients
            assert trained.centroid(c, t720) == trained.centroid(c, t1080)

    def test_cross_tier_correspondence_by_membership(self, paper_model):
        # Ten GOPs per cluster measured at all four tiers: after training,
        # cluster c at every tier must hold the curves generated from the
        # reference model's cluster c, not a neighbour with similar mean.
        grid = paper_model.grid
        clusters = [c for c in range(1, 7) for _ in range(10)]
        rng = np.random.default_rng(77)
        by_tier = grouped_vectors(clusters, paper_model.tiers, grid, paper_model, 0.05, rng)
        trained, _ = train_details(by_tier, grid, k=6, seed=42)
        for c in range(1, 7):
            for tier in paper_model.tiers:
                want = np.mean(paper_model.centroid(c, tier))
                got = np.mean(trained.centroid(c, tier))
                assert abs(want - got) < 0.1

    def test_train_details_reports_per_tier_kmeans(self, paper_model, t1080):
        grid = paper_model.grid
        by_tier = grouped_vectors([1, 2, 3, 4, 5, 6], [t1080], grid, paper_model)
        _, results = train_details(by_tier, grid, k=6, seed=42)
        assert set(results) == {t1080}
        assert results[t1080].inertia == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_vectors_per_tier(self, paper_model, t1080):
        grid = paper_model.grid
        by_tier = grouped_vectors([1, 2, 3], [t1080], grid, paper_model)
        with pytest.raises(InsufficientDataError):
            train_details(by_tier, grid, k=6, seed=42)


def assign_one(tables, points, tier):
    """(cluster, rms, error) of one GOP."""
    clusters, rms, errors = tables.assign(observation_batch([("g", tier, points)]))
    return clusters.item(), rms.item(), errors[0]


class TestAssign:
    def test_point_on_curve(self, paper_model, tables, t1080):
        q = rl.eval_cubic(paper_model.model(3, t1080), 5.018)
        cluster, rms, error = assign_one(tables, [(5.018, q)], t1080)
        assert cluster == 3 and error is None
        assert rms < 1e-9
        # The reference threshold bitrate evaluates to 40 dB on this curve.
        assert q == pytest.approx(40.0, abs=0.01)

    def test_reference_test_video(self, tables, t1080):
        # A published test video's (bitrate, PSNR) pair sits nearest the
        # cluster-6 centroid (cluster 5 is ~5.9 dB away, cluster 6 ~1.7).
        cluster, rms, _ = assign_one(tables, [(5.617, 54.665)], t1080)
        assert cluster == 6
        assert rms == pytest.approx(1.725, abs=0.01)

    def test_tie_breaks_toward_lower_cluster(self, paper_model, tables, t1080):
        q1 = rl.eval_cubic(paper_model.model(1, t1080), 3.0)
        q2 = rl.eval_cubic(paper_model.model(2, t1080), 3.0)
        assert assign_one(tables, [(3.0, (q1 + q2) / 2)], t1080)[0] == 1

    def test_multi_reduces_to_single_for_one_point(self, tables, t1080):
        point = (2.5, 41.0)
        assert assign_one(tables, [point], t1080) == assign_one(tables, [point, point], t1080)

    def test_multi_on_curve(self, paper_model, tables, t720):
        model = paper_model.model(2, t720)
        points = [(float(b), rl.eval_cubic(model, float(b))) for b in np.linspace(0.3, 5.7, 10)]
        cluster, rms, _ = assign_one(tables, points, t720)
        assert cluster == 2
        assert rms < 1e-9

    def test_multi_straddling_ties_low(self, paper_model, tables, t1080):
        m1, m2 = paper_model.model(1, t1080), paper_model.model(2, t1080)
        points = []
        for r in (1.0, 4.0):
            mid = (rl.eval_cubic(m1, r) + rl.eval_cubic(m2, r)) / 2
            points.append((r, mid))
        assert assign_one(tables, points, t1080)[0] == 1

    def test_errors(self, tables, t1080):
        cases = [
            ([], t1080, "assignment needs at least one (bitrate, psnr) point"),
            ([(0.0, 30.0)], t1080, "bitrate must be finite and > 0, got 0.0"),
            ([(1.0, 30.0)], rl.tier_from_name("1440p"), "model has no tier 1440p"),
            ([(1.0, 30.0), (2.0, float("nan"))], t1080, "psnr must be finite"),
            # The first bad point names the fault; within it, the bitrate.
            ([(1.0, 30.0), (-1.0, float("nan")), (0.0, 30.0)], t1080,
             "bitrate must be finite and > 0, got -1.0"),
            ([(1.0, float("inf")), (float("inf"), 30.0)], t1080, "psnr must be finite"),
            ([(float("nan"), 30.0)], t1080, "bitrate must be finite and > 0, got nan"),
            # An empty GOP or an absent tier is reported before any point.
            ([(0.0, 30.0)], rl.tier_from_name("1440p"), "model has no tier 1440p"),
            ([], rl.tier_from_name("1440p"), "assignment needs at least one (bitrate, psnr) point"),
        ]
        for points, tier, message in cases:
            cluster, rms, error = assign_one(tables, points, tier)
            assert error == message
            assert cluster == 0 and np.isnan(rms)

    def test_batch_keeps_earlier_errors_and_order(self, paper_model, tables, t1080, t720):
        # GOPs in mixed tier order, one rejected before assignment and one
        # with a bad point: each answer stays in its own slot.
        on = {c: [(r, rl.eval_cubic(paper_model.model(c, t), r)) for r in (1.0, 3.0)]
              for c, t in ((2, t720), (5, t1080))}
        batch = observation_batch(
            [("a", t720, on[2]), ("b", t1080, on[5]), ("c", t1080, [(1.0, float("nan"))]),
             ("d", t720, on[2]), ("e", None, [])],
            errors=[None] * 4 + ["rejected"],
        )
        clusters, rms, errors = tables.assign(batch)
        assert clusters.tolist() == [2, 5, 0, 2, 0]
        assert errors == [None, None, "psnr must be finite", None, "rejected"]
        assert rms[[0, 1, 3]].max() < 1e-9


def test_model_set_must_be_complete(paper_model):
    models = dict(paper_model.models)
    centroids = dict(paper_model.centroids)
    key = (1, paper_model.tiers[0])
    del models[key]
    with pytest.raises(ValidationError):
        rl.ClusterModelSet(
            k=paper_model.k,
            grid=paper_model.grid,
            tiers=paper_model.tiers,
            centroids=centroids,
            models=models,
            seed=0,
            provenance="broken",
        )
