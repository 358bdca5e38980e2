import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdladder as rl
from rdladder.clustering import KMeansResult, kmeans, train_details
from rdladder.errors import (
    ConflictError,
    CoverageError,
    InsufficientDataError,
    RDLadderError,
    ValidationError,
)
from rdladder.ingest import MEASUREMENT_HEADER

from helpers import grid_measurements, grid_set, observation_batch, package_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def measurements(gop_id, tier, pairs):
    rows = [MEASUREMENT_HEADER] + [f"{gop_id},{tier.name},{r!r},{q!r}" for r, q in pairs]
    return rl.parse_measurements("\n".join(rows) + "\n")


def resampled(gop_id, tier, pairs, grid):
    """The one resampled PSNR vector of a single (gop, tier) group."""
    return rl.resample_to_grid(measurements(gop_id, tier, pairs), grid)[0].tolist()


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


def test_resampled_values_validation(t720, t1080):
    # A MeasurementSet built by hand may hold any PSNR value; the first bad
    # group, in group order, names the fault.
    grid = rl.BitrateGrid((1.0, 2.0, 3.0, 4.0))
    groups = [("g0", t1080), ("g1", t720)]
    nan = float("nan")
    cases = [
        (((30, 31, 32, 33), (30, nan, 32, 33)), "gop 'g1': PSNR vector must be finite"),
        (((30, 31, 32, 33), (0.0, 30, 32, 33)), "gop 'g1': PSNR values must be in (0, 100] dB"),
        (((30, 101, 32, 33), (30, nan, 32, 33)), "gop 'g0': PSNR values must be in (0, 100] dB"),
    ]
    for rows, message in cases:
        with pytest.raises(ValidationError) as exc:
            rl.resample_to_grid(grid_set(groups, rows, grid), grid)
        assert str(exc.value) == message
    twice = grid_set([("g0", t1080)] * 5 + [("g1", t1080)], np.full((6, 4), 30.0), grid)
    with pytest.raises(ValidationError, match="only one group per tier"):
        train_details(twice, grid, k=1)


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

    def test_rows_follow_group_order(self, t720, t1080):
        text = "\n".join([
            MEASUREMENT_HEADER,
            "b,720p,1.0,30.0", "a,1080p,1.0,31.0", "a,720p,3.0,33.0", "b,720p,3.0,34.0",
            "a,1080p,3.0,35.0", "a,720p,1.0,32.0",
        ])
        mset = rl.parse_measurements(text)
        assert mset.groups == (("b", t720), ("a", t1080), ("a", t720))
        assert rl.resample_to_grid(mset, rl.BitrateGrid((1, 1.5, 2, 3))).tolist() == [
            [30.0, 31.0, 32.0, 34.0], [31.0, 32.0, 33.0, 35.0], [32.0, 32.25, 32.5, 33.0]]


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
    """Reference resampling: np.interp once per group, then each row
    checked in group order."""
    bounds = zip(mset.offsets[:-1], mset.offsets[1:])
    rows = [np.interp(grid.as_array(), mset.bitrates[lo:hi], mset.psnr[lo:hi]) for lo, hi in bounds]
    for (gop_id, _), row in zip(mset.groups, rows):
        if not np.isfinite(row).all():
            raise ValidationError(f"gop {gop_id!r}: PSNR vector must be finite")
        if not ((row > 0) & (row <= 100)).all():
            raise ValidationError(f"gop {gop_id!r}: PSNR values must be in (0, 100] dB")
    return np.array(rows)


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
    assert vectors.shape == expected.shape
    assert vectors.tobytes() == expected.tobytes()


class TestKMeans:
    def test_k1_centroid_is_mean(self, t1080):
        rng = np.random.default_rng(5)
        vectors = rng.uniform(20, 50, (8, 10))
        result = kmeans(vectors, k=1, seed=0)
        assert np.allclose(result.centroids[0], vectors.mean(axis=0), atol=1e-12)

    def test_separated_groups_recovered_exactly(self, t1080):
        vectors = np.concatenate(
            [const_vectors(10.0, 4), const_vectors(50.0, 4), const_vectors(90.0, 4)]
        )
        result = kmeans(vectors, k=3, seed=1)
        assert result.inertia == 0.0
        labels = result.labels
        assert len({labels[0:4], labels[4:8], labels[8:12]}) == 3
        for group in (labels[0:4], labels[4:8], labels[8:12]):
            assert len(set(group)) == 1

    def test_determinism(self, t1080):
        rng = np.random.default_rng(9)
        vectors = rng.uniform(20, 60, (30, 10))
        a = kmeans(vectors, k=4, seed=42)
        b = kmeans(vectors, k=4, seed=42)
        assert a.labels == b.labels
        assert np.array_equal(a.centroids, b.centroids)

    def test_inertia_history_non_increasing(self, t1080):
        rng = np.random.default_rng(17)
        vectors = rng.uniform(15, 60, (50, 10))
        for seed in range(5):
            result = kmeans(vectors, k=5, seed=seed)
            history = result.inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_labels_are_nearest_centroids(self, t1080):
        rng = np.random.default_rng(23)
        vectors = rng.uniform(15, 60, (40, 10))
        result = kmeans(vectors, k=4, seed=3)
        d2 = ((vectors[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(np.asarray(result.labels), d2.argmin(axis=1))

    def test_insufficient_vectors(self, t1080):
        with pytest.raises(InsufficientDataError):
            kmeans(const_vectors(30.0, 1), k=2, seed=0)

    def test_empty_cluster_reseeded_at_farthest_point(self, t1080):
        # From seed 0, k-means++ seeds at 28, 3 and 6. After the first
        # update (23, 3, 9) the centroid at 9 has no members, and it is
        # re-seeded at 16, the point farthest from its assigned centroid.
        values = [3.0, 5.0, 6.0, 16.0, 18.0, 28.0]
        vectors = np.concatenate([const_vectors(v, 1) for v in values])
        result = kmeans(vectors, k=3, seed=0)
        assert result.labels == (1, 1, 1, 2, 2, 0)
        assert result.centroids[:, 0].tolist() == pytest.approx([28.0, 14.0 / 3.0, 17.0])
        history = result.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_recovers_reference_partition_with_noise(self, paper_model, t1080):
        grid = paper_model.grid
        clusters = [c for c in range(1, 7) for _ in range(10)]
        for seed in (0, 1, 2):
            rng = np.random.default_rng(1000 + seed)
            mset = grid_measurements(clusters, [t1080], grid, paper_model, noise=0.1, rng=rng)
            result = kmeans(rl.resample_to_grid(mset, grid), k=6, seed=seed)
            mapping = {}
            for want, got in zip(clusters, result.labels):
                mapping.setdefault(want, set()).add(got)
            assert all(len(v) == 1 for v in mapping.values())
            assert len({v.pop() for v in mapping.values()}) == 6


class TestTrain:
    def test_single_tier_reproduces_generating_cubics(self, paper_model, t1080):
        grid = paper_model.grid
        mset = grid_measurements([1, 2, 3, 4, 5, 6], [t1080], grid, paper_model)
        trained, _ = train_details(mset, grid, k=6, seed=42)
        for c in range(1, 7):
            got = trained.model(c, t1080).coefficients
            want = paper_model.model(c, t1080).coefficients
            assert got == pytest.approx(want, abs=1e-6)

    def test_two_identical_tiers_match_identically(self, paper_model, t720, t1080):
        grid = paper_model.grid
        base = grid_measurements([1, 2, 3, 4, 5, 6], [t1080], grid, paper_model)
        clone = [(gop_id, t720) for gop_id, _ in base.groups]
        mset = grid_set(base.groups + tuple(clone), np.concatenate([base.psnr, base.psnr]), grid)
        trained, _ = train_details(mset, grid, k=6, seed=42)
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
        mset = grid_measurements(clusters, paper_model.tiers, grid, paper_model, 0.05, rng)
        trained, _ = train_details(mset, grid, k=6, seed=42)
        for c in range(1, 7):
            for tier in paper_model.tiers:
                want = np.mean(paper_model.centroid(c, tier))
                got = np.mean(trained.centroid(c, tier))
                assert abs(want - got) < 0.1

    def test_train_details_reports_one_kmeans(self, paper_model):
        grid = paper_model.grid
        mset = grid_measurements([1, 2, 3, 4, 5, 6], paper_model.tiers, grid, paper_model)
        _, result = train_details(mset, grid, k=6, seed=42)
        assert isinstance(result, KMeansResult)
        assert len(result.labels) == 6
        assert result.centroids.shape == (6, len(paper_model.tiers) * len(grid))
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_gops_missing_a_tier_leave_model_unchanged(self, paper_model, t360, t1080):
        grid = paper_model.grid
        clusters = [c for c in range(1, 7) for _ in range(5)]
        rng = np.random.default_rng(5)
        mset = grid_measurements(clusters, paper_model.tiers, grid, paper_model, 0.1, rng)

        def with_extra(ids_at):
            """mset plus GOPs far from every centroid, ids_at(tier) of them."""
            extra = tuple((gop_id, tier) for tier in paper_model.tiers for gop_id in ids_at(tier))
            far = np.full(len(extra) * len(grid), 20.0)
            return grid_set(mset.groups + extra, np.concatenate([mset.psnr, far]), grid)

        trained, _ = train_details(mset, grid, k=6, seed=42)
        # x1 lacks 360p and x2 has 1080p only: both are left out.
        partial = {t360: (), t1080: ("x1", "x2")}
        more, result = train_details(with_extra(lambda t: partial.get(t, ("x1",))), grid, k=6, seed=42)
        assert rl.save_model(more) == rl.save_model(trained)
        assert len(result.labels) == 30
        # Measured at every tier, x1 is clustered and moves a centroid.
        moved, _ = train_details(with_extra(lambda t: ("x1",)), grid, k=6, seed=42)
        assert rl.save_model(moved) != rl.save_model(trained)

    def test_fewer_than_k_complete_gops(self, paper_model, t720, t1080):
        grid = paper_model.grid
        full = grid_measurements(list(range(1, 7)) * 2, [t720, t1080], grid, paper_model)
        # Every GOP at 1080p, the first 4 at 720p too.
        keep = [g for g, (_, tier) in enumerate(full.groups) if tier == t1080 or g < 4]
        part = grid_set([full.groups[g] for g in keep], full.psnr.reshape(-1, len(grid))[keep], grid)
        with pytest.raises(InsufficientDataError, match="4 of 12 GOPs"):
            train_details(part, grid, k=6, seed=42)

    def test_insufficient_vectors_per_tier(self, paper_model, t1080):
        grid = paper_model.grid
        mset = grid_measurements([1, 2, 3], [t1080], grid, paper_model)
        with pytest.raises(InsufficientDataError):
            train_details(mset, grid, k=6, seed=42)


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


def test_model_set_must_be_complete(paper_model, t720):
    def model_set(tiers=paper_model.tiers, models=paper_model.models,
                  centroids=paper_model.centroids):
        return rl.ClusterModelSet(
            k=paper_model.k,
            grid=paper_model.grid,
            tiers=tiers,
            centroids=centroids,
            models=models,
            seed=0,
            provenance="broken",
        )

    models = dict(paper_model.models)
    del models[(1, paper_model.tiers[0])]
    with pytest.raises(ValidationError, match="exactly k x "):
        model_set(models=models)
    with pytest.raises(ValidationError, match="^model set lists tier 720p twice$"):
        model_set(tiers=(*paper_model.tiers, t720))
    centroids = dict(paper_model.centroids)
    centroids[(1, t720)] = centroids[(1, t720)][:-1]
    with pytest.raises(ValidationError) as exc:
        model_set(centroids=centroids)
    assert str(exc.value) == "centroid for cluster 1 at 720p: length does not match grid"


@pytest.fixture(scope="module")
def recovery_csv():
    """Off-grid noisy measurements of the built-in model, on which a
    k-means of the 540p vectors alone stops in a local minimum."""
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "generate_measurements.py"), "--gops", "1200",
         "--off-grid", "--samples", "12", "--noise", "0.1", "--seed", "2"],
        env=package_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def train_text(text):
    grid = rl.BitrateGrid.default()
    trained, _ = train_details(rl.parse_measurements(text), grid)
    return trained


def test_training_recovers_generating_model(recovery_csv, paper_model):
    trained = train_text(recovery_csv)
    trained_ladders = rl.DecisionTables(trained, rl.DecisionConfig()).ladders
    paper_ladders = rl.DecisionTables(paper_model, rl.DecisionConfig()).ladders
    xs = np.linspace(*rl.OPERATING_RANGE, 501)
    for cluster in paper_model.clusters:
        for tier in paper_model.tiers:
            got = rl.eval_cubic(trained.model(cluster, tier), xs)
            want = rl.eval_cubic(paper_model.model(cluster, tier), xs)
            assert np.max(np.abs(got - want)) < 1.0, (cluster, tier)
        assert trained_ladders[cluster].tiers == paper_ladders[cluster].tiers


def test_model_does_not_depend_on_row_order(recovery_csv):
    header, *rows = recovery_csv.splitlines()
    np.random.default_rng(11).shuffle(rows)
    shuffled = "\n".join([header, *rows]) + "\n"
    assert rl.save_model(train_text(shuffled)) == rl.save_model(train_text(recovery_csv))
