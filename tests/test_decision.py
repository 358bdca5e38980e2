import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdladder as rl
from rdladder.errors import IdenticalCurvesError, ValidationError

from helpers import bisection_roots, observation_batch, random_cubics, scalar_advise

T1080 = rl.tier_from_name("1080p")
T720 = rl.tier_from_name("720p")
T540 = rl.tier_from_name("540p")
T360 = rl.tier_from_name("360p")


def diff_coeffs(a, b):
    return [a.c3 - b.c3, a.c2 - b.c2, a.c1 - b.c1, a.c0 - b.c0]


class TestIntersections:
    @pytest.mark.parametrize(
        "cluster,expected",
        [(1, 1.061), (2, 1.499), (3, 1.647)],
    )
    def test_reference_knees(self, paper_model, cfg, cluster, expected):
        hits = rl.curve_intersections(
            paper_model.model(cluster, T720), paper_model.model(cluster, T1080), (0.2, 6.0)
        )
        assert len(hits) == 1
        assert hits[0].bitrate == pytest.approx(expected, abs=0.005)
        assert not hits[0].tangential

    def test_matches_bisection_oracle_on_reference_pairs(self, paper_model):
        for cluster in paper_model.clusters:
            for ta, tb in itertools.combinations(paper_model.tiers, 2):
                a, b = paper_model.model(cluster, ta), paper_model.model(cluster, tb)
                got = [x.bitrate for x in rl.curve_intersections(a, b, (0.2, 6.0))]
                oracle = bisection_roots(diff_coeffs(a, b), 0.2, 6.0)
                assert len(got) == len(oracle)
                for g, o in zip(got, oracle):
                    assert g == pytest.approx(o, abs=1e-6)

    def test_parallel_curves_no_intersection(self):
        base = rl.CubicRD(30.0, 5.0, -1.0, 0.1, valid_range=(0.2, 6.0))
        lifted = rl.CubicRD(31.0, 5.0, -1.0, 0.1, valid_range=(0.2, 6.0))
        assert rl.curve_intersections(base, lifted, (0.2, 6.0)) == []

    def test_identical_curves_signal(self):
        base = rl.CubicRD(30.0, 5.0, -1.0, 0.1, valid_range=(0.2, 6.0))
        with pytest.raises(IdenticalCurvesError):
            rl.curve_intersections(base, base, (0.2, 6.0))

    def test_tangential_intersection_flagged(self):
        # a - b == (R - 2)^2: the curves touch at 2 without crossing.
        b = rl.CubicRD(30.0, 5.0, -1.0, 0.1, valid_range=(0.2, 6.0))
        a = rl.CubicRD(34.0, 1.0, 0.0, 0.1, valid_range=(0.2, 6.0))
        hits = rl.curve_intersections(a, b, (0.2, 6.0))
        assert len(hits) == 1
        assert hits[0].bitrate == pytest.approx(2.0, abs=1e-4)
        assert hits[0].tangential

    def test_symmetry(self, paper_model):
        pairs = [
            (paper_model.model(c, T720), paper_model.model(c, T1080))
            for c in paper_model.clusters
        ]
        cubics = random_cubics(20, seed=100)
        pairs += list(zip(cubics[:10], cubics[10:]))
        for a, b in pairs:
            ab = [(x.bitrate, x.tangential) for x in rl.curve_intersections(a, b, (0.2, 6.0))]
            ba = [(x.bitrate, x.tangential) for x in rl.curve_intersections(b, a, (0.2, 6.0))]
            assert ab == ba


class TestLadder:
    def test_cluster6_single_segment(self, paper_model):
        ladder = rl.build_ladder(paper_model, 6)
        assert [seg.tier for seg in ladder.segments] == [T1080]
        assert ladder.breakpoints == ()

    def test_cluster2_720_then_1080(self, paper_model):
        ladder = rl.build_ladder(paper_model, 2)
        assert [seg.tier for seg in ladder.segments] == [T720, T1080]
        assert ladder.breakpoints[0] == pytest.approx(1.499, abs=0.005)

    def test_cluster3_ends_with_720_then_1080(self, paper_model):
        ladder = rl.build_ladder(paper_model, 3)
        tiers = [seg.tier for seg in ladder.segments]
        assert tiers[-2:] == [T720, T1080]
        assert ladder.breakpoints[-1] == pytest.approx(1.647, abs=0.005)
        assert tiers[0] == T360
        assert ladder.breakpoints[0] == pytest.approx(0.239, abs=0.005)

    def test_segments_tile_operating_range(self, paper_model):
        for cluster in paper_model.clusters:
            ladder = rl.build_ladder(paper_model, cluster)
            assert ladder.span == rl.OPERATING_RANGE
            for prev, nxt in zip(ladder.segments, ladder.segments[1:]):
                assert prev.hi == nxt.lo

    def test_boundary_belongs_to_left_segment(self, paper_model):
        ladder = rl.build_ladder(paper_model, 2)
        knee = ladder.breakpoints[0]
        assert ladder.tier_at(knee) == T720
        assert ladder.tier_at(knee + 1e-9) == T1080

    def test_out_of_range_targets_clamp(self, paper_model):
        ladder = rl.build_ladder(paper_model, 3)
        assert ladder.tier_at(0.01) == ladder.segments[0].tier
        assert ladder.tier_at(50.0) == ladder.segments[-1].tier

    def test_argmax_invariance(self, paper_model):
        rng = np.random.default_rng(4)
        for cluster in paper_model.clusters:
            ladder = rl.build_ladder(paper_model, cluster)
            for r in rng.uniform(0.2, 6.0, size=300):
                chosen = rl.eval_cubic(paper_model.model(cluster, ladder.tier_at(r)), float(r))
                for tier in paper_model.tiers:
                    other = rl.eval_cubic(paper_model.model(cluster, tier), float(r))
                    assert chosen >= other - 1e-6


class TestVlThreshold:
    @pytest.mark.parametrize(
        "cluster,expected",
        [(1, 8.041), (2, 7.072), (3, 5.018), (4, 1.950), (5, 1.077), (6, 0.429)],
    )
    def test_reference_values_1080p(self, paper_model, cfg, cluster, expected):
        found = rl.vl_threshold(paper_model.model(cluster, T1080), cfg)
        assert found is not None and not found.clamped
        assert found.bitrate == pytest.approx(expected, abs=0.01)
        model = paper_model.model(cluster, T1080)
        assert rl.eval_cubic(model, found.bitrate) == pytest.approx(cfg.vl_psnr, abs=1e-6)
        assert rl.eval_derivative(model, found.bitrate) > 0
        # Just below the threshold the curve is still under the target.
        assert rl.eval_cubic(model, found.bitrate - 1e-4) < cfg.vl_psnr

    def test_extrapolation_flag(self, paper_model, cfg):
        beyond = rl.vl_threshold(paper_model.model(1, T1080), cfg)
        within = rl.vl_threshold(paper_model.model(5, T1080), cfg)
        assert beyond.extrapolated and not within.extrapolated

    def test_always_lossless_clamps_to_range_minimum(self, cfg):
        model = rl.CubicRD(45.0, 0.01, 0.001, 0.0001, valid_range=(0.2, 6.0))
        found = rl.vl_threshold(model, cfg)
        assert found.bitrate == rl.VL_SEARCH_RANGE[0] == 0.2
        assert found.clamped

    def test_unreachable_quality_is_absent(self, cfg):
        model = rl.CubicRD(20.0, 0.1, 0.0, 0.0, valid_range=(0.2, 6.0))
        assert rl.vl_threshold(model, cfg) is None

    def test_decreasing_branch_rejected(self, cfg):
        # Crosses 40 dB only while falling: no usable threshold.
        model = rl.CubicRD(45.0, -1.0, 0.0, 0.0, valid_range=(0.2, 6.0))
        found = rl.vl_threshold(model, cfg)
        assert found is not None and found.clamped  # already >= 40 at range min
        shifted = rl.CubicRD(40.5, -1.0, 0.0, 0.0, valid_range=(0.2, 6.0))
        clamped = rl.vl_threshold(shifted, cfg)
        assert clamped is not None and clamped.clamped
        low = rl.CubicRD(39.0, -1.0, 0.0, 0.0, valid_range=(0.2, 6.0))
        assert rl.vl_threshold(low, cfg) is None


class TestNzsInterval:
    def test_reference_intervals(self, paper_model, cfg):
        five = rl.nzs_interval(paper_model.model(5, T1080), cfg)
        assert (five.lo, five.hi) == (
            pytest.approx(3.423, abs=0.02),
            pytest.approx(4.414, abs=0.02),
        )
        six = rl.nzs_interval(paper_model.model(6, T1080), cfg)
        assert (six.lo, six.hi) == (
            pytest.approx(3.293, abs=0.02),
            pytest.approx(4.575, abs=0.02),
        )

    def test_absent_for_clusters_1_to_4_at_1080p(self, paper_model, cfg):
        for cluster in (1, 2, 3, 4):
            assert rl.nzs_interval(paper_model.model(cluster, T1080), cfg) is None

    def test_endpoint_slopes_hit_threshold(self, paper_model, cfg):
        interval = rl.nzs_interval(paper_model.model(6, T1080), cfg)
        model = paper_model.model(6, T1080)
        assert rl.eval_derivative(model, interval.lo) == pytest.approx(cfg.nzs_slope, abs=1e-6)
        assert rl.eval_derivative(model, interval.hi) == pytest.approx(cfg.nzs_slope, abs=1e-6)

    def test_interior_slopes_below_threshold(self, paper_model, cfg):
        rng = np.random.default_rng(8)
        for cluster in (5, 6):
            model = paper_model.model(cluster, T1080)
            interval = rl.nzs_interval(model, cfg)
            for r in rng.uniform(interval.lo + 1e-9, interval.hi - 1e-9, size=100):
                assert rl.eval_derivative(model, float(r)) < cfg.nzs_slope

    def test_clamping_to_operating_range(self, paper_model):
        wide = rl.DecisionConfig(nzs_slope=5.0)
        interval = rl.nzs_interval(paper_model.model(6, T1080), wide)
        assert interval.hi == 6.0 and interval.clamped_hi
        assert not interval.clamped_lo


@pytest.mark.parametrize("field", ["vl_psnr", "nzs_slope"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_decision_config_requires_finite_positive_values(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite and > 0"):
        rl.DecisionConfig(**{field: value})


class TestBitrateRules:
    def test_vl_cap(self, tables):
        vl_only = rl.Modes(vl=True)
        _, capped, applied, predicted, _ = tables.decide(6, T1080, 3.0, vl_only)
        assert capped == pytest.approx(0.429, abs=0.005)
        assert applied == ("vl",) and predicted == pytest.approx(40.0)
        assert tables.decide(1, T1080, 3.0, vl_only)[1:3] == (3.0, ())  # cap above target
        assert tables.decide(4, T1080, 1.0, vl_only)[1:3] == (1.0, ())  # target below cap

    def test_nzs_reduction(self, paper_model, cfg, tables):
        nzs_only = rl.Modes(nzs=True)
        upper = rl.nzs_interval(paper_model.model(6, T1080), cfg).hi
        _, reduced, applied, _, _ = tables.decide(6, T1080, upper, nzs_only)
        assert reduced == pytest.approx(3.293, abs=0.02) and applied == ("nzs",)
        assert tables.decide(4, T1080, 4.0, nzs_only)[1:3] == (4.0, ())  # no interval
        assert tables.decide(5, T1080, 5.5, nzs_only)[1:3] == (5.5, ())  # above the interval

    def test_resolution_rule(self, tables):
        trans_size = rl.Modes(trans_size=True)
        assert tables.decide(3, T1080, 0.2, trans_size)[0] == T360
        assert tables.decide(3, T1080, 1.0, trans_size)[0] == T720
        assert tables.decide(6, T1080, 1.0, trans_size)[:3] == (T1080, 1.0, ())

    @pytest.mark.parametrize(
        "cluster,tier,target",
        [(7, T1080, 3.0), (1, rl.tier_from_name("1440p"), 3.0), (1, T1080, 0.0),
         (1, T1080, float("nan"))],
    )
    def test_rejects_unknown_cluster_tier_and_bad_target(self, tables, cluster, tier, target):
        with pytest.raises(ValidationError):
            tables.decide(cluster, tier, target, rl.Modes(vl=True))

    def test_rejects_a_proposal_of_zero_or_below(self, paper_model, cfg):
        broken = rl.DecisionTables(paper_model, cfg)
        object.__setattr__(broken, "vl", {(6, T1080): rl.VlThreshold(bitrate=-0.5)})
        with pytest.raises(ValidationError, match="proposed bitrate must be > 0"):
            broken.decide(6, T1080, 3.0, rl.Modes(vl=True))


def on_curve_observation(model_set, cluster, tier, gop_id="g"):
    """One (gop_id, tier, points) GOP whose points lie on a cluster's curve."""
    model = model_set.model(cluster, tier)
    points = tuple((float(b), rl.eval_cubic(model, float(b))) for b in (0.5, 2.0, 4.0, 6.0))
    return gop_id, tier, points


def advise_one(tables, obs, modes, target):
    (entry,) = tables.advise(observation_batch([obs]), target, modes)["recommendations"]
    return entry


class TestRecommend:
    def test_vl_pipeline_on_cluster6(self, paper_model, tables):
        obs = on_curve_observation(paper_model, 6, T1080)
        rec = advise_one(tables, obs, rl.Modes(vl=True), 3.0)
        assert rec["cluster"] == 6 and rec["tier"] == "1080p"
        assert rec["proposed_bitrate"] == pytest.approx(0.429, abs=0.005)
        assert rec["predicted_psnr"] == pytest.approx(40.0, abs=0.01)
        assert rec["modes_applied"] == ["vl"]

    def test_trans_size_pipeline_on_cluster3(self, paper_model, tables):
        obs = on_curve_observation(paper_model, 3, T1080)
        rec = advise_one(tables, obs, rl.Modes(trans_size=True), 1.0)
        assert rec["tier"] == "720p"
        assert rec["proposed_bitrate"] == 1.0
        assert rec["modes_applied"] == ["trans_size"]

    def test_trans_size_noop_on_cluster6(self, paper_model, tables):
        obs = on_curve_observation(paper_model, 6, T1080)
        rec = advise_one(tables, obs, rl.Modes(trans_size=True), 2.0)
        assert rec["tier"] == "1080p"
        assert rec["proposed_bitrate"] == 2.0
        assert rec["modes_applied"] == []
        assert rec["predicted_psnr"] == rl.eval_cubic(paper_model.model(6, T1080), 2.0)

    def test_vl_then_nzs_ordering(self, paper_model, tables):
        # After the cap to ~0.429, the near-zero-slope interval no longer
        # contains the bitrate; combined modes equal the VL-only result.
        obs = on_curve_observation(paper_model, 6, T1080)
        combined = advise_one(tables, obs, rl.Modes(vl=True, nzs=True), 4.5)
        vl_only = advise_one(tables, obs, rl.Modes(vl=True), 4.5)
        assert combined["proposed_bitrate"] == vl_only["proposed_bitrate"]

    def test_requires_a_mode(self, paper_model, tables):
        batch = observation_batch([on_curve_observation(paper_model, 6, T1080)] * 2)
        with pytest.raises(ValidationError, match="at least one mode"):
            tables.advise(batch, 3.0, rl.Modes())
        for bad_target in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="target bitrate must be finite and > 0"):
                tables.advise(batch, bad_target, rl.Modes(vl=True))

    def test_proposed_never_exceeds_target_and_mode_monotonicity(self, paper_model, tables):
        combos = [
            rl.Modes(*flags)
            for flags in itertools.product((False, True), repeat=3)
            if any(flags)
        ]
        observations = observation_batch([
            on_curve_observation(paper_model, cluster, T1080, gop_id=f"c{cluster}")
            for cluster in paper_model.clusters
        ])
        targets = np.linspace(0.21, 6.5, 100)
        for target in targets:
            proposed = {}
            for modes in combos:
                recs = tables.advise(observations, float(target), modes)["recommendations"]
                for rec in recs:
                    assert rec["proposed_bitrate"] <= rec["target_bitrate"]
                    assert rec["proposed_bitrate"] > 0
                proposed[modes.enabled] = [rec["proposed_bitrate"] for rec in recs]
            for a, b in itertools.combinations(combos, 2):
                if set(a.enabled) < set(b.enabled):
                    for pa, pb in zip(proposed[a.enabled], proposed[b.enabled]):
                        assert pb <= pa + 1e-12

    @settings(max_examples=50, derandomize=True)
    @given(
        cluster=st.integers(1, 6),
        target=st.floats(0.25, 8.0),
        vl=st.booleans(),
        nzs=st.booleans(),
    )
    def test_safety_property(self, tables, cluster, target, vl, nzs):
        modes = rl.Modes(trans_size=True, vl=vl, nzs=nzs)
        obs = on_curve_observation(tables.model_set, cluster, T1080)
        rec = advise_one(tables, obs, modes, target)
        assert 0 < rec["proposed_bitrate"] <= target


@st.composite
def dyadic_model_sets(draw):
    """A model whose cubics have dyadic coefficients, with cluster c's curve
    equal to cluster c-1's plus s*(R - x)*(R - y) at every tier. Curve
    values at the dyadic bitrates x and y are then exact, so a point
    there has exactly the same residual against clusters c-1 and c.
    Returns the model and {tier: [(c-1, c, x, y), ...]}."""
    k = draw(st.integers(2, 4))
    tiers = sorted(draw(st.lists(st.sampled_from(rl.STANDARD_TIERS), min_size=1, max_size=3,
                                 unique=True)))
    grid = rl.BitrateGrid.default()
    eighths = st.integers(2, 48).map(lambda i: i / 8)
    models, centroids, crossings = {}, {}, {}
    for tier in tiers:
        coeffs = (
            draw(st.integers(160, 320)) / 8,
            draw(st.integers(0, 384)) / 32,
            -draw(st.integers(0, 128)) / 64,
            draw(st.integers(0, 64)) / 256,
        )
        for cluster in range(1, k + 1):
            if cluster > 1:
                x, y = draw(eighths), draw(eighths)
                s = draw(st.integers(-64, 64).filter(bool)) / 64
                c0, c1, c2, c3 = coeffs
                coeffs = (c0 + s * x * y, c1 - s * (x + y), c2 + s, c3)
                crossings.setdefault(tier, []).append((cluster - 1, cluster, x, y))
            model = rl.CubicRD(*coeffs, valid_range=(0.2, 6.0))
            models[(cluster, tier)] = model
            centroids[(cluster, tier)] = tuple(rl.eval_cubic(model, b) for b in grid.bitrates)
    model_set = rl.ClusterModelSet(k=k, grid=grid, tiers=tuple(tiers), centroids=centroids,
                                   models=models, seed=0, provenance="dyadic")
    return model_set, crossings


BAD_POINTS = st.one_of(
    st.tuples(st.sampled_from([0.0, -1.0, float("nan"), float("inf")]), st.floats(10.0, 70.0)),
    st.tuples(st.floats(0.05, 12.0), st.sampled_from([float("nan"), float("inf"), -float("inf")])),
)


@st.composite
def gop_batches(draw):
    """A model and a batch of GOPs over it: mixed tiers, 1 to 6 points,
    points on exact residual ties, and invalid GOPs (no points, a
    non-finite value, a bitrate <= 0, a tier the model lacks)."""
    model_set, crossings = draw(dyadic_model_sets())
    absent = [t for t in rl.STANDARD_TIERS if t not in model_set.tiers]
    absent.append(rl.tier_from_name("1440p"))
    observations = []
    for index in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "free", "tie", "tie", "invalid"]))
        tier = draw(st.sampled_from(model_set.tiers))
        count = draw(st.integers(1, 6))
        if kind == "tie" and tier in crossings:
            _, upper, x, y = draw(st.sampled_from(crossings[tier]))
            curve = model_set.model(upper, tier)
            points = [
                (r, rl.eval_cubic(curve, r) + draw(st.integers(-32, 32)) / 16)
                for r in (draw(st.sampled_from((x, y))) for _ in range(count))
            ]
        else:
            points = [
                (draw(st.floats(0.05, 12.0)), draw(st.floats(10.0, 70.0))) for _ in range(count)
            ]
        if kind == "invalid":
            fault = draw(st.sampled_from(["point", "point", "empty", "tier"]))
            if fault == "point":
                points.insert(draw(st.integers(0, len(points))), draw(BAD_POINTS))
            elif fault == "empty":
                points = []
            else:
                tier = draw(st.sampled_from(absent))
        observations.append((f"g{index}", tier, tuple(points)))
    return model_set, observation_batch(observations)


def decision_fields(entry):
    """What the batch path must reproduce exactly: every key but the
    rationale, whose RMS figure the reference computes with ``** 2``."""
    return {key: value for key, value in entry.items() if key != "rationale"}


class TestAdvise:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        batch=gop_batches(),
        target=st.one_of(st.floats(0.1, 8.0), st.sampled_from([0.0, -1.0, float("nan")])),
        modes=st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any),
    )
    def test_matches_scalar_reference(self, batch, target, modes):
        model_set, observations = batch
        cfg = rl.DecisionConfig()
        modes = rl.Modes(*modes)

        def outcome(advise, *args):
            try:
                document = advise(*args)
            except ValidationError as exc:  # an invalid target fails the whole batch
                return str(exc)
            return list(map(decision_fields, document["recommendations"])), document["savings"]

        got = outcome(rl.DecisionTables(model_set, cfg).advise, observations, target, modes)
        want = outcome(scalar_advise, observations, model_set, cfg, modes, target)
        assert got == want
        assert isinstance(got, str) == (not (math.isfinite(target) and target > 0))

    def test_exact_residual_tie_goes_to_lower_cluster(self):
        base = rl.CubicRD(30.0, 4.0, -0.5, 0.03125, valid_range=(0.2, 6.0))
        # Cluster 2 = cluster 1 + (R - 1)(R - 3): the curves meet exactly at 1 and 3.
        crossing = rl.CubicRD(33.0, 0.0, 0.5, 0.03125, valid_range=(0.2, 6.0))
        far = rl.CubicRD(60.0, 0.0, 0.0, 0.0, valid_range=(0.2, 6.0))
        grid = rl.BitrateGrid.default()
        models = {(1, T1080): base, (2, T1080): crossing, (3, T1080): far}
        centroids = {key: (40.0,) * len(grid) for key in models}
        model_set = rl.ClusterModelSet(k=3, grid=grid, tiers=(T1080,), centroids=centroids,
                                       models=models, seed=0, provenance="tie")
        q1, q3 = rl.eval_cubic(base, 1.0), rl.eval_cubic(base, 3.0)
        assert (q1, q3) == (rl.eval_cubic(crossing, 1.0), rl.eval_cubic(crossing, 3.0))
        batch = observation_batch([("g", T1080, ((1.0, q1 + 0.5), (3.0, q3 - 0.25)))])
        clusters, _, errors = rl.DecisionTables(model_set, rl.DecisionConfig()).assign(batch)
        assert clusters.tolist() == [1] and errors == [None]


class TestSavings:
    def test_reference_vl_scenarios(self, tables):
        groups = {}
        scenarios = {
            "Test_2": ((6, 6, 6, 6, 6, 4, 1, 1, 1, 1), 3.0),
            "Test_10": ((4, 4, 4, 5, 4, 4, 4, 4, 5, 5), 3.0),
        }
        for video, (clusters, target) in scenarios.items():
            groups[video] = [
                (target, tables.decide(c, T1080, target, rl.Modes(vl=True))[1])
                for c in clusters
            ]
        report = rl.savings_report(groups)
        by_video = {v.video_id: v for v in report.videos}
        assert by_video["Test_2"].total_proposed == pytest.approx(16.09, abs=0.05)
        assert by_video["Test_2"].saving_percent == pytest.approx(46.36, abs=0.1)
        assert by_video["Test_10"].total_proposed == pytest.approx(16.88, abs=0.05)
        assert by_video["Test_10"].saving_percent == pytest.approx(43.73, abs=0.1)

    def test_reference_nzs_scenario(self, tables):
        proposed = tables.decide(6, T1080, 4.575, rl.Modes(nzs=True))[1]
        rows = [(4.575, proposed)] * 10
        report = rl.savings_report({"Test_5": rows})
        assert report.total_proposed == pytest.approx(32.93, abs=0.05)
        assert report.saving_percent == pytest.approx(28.022, abs=0.1)

    def test_totals_are_column_sums(self):
        groups = {"a": [(3.0, 1.5), (2.0, 2.0)], "b": [(4.0, 1.0)]}
        report = rl.savings_report(groups)
        assert report.total_target == pytest.approx(9.0, abs=1e-9)
        assert report.total_proposed == pytest.approx(4.5, abs=1e-9)
        assert 0 <= report.saving_percent < 100
        for video in report.videos:
            rows = groups[video.video_id]
            assert video.total_target == pytest.approx(sum(t for t, _ in rows), abs=1e-9)
            assert video.total_proposed == pytest.approx(sum(p for _, p in rows), abs=1e-9)

    def test_errors(self):
        with pytest.raises(ValidationError):
            rl.savings_report({})
        with pytest.raises(ValidationError):
            rl.savings_report({"v": []})
        with pytest.raises(ValidationError):
            rl.savings_report({"v": [(1.0, 2.0)]})


def permuted_model_set(model_set, permutation):
    """Rebuild a model set with cluster indices renamed by ``permutation``
    (a dict old -> new), consistently across tiers."""
    models = {
        (permutation[c], t): model_set.model(c, t)
        for c in model_set.clusters
        for t in model_set.tiers
    }
    centroids = {
        (permutation[c], t): model_set.centroid(c, t)
        for c in model_set.clusters
        for t in model_set.tiers
    }
    return rl.ClusterModelSet(
        k=model_set.k,
        grid=model_set.grid,
        tiers=model_set.tiers,
        centroids=centroids,
        models=models,
        seed=model_set.seed,
        provenance=model_set.provenance + "-permuted",
    )


def test_label_permutation_leaves_recommendations_unchanged(paper_model, cfg):
    permutation = {1: 4, 2: 6, 3: 1, 4: 5, 5: 3, 6: 2}
    shuffled = rl.DecisionTables(permuted_model_set(paper_model, permutation), cfg)
    modes = rl.Modes(trans_size=True, vl=True, nzs=True)
    observations = observation_batch(
        [on_curve_observation(paper_model, c, T1080) for c in paper_model.clusters]
    )
    originals = rl.DecisionTables(paper_model, cfg).advise(observations, 3.0, modes)
    renamed_all = shuffled.advise(observations, 3.0, modes)
    for original, renamed in zip(originals["recommendations"], renamed_all["recommendations"]):
        assert renamed["cluster"] == permutation[original["cluster"]]
        assert renamed["tier"] == original["tier"]
        assert renamed["proposed_bitrate"] == original["proposed_bitrate"]
        assert renamed["predicted_psnr"] == original["predicted_psnr"]
