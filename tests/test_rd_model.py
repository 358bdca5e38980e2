import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdladder as rl
from rdladder.errors import (
    ConditioningError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)
from rdladder.ingest import MEASUREMENT_HEADER
from rdladder.service import handle_recommend_request

from helpers import central_difference, curve_points


def test_tier_ordering_and_parse():
    t360, t540, t720, t1080 = (rl.tier_from_name(n) for n in ("360p", "540p", "720p", "1080p"))
    assert t360 < t540 < t720 < t1080
    assert (t720.width, t720.height) == (1280, 720)
    assert max([t720, t360, t1080, t540]) is t1080
    custom = rl.tier_from_name("1440p")
    assert (custom.width, custom.height) == (2560, 1440)
    for name in ("4k", "1440p\n"):
        with pytest.raises(ValidationError):
            rl.tier_from_name(name)


@pytest.mark.parametrize("name", ["0720p", "1\u0664\u0664\u0660p"])
def test_tier_names_must_be_canonical(name, tables):
    # Another spelling of an existing height would be a second, equal-sized tier.
    with pytest.raises(ValidationError, match="unknown resolution tier"):
        rl.tier_from_name(name)
    csv = f"{MEASUREMENT_HEADER}\ng,720p,1.0,30.0\ng,{name},1.0,30.0\n"
    with pytest.raises(ParseError, match="line 3: unknown resolution tier"):
        rl.parse_measurements(csv)
    gop = {"gop_id": "bad", "tier": name, "points": [[1.0, 30.0]]}
    status, body = handle_recommend_request(
        {"target_bitrate": 3.0, "modes": ["vl"], "gops": [gop]}, tables
    )
    assert status == 200
    assert body["recommendations"] == [
        {"gop_id": "bad", "error": f"unknown resolution tier {name!r}"}
    ]


class TestEval:
    def test_intercept_at_zero(self, paper_model, t1080):
        assert rl.eval_cubic(paper_model.model(6, t1080), 0.0) == 33.335

    def test_reference_rows(self, paper_model, t1080):
        # Direct evaluation of the reference coefficient rows at their
        # visually-lossless bitrates lands on 40 dB.
        assert rl.eval_cubic(paper_model.model(6, t1080), 0.429) == pytest.approx(40.00, abs=0.01)
        assert rl.eval_cubic(paper_model.model(4, t1080), 1.950) == pytest.approx(40.00, abs=0.01)

    def test_rejects_bad_bitrates(self, paper_model, t1080):
        model = paper_model.model(1, t1080)
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ValidationError):
                rl.eval_cubic(model, bad)
            with pytest.raises(ValidationError):
                rl.eval_derivative(model, bad)

    def test_array_evaluation(self, paper_model, t1080):
        model = paper_model.model(2, t1080)
        rs = np.linspace(0.2, 6.0, 7)
        qs = rl.eval_cubic(model, rs)
        assert qs.shape == rs.shape
        assert qs[0] == rl.eval_cubic(model, float(rs[0]))


class TestDerivative:
    def test_matches_central_difference_at_100_points(self, paper_model, t1080):
        model = paper_model.model(5, t1080)
        rng = np.random.default_rng(0)
        for r in rng.uniform(0.2, 12.0, size=100):
            exact = rl.eval_derivative(model, float(r))
            fd = central_difference(model, float(r))
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    @settings(max_examples=60, derandomize=True)
    @given(r=st.floats(0.2, 12.0))
    def test_matches_central_difference_property(self, r):
        model = rl.builtin_model().model(3, rl.tier_from_name("720p"))
        exact = rl.eval_derivative(model, r)
        fd = central_difference(model, r)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_reference_slopes(self, paper_model, t1080):
        # Lower endpoint of the cluster-5 near-zero-slope interval.
        assert rl.eval_derivative(paper_model.model(5, t1080), 3.423) == pytest.approx(0.10, abs=0.01)
        # Cluster 1 never gets near zero slope: its minimum sits around 0.862.
        model = paper_model.model(1, t1080)
        vertex = -2 * model.c2 / (6 * model.c3)
        assert rl.eval_derivative(model, vertex) == pytest.approx(0.862, abs=0.01)
        sweep = np.linspace(0.2, 6.0, 2000)
        assert rl.eval_derivative(model, sweep).min() > 0.1


class TestFitPolynomial:
    def test_exact_interpolation_recovers_reference_row(self, paper_model, t1080):
        source = paper_model.model(6, t1080)
        fit = rl.fit_polynomial(curve_points(source, [0.5, 2.0, 3.5, 5.0]), degree=3)
        for got, want in zip(fit.coefficients, source.coefficients):
            assert got == pytest.approx(want, abs=1e-9)

    def test_collinear_data_zeroes_high_coefficients(self):
        points = [(r, 2 * r + 1) for r in (0.5, 1.5, 3.0, 4.5, 6.0)]
        fit = rl.fit_polynomial(points, degree=3)
        assert fit.c0 == pytest.approx(1.0, abs=1e-9)
        assert fit.c1 == pytest.approx(2.0, abs=1e-9)
        assert abs(fit.c2) < 1e-9 and abs(fit.c3) < 1e-9

    def test_noiseless_grid_recovery(self):
        source = rl.CubicRD(25.0, 9.5, -2.25, 0.21, valid_range=(0.2, 6.0))
        points = curve_points(source, np.linspace(0.2, 6.0, 10))
        fit = rl.fit_polynomial(points, degree=3)
        for got, want in zip(fit.coefficients, source.coefficients):
            assert got == pytest.approx(want, abs=1e-8)

    def test_valid_range_is_data_span(self):
        fit = rl.fit_polynomial([(0.4, 30.0), (1.0, 33.0), (2.5, 35.0), (5.5, 36.0)], degree=2)
        assert fit.valid_range == (0.4, 5.5)

    def test_refit_idempotence(self):
        fit = rl.fit_polynomial(
            [(0.2, 28.0), (1.0, 33.5), (2.0, 36.0), (3.5, 38.1), (6.0, 40.2)], degree=3
        )
        refit = rl.fit_polynomial(curve_points(fit, np.linspace(0.2, 6.0, 8)), degree=3)
        for got, want in zip(refit.coefficients, fit.coefficients):
            assert got == pytest.approx(want, abs=1e-8)

    @settings(max_examples=40, derandomize=True)
    @given(shift=st.floats(-100.0, 100.0))
    def test_shift_equivariance(self, shift):
        base = [(0.3, 29.0), (1.2, 33.0), (2.4, 35.5), (4.0, 37.0), (6.0, 38.0)]
        plain = rl.fit_polynomial(base, degree=3)
        shifted = rl.fit_polynomial([(r, q + shift) for r, q in base], degree=3)
        assert shifted.c0 - plain.c0 == pytest.approx(shift, abs=1e-9)
        for name in ("c1", "c2", "c3"):
            assert getattr(shifted, name) == pytest.approx(getattr(plain, name), abs=1e-9)

    def test_mse_monotone_in_degree(self):
        rng = np.random.default_rng(11)
        rs = np.linspace(0.2, 6.0, 10)
        for _ in range(10):
            qs = 30 + 4 * np.log1p(rng.uniform(0.5, 3) * rs) + rng.normal(0, 0.3, rs.size)
            points = list(zip(rs, qs))
            mses = []
            for degree in (1, 2, 3):
                fit = rl.fit_polynomial(points, degree)
                mses.append(float(np.mean((rl.eval_cubic(fit, rs) - qs) ** 2)))
            assert mses[2] <= mses[1] + 1e-12 and mses[1] <= mses[0] + 1e-12

    def test_errors(self):
        with pytest.raises(ValidationError):
            rl.fit_polynomial([(1.0, 30.0), (2.0, 31.0)], degree=4)
        with pytest.raises(InsufficientDataError):
            rl.fit_polynomial([(1.0, 30.0), (1.0, 30.0), (2.0, 31.0)], degree=3)
        with pytest.raises(ConditioningError) as exc:
            rl.fit_polynomial([(1.0, 30.0), (1.0 + 2e-13, 30.0), (2.0, 31.0), (3.0, 32.0)], 3)
        assert exc.value.condition is not None and exc.value.condition > 1e12


class TestFitLog:
    def test_exact_recovery(self):
        points = [(r, 5.0 * math.log(2.0 * r)) for r in (0.3, 0.9, 1.8, 3.2, 5.5)]
        fit = rl.fit_log(points)
        assert fit.a == pytest.approx(5.0, abs=1e-8)
        assert fit.b == pytest.approx(2.0, abs=1e-8)

    def test_constant_data_degenerates_cleanly(self):
        points = [(r, 30.0) for r in (0.5, 1.0, 2.0, 4.0)]
        fit = rl.fit_log(points)
        assert abs(fit.a) < 1e-12
        assert fit.b == 1.0
        assert all(fit.predict(r) == pytest.approx(30.0, abs=1e-9) for r, _ in points)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            rl.fit_log([(0.0, 30.0), (1.0, 31.0)])
        with pytest.raises(ValidationError):
            rl.fit_log([(-1.0, 30.0), (1.0, 31.0)])

    def test_log_loses_to_cubic_on_cubic_data(self, paper_model, t1080):
        points = curve_points(paper_model.model(5, t1080), np.linspace(0.2, 6.0, 10))
        report = rl.compare_fits(points)
        assert report.mse["log"] > report.mse["poly3"]


class TestCompareFits:
    def test_cubic_data_chooses_poly3(self, paper_model, t1080):
        points = curve_points(paper_model.model(2, t1080), np.linspace(0.2, 6.0, 10))
        report = rl.compare_fits(points)
        assert report.chosen == "poly3"
        assert report.mse["poly3"] < 1e-12

    def test_linear_data_tie_breaks_to_linear(self):
        points = [(r, 3 * r + 20) for r in np.linspace(0.2, 6.0, 8)]
        report = rl.compare_fits(points)
        assert report.chosen == "linear"

    def test_nested_mse_ordering_on_random_data(self):
        rng = np.random.default_rng(3)
        rs = np.linspace(0.2, 6.0, 10)
        for _ in range(20):
            qs = 25 + 5 * np.log1p(rng.uniform(0.5, 4) * rs) + rng.normal(0, 0.2, rs.size)
            report = rl.compare_fits(list(zip(rs, qs)))
            assert report.mse["poly3"] <= report.mse["poly2"] + 1e-12
            assert report.mse["poly2"] <= report.mse["linear"] + 1e-12

    def test_failed_family_reported_absent(self):
        # With four points, two of them near-duplicates, the cubic fit's
        # conditioning collapses while the simpler families still fit.
        points = [(1.0, 30.0), (1.0 + 2e-13, 30.0), (2.0, 33.0), (3.0, 35.0)]
        report = rl.compare_fits(points)
        assert "poly3" not in report.mse
        assert "poly3" in report.failures
        assert "linear" in report.mse and "log" in report.mse

    def test_requires_four_distinct_bitrates(self):
        with pytest.raises(InsufficientDataError):
            rl.compare_fits([(1.0, 30.0), (2.0, 31.0), (3.0, 32.0)])


def test_cubicrd_invariants():
    with pytest.raises(ValidationError):
        rl.CubicRD(1.0, float("nan"), 0.0, 0.0, valid_range=(0.2, 6.0))
    with pytest.raises(ValidationError):
        rl.CubicRD(1.0, 1.0, 0.0, 0.0, valid_range=(0.0, 6.0))
    with pytest.raises(ValidationError):
        rl.CubicRD(1.0, 1.0, 0.0, 0.0, valid_range=(6.0, 0.2))
