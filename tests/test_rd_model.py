import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdladder as rl
from rdladder import rd_model
from rdladder.errors import (
    ConditioningError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)
from rdladder.ingest import MEASUREMENT_HEADER

from helpers import central_difference, curve_points, handle_document


def test_tier_ordering_and_parse():
    t360, t540, t720, t1080 = (rl.tier_from_name(n) for n in ("360p", "540p", "720p", "1080p"))
    assert t360 < t540 < t720 < t1080
    assert (t720.height, t720.name) == (720, "720p")
    assert max([t720, t360, t1080, t540]) is t1080
    custom = rl.tier_from_name("1440p")
    assert (custom.height, custom.name) == (1440, "1440p")
    again = rl.tier_from_name("1440p")
    assert again is not custom and again == custom and hash(again) == hash(custom)
    for name in ("4k", "1440p\n"):
        with pytest.raises(ValidationError):
            rl.tier_from_name(name)


@settings(max_examples=100, derandomize=True)
@given(st.lists(st.integers(100, 9999), min_size=2, max_size=8))
def test_tiers_sort_by_height(heights):
    tiers = [rl.tier_from_name(f"{height}p") for height in heights]
    assert [tier.height for tier in sorted(tiers)] == sorted(heights)


@pytest.mark.parametrize("name", ["0720p", "1\u0664\u0664\u0660p"])
def test_tier_names_must_be_canonical(name, tables):
    # Another spelling of an existing height would be a second, equal-sized tier.
    with pytest.raises(ValidationError, match="unknown resolution tier"):
        rl.tier_from_name(name)
    csv = f"{MEASUREMENT_HEADER}\ng,720p,1.0,30.0\ng,{name},1.0,30.0\n"
    with pytest.raises(ParseError, match="line 3: unknown resolution tier"):
        rl.parse_measurements(csv)
    gop = {"gop_id": "bad", "tier": name, "points": [[1.0, 30.0]]}
    status, body = handle_document(
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


def _float_path_models():
    """A paper curve (float coefficients) and a fitted one (numpy float64
    coefficients): the float path must match the array path for both."""
    paper = rl.builtin_model().model(3, rl.tier_from_name("720p"))
    rs = np.array([0.3, 1.1, 2.4, 3.9, 5.2, 6.0])
    return paper, rl.fit_polynomial(list(zip(rs, rl.eval_cubic(paper, rs) + 0.01 * rs)))


class TestFloatPath:
    """A Python float is evaluated with plain arithmetic, anything else
    through numpy; both must agree to the bit and fail alike."""

    @settings(max_examples=300, derandomize=True)
    @given(r=st.floats(0.0, 50.0))
    def test_bit_identical_to_the_array_path(self, r):
        for model in _float_path_models():
            for evaluate in (rl.eval_cubic, rl.eval_derivative):
                scalar = evaluate(model, r)
                assert type(scalar) is float
                assert scalar.hex() == float(evaluate(model, np.array([r]))[0]).hex()

    @pytest.mark.parametrize("bad, message", [
        (float("nan"), "bitrate must be finite"),
        (float("inf"), "bitrate must be finite"),
        (-float("inf"), "bitrate must be finite"),
        (-0.5, "bitrate must be >= 0"),
        (-5e-324, "bitrate must be >= 0"),
    ])
    def test_bad_floats_raise_the_array_path_messages(self, bad, message):
        model = _float_path_models()[0]
        for evaluate in (rl.eval_cubic, rl.eval_derivative):
            for r in (bad, np.array(bad), np.array([1.0, bad])):
                with pytest.raises(ValidationError) as raised:
                    evaluate(model, r)
                assert str(raised.value) == message

    @pytest.mark.parametrize("r", [2, np.float64(2.0), np.float32(2.0), np.int64(2),
                                   np.array(2.0), np.array([2.0, 3.0])])
    def test_other_types_keep_the_numpy_path(self, r):
        assert isinstance(rd_model._check_bitrate(r), np.ndarray)
        model = _float_path_models()[0]
        out = rl.eval_cubic(model, r)
        if np.ndim(r):
            assert isinstance(out, np.ndarray) and out[0] == rl.eval_cubic(model, 2.0)
        else:
            assert type(out) is float and out == rl.eval_cubic(model, 2.0)

    def test_negative_zero_is_a_bitrate(self):
        model = _float_path_models()[0]
        assert rl.eval_cubic(model, -0.0) == rl.eval_cubic(model, 0.0) == model.c0


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
        fit = rl.fit_polynomial(curve_points(source, [0.5, 2.0, 3.5, 5.0]))
        for got, want in zip(fit.coefficients, source.coefficients):
            assert got == pytest.approx(want, abs=1e-9)

    def test_collinear_data_zeroes_high_coefficients(self):
        points = [(r, 2 * r + 1) for r in (0.5, 1.5, 3.0, 4.5, 6.0)]
        fit = rl.fit_polynomial(points)
        assert fit.c0 == pytest.approx(1.0, abs=1e-9)
        assert fit.c1 == pytest.approx(2.0, abs=1e-9)
        assert abs(fit.c2) < 1e-9 and abs(fit.c3) < 1e-9

    def test_noiseless_grid_recovery(self):
        source = rl.CubicRD(25.0, 9.5, -2.25, 0.21, valid_range=(0.2, 6.0))
        points = curve_points(source, np.linspace(0.2, 6.0, 10))
        fit = rl.fit_polynomial(points)
        for got, want in zip(fit.coefficients, source.coefficients):
            assert got == pytest.approx(want, abs=1e-8)

    def test_valid_range_is_data_span(self):
        fit = rl.fit_polynomial([(0.4, 30.0), (1.0, 33.0), (2.5, 35.0), (5.5, 36.0)])
        assert fit.valid_range == (0.4, 5.5)

    def test_refit_idempotence(self):
        fit = rl.fit_polynomial([(0.2, 28.0), (1.0, 33.5), (2.0, 36.0), (3.5, 38.1), (6.0, 40.2)])
        refit = rl.fit_polynomial(curve_points(fit, np.linspace(0.2, 6.0, 8)))
        for got, want in zip(refit.coefficients, fit.coefficients):
            assert got == pytest.approx(want, abs=1e-8)

    @settings(max_examples=40, derandomize=True)
    @given(shift=st.floats(-100.0, 100.0))
    def test_shift_equivariance(self, shift):
        base = [(0.3, 29.0), (1.2, 33.0), (2.4, 35.5), (4.0, 37.0), (6.0, 38.0)]
        plain = rl.fit_polynomial(base)
        shifted = rl.fit_polynomial([(r, q + shift) for r, q in base])
        assert shifted.c0 - plain.c0 == pytest.approx(shift, abs=1e-9)
        for name in ("c1", "c2", "c3"):
            assert getattr(shifted, name) == pytest.approx(getattr(plain, name), abs=1e-9)

    def test_mse_monotone_in_degree(self):
        rng = np.random.default_rng(11)
        rs = np.linspace(0.2, 6.0, 10)
        for _ in range(10):
            qs = 30 + 4 * np.log1p(rng.uniform(0.5, 3) * rs) + rng.normal(0, 0.3, rs.size)
            points = list(zip(rs, qs))
            # np.polyfit's lower-degree fits are the oracle for the cubic's.
            fits = [np.polyval(np.polyfit(rs, qs, degree), rs) for degree in (1, 2)]
            fits.append(rl.eval_cubic(rl.fit_polynomial(points), rs))
            mses = [float(np.mean((fit - qs) ** 2)) for fit in fits]
            assert mses[2] <= mses[1] + 1e-12 and mses[1] <= mses[0] + 1e-12

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            rl.fit_polynomial([(1.0, 30.0), (1.0, 30.0), (2.0, 31.0)])
        with pytest.raises(ConditioningError) as exc:
            rl.fit_polynomial([(1.0, 30.0), (1.0 + 2e-13, 30.0), (2.0, 31.0), (3.0, 32.0)])
        assert exc.value.condition is not None and exc.value.condition > 1e12


def test_cubicrd_invariants():
    with pytest.raises(ValidationError):
        rl.CubicRD(1.0, float("nan"), 0.0, 0.0, valid_range=(0.2, 6.0))
    with pytest.raises(ValidationError):
        rl.CubicRD(1.0, 1.0, 0.0, 0.0, valid_range=(0.0, 6.0))
    with pytest.raises(ValidationError):
        rl.CubicRD(1.0, 1.0, 0.0, 0.0, valid_range=(6.0, 0.2))
