"""The oracle reproduces the published reference values on the published
coefficient table, at the tolerances the paper check uses.

Run from the repository root:  python -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from rdladder import verify  # noqa: E402
from rdladder.ingest import builtin_model  # noqa: E402

from oracle import OPERATING_RANGE, Oracle, crossings  # noqa: E402

TIERS = ["360p", "540p", "720p", "1080p"]


@pytest.fixture(scope="module")
def paper():
    model = builtin_model()
    coeffs = {(c, t.name): model.model(c, t).coefficients for c in model.clusters for t in model.tiers}
    return coeffs, Oracle(coeffs, TIERS)


def test_knees(paper):
    coeffs, _ = paper
    for (cluster, a, b), expected in verify.REFERENCE_KNEES.items():
        found = crossings(coeffs[(cluster, a)], coeffs[(cluster, b)], *OPERATING_RANGE)
        assert found, (cluster, a, b)
        nearest = min(found, key=lambda r: abs(r - expected))
        assert abs(nearest - expected) <= verify.KNEE_TOL, (cluster, a, b, nearest)


def test_visually_lossless_thresholds(paper):
    _, oracle = paper
    for key, expected in verify.REFERENCE_VL.items():
        if key in verify.NON_DERIVABLE_VL:
            continue
        assert oracle.vl[key] is not None, key
        assert abs(oracle.vl[key] - expected) <= verify.VL_TOL, (key, oracle.vl[key])


def test_near_zero_slope_intervals(paper):
    _, oracle = paper
    for key, expected in verify.REFERENCE_NZS.items():
        found = oracle.nzs[key]
        if expected is None:
            assert found is None, key
        else:
            assert found is not None, key
            assert abs(found[0] - expected[0]) <= verify.NZS_TOL, (key, found)
            assert abs(found[1] - expected[1]) <= verify.NZS_TOL, (key, found)


def test_trans_sizing(paper):
    _, oracle = paper
    for (cluster, target), tier in verify.REFERENCE_TRANSSIZE.items():
        assert oracle.decide(cluster, target)[0] == tier, (cluster, target)


def test_assignment_ties_go_to_the_lower_cluster():
    # Two identical coefficient rows: the lower index must win.
    twin = Oracle({(1, "1080p"): (30.0, 1.0, 0.0, 0.0), (2, "1080p"): (30.0, 1.0, 0.0, 0.0)}, ["1080p"])
    clusters, margins = twin.assign("1080p", [[1.0, 2.0]], [[31.0, 32.0]])
    assert clusters.tolist() == [1] and margins.tolist() == [0.0]
