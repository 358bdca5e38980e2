"""Acceptance gate: every release criterion, each at its stated tolerance,
with one printed PASS/FAIL line per criterion (run with ``pytest -s`` to
see them inline)."""

import itertools

import numpy as np
import pytest

import rdladder as rl
from rdladder import cli
from rdladder.verify import DISCREPANCY, verify_rows

from rdladder.clustering import kmeans

from helpers import (
    bisection_roots,
    central_difference,
    grid_measurements,
    observation_batch,
    pairwise_knees,
    random_cubics,
)

T1080 = rl.tier_from_name("1080p")


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} [{status}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def model():
    return rl.builtin_model()


@pytest.fixture(scope="module")
def config():
    return rl.DecisionConfig()


@pytest.fixture(scope="module")
def tables(model, config):
    return rl.DecisionTables(model, config)


def test_criterion_1_knee_points(tables):
    expected = {1: 1.061, 2: 1.499, 3: 1.647}
    deltas = []
    ok = True
    for cluster, want in expected.items():
        hits = tables.knees[(cluster, rl.tier_from_name("720p"), T1080)]
        got = hits[0] if hits else float("nan")
        deltas.append(f"c{cluster}: {got:.4f} vs {want}")
        ok = ok and len(hits) == 1 and abs(got - want) <= 0.01
    report(1, "720p/1080p knee points within 0.01 Mbps", ok, "; ".join(deltas))


def test_criterion_2_visually_lossless_thresholds(model, config, tables):
    expected = {1: 8.041, 2: 7.072, 3: 5.018, 4: 1.950, 5: 1.077, 6: 0.429}
    ok = True
    details = []
    for cluster, want in expected.items():
        found = tables.vl[(cluster, T1080)]
        if found is None:
            ok = False
            details.append(f"c{cluster}: none")
            continue
        residual = abs(rl.eval_cubic(model.model(cluster, T1080), found) - config.vl_psnr)
        ok = ok and abs(found - want) <= 0.01 and residual <= 0.005
        details.append(f"c{cluster}: {found:.4f} vs {want}")
    report(2, "1080p visually-lossless thresholds within 0.01 Mbps", ok, "; ".join(details))


def test_criterion_3_near_zero_slope_intervals(tables):
    five = tables.nzs[(5, T1080)]
    six = tables.nzs[(6, T1080)]
    ok = (
        five is not None
        and abs(five[0] - 3.423) <= 0.02
        and abs(five[1] - 4.414) <= 0.02
        and six is not None
        and abs(six[0] - 3.293) <= 0.02
        and abs(six[1] - 4.575) <= 0.02
        and all(tables.nzs[(c, T1080)] is None for c in (1, 2, 3, 4))
    )
    detail = (
        f"c5 [{five[0]:.4f}, {five[1]:.4f}], c6 [{six[0]:.4f}, {six[1]:.4f}], c1-c4 absent"
        if five and six
        else "missing interval"
    )
    report(3, "1080p near-zero-slope intervals within 0.02 Mbps", ok, detail)


SCENARIO_CLUSTERS = {
    "Test_1": (3,) * 10,
    "Test_2": (6, 6, 6, 6, 6, 4, 1, 1, 1, 1),
    "Test_3": (5, 5, 5, 4, 3, 2, 2, 2, 2, 2),
    "Test_4": (3,) * 10,
    "Test_5": (6,) * 10,
    "Test_7": (4,) * 10,
    "Test_9": (1,) * 10,
    "Test_10": (4, 4, 4, 5, 4, 4, 4, 4, 5, 5),
}


def test_criterion_4_vl_savings_reproduction(model, config):
    tables = rl.DecisionTables(model, config)
    vl_only = rl.Modes(vl=True)
    targets = {
        "Test_1": 6.0, "Test_2": 3.0, "Test_3": 3.0, "Test_4": 6.0,
        "Test_5": 1.0, "Test_7": 3.0, "Test_9": 3.0, "Test_10": 3.0,
    }
    expected_totals = {
        "Test_1": 50.18, "Test_2": 16.09, "Test_3": 23.18, "Test_4": 50.18,
        "Test_5": 4.28, "Test_7": 19.50, "Test_9": 30.00, "Test_10": 16.88,
    }
    expected_savings = {
        "Test_1": 16.36, "Test_2": 46.36, "Test_5": 57.20,
        "Test_7": 35.00, "Test_9": 0.00, "Test_10": 43.73,
    }
    by_video = {
        video: rl.savings_report([
            (targets[video], tables.decide(c, T1080, targets[video], vl_only)[1])
            for c in SCENARIO_CLUSTERS[video]
        ])
        for video in targets
    }
    ok = True
    details = []
    for video, want in expected_totals.items():
        got = by_video[video]["total_proposed"]
        ok = ok and abs(got - want) <= 0.1
        details.append(f"{video}: {got:.2f}")
    for video, want in expected_savings.items():
        got = by_video[video]["saving_percent"]
        ok = ok and abs(got - want) <= 0.1
    report(4, "visually-lossless savings scenario totals and percentages", ok, "; ".join(details))


def test_criterion_5_nzs_savings_reproduction(model, config):
    tables = rl.DecisionTables(model, config)
    nzs_only = rl.Modes(nzs=True)
    cases = {
        "Test_2": (4.575, 39.34, 14.011),
        "Test_5": (4.575, 32.93, 28.022),
        "Test_10": (4.000, 38.269, 4.328),
    }
    ok = True
    details = []
    for video, (target, want_total, want_saving) in cases.items():
        proposed = [
            tables.decide(c, T1080, target, nzs_only)[1]
            for c in SCENARIO_CLUSTERS[video]
        ]
        total = sum(proposed)
        saving = 100.0 * (target * 10 - total) / (target * 10)
        ok = ok and abs(total - want_total) <= 0.1 and abs(saving - want_saving) <= 0.1
        details.append(f"{video}: {total:.3f}/{saving:.3f}%")
    report(5, "near-zero-slope savings scenario totals and percentages", ok, "; ".join(details))


def test_criterion_6_trans_sizing_decisions(tables):
    ladder3 = tables.ladders[3]
    ladder6 = tables.ladders[6]
    ok = (
        ladder3.tier_at(0.2).name == "360p"
        and ladder3.tier_at(1.0).name == "720p"
        and all(
            ladder6.tier_at(r).name == "1080p" for r in (0.2, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0)
        )
    )
    report(6, "trans-sizing tier decisions match exactly", ok,
           f"c3@0.2 -> {ladder3.tier_at(0.2)}, c3@1.0 -> {ladder3.tier_at(1.0)}, c6 -> 1080p")


def test_criterion_7_fit_family_ordering():
    rng = np.random.default_rng(12345)
    rs = np.linspace(0.2, 6.0, 10)
    wins = 0
    for _ in range(20):
        a = rng.uniform(2.0, 8.0)
        b = rng.uniform(0.5, 4.0)
        c = rng.uniform(20.0, 35.0)
        qs = a * np.log1p(b * rs) + c  # smooth concave synthetic R-D curve
        # np.polyfit's linear and quadratic fits are the oracle for the cubic's.
        linear, quadratic = (np.polyval(np.polyfit(rs, qs, degree), rs) for degree in (1, 2))
        cubic = rl.eval_cubic(rl.fit_polynomial(list(zip(rs, qs))), rs)
        mse = [float(np.mean((fit - qs) ** 2)) for fit in (cubic, quadratic, linear)]
        if mse[0] <= mse[1] + 1e-12 <= mse[2] + 2e-12:
            wins += 1
    report(7, "cubic <= quadratic <= linear MSE on 20 synthetic curves", wins == 20, f"{wins}/20")


def test_criterion_8_clustering_recovery(model):
    clusters = [c for c in range(1, 7) for _ in range(10)]
    recovered = 0
    for seed in range(10):
        rng = np.random.default_rng(5000 + seed)
        mset = grid_measurements(clusters, [T1080], model.grid, model, noise=0.1, rng=rng)
        result = kmeans(rl.resample_to_grid(mset, model.grid), k=6, seed=seed)
        mapping: dict[int, set] = {}
        for want, got in zip(clusters, result.labels):
            mapping.setdefault(want, set()).add(got)
        if all(len(v) == 1 for v in mapping.values()) and len(
            {next(iter(v)) for v in mapping.values()}
        ) == 6:
            recovered += 1
    report(8, "reference partition recovered from noisy curves, 10 seeds", recovered == 10,
           f"{recovered}/10")


def test_criterion_9_property_suites(model, config, tmp_path):
    failures = []

    # Derivative vs central finite differences, 100 random points.
    rng = np.random.default_rng(99)
    curve = model.model(4, T1080)
    for r in rng.uniform(0.2, 12.0, size=100):
        exact = rl.eval_derivative(curve, float(r))
        if abs(central_difference(curve, float(r)) - exact) > 1e-6 * max(1.0, abs(exact)):
            failures.append(f"derivative mismatch at {r:.4f}")
            break

    # Root finder vs bisection oracle over 1000 random cubic pairs, all
    # solved in one table build.
    cubics = random_cubics(2000, seed=777)
    pairs = list(zip(cubics[:1000], cubics[1000:]))
    checked = 0
    for (a, b), solver in zip(pairs, pairwise_knees(pairs)):
        coeffs = [a.c3 - b.c3, a.c2 - b.c2, a.c1 - b.c1, a.c0 - b.c0]
        oracle = bisection_roots(coeffs, 0.2, 6.0)
        checked += 1
        if len(oracle) != len(solver) or any(
            abs(x - y) > 1e-6 for x, y in zip(sorted(solver), sorted(oracle))
        ):
            failures.append(f"roots {solver} vs oracle {oracle}")
            break

    # Ladder argmax invariance at 1000 random bitrates per cluster.
    rng = np.random.default_rng(41)
    tables = rl.DecisionTables(model, config)
    for cluster in model.clusters:
        ladder = tables.ladders[cluster]
        rs = rng.uniform(*rl.OPERATING_RANGE, size=1000)
        for r in rs:
            best = rl.eval_cubic(model.model(cluster, ladder.tier_at(float(r))), float(r))
            for tier in model.tiers:
                if best < rl.eval_cubic(model.model(cluster, tier), float(r)) - 1e-6:
                    failures.append(f"ladder argmax c{cluster}@{r:.4f}")
                    break

    # Proposed <= target for every mode combination over a bitrate sweep.
    combos = [
        rl.Modes(*flags) for flags in itertools.product((False, True), repeat=3) if any(flags)
    ]
    sweep = np.linspace(0.25, 6.0, 100)
    gops = []
    for cluster in model.clusters:
        curve = model.model(cluster, T1080)
        points = tuple((float(r), rl.eval_cubic(curve, float(r))) for r in (0.5, 2.0, 5.0))
        gops.append((f"c{cluster}", T1080, points))
    observations = observation_batch(gops)
    for target in sweep:
        for modes in combos:
            for rec in tables.advise(observations, float(target), modes)["recommendations"]:
                if not (0 < rec["proposed_bitrate"] <= rec["target_bitrate"]):
                    failures.append(f"unsafe proposal {rec['gop_id']}@{target:.3f} {modes}")

    # Model file round-trip equality.
    text = rl.save_model(model)
    loaded = rl.load_model(text)
    if rl.save_model(loaded) != text:
        failures.append("model file round trip not byte-stable")
    if any(
        loaded.model(*key).coefficients != model.model(*key).coefficients
        for key in model.models
    ):
        failures.append("model file round trip changed coefficients")

    report(9, "property suites (derivative, roots, ladder, safety, round-trip)",
           not failures, failures[0] if failures else f"{checked} root cases checked")


def test_criterion_10_documented_discrepancies(capsys):
    rows = verify_rows()
    notes = [r for r in rows if r.status == DISCREPANCY]
    knee_note = any("0.876" in r.name for r in notes)
    vl_note = any(
        r.section == "visually-lossless" and "cluster 3 540p" in r.name for r in notes
    )
    no_failures = all(r.status != "fail" for r in rows)
    rc = cli.main(["verify-paper"])
    capsys.readouterr()
    ok = knee_note and vl_note and no_failures and rc == 0
    report(10, "non-derivable published values flagged, not failed", ok,
           f"{len(notes)} documented discrepancies, verify-paper exit {rc}")
