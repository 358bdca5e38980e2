"""Self-check of the built-in reference model: re-derive knee points,
visually-lossless thresholds, near-zero-slope intervals, trans-sizing
choices and the bitrate-saving scenarios from the built-in coefficients
and compare them with the published reference values bundled below.

Two published values are known not to be derivable from the (rounded)
built-in coefficients; they are reported as documented discrepancies,
never as failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import DecisionConfig, DecisionTables, Modes, savings_report
from .ingest import builtin_model
from .tiers import tier_from_name

KNEE_TOL = 0.01      # Mbps
VL_TOL = 0.01        # Mbps
NZS_TOL = 0.02       # Mbps
TOTAL_TOL = 0.05     # Mbps on per-video bitrate totals
SAVING_TOL = 0.1     # percentage points

# Published knee points (bitrate where the two tiers' curves cross).
REFERENCE_KNEES: dict[tuple[int, str, str], float] = {
    (1, "720p", "1080p"): 1.061,
    (2, "720p", "1080p"): 1.499,
    (3, "720p", "1080p"): 1.647,
    (3, "360p", "540p"): 0.239,
    (5, "540p", "1080p"): 0.355,
}

# Published minimal bitrates reaching 40 dB, per cluster and tier.
REFERENCE_VL: dict[tuple[int, str], float] = {
    (1, "360p"): 8.808, (1, "540p"): 8.951, (1, "720p"): 8.802, (1, "1080p"): 8.041,
    (2, "360p"): 8.229, (2, "540p"): 8.046, (2, "720p"): 7.757, (2, "1080p"): 7.072,
    (3, "360p"): 7.175, (3, "540p"): 8.95, (3, "720p"): 6.445, (3, "1080p"): 5.018,
    (4, "360p"): 6.379, (4, "540p"): 3.377, (4, "720p"): 2.772, (4, "1080p"): 1.950,
    (5, "360p"): 3.385, (5, "540p"): 2.155, (5, "720p"): 1.998, (5, "1080p"): 1.077,
    (6, "360p"): 0.891, (6, "540p"): 0.862, (6, "720p"): 0.880, (6, "1080p"): 0.429,
}
# The published cluster-3 540p threshold repeats the cluster-1 540p value
# and does not follow from the rounded coefficients.
NON_DERIVABLE_VL = {(3, "540p")}

# Published near-zero-slope intervals (None where the slope never dips
# below the threshold).
REFERENCE_NZS: dict[tuple[int, str], tuple[float, float] | None] = {
    (1, "360p"): (3.724, 4.306), (1, "540p"): (3.003, 4.875), (1, "720p"): None, (1, "1080p"): None,
    (2, "360p"): (3.073, 4.865), (2, "540p"): (3.564, 4.515), (2, "720p"): None, (2, "1080p"): None,
    (3, "360p"): (2.673, 4.915), (3, "540p"): (2.963, 4.785), (3, "720p"): (3.253, 4.585), (3, "1080p"): None,
    (4, "360p"): (2.993, 5.035), (4, "540p"): (3.794, 4.815), (4, "720p"): (3.914, 4.705), (4, "1080p"): None,
    (5, "360p"): None, (5, "540p"): (3.003, 4.414), (5, "720p"): (3.253, 4.274), (5, "1080p"): (3.423, 4.414),
    (6, "360p"): (2.943, 4.835), (6, "540p"): (3.113, 4.725), (6, "720p"): (3.083, 4.725), (6, "1080p"): (3.293, 4.575),
}

# Per-GOP cluster assignments of the published test videos.
SCENARIO_CLUSTERS: dict[str, tuple[int, ...]] = {
    "Test_1": (3,) * 10,
    "Test_2": (6, 6, 6, 6, 6, 4, 1, 1, 1, 1),
    "Test_3": (5, 5, 5, 4, 3, 2, 2, 2, 2, 2),
    "Test_4": (3,) * 10,
    "Test_5": (6,) * 10,
    "Test_6": (5, 5, 4, 3, 3, 3, 3, 3, 4, 6),
    "Test_7": (4,) * 10,
    "Test_8": (2, 2, 2, 2, 2, 2, 3, 2, 2, 2),
    "Test_9": (1,) * 10,
    "Test_10": (4, 4, 4, 5, 4, 4, 4, 4, 5, 5),
    "Test_11": (1, 1, 2, 4, 4, 2, 1, 1, 1, 2),
}

# Visually-lossless capping scenario (all GOPs at 1080p):
# video -> (target bitrate, published model total, published saving %).
VL_SCENARIOS: dict[str, tuple[float, float, float]] = {
    "Test_1": (6.0, 50.18, 16.36),
    "Test_2": (3.0, 16.09, 46.36),
    "Test_3": (3.0, 23.18, 22.73),
    "Test_4": (6.0, 50.18, 16.36),
    "Test_5": (1.0, 4.28, 57.20),
    "Test_6": (2.0, 16.48, 17.60),
    "Test_7": (3.0, 19.50, 35.00),
    "Test_8": (5.0, 50.00, 0.00),
    "Test_9": (3.0, 30.00, 0.00),
    "Test_10": (3.0, 16.88, 43.73),
}
# The published Test_11 total (28.95) contradicts the published per-GOP
# rows (which sum to 27.90); reported as a discrepancy, not checked.
VL_SCENARIO_DISCREPANCY = {"Test_11": (3.0, 28.95)}

# Near-zero-slope reduction scenario (all GOPs at 1080p). The published
# table's two total rows are transposed; savings are computed against the
# model totals listed here.
NZS_SCENARIOS: dict[str, tuple[float, float, float]] = {
    "Test_2": (4.575, 39.340, 14.011),
    "Test_3": (4.414, 41.167, 6.735),
    "Test_4": (5.000, 50.000, 0.000),
    "Test_5": (4.575, 32.930, 28.022),
    "Test_6": (4.414, 41.037, 7.029),
    "Test_7": (3.000, 30.000, 0.000),
    "Test_8": (3.000, 30.000, 0.000),
    "Test_9": (3.000, 30.000, 0.000),
    "Test_10": (4.000, 38.269, 4.328),
    "Test_11": (4.000, 40.000, 0.000),
}
# The published Test_1 model total (50.020) contradicts its own per-GOP
# rows (ten GOPs at 5.020 with no reduction applicable).
NZS_SCENARIO_DISCREPANCY = {"Test_1": (5.020, 50.020)}

# Published trans-sizing picks: (cluster, target bitrate) -> tier.
REFERENCE_TRANSSIZE: dict[tuple[int, float], str] = {
    (3, 0.2): "360p",
    (3, 1.0): "720p",
    (6, 0.5): "1080p",
    (6, 2.0): "1080p",
    (6, 6.0): "1080p",
}

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"


@dataclass(frozen=True)
class VerifyRow:
    section: str
    name: str
    computed: str
    expected: str
    status: str
    note: str = ""


def _check(section: str, name: str, computed: float, expected: float, tol: float,
           note: str = "") -> VerifyRow:
    ok = abs(computed - expected) <= tol
    return VerifyRow(
        section=section,
        name=name,
        computed=f"{computed:.4f}",
        expected=f"{expected:.4f}",
        status=PASS if ok else FAIL,
        note=note,
    )


def verify_rows(cfg: DecisionConfig | None = None) -> list[VerifyRow]:
    """Recompute every derivable published quantity from the built-in
    model and compare, one row per quantity."""
    cfg = cfg or DecisionConfig()
    model = builtin_model()
    tables = DecisionTables(model, cfg)
    rows: list[VerifyRow] = []

    for (cluster, lo_tier, hi_tier), expected in REFERENCE_KNEES.items():
        hits = tables.knees[(cluster, tier_from_name(lo_tier), tier_from_name(hi_tier))]
        name = f"cluster {cluster} {lo_tier}/{hi_tier} knee"
        if not hits:
            rows.append(VerifyRow("knee", name, "none", f"{expected:.3f}", FAIL))
        else:
            nearest = min(hits, key=lambda r: abs(r - expected))
            rows.append(_check("knee", name, nearest, expected, KNEE_TOL))

    ladder1 = tables.ladders[1]
    bps = ", ".join(f"{b:.4f}" for b in ladder1.breakpoints)
    tiers1 = "/".join(tier.name for tier in ladder1.tiers)
    rows.append(
        VerifyRow(
            "knee",
            "cluster 1 low-bitrate breakpoint 0.876",
            f"ladder {tiers1} with breakpoints [{bps}]",
            "360p/720p knee at 0.876",
            DISCREPANCY,
            note="not derivable from the rounded coefficients: the 360p and 720p "
            "curves do not cross in range; the derived low breakpoint is the "
            "540p/720p knee",
        )
    )

    def _by_cluster_then_tier(item):
        (cluster, tier_name) = item[0]
        return (cluster, tier_from_name(tier_name))

    for (cluster, tier_name), expected in sorted(REFERENCE_VL.items(), key=_by_cluster_then_tier):
        tier = tier_from_name(tier_name)
        found = tables.vl[(cluster, tier)]
        name = f"cluster {cluster} {tier_name} visually-lossless threshold"
        computed = "none" if found is None else f"{found:.4f}"
        if (cluster, tier_name) in NON_DERIVABLE_VL:
            rows.append(
                VerifyRow(
                    "visually-lossless", name, computed, f"{expected:.3f}", DISCREPANCY,
                    note="published value duplicates the cluster-1 540p threshold and "
                    "is not derivable from the rounded coefficients",
                )
            )
        elif found is None:
            rows.append(VerifyRow("visually-lossless", name, "none", f"{expected:.3f}", FAIL))
        else:
            extrapolated = not model.model(cluster, tier).covers(found)
            note = "beyond fitted span (extrapolated)" if extrapolated else ""
            rows.append(_check("visually-lossless", name, found, expected, VL_TOL, note=note))

    for (cluster, tier_name), expected_iv in sorted(REFERENCE_NZS.items(), key=_by_cluster_then_tier):
        tier = tier_from_name(tier_name)
        found = tables.nzs[(cluster, tier)]
        name = f"cluster {cluster} {tier_name} near-zero-slope interval"
        if expected_iv is None:
            rows.append(
                VerifyRow(
                    "near-zero-slope", name,
                    "none" if found is None else f"[{found[0]:.4f}, {found[1]:.4f}]",
                    "none",
                    PASS if found is None else FAIL,
                )
            )
        elif found is None:
            rows.append(
                VerifyRow(
                    "near-zero-slope", name, "none",
                    f"[{expected_iv[0]:.3f}, {expected_iv[1]:.3f}]", FAIL,
                )
            )
        else:
            ok = all(abs(f - e) <= NZS_TOL for f, e in zip(found, expected_iv))
            rows.append(
                VerifyRow(
                    "near-zero-slope", name,
                    f"[{found[0]:.4f}, {found[1]:.4f}]",
                    f"[{expected_iv[0]:.3f}, {expected_iv[1]:.3f}]",
                    PASS if ok else FAIL,
                )
            )

    for (cluster, target), tier_name in REFERENCE_TRANSSIZE.items():
        picked = tables.ladders[cluster].tier_at(target)
        rows.append(
            VerifyRow(
                "trans-sizing",
                f"cluster {cluster} at {target:g} Mbps",
                picked.name,
                tier_name,
                PASS if picked.name == tier_name else FAIL,
            )
        )

    rows += _scenario_rows(
        tables, "savings-vl", Modes(vl=True), VL_SCENARIOS, VL_SCENARIO_DISCREPANCY,
        "{:.2f}", "published total contradicts the published per-GOP rows, which sum to 27.90",
    )
    rows += _scenario_rows(
        tables, "savings-nzs", Modes(nzs=True), NZS_SCENARIOS, NZS_SCENARIO_DISCREPANCY,
        "{:.3f}", "published total contradicts the published per-GOP rows, "
        "which sum to 50.20 with no reduction applicable",
    )
    return rows


def _scenario_rows(tables, section, modes, scenarios, discrepancies, published_format, note):
    """Total and saving rows of each checked scenario video, then a total
    row per documented discrepancy; every GOP is decided at 1080p."""
    tier_1080 = tier_from_name("1080p")

    def pairs(video, target):
        return [
            (target, tables.decide(cluster, tier_1080, target, modes)[1])
            for cluster in SCENARIO_CLUSTERS[video]
        ]

    rows = []
    for video, (target, expected_total, expected_saving) in scenarios.items():
        report = savings_report(pairs(video, target))
        rows.append(_check(section, f"{video} model total", report["total_proposed"],
                           expected_total, TOTAL_TOL))
        rows.append(_check(section, f"{video} saving %", report["saving_percent"],
                           expected_saving, SAVING_TOL))
    for video, (target, published) in discrepancies.items():
        total = savings_report(pairs(video, target))["total_proposed"]
        rows.append(VerifyRow(section, f"{video} model total", f"{total:.4f}",
                              published_format.format(published), DISCREPANCY, note=note))
    return rows


def all_passed(rows: list[VerifyRow]) -> bool:
    """True when no checked row failed; discrepancy rows never fail."""
    return all(row.status != FAIL for row in rows)


def render_report(rows: list[VerifyRow]) -> str:
    lines = []
    section = None
    counts = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
    for row in rows:
        if row.section != section:
            section = row.section
            lines.append(f"== {section} ==")
        counts[row.status] += 1
        mark = {PASS: "PASS", FAIL: "FAIL", DISCREPANCY: "NOTE"}[row.status]
        line = f"[{mark}] {row.name}: computed {row.computed}, reference {row.expected}"
        if row.note:
            line += f" ({row.note})"
        lines.append(line)
    lines.append(
        f"summary: {counts[PASS]} passed, {counts[FAIL]} failed, "
        f"{counts[DISCREPANCY]} documented discrepancies"
    )
    return "\n".join(lines)
