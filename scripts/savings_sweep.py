#!/usr/bin/env python3
"""Sweep target bitrates and print the per-cluster bitrate saving each
decision mode would deliver at 1080p, as a CSV table.

Usage:
    python3 scripts/savings_sweep.py --lo 0.5 --hi 6.0 --steps 23
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rdladder as rl  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lo", type=float, default=0.5)
    parser.add_argument("--hi", type=float, default=6.0)
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument("--tier", default="1080p")
    args = parser.parse_args()

    model_set = rl.builtin_model()
    tier = rl.tier_from_name(args.tier)
    tables = rl.DecisionTables(model_set, rl.DecisionConfig())
    vl_only, nzs_only = rl.Modes(vl=True), rl.Modes(nzs=True)

    print("target_mbps,cluster,vl_proposed,vl_saving_pct,nzs_proposed,nzs_saving_pct")
    for target in np.linspace(args.lo, args.hi, args.steps):
        target = float(target)
        for cluster in model_set.clusters:
            vl = tables.decide(cluster, tier, target, vl_only).proposed
            nzs = tables.decide(cluster, tier, target, nzs_only).proposed
            vl_saving = rl.savings_report([(target, vl)])["saving_percent"]
            nzs_saving = rl.savings_report([(target, nzs)])["saving_percent"]
            print(f"{target:.3f},{cluster},{vl:.3f},{vl_saving:.2f},{nzs:.3f},{nzs_saving:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
