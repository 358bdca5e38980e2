"""Every workload and the traced run, briefly and on tiny inputs, so the
benchmark cannot rot. No timing is checked.

Run from the repository root:  python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

TINY = run.Sizes(single_pool=10, batch_pool=2, batch_gops=20, train_gops=60,
                 recommend_gops=40, recommend_targets=2, setup_spawns=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload(workload, tmp_path):
    result = run.run_workload(workload, seed=3, seconds=0.5, trace=False, sizes=TINY,
                              work_root=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


COUNTS = ("decision.table_builds_per_request", "decision.curve_intersections.calls_per_request",
          "rd_model.eval_cubic.calls_per_gop", "clustering.kmeans.iterations")


def test_traced_run(tmp_path):
    """Two traced runs of one seed: every per-layer metric is there and
    finite, and the counts repeat exactly."""
    results = [run.run_workload("serve-single", seed=3, seconds=0.5, trace=True, sizes=TINY,
                                work_root=tmp_path / str(i)) for i in range(2)]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    first, second = (r["metrics"] for r in results)
    assert {c: first[c] for c in COUNTS} == {c: second[c] for c in COUNTS}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve-single", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
