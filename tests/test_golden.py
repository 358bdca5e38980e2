"""Exact text of the CLI and the savings sweeps, compared with the outputs
stored under ``tests/golden/``. Every case prints rounded numbers only, so
the stored text does not depend on the last bit of the linear algebra.
Also: README's Library section names everything the package exports.

Regenerate the stored text (after a deliberate output change) with
``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import re
import runpy
import sys
import types
from pathlib import Path

import pytest

import rdladder
from rdladder import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "savings_sweep.py"
README = Path(__file__).resolve().parent.parent / "README.md"
MEASUREMENTS = str(GOLDEN / "measurements.csv")

CLI_CASES = {
    "verify_human": ["verify-paper"],
    "verify_json": ["verify-paper", "--format", "json"],
    "verify_human_42_0.2": ["verify-paper", "--vl-psnr", "42", "--nzs-slope", "0.2"],
    "verify_json_42_0.2": ["verify-paper", "--format", "json", "--vl-psnr", "42", "--nzs-slope", "0.2"],
    "plotdata_paper": ["plotdata", "--paper-model"],
    **{
        f"recommend_csv_{target}": [
            "recommend", "--paper-model", MEASUREMENTS, "--format", "csv", "--target-bitrate", target,
        ]
        for target in ("0.3", "3", "7.5")
    },
}
SWEEP_CASES = {
    "sweep_default": [],
    "sweep_540p": ["--lo", "0.3", "--hi", "7", "--steps", "23", "--tier", "540p"],
}


def _run_sweep(argv) -> int:
    saved_argv, saved_path = sys.argv, list(sys.path)
    sys.argv = [str(SWEEP), *argv]
    try:
        return runpy.run_path(str(SWEEP), run_name="savings_sweep")["main"]()
    finally:
        sys.argv, sys.path[:] = saved_argv, saved_path


CASES = {
    **{name: (cli.main, argv) for name, argv in CLI_CASES.items()},
    **{name: (_run_sweep, argv) for name, argv in SWEEP_CASES.items()},
}
# The published values hold at the default thresholds only.
EXIT_CODES = {"verify_human_42_0.2": cli.EXIT_VERIFY, "verify_json_42_0.2": cli.EXIT_VERIFY}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    run, argv = CASES[name]
    assert run(argv) == EXIT_CODES.get(name, 0)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_readme_library_section_names_every_export():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    exported = [name for name, value in vars(rdladder).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert len(exported) > 20
    assert [name for name in exported if not re.search(rf"\b{name}\b", library)] == []


if __name__ == "__main__":
    import contextlib
    import io

    for name, (run, argv) in sorted(CASES.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == EXIT_CODES.get(name, 0), name
        (GOLDEN / f"{name}.txt").write_text(out.getvalue(), encoding="utf-8")
