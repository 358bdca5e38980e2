import json
import os
import select
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdladder as rl
from rdladder import cli, verify
from rdladder.verify import DISCREPANCY, FAIL, VerifyRow

from helpers import measurement_csv

T1080 = rl.tier_from_name("1080p")


@pytest.fixture()
def training_file(tmp_path, paper_model):
    rng = np.random.default_rng(7)
    clusters = [c for c in range(1, 7) for _ in range(10)]
    text = measurement_csv(
        clusters, paper_model.tiers, paper_model.grid.bitrates, paper_model,
        noise=0.1, rng=rng,
    )
    path = tmp_path / "train.csv"
    path.write_text(text)
    return path


@pytest.fixture()
def test2_file(tmp_path, paper_model):
    clusters = [6, 6, 6, 6, 6, 4, 1, 1, 1, 1]
    text = measurement_csv(clusters, [T1080], (0.2, 1.0, 3.0, 6.0), paper_model)
    path = tmp_path / "test2.csv"
    path.write_text(text)
    return path


class TestTrain:
    def test_writes_model_and_reports(self, tmp_path, training_file, capsys):
        out = tmp_path / "model.json"
        rc = cli.main(["train", str(training_file), "--out", str(out), "--k", "6", "--seed", "42"])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "inertia" in captured and "chosen poly3" in captured
        model = rl.load_model(out.read_text())
        assert model.k == 6 and model.provenance == "trained"

    def test_deterministic_output(self, tmp_path, training_file, capsys):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert cli.main(["train", str(training_file), "--out", str(out1)]) == 0
        assert cli.main(["train", str(training_file), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_trained_ladders_match_builtin(self, tmp_path, training_file, paper_model, cfg, capsys):
        out = tmp_path / "model.json"
        assert cli.main(["train", str(training_file), "--out", str(out)]) == 0
        capsys.readouterr()
        trained = rl.load_model(out.read_text())
        for cluster in paper_model.clusters:
            expected = rl.build_ladder(paper_model, cluster)
            got = rl.build_ladder(trained, cluster)
            assert [s.tier for s in got.segments] == [s.tier for s in expected.segments]
            assert got.breakpoints == pytest.approx(expected.breakpoints, abs=0.05)

    def test_k_too_large_exits_1(self, tmp_path, paper_model, capsys):
        text = measurement_csv([1, 2, 3], paper_model.tiers, paper_model.grid.bitrates)
        path = tmp_path / "small.csv"
        path.write_text(text)
        rc = cli.main(["train", str(path), "--out", str(tmp_path / "m.json"), "--k", "6"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_1(self, tmp_path, training_file, k, capsys):
        rc = cli.main(["train", str(training_file), "--out", str(tmp_path / "m.json"), "--k", k])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: k must be >= 1, got {k}\n"

    def test_negative_seed_exits_1(self, tmp_path, training_file, capsys):
        out = tmp_path / "m.json"
        rc = cli.main(["train", str(training_file), "--out", str(out), "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and not out.exists()
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_custom_grid_spec(self, tmp_path, training_file, capsys):
        out = tmp_path / "m.json"
        rc = cli.main(["train", str(training_file), "--out", str(out), "--grid", "0.2:6:10"])
        capsys.readouterr()
        assert rc == 0
        loaded = rl.load_model(out.read_text())
        assert loaded.grid.bitrates == pytest.approx(rl.BitrateGrid.default().bitrates, abs=1e-9)


class TestVerifyPaper:
    def test_passes_and_reports_discrepancies(self, capsys):
        rc = cli.main(["verify-paper"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert out.count("[NOTE]") == 4
        assert "0.876" in out and "8.950" in out
        assert "summary:" in out

    def test_json_format(self, capsys):
        rc = cli.main(["verify-paper", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 0
        statuses = {row["status"] for row in rows}
        assert statuses == {"pass", "discrepancy"}

    @pytest.mark.parametrize("flag", ["--vl-psnr", "--nzs-slope"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_1(self, flag, value, capsys):
        rc = cli.main(["verify-paper", f"{flag}={value}"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        field = flag[2:].replace("-", "_")
        assert captured.err == f"error: {field} must be finite and > 0\n"

    def test_failure_exit_code(self, monkeypatch, capsys):
        fake = [
            VerifyRow("knee", "made-up", "1.0", "2.0", FAIL),
            VerifyRow("knee", "noted", "x", "y", DISCREPANCY),
        ]
        monkeypatch.setattr(verify, "verify_rows", lambda cfg: fake)
        rc = cli.main(["verify-paper"])
        capsys.readouterr()
        assert rc == 3


class TestRecommend:
    def test_vl_scenario_json(self, test2_file, capsys):
        rc = cli.main([
            "recommend", "--paper-model", str(test2_file),
            "--target-bitrate", "3.0", "--modes", "vl", "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert len(doc["recommendations"]) == 10
        assert doc["savings"]["total_proposed"] == pytest.approx(16.09, abs=0.05)
        assert doc["savings"]["saving_percent"] == pytest.approx(46.36, abs=0.1)
        clusters = [r["cluster"] for r in doc["recommendations"]]
        assert clusters == [6, 6, 6, 6, 6, 4, 1, 1, 1, 1]

    def test_csv_format(self, test2_file, capsys):
        rc = cli.main([
            "recommend", "--paper-model", str(test2_file),
            "--target-bitrate", "3.0", "--modes", "vl", "--format", "csv",
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0].startswith("gop_id,cluster,tier,")
        rows = [line for line in out if line and not line.startswith("#")]
        assert len(rows) == 11  # header + one row per GOP
        assert any(line.startswith("# saving_percent=46.3") for line in out)

    def test_human_format_has_total(self, test2_file, capsys):
        rc = cli.main([
            "recommend", "--paper-model", str(test2_file),
            "--target-bitrate", "3.0", "--modes", "vl",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "saving 46.3" in out

    def test_trans_size_only_cluster3_at_low_bitrate(self, tmp_path, paper_model, capsys):
        text = measurement_csv([3, 3, 3], [T1080], (0.2, 1.0, 3.0, 6.0), paper_model)
        path = tmp_path / "c3.csv"
        path.write_text(text)
        rc = cli.main([
            "recommend", "--paper-model", str(path),
            "--target-bitrate", "0.2", "--modes", "trans_size", "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert all(r["tier"] == "360p" for r in doc["recommendations"])
        assert all(r["proposed_bitrate"] == 0.2 for r in doc["recommendations"])

    def test_takes_each_gop_at_its_highest_model_tier(self, tmp_path, paper_model, capsys):
        def rows(gop_id, tier, cluster, curve_tier=None):
            model = paper_model.model(cluster, rl.tier_from_name(curve_tier or tier))
            return [f"{gop_id},{tier},{b},{rl.eval_cubic(model, b)!r}" for b in (0.5, 2.0, 5.0)]

        path = tmp_path / "tiers.csv"
        path.write_text("\n".join([
            "gop_id,resolution,bitrate_mbps,psnr_db",
            # Three tiers, the highest not last; its points lie on cluster 6.
            *rows("a", "360p", 1), *rows("a", "1080p", 6), *rows("a", "720p", 2),
            # 1440p is not in the model; the 540p points lie on cluster 3.
            *rows("b", "1440p", 6, curve_tier="1080p"), *rows("b", "540p", 3),
        ]) + "\n")
        rc = cli.main([
            "recommend", "--paper-model", str(path),
            "--target-bitrate", "3.0", "--modes", "vl", "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        got = [(r["gop_id"], r["tier"], r["cluster"]) for r in doc["recommendations"]]
        assert got == [("a", "1080p", 6), ("b", "540p", 3)]

        path.write_text(path.read_text() + "c,1440p,1.0,40.0\nc,2160p,1.0,40.0\n")
        rc = cli.main(["recommend", "--paper-model", str(path), "--target-bitrate", "3.0"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: gop 'c': no measured tier is present in the model\n"

    @pytest.mark.parametrize("target", ["-1", "0", "nan", "inf"])
    def test_invalid_target_exits_1_before_reading_measurements(self, target, capsys):
        rc = cli.main([
            "recommend", "--paper-model", "/nonexistent.csv", f"--target-bitrate={target}",
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: target bitrate must be finite and > 0\n"

    def test_empty_measurements_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("gop_id,resolution,bitrate_mbps,psnr_db\n")
        rc = cli.main([
            "recommend", "--paper-model", str(path), "--target-bitrate", "3.0",
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        rc = cli.main([
            "recommend", "--paper-model", "/nonexistent.csv", "--target-bitrate", "3.0",
        ])
        capsys.readouterr()
        assert rc == 1

    def test_model_source_is_exclusive(self, test2_file, tmp_path, capsys):
        rc = cli.main([
            "recommend", "--paper-model", "--model", str(tmp_path / "m.json"),
            str(test2_file), "--target-bitrate", "3.0",
        ])
        capsys.readouterr()
        assert rc == 1
        rc = cli.main(["recommend", str(test2_file), "--target-bitrate", "3.0"])
        capsys.readouterr()
        assert rc == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_vl_psnr_exits_1(self, test2_file, value, capsys):
        rc = cli.main([
            "recommend", "--paper-model", str(test2_file), "--target-bitrate", "3.0",
            f"--vl-psnr={value}",
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: vl_psnr must be finite and > 0\n"

    def test_unknown_mode_exits_1(self, test2_file, capsys):
        rc = cli.main([
            "recommend", "--paper-model", str(test2_file),
            "--target-bitrate", "3.0", "--modes", "vl,boost",
        ])
        assert rc == 1
        assert "boost" in capsys.readouterr().err

    def test_trained_model_file_as_source(self, tmp_path, training_file, test2_file, capsys):
        out = tmp_path / "m.json"
        assert cli.main(["train", str(training_file), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main([
            "recommend", "--model", str(out), str(test2_file),
            "--target-bitrate", "3.0", "--modes", "vl", "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["savings"]["saving_percent"] == pytest.approx(46.36, abs=1.0)


class TestPlotdata:
    def test_cluster6_curves_and_markers(self, capsys):
        rc = cli.main(["plotdata", "--paper-model", "--cluster", "6"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0] == "record,cluster,tier,bitrate_mbps,psnr_db"
        curves = [line for line in out if line.startswith("curve,6,")]
        # floor((6.0 - 0.2) / 0.05) + 1 = 117 samples per tier curve
        assert len(curves) == 117 * 4
        by_bitrate = {}
        for line in curves:
            _, _, tier, bitrate, psnr = line.split(",")
            by_bitrate.setdefault(bitrate, {})[tier] = float(psnr)
        for tier_values in by_bitrate.values():
            best = max(tier_values.values())
            assert tier_values["1080p"] == best
        assert any(line.startswith("vl_threshold,6,1080p,0.42869") for line in out)

    def test_cluster2_knee_annotation(self, capsys):
        rc = cli.main(["plotdata", "--paper-model", "--cluster", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        knees = [line for line in out.splitlines() if line.startswith("knee,2,")]
        assert len(knees) == 1
        assert knees[0].split(",")[3].startswith("1.4997")

    def test_unknown_cluster_exits_1(self, capsys):
        assert cli.main(["plotdata", "--paper-model", "--cluster", "9"]) == 1
        capsys.readouterr()
        assert cli.main(["plotdata", "--paper-model", "--cluster", "x"]) == 1
        capsys.readouterr()


def test_usage_error_exits_1(capsys):
    assert cli.main(["notacommand"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


SRC = Path(__file__).resolve().parent.parent / "src"


def package_env() -> dict:
    """The environment of a child ``python``: the package on its path and,
    as in a plain shell, output buffered when it is not a terminal."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_help_exits_0():
    done = subprocess.run([sys.executable, "-m", "rdladder", "--help"], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: rdladder")


def test_cli_import_leaves_out_the_server_and_the_paper_check():
    # Every command pays for what importing the CLI loads; only `serve` needs
    # http.server and only `verify-paper` needs the reference tables.
    code = ("import sys, rdladder.cli; "
            "print(sorted({'http.server', 'rdladder.service', 'rdladder.verify'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_serve_prints_address_through_a_pipe():
    proc = subprocess.Popen(
        [sys.executable, "-m", "rdladder.cli", "serve", "--paper-model", "--bind", "127.0.0.1:0"],
        env=package_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        line = proc.stdout.readline().decode() if ready else ""
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert line.startswith("advisory endpoint on http://127.0.0.1:")
    assert line.rstrip().endswith("/v1/recommend")


@pytest.mark.parametrize("port", ["99999", "-5"])
def test_serve_port_out_of_range_exits_1(port, capsys):
    rc = cli.main(["serve", "--paper-model", "--bind", f"127.0.0.1:{port}"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith(f"error: cannot bind 127.0.0.1:{port}: ")
    assert captured.err.count("\n") == 1


def test_closed_stdout_ends_quietly(tmp_path):
    # 8000 GOPs print about 300 kB of CSV, far more than a pipe buffers, so
    # the command is still writing when its reader goes away after one line.
    rows = "".join(f"g{i},1080p,3.0,45.0\n" for i in range(8000))
    path = tmp_path / "many.csv"
    path.write_text("gop_id,resolution,bitrate_mbps,psnr_db\n" + rows)
    proc = subprocess.Popen(
        [sys.executable, "-m", "rdladder", "recommend", "--paper-model", str(path),
         "--target-bitrate", "3", "--format", "csv"],
        env=package_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().startswith(b"gop_id,cluster,")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert stderr == b""
