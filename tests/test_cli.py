import json
import select
import subprocess
import sys

import numpy as np
import pytest

import rdladder as rl
from rdladder import cli, service, verify
from rdladder.decision import MAX_TARGET_BITRATE
from rdladder.verify import DISCREPANCY, FAIL, VerifyRow

from helpers import measurement_csv, package_env

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
        mset = rl.parse_measurements(training_file.read_text())
        _, result = rl.train_details(mset, rl.BitrateGrid.default(), k=6, seed=42)
        assert captured == (
            f"clustered 60 of 60 GOPs (measured at every tier): inertia {result.inertia:.6f} "
            f"over {result.n_iter} iterations\nmodel written to {out}\n"
        )
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
        trained = rl.DecisionTables(rl.load_model(out.read_text()), cfg)
        for cluster in paper_model.clusters:
            expected = rl.DecisionTables(paper_model, cfg).ladders[cluster]
            got = trained.ladders[cluster]
            assert got.tiers == expected.tiers
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

    def test_target_bound(self, test2_file, capsys):
        # Up to the bound, every number of the answer is finite; above it,
        # where a cubic or the totals overflow, the target is an input error.
        def recommend(target, modes):
            rc = cli.main(["recommend", "--paper-model", str(test2_file), "--target-bitrate",
                           repr(target), "--modes", modes, "--format", "json"])
            return rc, capsys.readouterr()

        for modes in ("nzs", "vl", "trans_size,vl,nzs"):
            rc, captured = recommend(MAX_TARGET_BITRATE, modes)
            assert rc == 0
            json.loads(captured.out, parse_constant=pytest.fail)
            for target in (float(np.nextafter(MAX_TARGET_BITRATE, np.inf)), 1e120, 1e308):
                rc, captured = recommend(target, modes)
                assert rc == 1 and captured.out == ""
                assert captured.err == "error: target bitrate must be at most 1e+06 Mbps\n"

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

    def test_json_is_the_service_encoding(self, training_file, paper_model, capsys):
        # One line, byte for byte what the service answers for the same
        # advice; only whitespace differs from json.dumps(advice, indent=2).
        rc = cli.main(["recommend", "--paper-model", str(training_file),
                       "--target-bitrate", "2.5", "--format", "json"])
        out = capsys.readouterr().out
        mset = rl.parse_measurements(training_file.read_text())
        advice = rl.DecisionTables(paper_model, rl.DecisionConfig()).advise(
            cli._observations(mset, paper_model), 2.5, rl.Modes(True, True, True))
        assert rc == 0
        assert out.encode() == service.encode_body(advice) + b"\n"
        assert json.loads(out) == json.loads(json.dumps(advice, indent=2))

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


def test_python_dash_m_help_exits_0():
    done = subprocess.run([sys.executable, "-m", "rdladder", "--help"], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: rdladder")


def test_cli_import_leaves_out_the_server_and_the_paper_check():
    # Every command pays for what importing the CLI loads; only `serve` needs
    # signal and the service, and only `verify-paper` needs the reference tables.
    code = ("import sys, rdladder.cli; "
            "print(sorted({'signal', 'http.server', 'rdladder.service', 'rdladder.verify'}"
            " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_service_import_leaves_out_http_server_and_email():
    # The service speaks HTTP over a plain socket loop; http.server and its
    # email header parser cost every `serve` process about 26 ms to import.
    code = ("import sys, rdladder.service; "
            "print(sorted({'http.server', 'socketserver', 'email'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

def test_train_leaves_out_numpy_ma(tmp_path, training_file):
    # numpy 2.x imports numpy.ma on the first np.unique call, which cost
    # every `train` process 13-18 ms.
    code = ("import sys, rdladder.cli; "
            "rc = rdladder.cli.main(['train', sys.argv[1], '--out', sys.argv[2]]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(training_file), str(tmp_path / "m.json")],
                          env=package_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


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


def _no_clusters(doc, k, tiers):
    doc["k"], doc["tiers"] = k, tiers
    doc["clusters"] = [{"index": c, "tiers": []} for c in range(1, k + 1)]


def _repeat_1080p_entry(doc):
    # Cluster 1 lists 1080p again with another c0: no entry may silently win.
    entries = doc["clusters"][0]["tiers"]
    entries.append({**entries[-1], "coeffs": [20.749, *entries[-1]["coeffs"][1:]]})


# An edit returns None when it changed the document in place, or the
# file's whole text.
@pytest.mark.parametrize("edit, error, message", [
    (lambda doc: _no_clusters(doc, 0, ["1080p"]), rl.ValidationError, "model set needs k >= 1, got 0"),
    (lambda doc: _no_clusters(doc, 1, []), rl.ValidationError, "model set needs at least one tier"),
    (lambda doc: doc["tiers"].append("720p"), rl.ValidationError, "model set lists tier 720p twice"),
    (_repeat_1080p_entry, rl.ParseError, "model file: cluster 1 lists tier 1080p twice"),
    (lambda doc: "[" * 100_000, rl.ParseError, "model file: JSON nested too deeply"),
], ids=["k0", "no-tiers", "repeated-tier", "repeated-entry", "nested"])
def test_degenerate_model_file_exits_1(tmp_path, test2_file, monkeypatch, capsys, edit, error,
                                       message):
    doc = json.loads(rl.save_model(rl.builtin_model()))
    text = edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc) if text is None else text)
    with pytest.raises(error) as exc:
        rl.load_model(path.read_text())
    assert str(exc.value) == message

    def make_server(*args, **kwargs):
        raise AssertionError("serve started on a degenerate model")

    monkeypatch.setattr(service, "make_server", make_server)
    for argv in (["recommend", "--model", str(path), str(test2_file), "--target-bitrate", "3"],
                 ["serve", "--model", str(path), "--bind", "127.0.0.1:0"]):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"


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
