import json
import os
import subprocess
import sys
from pathlib import Path

from dynact.cli import main
from dynact.fitting import fit_dyisru, fit_dyt, mirror_augment
from dynact.simulation import SimulationConfig, outlier_points, run_scenario


def run(*argv):
    return main([str(a) for a in argv])


def listing(out):
    return sorted(p.name for p in out.iterdir())


def assert_manifest_lists_directory(out, command):
    """The manifest's artifacts plus manifest.json are exactly the files in out."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert sorted(manifest["artifacts"] + ["manifest.json"]) == listing(out)
    return manifest


class TestVerify:
    def test_success(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("verify", "--seed", 1, "--trials", 50, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] is True
        assert len(doc["checks"]) == 5
        assert "verdict: passed" in capsys.readouterr().out

    def test_json_flag(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("verify", "--seed", 1, "--trials", 5, "--out", out, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 1

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("verify", "--trials", 0, "--out", out) == 2
        assert "trials" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_path(self):
        assert run("verify", "--trials", 5, "--out", "/nonexistent/dir/r.json") == 3

    def test_bad_flag(self):
        assert run("verify", "--bogus") == 2

    def test_no_command(self):
        assert run() == 2

    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "r.json"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "dynact.cli", "verify", "--trials", "1", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestSimulate:
    def test_default_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--out", out) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "scenario.csv",
            "frame_s0.svg",
            "frame_s1.svg",
            "frame_s2.svg",
            "frame_s9.svg",
            "manifest.json",
        }
        manifest = assert_manifest_lists_directory(out, "simulate")
        assert manifest["seed"] == 0

    def test_json_lists_directory(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--s-max", 2, "--out", out, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"out": str(out), "artifacts": listing(out)}
        assert_manifest_lists_directory(out, "simulate")

    def test_s_max_zero_keeps_baseline_only(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--s-max", 0, "--out", out) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"scenario.csv", "frame_s0.svg", "manifest.json"}

    def test_frame_outside_s_max_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--frames", "0,50,-1", "--out", out) == 2
        err = capsys.readouterr().err
        assert "50,-1" in err and "[0, 9]" in err
        assert not out.exists()

    def test_non_integer_frame_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run("simulate", "--frames", "1,x", "--out", out) == 2
        assert "bad --frames value '1,x'" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_lists_rendered_frames(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--s-max", 1, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["frames"] == [0, 1]
        assert run("simulate", "--seed", 0, "--s-max", 3, "--frames", "3,0,3", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["frames"] == [3, 0]
        assert manifest["artifacts"] == ["frame_s0.svg", "frame_s3.svg", "scenario.csv"]

    def test_bad_channels(self, tmp_path):
        assert run("simulate", "--channels", 1, "--out", tmp_path / "x") == 2

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--seed", 42, "--out", a) == 0
        assert run("simulate", "--seed", 42, "--out", b) == 0
        assert (a / "scenario.csv").read_bytes() == (b / "scenario.csv").read_bytes()


class TestFit:
    def test_scenario_round_trip_matches_in_process(self, tmp_path):
        sim = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--out", sim) == 0
        out = tmp_path / "fit"
        assert run("fit", "--input", sim / "scenario.csv", "--kind", "dyisru", "--out", out) == 0
        doc = json.loads((out / "fit_dyisru.json").read_text())

        scenario = run_scenario(SimulationConfig(seed=0))
        data = mirror_augment(outlier_points(scenario), channels=100)
        expected = fit_dyisru(data)
        assert doc["parameter"] == expected.parameter
        assert doc["sse"] == expected.sse
        assert doc["mae"] == expected.mae
        assert doc["n_points"] == 9
        manifest = assert_manifest_lists_directory(out, "fit")
        assert manifest["artifacts"] == ["fit_dyisru.json", "fit_dyisru.svg"]

    def test_json_prints_fit_result(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--out", sim) == 0
        capsys.readouterr()
        out = tmp_path / "fit"
        assert run("fit", "--input", sim / "scenario.csv", "--kind", "dyt", "--out", out, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        data = mirror_augment(outlier_points(run_scenario(SimulationConfig(seed=0))), channels=100)
        assert doc == fit_dyt(data).to_dict()
        assert doc == json.loads((out / "fit_dyt.json").read_text())
        assert_manifest_lists_directory(out, "fit")

    def test_dyt_lands_in_experiment_band(self, tmp_path):
        sim = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--out", sim) == 0
        out = tmp_path / "fit"
        assert run("fit", "--input", sim / "scenario.csv", "--kind", "dyt", "--out", out) == 0
        doc = json.loads((out / "fit_dyt.json").read_text())
        assert 0.03 <= doc["parameter"] <= 0.07
        assert 0.15 <= doc["mae"] <= 0.6

    def test_plain_xy_requires_channels(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y\n5.0,2.0\n10.0,3.0\n")
        assert run("fit", "--input", csv, "--kind", "dyisru") == 2
        assert run("fit", "--input", csv, "--kind", "dyisru", "--channels", 100,
                   "--out", tmp_path / "f") == 0

    def test_empty_csv(self, tmp_path):
        csv = tmp_path / "e.csv"
        csv.write_text("x,y\n")
        assert run("fit", "--input", csv, "--kind", "dyt", "--channels", 100) == 2

    def test_zero_byte_csv(self, tmp_path, capsys):
        csv = tmp_path / "e.csv"
        csv.write_bytes(b"")
        out = tmp_path / "f"
        assert run("fit", "--input", csv, "--kind", "dyt", "--channels", 100, "--out", out) == 2
        assert "empty CSV" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_csv_mentions_row(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("x,y\n1.0,0.5\nnope,0.1\n")
        out = tmp_path / "f"
        assert run("fit", "--input", csv, "--kind", "dyt", "--channels", 100, "--out", out) == 2
        assert "row 3" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_data_exits_one(self, tmp_path):
        csv = tmp_path / "flat.csv"
        csv.write_text("x,y\n1.0,0.0\n")
        out = tmp_path / "f"
        assert run("fit", "--input", csv, "--kind", "dyt", "--channels", 100, "--out", out) == 1
        assert not out.exists()

    def test_flat_objective_exits_one(self, tmp_path, capsys):
        # all x are zero: every beta fits equally badly, so there is no minimum to report
        csv = tmp_path / "zero_x.csv"
        csv.write_text("x,y\n0.0,0.0\n0.0,0.5\n")
        out = tmp_path / "f"
        assert run("fit", "--input", csv, "--kind", "dyisru", "--channels", 100, "--out", out) == 1
        assert "fit failed" in capsys.readouterr().err
        assert not out.exists()


class TestFigures:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "figs"
        assert run("figures", "--seed", 0, "--out", out) == 0
        names = {p.name for p in out.iterdir()}
        svgs = {n for n in names if n.endswith(".svg")}
        assert len(svgs) >= 6
        assert {"fig1.svg", "fig3.svg", "frame_s0.svg", "frame_s9.svg"} <= svgs
        assert {"fig1_curves.csv", "scenario.csv", "fig3_residuals.csv"} <= names
        assert {"fit_dyt.json", "fit_dyisru.json", "manifest.json"} <= names
        assert_manifest_lists_directory(out, "figures")

    def test_json_lists_directory(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert run("figures", "--seed", 0, "--out", out, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"out": str(out), "artifacts": listing(out)}

    def test_fig1_extrema_lines(self, tmp_path):
        import math

        out = tmp_path / "figs"
        assert run("figures", "--seed", 0, "--out", out) == 0
        csv_lines = (out / "fig1_curves.csv").read_text().splitlines()
        bound = math.sqrt(49.0)
        ys = [abs(float(line.split(",")[3])) for line in csv_lines[1:]]
        assert max(ys) < bound  # curves stay strictly inside +-sqrt(C-1) = +-7
        assert "6 4" in (out / "fig1.svg").read_text()  # dashed extrema lines

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("figures", "--seed", 7, "--out", a) == 0
        assert run("figures", "--seed", 7, "--out", b) == 0
        for name in ("fig1_curves.csv", "scenario.csv", "fig3_residuals.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
