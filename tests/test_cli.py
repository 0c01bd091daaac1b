import ast
import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from dynact import cli
from dynact.cli import main
from dynact.fitting import fit_dyisru, fit_dyt, mirror_augment
from dynact.rng import STREAM_VERSION
from dynact.simulation import SimulationConfig, outlier_points, run_scenario

# a seed lies in [-2**63, 2**64 - 1]; one past either end is refused before anything is drawn
SEED_REFUSALS = [
    (-(2**63) - 1, "seed must be >= -9223372036854775808, got -9223372036854775809"),
    (2**64, "seed must be <= 18446744073709551615, got 18446744073709551616"),
]


def run(*argv):
    return main([str(a) for a in argv])


def listing(out):
    return sorted(p.name for p in out.iterdir())


def refusal_reporters(source):
    """Functions in source, other than main, that name EXIT_USAGE or print to sys.stderr."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            names_usage = "EXIT_USAGE" in (getattr(node, "id", None), getattr(node, "attr", None))
            to_stderr = (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "print"
                and any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
            )
            if names_usage or to_stderr:
                found.add(func.name)
    return sorted(found)


def test_only_main_reports_a_refusal():
    # a command refuses by raising ValueError; main alone prints it and picks exit 2
    assert refusal_reporters(Path(cli.__file__).read_text(encoding="utf-8")) == []


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

    @pytest.mark.parametrize("seed, message", SEED_REFUSALS, ids=["below_int64", "above_uint64"])
    def test_seed_outside_its_range_is_usage_error(self, tmp_path, capsys, seed, message):
        out = tmp_path / "r.json"
        assert run("verify", f"--seed={seed}", "--trials", 1, "--out", out) == 2
        assert capsys.readouterr().err == f"dynact verify: {message}\n"
        assert not out.exists()

    def test_unwritable_path(self):
        assert run("verify", "--trials", 5, "--out", "/nonexistent/dir/r.json") == 3

    def test_bad_flag(self):
        assert run("verify", "--bogus") == 2

    def test_no_command(self):
        assert run() == 2

    def test_repeated_main_matches_fresh_processes(self, tmp_path, capsys):
        # main reuses one parser per process; a call must not see an earlier call's state
        src = Path(__file__).resolve().parents[1] / "src"
        runs = []
        for seed in (3, 4):
            out = tmp_path / f"fresh{seed}.json"
            argv = ["verify", "--seed", str(seed), "--trials", "2", "--json", "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "dynact.cli", *argv],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
            )
            runs.append((argv, out, proc.returncode, proc.stdout, out.read_bytes()))
        for _ in range(2):
            for argv, out, code, stdout, report in runs:
                assert run(*argv[:-1], tmp_path / "again.json") == code
                assert capsys.readouterr().out == stdout
                assert (tmp_path / "again.json").read_bytes() == report
                assert run("verify", "--bogus") == 2

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
        assert manifest["stream"] == STREAM_VERSION == 2

    def test_defaults_are_the_library_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("simulate") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"] == {**dataclasses.asdict(SimulationConfig()), "frames": [0, 1, 2, 9]}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--step", "inf"], "step must be finite and > 0, got inf"),
            (["--step", "1e308"], "step * s_max must be finite, got 1e+308 * 9"),
            (["--sigma", "inf"], "sigma must be finite and > 0, got inf"),
            (["--mu", "nan"], "mu must be finite, got nan"),
        ],
    )
    def test_non_finite_setting_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sim"
        assert run("simulate", *flags, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == f"dynact simulate: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_failed_render_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # every frame is rendered before scenario.csv is written, so a run that fails
        # while rendering leaves no file the next run's manifest cannot list
        def fail(panels):
            raise ValueError("cannot render")

        monkeypatch.setattr(cli, "render_figure", fail)
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--out", out) == 2
        assert capsys.readouterr().err == "dynact simulate: cannot render\n"
        assert not out.exists()

    @pytest.mark.parametrize("sigma, seed", [(6, 0), (4, 2)])
    def test_axis_far_above_two_pow_53_renders(self, tmp_path, sigma, seed):
        # at 1e17 floats are 16 apart: seed 0's x tick step of 5.0 once never advanced
        # (an endless, ever-growing tick list) and seed 2's zero-width y range once stayed
        # zero-width (log10(0)); a child with a timeout and an address-space limit keeps
        # either failure from hanging the suite
        resource = pytest.importorskip("resource")
        limit = 1 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        out = tmp_path / "sim"
        argv = ["simulate", "--mu", "1e17", "--sigma", str(sigma), "--channels", "8", "--s-max", "1"]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "dynact.cli", *argv, "--seed", str(seed), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 0, proc.stderr
        for frame in (0, 1):
            ET.parse(out / f"frame_s{frame}.svg")

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
        assert err == "dynact simulate: --frames 50,-1 outside the valid range [0, 9] set by --s-max\n"
        assert not out.exists()

    def test_non_integer_frame_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run("simulate", "--frames", "1,x", "--out", out) == 2
        assert capsys.readouterr().err == "dynact simulate: bad --frames value '1,x'\n"
        assert not out.exists()

    def test_manifest_lists_rendered_frames(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--s-max", 1, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["frames"] == [0, 1]
        assert run("simulate", "--seed", 0, "--s-max", 3, "--frames", "3,0,3", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["frames"] == [3, 0]
        assert manifest["artifacts"] == ["frame_s0.svg", "frame_s3.svg", "scenario.csv"]

    def test_rerun_removes_what_the_previous_manifest_lists(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 0, "--s-max", 2, "--out", out) == 0
        (out / "notes.txt").write_text("kept")  # not listed, so not ours to remove
        assert run("simulate", "--seed", 0, "--s-max", 1, "--frames", "1", "--out", out) == 0
        assert listing(out) == ["frame_s1.svg", "manifest.json", "notes.txt", "scenario.csv"]

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ('{"artifacts": ["../victim.txt"]}', "lists artifacts outside"),
            ('{"artifacts": [".."]}', "lists artifacts outside"),
            ('{"artifacts": "scenario.csv"}', "lists artifacts outside"),
            ('{"command": "simulate"}', "is not a dynact manifest"),
            ("not json", "is not a dynact manifest"),
        ],
        ids=["parent_path", "dot_dot", "not_a_list", "no_artifacts", "not_json"],
    )
    def test_foreign_manifest_is_usage_error(self, tmp_path, capsys, manifest, message):
        out = tmp_path / "sim"
        out.mkdir()
        (tmp_path / "victim.txt").write_text("x")
        (out / "manifest.json").write_text(manifest)
        assert run("simulate", "--seed", 0, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert listing(out) == ["manifest.json"]
        assert (tmp_path / "victim.txt").read_text() == "x"

    def test_bad_channels(self, tmp_path):
        assert run("simulate", "--channels", 1, "--out", tmp_path / "x") == 2

    def test_channels_beyond_int64_is_usage_error(self, tmp_path, capsys):
        # refused before anything is drawn (a C inside int64 this large would allocate 2C words)
        out = tmp_path / "x"
        assert run("simulate", "--channels", 2**63, "--out", out) == 2
        err = "dynact simulate: channels must be <= 9223372036854775807, got 9223372036854775808\n"
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("seed, message", SEED_REFUSALS, ids=["below_int64", "above_uint64"])
    def test_seed_outside_its_range_is_usage_error(self, tmp_path, capsys, seed, message):
        out = tmp_path / "sim"
        assert run("simulate", f"--seed={seed}", "--out", out) == 2
        assert capsys.readouterr().err == f"dynact simulate: {message}\n"
        assert not out.exists()

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
        assert "stream" not in manifest  # fit draws nothing

    def test_fit_into_the_simulate_directory_keeps_its_input(self, tmp_path):
        # simulate and fit share the default --out, so a fit may read from the directory it writes
        out = tmp_path / "out"
        assert run("simulate", "--seed", 0, "--out", out) == 0
        scenario = (out / "scenario.csv").read_bytes()
        assert run("fit", "--input", out / "scenario.csv", "--kind", "dyt", "--out", out) == 0
        assert listing(out) == ["fit_dyt.json", "fit_dyt.svg", "manifest.json", "scenario.csv"]
        # the kept input is the same path spelled another way, and a second fit replaces the first
        relative = Path(os.path.relpath(out, Path.cwd())) / ".." / out.name / "scenario.csv"
        assert run("fit", "--input", relative, "--kind", "dyisru", "--out", out) == 0
        assert listing(out) == ["fit_dyisru.json", "fit_dyisru.svg", "manifest.json", "scenario.csv"]
        assert (out / "scenario.csv").read_bytes() == scenario

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

    def test_plain_xy_requires_channels(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y\n5.0,2.0\n10.0,3.0\n")
        out = tmp_path / "f"
        assert run("fit", "--input", csv, "--kind", "dyisru", "--out", out) == 2
        assert capsys.readouterr().err == "dynact fit: --channels is required for plain x,y input\n"
        assert listing(tmp_path) == ["d.csv"]
        assert run("fit", "--input", csv, "--kind", "dyisru", "--channels", 100, "--out", out) == 0

    @pytest.mark.parametrize("kind", ["dyt", "dyisru"])
    def test_channels_beyond_int64_is_usage_error(self, tmp_path, capsys, kind):
        # points a C = 2**63 DyISRU reaches: each kind once wrote fit_<kind>.json before its figure
        # failed (dyisru) or exited 0 (dyt), and a 401-digit count once ended in an OverflowError
        csv = tmp_path / "d.csv"
        xs = (0.5, 1.0, 2.0, 3.0, 5.0)
        csv.write_text("".join(f"{x!r},{(2**63 - 1) ** 0.5 * x / (4 + x * x) ** 0.5!r}\n" for x in xs))
        for channels in (2**63, 10**400):
            out = tmp_path / "f"
            assert run("fit", "--input", csv, "--kind", kind, "--channels", channels, "--out", out) == 2
            assert capsys.readouterr().err.startswith("dynact fit: channels must be <= 9223372036854775807, got ")
            assert not out.exists()

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

    def test_csv_reader_error_exits_two(self, tmp_path, capsys):
        # a quoted field past csv's field limit is bad input, not a failed check
        csv = tmp_path / "big.csv"
        csv.write_text('x,y\n1.0,0.5\n"' + "1" * 200_000 + '",0.1\n')
        out = tmp_path / "f"
        assert run("fit", "--input", csv, "--kind", "dyt", "--channels", 10, "--out", out) == 2
        assert "row 3: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows", ["-1.0,-0.5\n-2.0,-0.9\n-3.0,-1.2\n", "2.0,0.9\n"], ids=["no-positive-x", "one-point"]
    )
    def test_sparse_residual_panel_renders(self, tmp_path, rows):
        # no point with x > 0 leaves the residual panel empty; one point gives it a single x
        csv = tmp_path / "xy.csv"
        csv.write_text(rows)
        out = tmp_path / "f"
        assert run("fit", "--input", csv, "--kind", "dyisru", "--channels", 100, "--out", out) == 0
        svg = (out / "fit_dyisru.svg").read_text()
        ET.fromstring(svg)
        assert "nan" not in svg and "inf" not in svg

    def test_single_self_mirrored_point_is_usage_error(self, tmp_path, capsys):
        # (0, 0) is its own mirror, so the fit gets one point
        csv = tmp_path / "origin.csv"
        csv.write_text("0,0\n")
        out = tmp_path / "f"
        assert run("fit", "--input", csv, "--kind", "dyisru", "--channels", 100, "--out", out) == 2
        assert "fit needs at least 2 points" in capsys.readouterr().err
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
        assert assert_manifest_lists_directory(out, "figures")["stream"] == STREAM_VERSION

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
