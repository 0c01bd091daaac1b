"""Tests of the benchmark itself: alias restoration, exact counts, overhead.

Run with ``python3 -m pytest bench/tests -q``; the repository's own test run
does not collect them.
"""

import copy
import importlib
import inspect
import json
import shutil
import subprocess
import sys
import warnings

import pytest

import child
import tracer
from workloads import WORKLOADS

ROOT = child.Path(__file__).resolve().parents[2]
MODULES = [importlib.import_module("dynact")] + [
    importlib.import_module(f"dynact.{layer}") for layer in tracer.LAYERS
]
COUNT_SUFFIXES = (".calls", ".draws", ".bytes", ".bytes_written", ".band_misses", ".spans")


def namespace_snapshot():
    """Identity of every attribute of every dynact module and of its classes."""
    snap = {}
    for mod in MODULES:
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("dynact"):
                for name, member in vars(obj).items():
                    snap[(obj.__qualname__, name)] = member
    return snap


def test_tracer_rebinds_and_restores_every_alias():
    before = namespace_snapshot()
    originals = {id(fn) for _o, _a, _n, fn in tracer._targets(
        {layer: importlib.import_module(f"dynact.{layer}") for layer in tracer.LAYERS})}
    with tracer.Tracer():
        during = namespace_snapshot()
        # no dynact module may still hold an unwrapped traced function
        stale = [key for key, obj in during.items() if id(obj) in originals]
        assert stale == []
        # aliases imported by name are rebound to the same wrapper as the definition
        dyn = {m.__name__: m for m in MODULES}
        assert dyn["dynact.verification"].beta_exact is dyn["dynact.activations"].beta_exact
        assert dyn["dynact"].run_scenario is dyn["dynact.simulation"].run_scenario
        assert dyn["dynact.cli"].render_figure.__wrapped__ is before[("dynact.svgplot", "render_figure")]
        rebound = [key for key in before if during[key] is not before[key]]
        assert len(rebound) > len(originals)
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def traced_metrics(name: str, ops: int, tmp_path):
    workload = copy.copy(WORKLOADS[name])
    workload.prefix_ops = ops
    runner = child.Runner(workload, seed=7, work=tmp_path / name)
    return child.traced(runner, "")


@pytest.mark.parametrize("name,ops", [("verify", 2), ("sweep", 3), ("artifacts", 2)])
def test_counts_repeat_exactly_and_overhead_is_reported(name, ops, tmp_path):
    first = traced_metrics(name, ops, tmp_path)
    second = traced_metrics(name, ops, tmp_path)
    counts = {k: m["value"] for k, m in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["cli.main.calls"] + counts["rng.normals.draws"] > 0
    assert "trace.overhead_ratio" in first["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first["metrics"]) == {m["name"] for m in declared}
    assert first["digest"] == first["traced_digest"] == second["digest"]
    assert first["wrong"] == 0


@pytest.mark.parametrize("seed", [248168593, 2126319109, 1693498990])
def test_fd_reference_miss_of_check_theorem1_is_counted_not_failed(seed, tmp_path):
    # op seeds whose verify report fails only check_theorem1: at C=2 (the
    # second also writes the check's divide-by-zero warning to stderr) and at
    # C=3 on a vector whose spread is close to the finite-difference step
    warnings.simplefilter("always")
    verify = WORKLOADS["verify"]
    outcome = verify.finish(seed, verify.run(seed, tmp_path), tmp_path)
    assert outcome.problem is None
    assert outcome.known.startswith("ln_derivative_vs_fd")


def test_run_too_slow_for_p90_stops_with_an_error(tmp_path):
    runner = child.Runner(WORKLOADS["sweep"], seed=7, work=tmp_path)
    with pytest.raises(SystemExit, match="too few for p90"):
        child.timed_loop(runner, seconds=1.0, max_wall=0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
