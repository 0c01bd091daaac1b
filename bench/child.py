"""One workload in one fresh interpreter; prints its result as a JSON line.

Started by ``run.py``, never by hand. Modes:

- ``setup``: import dynact, make the inputs, warm up, report when ready.
- ``run``: set up, then a closed loop with one client for ``--seconds`` of
  timed op time and at least ``MIN_OPS`` ops; checks run between ops,
  outside the timed region. A run that cannot reach ``MIN_OPS`` within
  ``--max-wall`` seconds of wall time exits with an error.
- ``trace``: set up, then run each op of the fixed op prefix untraced and
  again under the tracer; report per-layer self times and counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

import dynact
import numpy
from tracer import LAYERS, ROOT_SPAN, Tracer, summarize, write_spans
from workloads import WORKLOADS, Outcome, op_seeds

ROOT = Path(__file__).resolve().parents[1]
# At least 10 latency samples must lie beyond p90.
MIN_OPS = 110

PER_LAYER = {
    "core_math.ln_derivative_analytic": ("calls", "self_s"),
    "activations.beta_exact": ("calls", "self_s"),
    "activations.dyisru_general": ("calls", "self_s"),
    "verification.check_theorem1": ("self_s",),
    "verification.check_theorem2": ("self_s",),
    "verification.check_theorem3": ("self_s",),
    "verification.check_theorem4": ("self_s",),
    "verification.check_isru_equivalence": ("self_s",),
    "verification.ln_derivative_fd": ("calls", "self_s"),
    "rng.normals": ("calls", "draws", "self_s"),
    "core_math.layer_norm": ("calls", "self_s"),
    "simulation.run_scenario": ("calls", "self_s"),
    "fitting.fit_dyt": ("calls", "self_s"),
    "fitting.fit_dyisru": ("calls", "self_s"),
    "simulation.scenario_to_csv": ("self_s", "bytes"),
    "simulation.read_points_csv": ("self_s", "bytes"),
    "svgplot.render_figure": ("calls", "self_s", "bytes"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "draws": "count", "bytes": "B"}


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--work", required=True)
    p.add_argument("--max-wall", type=float, required=True)
    p.add_argument("--spans", default="")
    return p.parse_args(argv)


class Runner:
    """Runs the ops of one workload; op k always gets the same input."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.op_seeds = op_seeds(workload.name, seed)
        self.inputs: list[int] = []

    def op_input(self, k: int) -> int:
        while len(self.inputs) <= k:
            self.inputs.append(next(self.op_seeds))
        return self.inputs[k]

    def one(self, seed: int, call=None):
        """Timed op, then its untimed check: (wall s, CPU s, Outcome).

        ``call(run, seed, op_dir)``, when given, runs the op; the tracer uses
        it to open the op's root span.
        """
        op_dir = self.work / "op"
        op_dir.mkdir(parents=True, exist_ok=True)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if call is None:
                raw = self.workload.run(seed, op_dir)
            else:
                raw = call(self.workload.run, seed, op_dir)
            error = None
        except Exception as exc:  # the op failed; record it and keep going
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if error is None:
            try:
                outcome = self.workload.finish(seed, raw, op_dir)
            except Exception as exc:  # unreadable output is a wrong output
                outcome = Outcome(f"output check raised {type(exc).__name__}: {exc}", True, b"", 0)
        else:
            outcome = Outcome(error, False, b"", 0)
        shutil.rmtree(op_dir)
        return latency, cpu, outcome


def setup(args):
    """Import, input generation and warm-up; returns the runner."""
    where = Path(dynact.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"imported dynact from {where}, not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, Path(args.work))
    warm = op_seeds(workload.name, args.seed, "warmup")
    for _ in range(workload.warmup_ops):
        runner.one(next(warm))
    runner.op_input(0)
    return runner


def timed_loop(runner, seconds: float, max_wall: float) -> dict:
    digest = hashlib.sha256()
    latencies, failures, known, cpu = [], [], [], []
    wrong = 0
    busy = 0.0
    loop_start = time.perf_counter()
    k = 0
    prefix = runner.workload.prefix_ops
    while k < prefix or busy < seconds or k < MIN_OPS:
        if time.perf_counter() - loop_start > max_wall:
            raise SystemExit(
                f"{k} ops in {max_wall:g} s of wall time: too few for p90, "
                f"which needs {MIN_OPS}")
        latency, op_cpu, outcome = runner.one(runner.op_input(k))
        latencies.append(latency)
        cpu.append(op_cpu)
        busy += latency
        if k < prefix:
            digest.update(outcome.digest)
        if outcome.problem is not None:
            failures.append({"op": k, "seed": runner.op_input(k), "problem": outcome.problem})
            wrong += outcome.wrong
        if outcome.known is not None:
            known.append({"op": k, "seed": runner.op_input(k), "miss": outcome.known})
        k += 1
    return {
        "latencies_s": latencies,
        "cpu_s": cpu,
        "busy_s": busy,
        "failures": failures,
        "known_defects": known,
        "wrong": wrong,
        "digest": digest.hexdigest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def traced_prefix(runner, tracer) -> dict:
    """Each op of the fixed prefix twice, untraced then traced, so drift hits both alike.

    The tracer is installed only around the traced op, so the untraced one
    runs the program exactly as the timed loop does.
    """
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    busy = {False: 0.0, True: 0.0}
    failures = {False: [], True: []}
    wrong, written = 0, 0
    for k in range(runner.workload.prefix_ops):
        seed = runner.op_input(k)
        for traced in (False, True):
            if traced:
                with tracer:
                    latency, _, outcome = runner.one(seed, lambda f, *a: tracer.run_op(k, f, *a))
            else:
                latency, _, outcome = runner.one(seed)
            busy[traced] += latency
            digests[traced].update(outcome.digest)
            if outcome.problem is not None:
                failures[traced].append({"op": k, "seed": seed, "problem": outcome.problem})
                wrong += outcome.wrong
        written += outcome.bytes_written
    return {
        "plain_s": busy[False],
        "traced_s": busy[True],
        "digest": digests[False].hexdigest(),
        "traced_digest": digests[True].hexdigest(),
        "failures": failures[False],
        "traced_failures": failures[True],
        "wrong": wrong,
        "written": written,
    }


def traced(runner, spans_path: str) -> dict:
    tracer = Tracer()
    result = traced_prefix(runner, tracer)
    stats = summarize(tracer.spans)
    if spans_path:
        write_spans(tracer.spans, spans_path)

    def get(name, key):
        """calls, self_s, or the span's own counter (draws, bytes, band_misses)."""
        agg = stats.get(name, {"calls": 0, "self_ns": 0, "count": 0})
        if key == "self_s":
            return agg["self_ns"] / 1e9
        return agg["calls"] if key == "calls" else agg["count"]

    metrics = {}
    for name, keys in PER_LAYER.items():
        for key in keys:
            metrics[f"{name}.{key}"] = (get(name, key), UNITS[key])
    draws = get("rng.normals", "draws")
    metrics["rng.normals.ns_per_draw"] = (
        get("rng.normals", "self_s") * 1e9 / draws if draws else 0.0, "ns")
    metrics["cli.bytes_written"] = (result.pop("written"), "B")
    metrics["fitting.band_misses"] = (get("fitting.fit_dyisru", "band_misses"), "count")
    for layer in LAYERS:
        names = [n for n in stats if n.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = (sum(stats[n]["self_ns"] for n in names) / 1e9, "s")
        metrics[f"{layer}.calls"] = (sum(stats[n]["calls"] for n in names), "count")
    metrics["bench.op.self_s"] = (get(ROOT_SPAN, "self_s"), "s")
    metrics["trace.overhead_ratio"] = (result["traced_s"] / result["plain_s"] - 1.0, "ratio")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["ops"] = runner.workload.prefix_ops
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    # judge every op on its own output: show each warning each time it occurs
    warnings.simplefilter("always")
    runner = setup(args)
    ready = time.monotonic()
    if args.mode == "setup":
        result = {}
    elif args.mode == "run":
        result = timed_loop(runner, args.seconds, args.max_wall)
    else:
        result = traced(runner, args.spans)
    result.update(ready_monotonic=ready, numpy=numpy.__version__, python=sys.version.split()[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
