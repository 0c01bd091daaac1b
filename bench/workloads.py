"""The three benchmark workloads: op inputs, the timed op and its output check.

Every op input comes from ``random.Random`` keyed by the workload name and
the ``--seed`` of the run; the program only sees the generated argv and
configs. Library functions are looked up through their modules at call
time, so the tracer's rebinding reaches the calls made here as well.

``run`` is the timed op. ``finish`` runs outside the timed region: it checks
the outputs, returns the bytes that feed the run's output digest, and counts
the bytes the op left on disk.
"""

from __future__ import annotations

import contextlib
import decimal
import inspect
import io
import json
import math
import random
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import dynact.cli as cli
import dynact.core_math as core_math
import dynact.fitting as fitting
import dynact.rng as rng
import dynact.simulation as simulation
import dynact.verification as verification

SEED_RANGE = 2**31


@dataclass
class Outcome:
    """Result of an op's output check.

    ``problem`` is None for a good op. ``wrong`` marks an op that the program
    reported as successful but whose output is not what it should be; an op
    that raised, exited nonzero or wrote to stderr failed, but it did not
    return a wrong answer silently. ``known`` describes a miss of
    ``check_theorem1`` that its finite-difference reference explains; such
    an op is counted, not failed.
    """

    problem: str | None
    wrong: bool
    digest: bytes
    bytes_written: int
    known: str | None = None


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _check_fit(res, kind: str) -> str | None:
    lo, hi = fitting.ALPHA_DOMAIN if kind == "dyt" else fitting.BETA_DOMAIN
    if not (math.isfinite(res.parameter) and lo <= res.parameter <= hi):
        return f"{kind} parameter {res.parameter!r} outside [{lo:g}, {hi:g}]"
    a, b, c = res.bracket_sse
    if not b <= min(a, c):
        return f"{kind} bracket SSE {res.bracket_sse} has no interior minimum"
    return None


class Verify:
    """``dynact verify --trials 10`` with a fresh seed per op."""

    name = "verify"
    warmup_ops = 1
    prefix_ops = 12
    trials = 10

    def run(self, seed: int, work: Path):
        report = work / "report.json"
        argv = ["verify", "--seed", str(seed), "--trials", str(self.trials), "--out", str(report)]
        return _cli(argv)

    def finish(self, seed: int, raw, work: Path) -> Outcome:
        code, _out, err = raw
        report = work / "report.json"
        data = report.read_bytes() if report.is_file() else b""
        size = len(data)
        if not data:
            return Outcome(f"exit {code}, no report written; stderr {err!r}", code == 0, data, size)
        doc = json.loads(data)
        wrong = []
        names = {c["name"] for c in doc["checks"]}
        if len(names) != 5 or len(doc["checks"]) != 5:
            wrong.append(f"expected 5 distinct checks, got {sorted(names)}")
        if doc["seed"] != seed:
            wrong.append(f"report seed {doc['seed']} != {seed}")
        failed = []
        for c in doc["checks"]:
            # check 2 bounds the absolute residual; the others the relative error
            err_key = "max_abs_error" if c["name"] == "scaled_dyt_ode_identity" else "max_rel_error"
            within = c[err_key] <= c["tolerance"]
            if within != c["passed"]:
                wrong.append(f"{c['name']}: passed={c['passed']} but {err_key}={c[err_key]!r}")
            if not within:
                failed.append(f"{c['name']} {err_key}={c[err_key]!r} > tol {c['tolerance']:g}")
        verdict = all(c["passed"] for c in doc["checks"])
        if doc["verdict"] != verdict or (code == 0) != verdict:
            wrong.append(f"verdict {doc['verdict']} with exit {code}")
        if wrong:
            return Outcome("; ".join(wrong), True, data, size)
        if len(failed) == 1 and self._fd_miss(seed, doc, err):
            return Outcome(None, False, data, size, known=failed[0])
        if err:
            failed.append(f"stderr {err.strip()!r}")
        if failed:
            return Outcome("; ".join(failed), False, data, size)
        return Outcome(None, False, data, size)

    def _fd_miss(self, seed: int, doc: dict, err: str) -> bool:
        """True when check_theorem1's miss is the fault of its finite-difference reference.

        The check compares the analytic LN derivative with central differences
        of a fixed step. On a trial vector whose spread is near or below that
        step the difference is inaccurate, and at C=2, where the derivative is
        0, both sides are rounding noise; the check then misses although the
        analytic value is right. Here the check is run again, to confirm the
        op's error and its whole stderr, and every analytic value of its trial
        vectors is compared with the exact closed form instead.
        """
        t1 = next(c for c in doc["checks"] if c["name"] == "ln_derivative_vs_fd")
        if t1["passed"]:
            return False
        check = verification.check_theorem1
        again_err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(again_err):
            warnings.simplefilter("always")
            again = check(seed, trials=self.trials)
        if again.max_rel_error != t1["max_rel_error"] or again_err.getvalue() != err:
            return False
        defaults = {k: p.default for k, p in inspect.signature(check).parameters.items()}
        draws = rng.CounterRng(seed, "ln_derivative_vs_fd")
        for c in defaults["c_list"]:
            for _ in range(self.trials):
                x = verification._draw_vector(draws, c)
                exact, variance = _exact_ln_derivative(x)
                # rounding error that any float64 evaluation of the closed form
                # can make on this vector; measured errors stay below 2 units
                slack = 8 * sys.float_info.epsilon * max(abs(v) for v in x) / variance
                for i, want in enumerate(exact):
                    got = core_math.ln_derivative_analytic(x, i)
                    if abs(got - want) > defaults["abs_tol"] + defaults["rel_tol"] * abs(want) + slack:
                        return False
        return True


def _exact_ln_derivative(x) -> tuple[list[float], float]:
    """Closed-form d(layer_norm(x)_i)/dx_i = (C - 1 - y_i^2) / (C sigma) in 50 digits, and the variance."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = [decimal.Decimal(float(v)) for v in x]
        c = len(d)
        mean = sum(d) / c
        variance = sum((v - mean) ** 2 for v in d) / c
        sigma = variance.sqrt()
        return [float((c - 1 - ((v - mean) / sigma) ** 2) / (c * sigma)) for v in d], float(variance)


class Sweep:
    """One seed of the README library pipeline at three widths, no CLI or files."""

    name = "sweep"
    warmup_ops = 2
    prefix_ops = 60
    widths = (100, 1024, 4096)

    def run(self, seed: int, work: Path):
        fits = []
        for c in self.widths:
            cfg = simulation.SimulationConfig(channels=c, sigma=2.0, step=5.0, s_max=9, seed=seed)
            scenario = simulation.run_scenario(cfg)
            data = fitting.mirror_augment(simulation.outlier_points(scenario), channels=c)
            fits.append((c, fitting.fit_dyt(data), fitting.fit_dyisru(data)))
        return fits

    def finish(self, seed: int, raw, work: Path) -> Outcome:
        problems = []
        digest = []
        for c, dyt, dyisru in raw:
            digest.append(f"{c} {dyt.parameter!r} {dyisru.parameter!r}\n")
            problems += [p for p in (_check_fit(dyt, "dyt"), _check_fit(dyisru, "dyisru")) if p]
            if not dyisru.mae < dyt.mae:
                problems.append(f"C={c}: DyISRU MAE {dyisru.mae!r} >= DyT MAE {dyt.mae!r}")
        problem = "; ".join(problems) or None
        return Outcome(problem, problem is not None, "".join(digest).encode(), 0)


class Artifacts:
    """simulate, fit --kind dyisru, fit --kind dyt and figures on one seed."""

    name = "artifacts"
    warmup_ops = 1
    prefix_ops = 12
    channels = 1024
    s_max = 16

    def run(self, seed: int, work: Path):
        sim = work / "sim"
        csv_path = str(sim / "scenario.csv")
        return [
            _cli(["simulate", "--channels", str(self.channels), "--s-max", str(self.s_max),
                  "--seed", str(seed), "--out", str(sim)]),
            _cli(["fit", "--input", csv_path, "--kind", "dyisru", "--out", str(work / "fit_dyisru")]),
            _cli(["fit", "--input", csv_path, "--kind", "dyt", "--out", str(work / "fit_dyt")]),
            _cli(["figures", "--seed", str(seed), "--out", str(work / "figures")]),
        ]

    def finish(self, seed: int, raw, work: Path) -> Outcome:
        size = _tree_bytes(work)
        failed = [f"command {k} exit {code} stderr {err.strip()!r}"
                  for k, (code, _out, err) in enumerate(raw) if code != 0 or err]
        if failed:
            return Outcome("; ".join(failed), False, b"", size)
        wrong = []
        for d in ("sim", "fit_dyisru", "fit_dyt", "figures"):
            listed = json.loads((work / d / "manifest.json").read_text())["artifacts"]
            wrong += [f"{d}/{f} listed in manifest but missing" for f in listed
                      if not (work / d / f).is_file()]
        cfg = simulation.SimulationConfig(channels=self.channels, s_max=self.s_max, seed=seed)
        scenario = simulation.run_scenario(cfg)
        csv_bytes = (work / "sim" / "scenario.csv").read_bytes()
        if csv_bytes != simulation.scenario_to_csv(scenario).encode("utf-8"):
            wrong.append("sim/scenario.csv differs from the library's scenario_to_csv")
        data = fitting.mirror_augment(simulation.outlier_points(scenario), channels=self.channels)
        digest = [csv_bytes]
        for kind, fit in (("dyisru", fitting.fit_dyisru), ("dyt", fitting.fit_dyt)):
            got = json.loads((work / f"fit_{kind}" / f"fit_{kind}.json").read_text())["parameter"]
            want = fit(data).parameter
            if got != want:
                wrong.append(f"fit {kind} parameter {got!r} != library {want!r}")
            digest.append(f"{kind} {got!r}\n".encode())
        for name in ("scenario.csv", "fig3_residuals.csv"):
            digest.append((work / "figures" / name).read_bytes())
        problem = "; ".join(wrong) or None
        return Outcome(problem, problem is not None, b"".join(digest), size)


WORKLOADS = {w.name: w for w in (Verify(), Sweep(), Artifacts())}


def op_seeds(workload: str, seed: int, stream: str = "ops"):
    """Endless stream of op seeds; the same (workload, seed, stream) repeats it.

    The timed ops use the "ops" stream and the warm-up the "warmup" stream, so
    warming up never consumes or repeats a timed op's input.
    """
    rng = random.Random(f"dynact-bench/{workload}/{seed}/{stream}")
    while True:
        yield rng.randrange(SEED_RANGE)
