"""Command-line front end: verify, simulate, fit, figures.

Exit codes: 0 success, 1 failed check or fit, 2 usage/input error, 3 I/O
error. All randomness flows from --seed; reruns with the same flags produce
byte-identical CSV and JSON artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

import dynact
from dynact.activations import DyISRUParams, DyTParams, dyisru, scaled_dyt
from dynact.fitting import BracketFailure, FitResult, fit_dyisru, fit_dyt, mirror_augment
from dynact.simulation import (
    OutlierScenario,
    SimulationConfig,
    outlier_points,
    read_points_csv,
    run_scenario,
    scenario_to_csv,
)
from dynact.svgplot import Curve, Panel, Scatter, color_cycle, render_figure
from dynact.verification import run_all_checks

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

CURVE_SEGMENTS = 512

# Parameter sets drawn for the side-by-side activation curve figure (C = 50).
FIG1_CHANNELS = 50
FIG1_ALPHAS = (0.25, 0.5, 1.0)
FIG1_BETAS = (4.0, 25.0, 100.0)
FIG1_XMAX = 15.0

# Frames drawn by `figures`, and by `simulate` without --frames (there clipped
# to s_max).
DEFAULT_FRAMES = (0, 1, 2, 9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynact",
        description="Layer normalization vs dynamic activations: verification, simulation, fits, figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the numerical identity checks")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--out", default="verification_report.json")
    p_verify.add_argument("--json", action="store_true", help="print the report JSON to stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run the stepwise outlier simulation")
    p_sim.add_argument("--channels", type=int, default=100)
    p_sim.add_argument("--sigma", type=float, default=2.0)
    p_sim.add_argument("--mu", type=float, default=0.0)
    p_sim.add_argument("--step", type=float, default=5.0)
    p_sim.add_argument("--s-max", type=int, default=9)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--frames", default=None,
        help="comma-separated frame indices to plot, each in [0, s-max] (default: 0,1,2,9 up to s-max)",
    )
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit DyT or DyISRU to (x, y) data")
    p_fit.add_argument("--input", required=True, help="scenario CSV or plain x,y CSV")
    p_fit.add_argument("--kind", choices=["dyt", "dyisru"], required=True)
    p_fit.add_argument("--channels", type=int, default=None)
    p_fit.add_argument("--out", default="out")
    p_fit.add_argument("--json", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_figs = sub.add_parser("figures", help="regenerate all figures as SVG + CSV")
    p_figs.add_argument("--seed", type=int, default=0)
    p_figs.add_argument("--out", default="figures")
    p_figs.add_argument("--json", action="store_true")
    p_figs.set_defaults(func=cmd_figures)

    return parser


class _Out:
    """A command's --out directory: made at the first write, each file UTF-8 and listed in the manifest."""

    def __init__(self, path: str):
        self.dir = Path(path)
        self.names: list[str] = []

    def write(self, name: str, text: str) -> None:
        if not self.names:
            self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / name).write_text(text, encoding="utf-8")
        self.names.append(name)

    def write_manifest(self, command: str, config: dict, seed: int) -> None:
        manifest = {
            "command": command,
            "config": config,
            "seed": seed,
            "artifacts": sorted(self.names),
            "tool_version": dynact.__version__,
        }
        self.write("manifest.json", json.dumps(manifest, indent=2) + "\n")

    def print_summary(self, as_json: bool) -> int:
        if as_json:
            print(json.dumps({"out": str(self.dir), "artifacts": sorted(self.names)}))
        else:
            print(f"wrote {len(self.names)} files to {self.dir}")
        return EXIT_OK


def _frame_panel(scenario: OutlierScenario, s: int) -> Panel:
    frame = scenario.frames[s]
    o = scenario.outlier_index
    mask = np.ones(frame.x.size, dtype=bool)
    mask[o] = False
    panel = Panel(title=f"S = {s}", xlabel="x", ylabel="y")
    panel.series.append(
        Scatter(
            xs=tuple(frame.x[mask].tolist()), ys=tuple(frame.y[mask].tolist()),
            filled=False, color="#555555",
        )
    )
    if s >= 1:
        panel.series.append(
            Scatter(xs=(frame.x.item(o),), ys=(frame.y.item(o),), filled=True, color="#d62728")
        )
    return panel


def _curve(kind: str, param: float, channels: int, grid: np.ndarray) -> list[float]:
    """Family `kind` at its parameter (alpha for dyt, beta for dyisru) on the grid."""
    if kind == "dyt":
        return scaled_dyt(grid, DyTParams(alpha=param, channels=channels)).tolist()
    return dyisru(grid, DyISRUParams(beta=param, channels=channels)).tolist()


def _fit_figure(points: list[tuple[float, float]], results: list[FitResult], channels: int) -> str:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    top = Panel(title="outlier data and fitted activations", xlabel="x", ylabel="y")
    top.series.append(Scatter(xs=tuple(xs), ys=tuple(ys), filled=True, color="#555555", label="outliers"))
    grid = np.linspace(min(xs + [0.0]), max(xs), CURVE_SEGMENTS + 1)
    grid_xs = tuple(grid.tolist())
    bottom = Panel(title="residuals (positive outliers)", xlabel="x", ylabel="residual")
    bottom.hlines.append((0.0, True))
    for k, res in enumerate(results):
        color = color_cycle(k + 1)
        curve = _curve(res.function_kind, res.parameter, channels, grid)
        top.series.append(Curve(xs=grid_xs, ys=tuple(curve), color=color, label=res.function_kind))
        pos = [(x, r) for x, r in zip(xs, res.residuals) if x > 0]
        bottom.series.append(
            Scatter(
                xs=tuple(x for x, _ in pos),
                ys=tuple(r for _, r in pos),
                filled=True,
                color=color,
                label=res.function_kind,
            )
        )
    return render_figure([top, bottom])


def _simulate_files(out: _Out, config: SimulationConfig, frames) -> OutlierScenario:
    """The simulate step: scenario.csv and one frame_s<s>.svg per frame."""
    scenario = run_scenario(config)
    out.write("scenario.csv", scenario_to_csv(scenario))
    for s in frames:
        out.write(f"frame_s{s}.svg", render_figure([_frame_panel(scenario, s)]))
    return scenario


def _fit_files(out: _Out, points, channels: int, kinds: list[str]) -> list[FitResult]:
    """The fit step: one fit_<kind>.json per result, written only after every fit has succeeded."""
    data = mirror_augment(points, channels=channels)
    results = [fit_dyt(data) if kind == "dyt" else fit_dyisru(data) for kind in kinds]
    for res in results:
        out.write(f"fit_{res.function_kind}.json", json.dumps(res.to_dict(), indent=2) + "\n")
    return results


def cmd_verify(args) -> int:
    report = run_all_checks(args.seed, trials=args.trials)
    Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    if args.json:
        print(report.to_json())
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(
                f"{status} {c.name}: trials={c.trials} max_abs={c.max_abs_error:.3e} "
                f"max_rel={c.max_rel_error:.3e} tol={c.tolerance:.0e}"
            )
        print(f"verdict: {'passed' if report.verdict else 'FAILED'} (report: {args.out})")
    return EXIT_OK if report.verdict else EXIT_FAILED


def cmd_simulate(args) -> int:
    config = SimulationConfig(
        channels=args.channels,
        sigma=args.sigma,
        mu=args.mu,
        step=args.step,
        s_max=args.s_max,
        seed=args.seed,
    )
    if args.frames is None:
        frames = [s for s in DEFAULT_FRAMES if s <= config.s_max]
    else:
        try:
            # a repeated index draws its frame once
            frames = list(dict.fromkeys(int(s) for s in args.frames.split(",") if s.strip() != ""))
        except ValueError:
            print(f"dynact simulate: bad --frames value {args.frames!r}", file=sys.stderr)
            return EXIT_USAGE
        outside = [s for s in frames if not 0 <= s <= config.s_max]
        if outside:
            print(
                f"dynact simulate: --frames {','.join(map(str, outside))} outside the valid "
                f"range [0, {config.s_max}] set by --s-max",
                file=sys.stderr,
            )
            return EXIT_USAGE
    out = _Out(args.out)
    _simulate_files(out, config, frames)
    out.write_manifest("simulate", {**dataclasses.asdict(config), "frames": frames}, config.seed)
    return out.print_summary(args.json)


def cmd_fit(args) -> int:
    points, inferred_channels = read_points_csv(args.input)
    if not points:
        raise ValueError("no fit points in input CSV")
    channels = args.channels if args.channels is not None else inferred_channels
    if channels is None:
        print("dynact fit: --channels is required for plain x,y input", file=sys.stderr)
        return EXIT_USAGE
    out = _Out(args.out)
    [result] = _fit_files(out, points, channels, [args.kind])
    out.write(f"fit_{args.kind}.svg", _fit_figure(points, [result], channels))
    out.write_manifest("fit", {"input": str(args.input), "kind": args.kind, "channels": channels}, 0)
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        print(
            f"{args.kind}: parameter={result.parameter:.6g} sse={result.sse:.6g} "
            f"mae={result.mae:.6g} n={result.n_points}"
        )
    return EXIT_OK


def _fig1_files(out: _Out) -> None:
    grid = np.linspace(-FIG1_XMAX, FIG1_XMAX, CURVE_SEGMENTS + 1)
    grid_xs = tuple(grid.tolist())
    grid_text = list(map(repr, grid_xs))
    panel = Panel(title=f"DyT and DyISRU, C = {FIG1_CHANNELS}", xlabel="x", ylabel="y")
    bound = math.sqrt(FIG1_CHANNELS - 1)
    panel.hlines.extend([(bound, True), (-bound, True)])
    lines = ["function,parameter,x,y"]
    curves = [("dyt", a, f"DyT alpha={a:g}") for a in FIG1_ALPHAS]
    curves += [("dyisru", b, f"DyISRU beta={b:g}") for b in FIG1_BETAS]
    for k, (kind, param, label) in enumerate(curves):
        ys = tuple(_curve(kind, param, FIG1_CHANNELS, grid))
        panel.series.append(
            Curve(xs=grid_xs, ys=ys, color=color_cycle(k), dashed=kind == "dyisru", label=label)
        )
        lines.extend(f"{kind},{param!r},{x},{y!r}" for x, y in zip(grid_text, ys))
    out.write("fig1_curves.csv", "\n".join(lines) + "\n")
    out.write("fig1.svg", render_figure([panel]))


def cmd_figures(args) -> int:
    out = _Out(args.out)
    _fig1_files(out)
    config = SimulationConfig(seed=args.seed)
    scenario = _simulate_files(out, config, DEFAULT_FRAMES)
    points = outlier_points(scenario)
    results = _fit_files(out, points, config.channels, ["dyt", "dyisru"])
    lines = ["kind,x,y,residual"]
    for res in results:
        lines.extend(f"{res.function_kind},{x!r},{y!r},{r!r}" for (x, y), r in zip(points, res.residuals))
    out.write("fig3_residuals.csv", "\n".join(lines) + "\n")
    out.write("fig3.svg", _fit_figure(points, results, config.channels))
    simulation = dataclasses.asdict(config)
    del simulation["seed"]  # the manifest keeps the seed at its top level
    fig1 = {"channels": FIG1_CHANNELS, "alphas": list(FIG1_ALPHAS), "betas": list(FIG1_BETAS)}
    out.write_manifest("figures", {"seed": args.seed, "fig1": fig1, "simulation": simulation}, args.seed)
    return out.print_summary(args.json)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BracketFailure as exc:
        print(f"dynact {args.command}: fit failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:
        print(f"dynact {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"dynact {args.command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
