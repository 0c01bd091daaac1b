"""Command-line front end: verify, simulate, fit, figures.

Exit codes: 0 success, 1 failed check or fit, 2 usage/input error, 3 I/O error. A command
refuses its input by raising ValueError; only `main` reports it, as one stderr line
`dynact <command>: <message>` with exit 2, and nothing is written. All randomness flows
from --seed; reruns with the same flags produce byte-identical CSV and JSON artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

import dynact
from dynact.activations import DyISRUParams, DyTParams, dyisru, scaled_dyt
from dynact.fitting import BracketFailure, FitResult, fit_dyisru, fit_dyt, mirror_augment
from dynact.rng import STREAM_VERSION
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at its first call and shared by every later main call."""
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
    for f in dataclasses.fields(SimulationConfig):
        p_sim.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
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
    """A command's --out directory: made at the first write, each file UTF-8 and listed in the manifest.

    The first write first removes what an earlier run's manifest.json there lists, and that
    manifest, so the directory keeps no stale artifact. The file at `keep`, the command's
    input, is never removed, even when that manifest lists it.
    """

    def __init__(self, path: str, keep: str | None = None):
        self.dir = Path(path)
        self.keep = None if keep is None else Path(keep).resolve()
        self.names: list[str] = []

    def write(self, name: str, text: str) -> None:
        if not self.names:
            self._remove_previous()
            self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / name).write_text(text, encoding="utf-8")
        self.names.append(name)

    def _remove_previous(self) -> None:
        manifest = self.dir / "manifest.json"
        try:
            listed = json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]
        except FileNotFoundError:
            return
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{manifest} is not a dynact manifest ({exc!r}); move it away first") from None
        # plain file names only: a manifest is input, and a path in it could point anywhere
        plain = isinstance(listed, list) and all(isinstance(n, str) and n == Path(n).name for n in listed)
        if not plain or {"", ".."} & set(listed):
            raise ValueError(f"{manifest} lists artifacts outside {self.dir}; move it away first")
        for name in [*listed, "manifest.json"]:
            path = self.dir / name
            if path.resolve() != self.keep:
                path.unlink(missing_ok=True)

    def write_manifest(self, command: str, config: dict, seed: int, stream: int | None = None) -> None:
        """`stream`, the rng stream version that drew the artifacts, is recorded after the seed."""
        manifest = {"command": command, "config": config, "seed": seed}
        if stream is not None:
            manifest["stream"] = stream
        manifest |= {"artifacts": sorted(self.names), "tool_version": dynact.__version__}
        self.write("manifest.json", json.dumps(manifest, indent=2) + "\n")

    def print_summary(self, as_json: bool) -> int:
        if as_json:
            print(json.dumps({"out": str(self.dir), "artifacts": sorted(self.names)}))
        else:
            print(f"wrote {len(self.names)} files to {self.dir}")
        return EXIT_OK


def _frame_panel(scenario: OutlierScenario, s: int) -> Panel:
    x, y = scenario.x[s], scenario.y[s]
    o = scenario.outlier_index
    mask = np.ones(x.size, dtype=bool)
    mask[o] = False
    panel = Panel(title=f"S = {s}", xlabel="x", ylabel="y")
    panel.series.append(
        Scatter(xs=tuple(x[mask].tolist()), ys=tuple(y[mask].tolist()), filled=False, color="#555555")
    )
    if s >= 1:
        panel.series.append(Scatter(xs=(x.item(o),), ys=(y.item(o),), filled=True, color="#d62728"))
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
    bottom.hlines.append(0.0)
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
    """The simulate step: scenario.csv and one frame_s<s>.svg per frame.

    Every frame is rendered before the first write, so a frame that fails to render
    leaves --out as it was.
    """
    scenario = run_scenario(config)
    svgs = [render_figure([_frame_panel(scenario, s)]) for s in frames]
    out.write("scenario.csv", scenario_to_csv(scenario))
    for s, svg in zip(frames, svgs):
        out.write(f"frame_s{s}.svg", svg)
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
    text = report.to_json()
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    if args.json:
        print(text)
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
    config = SimulationConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SimulationConfig)})
    if args.frames is None:
        frames = [s for s in DEFAULT_FRAMES if s <= config.s_max]
    else:
        try:
            # a repeated index draws its frame once
            frames = list(dict.fromkeys(int(s) for s in args.frames.split(",") if s.strip() != ""))
        except ValueError:
            raise ValueError(f"bad --frames value {args.frames!r}") from None
        outside = [s for s in frames if not 0 <= s <= config.s_max]
        if outside:
            raise ValueError(
                f"--frames {','.join(map(str, outside))} outside the valid range [0, {config.s_max}] set by --s-max"
            )
    out = _Out(args.out)
    _simulate_files(out, config, frames)
    out.write_manifest("simulate", {**dataclasses.asdict(config), "frames": frames}, config.seed, STREAM_VERSION)
    return out.print_summary(args.json)


def cmd_fit(args) -> int:
    points, inferred_channels = read_points_csv(args.input)
    if not points:
        raise ValueError("no fit points in input CSV")
    channels = args.channels if args.channels is not None else inferred_channels
    if channels is None:
        raise ValueError("--channels is required for plain x,y input")
    out = _Out(args.out, keep=args.input)
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
    panel.hlines.extend([bound, -bound])
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
    out.write_manifest("figures", {"seed": args.seed, "fig1": fig1, "simulation": simulation}, args.seed, STREAM_VERSION)
    return out.print_summary(args.json)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
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
