"""Scalar least-squares fitting of alpha (DyT) and beta (DyISRU).

Both families have one positive parameter, so the fit is a bracketed 1-D
minimization of the sum of squared residuals, run in log-parameter space to
enforce positivity. The bracket is found by geometric expansion from a
data-driven initial guess and refined by golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# Parameter search domains (log-space bounds).
ALPHA_DOMAIN = (1e-12, 1e12)
BETA_DOMAIN = (1e-9, 1e12)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

GOLDEN_TOL = 1e-12
GOLDEN_MAX_ITER = 200


class BracketFailure(RuntimeError):
    """No interior minimum found inside the search domain; the data is degenerate."""


@dataclass(frozen=True)
class FitDataset:
    """(x, y) targets for a single-parameter fit against a C-channel activation."""

    points: tuple[tuple[float, float], ...]
    channels: int
    mirrored: bool = False
    n_original: int | None = None

    def __post_init__(self):
        if self.channels < 2:
            raise ValueError(f"channels must be >= 2, got {self.channels}")
        if len(self.points) < 1:
            raise ValueError("dataset needs at least one point")
        bound = math.sqrt(self.channels - 1)
        for x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite data point ({x}, {y})")
            if abs(y) >= bound:
                raise ValueError(
                    f"target y={y} is unattainable: |y| must be < sqrt(C-1) = {bound:.6g}"
                )
        if self.n_original is None:
            object.__setattr__(self, "n_original", len(self.points))

    def xy_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.array([p[0] for p in self.points], dtype=np.float64)
        ys = np.array([p[1] for p in self.points], dtype=np.float64)
        return xs, ys


@dataclass(frozen=True)
class FitResult:
    """Fitted parameter with residual diagnostics over the unmirrored points."""

    function_kind: str
    parameter: float
    sse: float
    mae: float
    residuals: tuple[float, ...]
    n_points: int
    bracket: tuple[float, float, float]
    bracket_sse: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "function_kind": self.function_kind,
            "parameter": self.parameter,
            "sse": self.sse,
            "mae": self.mae,
            "n_points": self.n_points,
        }


def mirror_augment(points: Iterable[tuple[float, float]], channels: int) -> FitDataset:
    """Append the mirrored points (-x, -y); the self-mirror (0, 0) is not duplicated."""
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("no points to mirror")
    mirrors = [(-x, -y) for x, y in pts if not (x == 0.0 and y == 0.0)]
    return FitDataset(
        points=tuple(pts + mirrors),
        channels=channels,
        mirrored=True,
        n_original=len(pts),
    )


def _expand_bracket(
    f: Callable[[float], float],
    t0: float,
    lo: float,
    hi: float,
    step: float = 0.5,
    grow: float = 2.0,
) -> tuple[float, float, float]:
    """Find (a, b, c) with a < b < c and f(b) < min(f(a), f(c)) inside [lo, hi]."""
    t0 = min(max(t0, lo + step), hi - step)
    f0 = f(t0)
    f_up = f(t0 + step)
    f_dn = f(t0 - step)
    if f0 <= f_up and f0 <= f_dn:
        return t0 - step, t0, t0 + step
    direction = 1.0 if f_up < f_dn else -1.0
    prev, cur = t0, t0 + direction * step
    fcur = f_up if direction > 0 else f_dn
    h = step
    while True:
        h *= grow
        nxt = cur + direction * h
        clipped = min(max(nxt, lo), hi)
        fnxt = f(clipped)
        if fnxt > fcur:
            a, c = sorted((prev, clipped))
            return a, cur, c
        if clipped != nxt or clipped in (lo, hi):
            raise BracketFailure(
                "objective decreases up to the search boundary; "
                "no interior minimum (degenerate fit data)"
            )
        prev, cur, fcur = cur, clipped, fnxt


def _golden_section(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = GOLDEN_TOL,
    max_iter: int = GOLDEN_MAX_ITER,
) -> float:
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if abs(b - a) <= tol:
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _fit_scalar(
    kind: str,
    data: FitDataset,
    model: Callable[[np.ndarray, float], np.ndarray],
    theta0: float,
    domain: tuple[float, float],
) -> FitResult:
    if len(data.points) < 2:
        raise ValueError("fit needs at least 2 points")
    xs, ys = data.xy_arrays()

    def sse_of(theta: float) -> float:
        r = ys - model(xs, theta)
        return float(r @ r)

    def f(t: float) -> float:
        return sse_of(math.exp(t))

    lo, hi = math.log(domain[0]), math.log(domain[1])
    ta, tb, tc = _expand_bracket(f, math.log(theta0), lo, hi)
    t_star = _golden_section(f, ta, tc)
    theta = math.exp(t_star)

    n = data.n_original
    res = ys[:n] - model(xs[:n], theta)
    return FitResult(
        function_kind=kind,
        parameter=theta,
        sse=float(res @ res),
        mae=float(np.mean(np.abs(res))),
        residuals=tuple(float(r) for r in res),
        n_points=n,
        bracket=(math.exp(ta), math.exp(tb), math.exp(tc)),
        bracket_sse=(f(ta), f(tb), f(tc)),
    )


def fit_dyt(data: FitDataset) -> FitResult:
    """Fit alpha in y = sqrt(C-1) * tanh(alpha * x) by least squares."""
    root = math.sqrt(data.channels - 1)
    xs, _ = data.xy_arrays()
    xmax = float(np.max(np.abs(xs)))
    if xmax == 0.0:
        raise BracketFailure("all x are zero; alpha is unidentifiable")
    theta0 = 1.0 / xmax

    def model(x, alpha):
        return root * np.tanh(alpha * x)

    return _fit_scalar("dyt", data, model, theta0, ALPHA_DOMAIN)


def fit_dyisru(data: FitDataset) -> FitResult:
    """Fit beta in y = sqrt(C-1) * x / sqrt(beta + x^2) by least squares on log beta."""
    root = math.sqrt(data.channels - 1)
    xs, _ = data.xy_arrays()
    theta0 = float(np.median(xs * xs))
    theta0 = min(max(theta0, BETA_DOMAIN[0]), BETA_DOMAIN[1])

    def model(x, beta):
        return root * x / np.sqrt(beta + x * x)

    return _fit_scalar("dyisru", data, model, theta0, BETA_DOMAIN)
