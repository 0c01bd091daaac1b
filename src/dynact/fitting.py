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

# First bracket half-width in log-parameter space, and its growth factor per expansion step.
_BRACKET_STEP = 0.5
_BRACKET_GROW = 2.0


class BracketFailure(RuntimeError):
    """No interior minimum found inside the search domain; the data is degenerate."""


@dataclass(frozen=True, eq=False)
class FitDataset:
    """(x, y) targets for a single-parameter fit against a C-channel activation.

    x and y are stored as read-only float64 copies. The first n_original
    points are the unmirrored ones (all of them by default), 1 <= n_original
    <= len(x). Array fields make the generated ``==`` ambiguous, so datasets
    compare by identity.
    """

    x: np.ndarray
    y: np.ndarray
    channels: int
    n_original: int | None = None

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError(f"x and y must be 1-D of equal length, got shapes {x.shape} and {y.shape}")
        if self.channels < 2:
            raise ValueError(f"channels must be >= 2, got {self.channels}")
        if len(x) < 1:
            raise ValueError("dataset needs at least one point")
        bound = math.sqrt(self.channels - 1)
        finite = np.isfinite(x) & np.isfinite(y)
        bad = ~finite | (np.abs(y) >= bound)
        if bad.any():
            i = int(np.argmax(bad))
            if not finite[i]:
                raise ValueError(f"non-finite data point ({x[i]}, {y[i]})")
            raise ValueError(f"target y={y[i]} is unattainable: |y| must be < sqrt(C-1) = {bound:.6g}")
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.n_original is None:
            object.__setattr__(self, "n_original", len(x))
        elif not 1 <= self.n_original <= len(x):
            raise ValueError(f"n_original must be in [1, {len(x)}], got {self.n_original}")


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
    pts = list(points)
    x, y = np.array(pts, dtype=np.float64).reshape(len(pts), 2).T
    mirror = (x != 0.0) | (y != 0.0)
    return FitDataset(
        np.concatenate([x, -x[mirror]]),
        np.concatenate([y, -y[mirror]]),
        channels,
        n_original=len(pts),
    )


def _expand_bracket(
    f: Callable[[float], float], t0: float, lo: float, hi: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Find (a, b, c) with a < b < c and f(b) < min(f(a), f(c)) inside [lo, hi]; return them and their f."""
    t0 = min(max(t0, lo + _BRACKET_STEP), hi - _BRACKET_STEP)
    f0, f_up, f_dn = f(t0), f(t0 + _BRACKET_STEP), f(t0 - _BRACKET_STEP)
    if f0 <= f_up and f0 <= f_dn:
        walk = [(t0 - _BRACKET_STEP, f_dn), (t0, f0), (t0 + _BRACKET_STEP, f_up)]
    else:
        d = _BRACKET_STEP if f_up < f_dn else -_BRACKET_STEP
        walk = [(t0, f0), (t0 + d, f_up if d > 0 else f_dn)]
        while True:
            d *= _BRACKET_GROW
            nxt = walk[-1][0] + d
            clipped = min(max(nxt, lo), hi)
            walk.append((clipped, f(clipped)))
            if walk[-1][1] > walk[-2][1]:
                break
            if clipped != nxt or clipped in (lo, hi):
                raise BracketFailure(
                    "objective decreases up to the search boundary; "
                    "no interior minimum (degenerate fit data)"
                )
    (ta, fa), (tb, fb), (tc, fc) = sorted(walk[-3:])
    if not fb < min(fa, fc):
        raise BracketFailure("objective is flat at its minimum; no interior minimum (degenerate fit data)")
    return (ta, tb, tc), (fa, fb, fc)


def _golden_section(f: Callable[[float], float], a: float, b: float) -> float:
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAX_ITER):
        if abs(b - a) <= GOLDEN_TOL:
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
    if len(data.x) < 2:
        raise ValueError("fit needs at least 2 points")
    xs, ys = data.x, data.y

    def f(t: float) -> float:
        r = ys - model(xs, math.exp(t))
        return float(r @ r)

    lo, hi = math.log(domain[0]), math.log(domain[1])
    (ta, tb, tc), bracket_sse = _expand_bracket(f, math.log(theta0), lo, hi)
    theta = math.exp(_golden_section(f, ta, tc))

    n = data.n_original
    res = ys[:n] - model(xs[:n], theta)
    return FitResult(
        function_kind=kind,
        parameter=theta,
        sse=float(res @ res),
        mae=float(np.mean(np.abs(res))),
        residuals=tuple(res.tolist()),
        n_points=n,
        bracket=(math.exp(ta), math.exp(tb), math.exp(tc)),
        bracket_sse=bracket_sse,
    )


def fit_dyt(data: FitDataset) -> FitResult:
    """Fit alpha in y = sqrt(C-1) * tanh(alpha * x) by least squares."""
    root = math.sqrt(data.channels - 1)
    xmax = float(np.max(np.abs(data.x)))
    if xmax == 0.0:
        raise BracketFailure("all x are zero; alpha is unidentifiable")
    theta0 = 1.0 / xmax

    def model(x, alpha):
        return root * np.tanh(alpha * x)

    return _fit_scalar("dyt", data, model, theta0, ALPHA_DOMAIN)


def fit_dyisru(data: FitDataset) -> FitResult:
    """Fit beta in y = sqrt(C-1) * x / sqrt(beta + x^2) by least squares on log beta."""
    root = math.sqrt(data.channels - 1)
    theta0 = float(np.median(data.x * data.x))
    theta0 = min(max(theta0, BETA_DOMAIN[0]), BETA_DOMAIN[1])

    def model(x, beta):
        return root * x / np.sqrt(beta + x * x)

    return _fit_scalar("dyisru", data, model, theta0, BETA_DOMAIN)
