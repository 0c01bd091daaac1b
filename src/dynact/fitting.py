"""Scalar least-squares fitting of alpha (DyT) and beta (DyISRU).

Each family's one positive parameter theta is fitted as t = log theta. The sum of squared
residuals SSE(t) is bracketed by geometric expansion from a data-driven guess, and Brent's
zeroin (Brent 1973, ch. 4) finds the root of dSSE/dt in it to 2 eps |t| + eps / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from dynact.activations import _dyisru, _dyt
from dynact.core_math import _INT64_MAX, _check_integer

# Parameter search domains (log-space bounds).
ALPHA_DOMAIN = (1e-12, 1e12)
BETA_DOMAIN = (1e-9, 1e12)

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
        _check_integer("channels", self.channels, 2, _INT64_MAX)
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
        n = len(x) if self.n_original is None else self.n_original
        _check_integer("n_original", n)
        if not 1 <= n <= len(x):
            raise ValueError(f"n_original must be in [1, {len(x)}], got {n}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "n_original", n)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameter with residual diagnostics over the unmirrored points.

    ``evaluations`` counts SSE and gradient calls, ``bracket_width`` is zeroin's final
    |c - b| in log theta, and zeroin returns only on convergence. Neither is in ``to_dict``.
    """

    function_kind: str
    parameter: float
    sse: float
    mae: float
    residuals: tuple[float, ...]
    n_points: int
    bracket: tuple[float, float, float]
    bracket_sse: tuple[float, float, float]
    evaluations: int
    bracket_width: float

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


def _zeroin(g: Callable[[float], float], ta: float, tb: float, tc: float) -> tuple[float, float]:
    """Brent's zeroin from tb and the end of (ta, tc) across which g changes sign: the root and final |c - b|.
    g must be negative left of the root and positive right of it, or BracketFailure is raised. g(tb) == 0
    returns tb. Where g at that end underflowed to +-0, [tb, end] is halved until g has a sign at both."""
    b, fb = tb, g(tb)
    if fb == 0.0:
        return b, 0.0
    a, fa = (ta, g(ta)) if fb > 0.0 else (tc, g(tc))
    while fa == 0.0 and abs(a - b) > math.ulp(1.0) * (2.0 * abs(b) + 0.5):
        t = 0.5 * (a + b)
        ft = g(t)
        if ft != 0.0 and (ft > 0.0) == (fb > 0.0):
            b, fb = t, ft
        else:
            a, fa = t, ft
    if not (fa < 0.0 < fb if a < b else fb < 0.0 < fa):
        raise BracketFailure(f"gradient does not change sign across the bracket ({fa!r}, {fb!r})")
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if abs(fc) < abs(fb):  # b is the best estimate, [b, c] holds the sign change
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol, m = math.ulp(1.0) * (2.0 * abs(b) + 0.5), 0.5 * (c - b)  # ulp(1.0) is eps
        if abs(m) <= tol or fb == 0.0:
            return b, abs(c - b)
        step = None  # bisection, unless interpolation lands well inside [b, c]
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                step = p / q
        e, d = (m, m) if step is None else (d, step)
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc, d, e = a, fa, b - a, b - a


def _fit_scalar(
    kind: str,
    data: FitDataset,
    model: Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray]],
    theta0: float,
    domain: tuple[float, float],
) -> FitResult:
    """Least-squares theta of `model(x, theta, root)`, root = sqrt(C-1); slope=True adds d/dlog(theta)."""
    if len(data.x) < 2:
        raise ValueError("fit needs at least 2 points")
    xs, ys = data.x, data.y
    root = math.sqrt(data.channels - 1)
    calls = 0

    def objective(t: float) -> float:  # SSE
        nonlocal calls
        calls += 1
        r = ys - model(xs, math.exp(t), root)
        return float(r @ r)

    def gradient(t: float) -> float:  # dSSE/dt
        nonlocal calls
        calls += 1
        m, dm = model(xs, math.exp(t), root, True)
        return -2.0 * float((ys - m) @ dm)

    (ta, tb, tc), bracket_sse = _expand_bracket(objective, math.log(theta0), *map(math.log, domain))
    t, width = _zeroin(gradient, ta, tb, tc)
    theta = math.exp(t)

    n = data.n_original
    res = ys[:n] - model(xs[:n], theta, root)
    return FitResult(
        function_kind=kind,
        parameter=theta,
        sse=float(res @ res),
        mae=float(np.mean(np.abs(res))),
        residuals=tuple(res.tolist()),
        n_points=n,
        bracket=(math.exp(ta), math.exp(tb), math.exp(tc)),
        bracket_sse=bracket_sse,
        evaluations=calls,
        bracket_width=width,
    )


def fit_dyt(data: FitDataset) -> FitResult:
    """Fit alpha in y = sqrt(C-1) * tanh(alpha * x) by least squares."""
    xmax = float(np.max(np.abs(data.x)))
    if xmax == 0.0:
        raise BracketFailure("all x are zero; alpha is unidentifiable")
    return _fit_scalar("dyt", data, _dyt, 1.0 / xmax, ALPHA_DOMAIN)


def fit_dyisru(data: FitDataset) -> FitResult:
    """Fit beta in y = sqrt(C-1) * x / sqrt(beta + x^2) by least squares on log beta."""
    theta0 = min(max(float(np.median(data.x * data.x)), BETA_DOMAIN[0]), BETA_DOMAIN[1])
    return _fit_scalar("dyisru", data, _dyisru, theta0, BETA_DOMAIN)
