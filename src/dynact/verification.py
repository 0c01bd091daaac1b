"""Numerical identity checks for the LN derivative and both activation families.

Each check exercises one closed-form identity against an independent numeric
route (central finite differences, or a differently-computed second side) over
randomized or gridded inputs, and records the worst observed error. Checks are
deterministic given (seed, parameters): every check owns an RNG stream keyed
by its name.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from dynact.activations import (
    BETA_MIN,
    DyISRUParams,
    DyTParams,
    beta_exact,
    dyisru,
    isru,
    scaled_dyt,
)
from dynact.core_math import layer_norm, ln_derivative_analytic
from dynact.rng import CounterRng

FD_STEP = 1e-5

# Variance floor for random draws; anything below is redrawn.
_REDRAW_VAR = 1e-12

# Floor for the reference a relative error divides by, so an exact zero gives a finite error.
_TINY = 1e-300


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_abs_error: float
    max_rel_error: float
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "verdict": self.verdict,
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def ln_derivative_fd(x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference d(layer_norm(x)_i)/dx_i for every channel i.

    Row i of each perturbed matrix is x with +-h on channel i; only the
    diagonal of the row-normalized result is the bumped channel's output.
    """
    x = np.asarray(x, dtype=np.float64)
    c = x.size
    bump = np.eye(c) * h

    def normalized_diag(mat: np.ndarray) -> np.ndarray:
        mu = mat.mean(axis=1, keepdims=True)
        var = ((mat - mu) ** 2).mean(axis=1, keepdims=True)
        return np.einsum("ii->i", (mat - mu) / np.sqrt(var))

    return (normalized_diag(x + bump) - normalized_diag(x - bump)) / (2.0 * h)


def _draw_vector(rng: CounterRng, c: int) -> np.ndarray:
    """Random channel vector: standard normals scaled by sigma ~ U[0.1, 10]."""
    while True:
        sigma = rng.uniform(0.1, 10.0)
        x = sigma * rng.normals(c)
        if np.mean((x - x.mean()) ** 2) >= _REDRAW_VAR:
            return x


def _result(name, trials, abs_errs, rel_errs, tol, gate_abs=False) -> CheckResult:
    """Reduce per-chunk maxima to the worst errors and the check's verdict.

    The gated error (absolute or relative) must be within tol. A NaN worst
    error fails the check (np.max keeps NaN where Python's max drops it), and
    so does a check that compared no points.
    """
    max_abs = float(np.max(abs_errs, initial=0.0))
    max_rel = float(np.max(rel_errs, initial=0.0))
    has_nan = math.isnan(max_abs) or math.isnan(max_rel)
    passed = trials > 0 and not has_nan and (max_abs if gate_abs else max_rel) <= tol
    return CheckResult(name, trials, max_abs, max_rel, tol, passed)


def check_theorem1(
    seed: int,
    trials: int = 100,
    c_list: tuple[int, ...] = (2, 3, 10, 100),
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-8,
) -> CheckResult:
    """Analytic LN derivative vs central finite differences, channel by channel."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if any(c < 2 for c in c_list):
        raise ValueError("every channel count must be >= 2")
    rng = CounterRng(seed, "ln_derivative_vs_fd")
    abs_errs, rel_errs = [], []
    for c in c_list:
        for _ in range(trials):
            x = _draw_vector(rng, c)
            fd = ln_derivative_fd(x)
            analytic = ln_derivative_analytic(x, np.arange(c))
            abs_err = np.abs(analytic - fd)
            abs_errs.append(abs_err.max(initial=0.0))
            # per channel: the absolute tolerance covers near-zero derivatives,
            # everything else must meet the relative tolerance
            need_rel = abs_err > abs_tol
            ref = np.maximum(np.abs(fd[need_rel]), _TINY)
            rel_errs.append((abs_err[need_rel] / ref).max(initial=0.0))
    return _result("ln_derivative_vs_fd", trials * len(c_list), abs_errs, rel_errs, rel_tol)


def check_theorem2(
    alpha_list: tuple[float, ...] = (0.049, 0.5, 2.0),
    c_list: tuple[int, ...] = (2, 50, 100),
    grid: np.ndarray | None = None,
    abs_tol: float = 1e-8,
) -> CheckResult:
    """Scaled DyT solves dy/dx = F * (C-1 - y^2) with constant F = alpha / sqrt(C-1).

    The analytic derivative alpha * sqrt(C-1) * (1 - tanh(alpha x)^2) is
    compared to the right-hand side, and cross-checked by central FD.
    """
    if grid is None:
        grid = np.linspace(-100.0, 100.0, 2001)
    grid = np.asarray(grid, dtype=np.float64)
    abs_errs, rel_errs = [], []
    for alpha in alpha_list:
        if not alpha > 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        for c in c_list:
            p = DyTParams(alpha=alpha, channels=c)
            root = math.sqrt(c - 1)
            y = scaled_dyt(grid, p)
            rhs = (alpha / root) * (c - 1 - y * y)
            analytic = alpha * root * (1.0 - np.tanh(alpha * grid) ** 2)
            fd = (scaled_dyt(grid + FD_STEP, p) - scaled_dyt(grid - FD_STEP, p)) / (2 * FD_STEP)
            abs_err = np.maximum(np.abs(analytic - rhs), np.abs(fd - rhs))
            abs_errs.append(abs_err.max(initial=0.0))
            big = np.abs(rhs) > abs_tol
            rel_errs.append((abs_err[big] / np.abs(rhs[big])).max(initial=0.0))
    trials = len(alpha_list) * len(c_list) * grid.size
    return _result("scaled_dyt_ode_identity", trials, abs_errs, rel_errs, abs_tol, gate_abs=True)


def check_theorem3(
    beta_list: tuple[float, ...] = (0.5, 1.0, 301.1),
    c_list: tuple[int, ...] = (2, 50, 100),
    mu_list: tuple[float, ...] = (0.0, 2.5),
    grid: np.ndarray | None = None,
    rel_tol: float = 1e-10,
) -> CheckResult:
    """DyISRU solves the full separable ODE with beta and mu held fixed.

    With u = x - mu and du/dx = (C-1)/C, the identity reads
    (dy/du) * (C-1)/C = (1/C) * (y/u) * (C-1 - y^2) for all u != 0; the left
    side uses the analytic derivative sqrt(C-1) * beta / (beta + u^2)^(3/2).
    """
    if grid is None:
        grid = np.linspace(-100.0, 100.0, 2001)
    grid = np.asarray(grid, dtype=np.float64)
    abs_errs, rel_errs = [], []
    n_points = 0
    for beta in beta_list:
        for c in c_list:
            for mu in mu_list:
                p = DyISRUParams(beta=beta, channels=c, mu=mu)
                x = grid[grid != mu]
                u = x - mu
                n_points += u.size
                root = math.sqrt(c - 1)
                y = dyisru(x, p)
                lhs = (root * beta / (beta + u * u) ** 1.5) * ((c - 1) / c)
                rhs = (1.0 / c) * (y / u) * (c - 1 - y * y)
                abs_err = np.abs(lhs - rhs)
                abs_errs.append(abs_err.max(initial=0.0))
                rel_errs.append((abs_err / np.maximum(np.abs(rhs), _TINY)).max(initial=0.0))
    return _result("dyisru_general_ode_identity", n_points, abs_errs, rel_errs, rel_tol)


def check_theorem4(
    seed: int,
    trials: int = 500,
    c_max: int = 100,
    rel_tol: float = 1e-10,
) -> CheckResult:
    """Channel-exact beta makes DyISRU centered on the mean reproduce layer_norm exactly."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = CounterRng(seed, "channel_exact_beta_vs_ln")
    abs_errs, rel_errs = [], []
    for _ in range(trials):
        c = rng.randint(2, c_max)
        x = _draw_vector(rng, c)
        y = layer_norm(x)
        mu = float(np.mean(x))
        beta = np.maximum(beta_exact(x, np.arange(c)), BETA_MIN)
        d = dyisru(x, DyISRUParams(beta=beta, channels=c, mu=mu))
        abs_err = np.abs(d - y)
        abs_errs.append(abs_err.max(initial=0.0))
        rel_errs.append((abs_err / np.maximum(np.abs(y), _TINY)).max(initial=0.0))
    return _result("channel_exact_beta_vs_ln", trials, abs_errs, rel_errs, rel_tol)


def check_isru_equivalence(
    seed: int,
    trials: int = 500,
    rel_tol: float = 1e-12,
) -> CheckResult:
    """sqrt(beta) * dyisru(x; beta, C) = sqrt(C-1) * isru(x; 1/beta)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = CounterRng(seed, "dyisru_isru_equivalence")
    abs_errs, rel_errs = [], []
    for _ in range(trials):
        c = rng.randint(2, 100)
        x = rng.uniform(-50.0, 50.0)
        beta = 10.0 ** rng.uniform(-3.0, 6.0)
        lhs = math.sqrt(beta) * float(dyisru(x, DyISRUParams(beta=beta, channels=c)))
        rhs = math.sqrt(c - 1) * float(isru(x, 1.0 / beta))
        abs_err = abs(lhs - rhs)
        abs_errs.append(abs_err)
        rel_errs.append(abs_err / max(abs(rhs), _TINY))
    return _result("dyisru_isru_equivalence", trials, abs_errs, rel_errs, rel_tol)


def run_all_checks(seed: int, trials: int = 100) -> VerificationReport:
    """Run the five identity checks and collect them into one report."""
    report = VerificationReport(seed=seed)
    report.checks.append(check_theorem1(seed, trials=trials))
    report.checks.append(check_theorem2())
    report.checks.append(check_theorem3())
    report.checks.append(check_theorem4(seed, trials=trials * 5))
    report.checks.append(check_isru_equivalence(seed, trials=trials * 5))
    return report
