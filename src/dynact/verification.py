"""Numerical identity checks for the LN derivative and both activation families.

Each check exercises one closed-form identity against an independent numeric
route (central finite differences, or a differently-computed second side) over
randomized or gridded inputs, and records the worst observed error against a
fixed tolerance. Checks are deterministic given (seed, trials): every check
owns an RNG stream keyed by its name. Checks 2 and 3 take no inputs at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from dynact.activations import BETA_MIN, DyISRUParams, DyTParams, beta_exact, dyisru, isru, scaled_dyt
from dynact.core_math import _centered, _check_integer, _nondegenerate, _row_mean, as_channel_vector
from dynact.core_math import layer_norm, ln_derivative_analytic
from dynact.rng import CounterRng, _box_muller, randints, uniforms

FD_STEP = 1e-5

# Fixed inputs of checks 2 and 3: one x grid (read-only) and one channel tuple.
_GRID = np.linspace(-100.0, 100.0, 2001)
_GRID.flags.writeable = False
_CHANNELS = (2, 50, 100)

# Variance floor for random draws; anything below is redrawn.
_REDRAW_VAR = 1e-12

# Floor for the reference a relative error divides by, so an exact zero gives a finite error.
_TINY = 1e-300

_BATCH = 2**15  # words in one batch of drawn trial vectors


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def ln_derivative_fd(x) -> np.ndarray:
    """Central-difference d(layer_norm(x)_i)/dx_i for each channel i of each row of (..., C) x.

    Each side is layer_norm's diagonal over the (..., C, C) stack of bumped copies of x, bit
    for bit: the stack goes through layer_norm's own _centered, and only the diagonal is divided.
    """
    arr = as_channel_vector(x)
    sides = []
    for h in (FD_STEP, -FD_STEP):
        stack = np.repeat(arr[..., None, :], arr.shape[-1], axis=-2)
        np.einsum("...ii->...i", stack)[...] += h  # a view of the diagonal: x_i + h
        dev, var = _centered(stack, keepdims=False)
        sides.append(np.einsum("...ii->...i", dev) / np.sqrt(_nondegenerate(var)))
        del stack, dev  # before the next side's stack: four live at C = 100 re-fault heap pages each call
    return (sides[0] - sides[1]) / (2.0 * FD_STEP)


def _draw_vector(rng: CounterRng, c: int) -> np.ndarray:
    """Random channel vector: standard normals scaled by sigma ~ U[0.1, 10]. It stays only
    because bench/workloads.py's _fd_miss replays check 1 through it; ROADMAP F deletes it.
    """
    return next(_draw_vectors(rng, [c]))[0]


def _draw_vectors(rng: CounterRng, cs):
    """Yield the random vectors of trials with the non-decreasing channel counts cs, as (k, C)
    matrices, one per C in each batch of at most _BATCH words (or one trial).

    A trial is its sigma word, as uniforms(word, 0.1, 10.0), then its 2C words of rng.normals(C).
    A trial whose variance is below _REDRAW_VAR ends its batch: the trials before it are
    yielded, its words are skipped, and it draws again first in the next batch.
    """
    cs = np.asarray(cs, dtype=np.int64)
    while cs.size:
        ends = np.cumsum(1 + 2 * cs)
        n = max(1, int(np.searchsorted(ends, _BATCH, side="right")))
        sigma_at = ends[:n] - (1 + 2 * cs[:n])
        words = rng.peek(int(ends[n - 1]))
        sigma = uniforms(words[sigma_at], 0.1, 10.0)
        flat = np.repeat(sigma, cs[:n]) * _box_muller(np.delete(words, sigma_at))
        c_set, counts = np.unique(cs[:n], return_counts=True)
        mats = [m.reshape(-1, k) for m, k in zip(np.split(flat, np.cumsum(c_set * counts)[:-1]), c_set)]
        ok = np.concatenate([_centered(x, keepdims=False)[1] for x in mats]) >= _REDRAW_VAR
        kept = n if ok.all() else int(ok.argmin())
        rng.skip(int(ends[min(kept, n - 1)]))
        cs = cs[kept:]
        for x in mats:
            if kept > 0:
                yield x[:kept]
            kept -= len(x)


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
    """Analytic LN derivative vs central finite differences, on (trials, C) batches."""
    _check_integer("trials", trials, 1)
    for c in c_list:
        _check_integer("c_list entry", c, 2)
    rng = CounterRng(seed, "ln_derivative_vs_fd")
    abs_errs, rel_errs = [], []
    for c in c_list:
        step = max(1, 2**13 // c**2)  # stacks of <= 64 KB, or one trial's: reused heap, not fresh pages
        for xs in _draw_vectors(rng, [c] * trials):
            for x in (xs[k:k + step] for k in range(0, len(xs), step)):
                fd = ln_derivative_fd(x)
                abs_err = np.abs(ln_derivative_analytic(x, np.arange(c)) - fd)
                abs_errs.append(abs_err.max(initial=0.0))
                # per channel: the absolute tolerance covers near-zero derivatives,
                # everything else must meet the relative tolerance
                need_rel = abs_err > abs_tol
                ref = np.maximum(np.abs(fd[need_rel]), _TINY)
                rel_errs.append((abs_err[need_rel] / ref).max(initial=0.0))
    return _result("ln_derivative_vs_fd", trials * len(c_list), abs_errs, rel_errs, rel_tol)


def check_theorem2() -> CheckResult:
    """Scaled DyT solves dy/dx = F * (C-1 - y^2) with constant F = alpha / sqrt(C-1).

    The analytic derivative alpha * sqrt(C-1) * (1 - tanh(alpha x)^2) is
    compared to the right-hand side, and cross-checked by central FD, to 1e-8 absolute.
    """
    alphas, abs_tol = np.array([[0.049], [0.5], [2.0]]), 1e-8  # one row per alpha, through one call per C
    abs_errs, rel_errs = [], []
    for c in _CHANNELS:
        p = DyTParams(alpha=alphas, channels=c)
        root = math.sqrt(c - 1)
        y = scaled_dyt(_GRID, p)
        rhs = (alphas / root) * (c - 1 - y * y)
        analytic = alphas * root * (1.0 - np.tanh(alphas * _GRID) ** 2)
        fd = (scaled_dyt(_GRID + FD_STEP, p) - scaled_dyt(_GRID - FD_STEP, p)) / (2 * FD_STEP)
        abs_err = np.maximum(np.abs(analytic - rhs), np.abs(fd - rhs))
        abs_errs.append(abs_err.max(initial=0.0))
        big = np.abs(rhs) > abs_tol
        rel_errs.append((abs_err[big] / np.abs(rhs[big])).max(initial=0.0))
    trials = alphas.size * len(_CHANNELS) * _GRID.size
    return _result("scaled_dyt_ode_identity", trials, abs_errs, rel_errs, abs_tol, gate_abs=True)


def check_theorem3() -> CheckResult:
    """DyISRU solves the full separable ODE with beta and mu held fixed, to 1e-10 relative.

    With u = x - mu and du/dx = (C-1)/C, the identity reads
    (dy/du) * (C-1)/C = (1/C) * (y/u) * (C-1 - y^2) for all u != 0; the left
    side uses the analytic derivative sqrt(C-1) * beta / (beta + u^2)^(3/2).
    """
    betas = np.array([[0.5], [1.0], [301.1]])  # one row per beta, through one call per (C, mu)
    abs_errs, rel_errs = [], []
    n_points = 0
    for c in _CHANNELS:
        root = math.sqrt(c - 1)
        for mu in (0.0, 2.5):
            x = _GRID[_GRID != mu]
            u = x - mu
            n_points += betas.size * u.size
            y = dyisru(x, DyISRUParams(beta=betas, channels=c, mu=mu))
            lhs = (root * betas / (betas + u * u) ** 1.5) * ((c - 1) / c)
            rhs = (1.0 / c) * (y / u) * (c - 1 - y * y)
            abs_err = np.abs(lhs - rhs)
            abs_errs.append(abs_err.max(initial=0.0))
            rel_errs.append((abs_err / np.maximum(np.abs(rhs), _TINY)).max(initial=0.0))
    return _result("dyisru_general_ode_identity", n_points, abs_errs, rel_errs, 1e-10)


def check_theorem4(seed: int, trials: int = 500) -> CheckResult:
    """Channel-exact beta makes DyISRU centered on the mean reproduce layer_norm to 1e-10."""
    _check_integer("trials", trials, 1)
    rng = CounterRng(seed, "channel_exact_beta_vs_ln")
    # the channel counts come first, one word each, so that the vectors are drawn in order of C
    cs = np.sort(randints(rng.peek(trials), 2, 100))
    rng.skip(trials)
    ys, ds = [], []
    for x in _draw_vectors(rng, cs):
        c = x.shape[-1]
        ys.append(layer_norm(x).ravel())
        # beta is exactly 0 at C = 2, so its floor scales with the row's variance: an
        # absolute floor is above rounding for a narrow row
        beta = np.maximum(beta_exact(x, np.arange(c)), BETA_MIN * _centered(x)[1])
        ds.append(dyisru(x, DyISRUParams(beta=beta, channels=c, mu=_row_mean(x))).ravel())
    y = np.concatenate(ys)
    abs_err = np.abs(np.concatenate(ds) - y)
    return _result("channel_exact_beta_vs_ln", trials, abs_err, abs_err / np.maximum(np.abs(y), _TINY), 1e-10)


def check_isru_equivalence(seed: int, trials: int = 500) -> CheckResult:
    """sqrt(beta) * dyisru(x; beta, C) = sqrt(C-1) * isru(x; 1/beta), to 1e-12 relative."""
    _check_integer("trials", trials, 1)
    rng = CounterRng(seed, "dyisru_isru_equivalence")
    # each trial takes three words: its C, its x and its log10 beta
    words = rng.peek(3 * trials).reshape(trials, 3)
    rng.skip(3 * trials)
    c = randints(words[:, 0], 2, 100)
    x = uniforms(words[:, 1], -50.0, 50.0)
    # Python's 10.0 ** u, element by element: np.power's bits differ between numpy's SIMD paths
    beta = np.fromiter(map((10.0).__pow__, uniforms(words[:, 2], -3.0, 6.0).tolist()), np.float64, trials)
    rhs = np.sqrt(c - 1) * isru(x, 1.0 / beta)
    abs_err = np.abs(np.sqrt(beta) * dyisru(x, DyISRUParams(beta=beta, channels=c)) - rhs)
    return _result("dyisru_isru_equivalence", trials, abs_err, abs_err / np.maximum(np.abs(rhs), _TINY), 1e-12)


def run_all_checks(seed: int, trials: int = 100) -> VerificationReport:
    """Run the five identity checks and collect them into one report."""
    return VerificationReport(seed, [
        check_theorem1(seed, trials),
        check_theorem2(),
        check_theorem3(),
        check_theorem4(seed, trials * 5),
        check_isru_equivalence(seed, trials * 5),
    ])
