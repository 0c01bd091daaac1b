"""Each identity check can fail: wrong formulas swapped into its module are caught.

Every mutant replaces one library function by name inside
``dynact.verification``, the names the checks call. A check that compared
one side with itself would pass every mutant; these tests would then fail.
The scale mutants sit at about 10x the smallest relative error each check
was measured to detect (ROADMAP item K).
"""

import math

import numpy as np
import pytest

from dynact import activations, core_math, verification


def check1():
    return verification.check_theorem1(seed=1, trials=10)


def check2():
    return verification.check_theorem2()


def check3():
    return verification.check_theorem3()


def check4():
    return verification.check_theorem4(seed=1, trials=50)


def check5():
    return verification.check_isru_equivalence(seed=1, trials=50)


CHECKS = {1: check1, 2: check2, 3: check3, 4: check4, 5: check5}


def _row_stats(x, ddof=0):
    """Row-wise deviations and standard deviation over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    dev = x - x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(np.sum(dev**2, axis=-1, keepdims=True) / (x.shape[-1] - ddof))
    return dev, sd


def derivative_c_for_c_minus_1(x, i):
    dev, sd = _row_stats(x)
    c = dev.shape[-1]
    y = dev[..., i] / sd
    return (c - y**2) / (c * sd)


def derivative_plus_y2(x, i):
    dev, sd = _row_stats(x)
    c = dev.shape[-1]
    y = dev[..., i] / sd
    return (c - 1 + y**2) / (c * sd)


def layer_norm_divisor_c_minus_1(x):
    dev, sd = _row_stats(x, ddof=1)
    return dev / sd


def beta_exact_without_var(x, i):
    dev, _ = _row_stats(x)
    sq = dev * dev
    return np.sum(sq, axis=-1, keepdims=True) - sq[..., i]


def scaled_dyt_sqrt_c(x, p):
    return math.sqrt(p.channels) * np.tanh(p.alpha * np.asarray(x, dtype=np.float64))


def dyisru_sqrt_c(x, p):
    u = np.asarray(x, dtype=np.float64) - p.mu
    return math.sqrt(p.channels) * u / np.sqrt(p.beta + u * u)


def isru_inverted(x, alpha):
    return activations.isru(x, 1.0 / alpha)


def scaled(f, eps):
    return lambda *args: f(*args) * (1.0 + eps)


# (check, name patched in dynact.verification, mutant)
MUTANTS = [
    (1, "ln_derivative_analytic", scaled(core_math.ln_derivative_analytic, 1e-5)),
    (1, "ln_derivative_analytic", derivative_c_for_c_minus_1),
    (1, "ln_derivative_analytic", derivative_plus_y2),
    (2, "scaled_dyt", scaled(activations.scaled_dyt, 2.5e-9)),
    (2, "scaled_dyt", scaled_dyt_sqrt_c),
    (3, "dyisru", scaled(activations.dyisru, 2.3e-14)),
    (3, "dyisru", dyisru_sqrt_c),
    (4, "beta_exact", scaled(activations.beta_exact, 2e-9)),
    (4, "beta_exact", beta_exact_without_var),
    (4, "dyisru", scaled(activations.dyisru, 1e-9)),
    (4, "layer_norm", layer_norm_divisor_c_minus_1),
    (5, "isru", scaled(activations.isru, 1e-11)),
    (5, "dyisru", scaled(activations.dyisru, 1e-11)),
    (5, "isru", isru_inverted),
]
MUTANT_IDS = [
    "1-scale", "1-c-for-c-minus-1", "1-plus-y2",
    "2-scale", "2-sqrt-c",
    "3-scale", "3-sqrt-c",
    "4-beta-scale", "4-beta-without-var", "4-dyisru-scale", "4-ln-divisor-c-minus-1",
    "5-isru-scale", "5-dyisru-scale", "5-isru-inverted",
]


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_unmutated_check_passes(check):
    assert CHECKS[check]().passed


@pytest.mark.parametrize("check, name, mutant", MUTANTS, ids=MUTANT_IDS)
def test_mutant_fails_check(monkeypatch, check, name, mutant):
    assert hasattr(verification, name)
    monkeypatch.setattr(verification, name, mutant)
    with np.errstate(all="ignore"):
        result = CHECKS[check]()
    assert result.passed is False


def test_structural_mutants_are_wrong():
    # each structural mutant differs from the library by more than rounding,
    # so a passing check under it would be a blind check, not a lucky one
    x = np.array([0.3, -1.2, 2.0, 0.5])
    idx = np.arange(x.size)
    p = activations.DyISRUParams(beta=2.0, channels=4)
    pairs = [
        (core_math.ln_derivative_analytic(x, idx), derivative_c_for_c_minus_1(x, idx)),
        (core_math.ln_derivative_analytic(x, idx), derivative_plus_y2(x, idx)),
        (core_math.layer_norm(x), layer_norm_divisor_c_minus_1(x)),
        (activations.beta_exact(x, idx), beta_exact_without_var(x, idx)),
        (activations.scaled_dyt(x, activations.DyTParams(alpha=0.5, channels=4)),
         scaled_dyt_sqrt_c(x, activations.DyTParams(alpha=0.5, channels=4))),
        (activations.dyisru(x, p), dyisru_sqrt_c(x, p)),
        (activations.isru(x, 0.25), isru_inverted(x, 0.25)),
    ]
    for want, got in pairs:
        assert np.max(np.abs(np.asarray(got) - want)) > 1e-3
