import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from scalar_draws import ScalarRng

from dynact import verification
from dynact.activations import BETA_MIN, DyISRUParams, beta_exact, dyisru, isru
from dynact.core_math import layer_norm, ln_derivative_analytic
from dynact.rng import CounterRng
from dynact.verification import (
    check_isru_equivalence,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    ln_derivative_fd,
    run_all_checks,
)


class TestIndividualChecks:
    def test_ln_derivative_check_passes(self):
        result = check_theorem1(seed=1, trials=100)
        assert result.passed
        assert result.name == "ln_derivative_vs_fd"

    def test_ln_derivative_boundary_case(self):
        # C = 2 pins the output at the extremum: FD must report (near) zero
        fd = ln_derivative_fd(np.array([1.0, -1.0]))
        assert abs(fd[0]) <= 1e-8

    def test_trials_precondition(self):
        for check in (check_theorem1, check_theorem4, check_isru_equivalence):
            with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
                check(seed=1, trials=0)
            # a float count used to end in a TypeError
            with pytest.raises(ValueError, match=r"^trials must be an integer, got 2\.5$"):
                check(seed=1, trials=2.5)

    def test_channel_precondition(self):
        with pytest.raises(ValueError, match=r"^c_list entry must be >= 2, got 1$"):
            check_theorem1(seed=1, trials=1, c_list=(1,))
        with pytest.raises(ValueError, match=r"^c_list entry must be an integer, got 2\.5$"):
            check_theorem1(seed=1, trials=1, c_list=(2.5,))

    def test_seed_must_be_an_integer(self):
        # seed 1.5 used to run seed 1's streams under the name 1.5
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            run_all_checks(1.5, 3)
        assert run_all_checks(np.int64(1), 3).to_dict() == run_all_checks(1, 3).to_dict()

    def test_dyt_ode_identity(self):
        result = check_theorem2()
        assert result.passed
        assert result.max_abs_error <= 1e-8

    def test_dyisru_ode_identity(self):
        result = check_theorem3()
        assert result.passed
        assert result.max_rel_error <= 1e-10

    def test_dyisru_ode_worked_value(self):
        # beta=1, C=2, mu=0, x=1: both sides equal (1/2) / 2^(3/2)
        import math

        expected = 0.5 * 1.0 / (1.0 + 1.0) ** 1.5
        assert expected == pytest.approx(0.17678, abs=1e-5)
        u = 1.0
        y = math.sqrt(1.0) * u / math.sqrt(1.0 + u * u)
        lhs = (math.sqrt(1.0) * 1.0 / (1.0 + u * u) ** 1.5) * (1.0 / 2.0)
        rhs = 0.5 * (y / u) * (1.0 - y * y)
        assert lhs == pytest.approx(expected, rel=1e-14)
        assert rhs == pytest.approx(expected, rel=1e-14)

    def test_channel_exact_beta(self):
        result = check_theorem4(seed=7, trials=500)
        assert result.passed
        assert result.max_rel_error <= 1e-10

    def test_channel_exact_beta_on_a_narrow_two_channel_row(self):
        # this seed draws a C = 2 row with sigma near 4e-5, where beta is exactly 0;
        # an absolute floor of 1e-18 on it gave a relative error of 3.3e-10
        result = check_theorem4(seed=1228496060, trials=50)
        assert result.passed
        assert result.max_rel_error <= 1e-15

    def test_isru_equivalence(self):
        result = check_isru_equivalence(seed=3, trials=500)
        assert result.passed
        assert result.max_rel_error <= 1e-12


    @pytest.mark.parametrize(
        "check, grid, gated",
        [
            (check_theorem2, [1.0, np.nan], "max_abs_error"),
            (check_theorem3, [1.0, np.inf], "max_rel_error"),
        ],
        ids=["theorem2_nan", "theorem3_inf"],
    )
    def test_nan_error_fails_check(self, monkeypatch, check, grid, gated):
        # the NaN must not be dropped by the reduction, nor hide the finite
        # errors beside it
        monkeypatch.setattr(verification, "_GRID", np.array(grid))
        with np.errstate(invalid="ignore"):
            result = check()
        assert result.passed is False
        assert np.isnan(getattr(result, gated))

    def test_zero_reference_gives_finite_relative_error(self):
        # this seed draws a channel whose FD reference is exactly 0 and whose
        # absolute error exceeds abs_tol; the floored divisor keeps the report
        # strict JSON and numpy quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = check_theorem1(seed=2126319109, trials=10)
        assert math.isfinite(result.max_rel_error)
        assert result.passed == (result.max_rel_error <= result.tolerance)

    def test_empty_grid_fails_check(self, monkeypatch):
        monkeypatch.setattr(verification, "_GRID", np.array([]))
        result = check_theorem2()
        assert result.trials == 0
        assert result.passed is False


def _layer_norm_diagonal_fd(x):
    """Oracle: the diagonal of layer_norm over each whole (..., C, C) perturbed stack."""
    rows = np.asarray(x, dtype=np.float64)[..., None, :]
    bump = np.eye(rows.shape[-1]) * verification.FD_STEP
    plus, minus = (np.diagonal(layer_norm(m), 0, -2, -1) for m in (rows + bump, rows - bump))
    return (plus - minus) / (2.0 * verification.FD_STEP)


class TestFiniteDifferenceReference:
    # 130 channels cross numpy's 128-element pairwise-summation block
    @pytest.mark.parametrize("c", [2, 3, 10, 100, 130])
    def test_equals_layer_norm_diagonal_bit_for_bit(self, c):
        gen = np.random.default_rng(c)
        scales = 10.0 ** gen.uniform(-3.0, 3.0, size=(6, 1))
        offsets = 10.0 ** gen.uniform(-3.0, 3.0, size=(6, 1)) * gen.choice([-1.0, 1.0], size=(6, 1))
        stack = offsets + scales * gen.standard_normal((6, c))
        stack[0, 0] = -0.0
        for x in (stack[0], stack[1], stack[:1], stack):
            got, want = ln_derivative_fd(x), _layer_norm_diagonal_fd(x)
            assert got.shape == want.shape == x.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "x",
        [[1.0, np.nan, 2.0], [[1.0, 2.0], [np.inf, 0.0]], [1.0], [[1.0], [2.0]], [1e12, 1e12]],
        ids=["nan", "inf-row", "one-channel", "one-channel-rows", "bump-below-half-ulp"],
    )
    def test_refuses_what_layer_norm_refuses(self, x):
        # 1e12 + FD_STEP rounds back to 1e12, so the last vector's bumped rows stay
        # constant: a DegenerateVariance
        with pytest.raises(ValueError):
            _layer_norm_diagonal_fd(x)
        with pytest.raises(ValueError):
            ln_derivative_fd(x)

    def test_memory_stays_bounded(self):
        # whole (3, 100, 100) reference stacks at C = 100 peak at 1.15 MB; one
        # trial's stack, its deviations and their squares keep the peak near 0.28 MB
        tracemalloc.start()
        try:
            check_theorem1(seed=1, trials=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6


def _oracle_theorem3():
    """Check 3 as one scalar-parameter pass per (beta, C, mu) case."""
    abs_errs, rel_errs, n_points = [], [], 0
    for beta in (0.5, 1.0, 301.1):
        for c in verification._CHANNELS:
            for mu in (0.0, 2.5):
                x = verification._GRID[verification._GRID != mu]
                u = x - mu
                n_points += u.size
                root = math.sqrt(c - 1)
                y = dyisru(x, DyISRUParams(beta=beta, channels=c, mu=mu))
                lhs = (root * beta / (beta + u * u) ** 1.5) * ((c - 1) / c)
                rhs = (1.0 / c) * (y / u) * (c - 1 - y * y)
                abs_err = np.abs(lhs - rhs)
                abs_errs.append(abs_err.max(initial=0.0))
                rel_errs.append((abs_err / np.maximum(np.abs(rhs), verification._TINY)).max(initial=0.0))
    return verification._result("dyisru_general_ode_identity", n_points, abs_errs, rel_errs, 1e-10)


@pytest.mark.parametrize(
    "grid",
    [None, [-3.0, 0.0, 1.0, 2.0, 4.5], [-1e3, 0.0, 2.5, 7.0], [2.5, -0.5, 60.0]],
    ids=["default", "mu0-excluded", "both-excluded", "mu2.5-excluded"],
)
def test_check_theorem3_matches_per_case_oracle(monkeypatch, grid):
    # the mu = 0 and mu = 2.5 exclusions leave rows of different lengths
    if grid is not None:
        monkeypatch.setattr(verification, "_GRID", np.array(grid))
    assert check_theorem3() == _oracle_theorem3()


class TestReport:
    def test_five_checks_and_verdict(self):
        report = run_all_checks(seed=1, trials=20)
        assert len(report.checks) == 5
        assert report.verdict
        assert all(c.passed for c in report.checks)

    def test_deterministic_bit_for_bit(self):
        a = run_all_checks(seed=11, trials=10)
        b = run_all_checks(seed=11, trials=10)
        assert a.to_json() == b.to_json()

    def test_json_schema(self):
        report = run_all_checks(seed=2, trials=5)
        doc = json.loads(report.to_json())
        assert set(doc) == {"seed", "verdict", "checks"}
        assert doc["seed"] == 2
        for check in doc["checks"]:
            assert set(check) == {
                "name",
                "trials",
                "max_abs_error",
                "max_rel_error",
                "tolerance",
                "passed",
            }

    def test_any_failed_check_fails_verdict(self):
        report = run_all_checks(seed=2, trials=5)
        failed = report.checks[0].__class__(
            name="forced",
            trials=1,
            max_abs_error=1.0,
            max_rel_error=1.0,
            tolerance=1e-12,
            passed=False,
        )
        report.checks.append(failed)
        assert not report.verdict


# sha256 of run_all_checks(seed, trials).to_json(). Check 4's two error fields
# were re-frozen when it began drawing its channel counts before its vectors;
# every other field is what the per-channel scalar implementation gave.
GOLDEN_REPORT_SHA256 = {
    (0, 10): "4e19e08c871c1ce1a159dfb4c21963e1ec47df45f5e8cf409596db628d966418",
    (1, 10): "d621f271113c0c180aeba04a8cc414de3b25508e29d2c5a96811d84869d8c993",
    (2, 10): "5f53c36894f1d7c62e55b617787f4c24f1de8be11a19cd41a3ddd14c048c6b4e",
    (3, 10): "89c2b9f5db7322528611a074af4cbec4364603ff6370f37cc18aee7568010d4f",
    (4, 10): "9c71996b4be5213dce7df10968d8b4152c2b278feb2b0b87a36aeba3bd2543f2",
    (5, 10): "7c04035d2fe4b97ce6657770bf2153b1779877b5fc7994260ded7bd685bfbda4",
    (6, 10): "bcf6173d47e4f0d1e5f3db4aa746e0791d60de3f030d7dccb4b0e4f3a7067bd1",
    (7, 10): "9c9f9327859b483b52ae4821c9657f40e14292259104315267dac14c75883dfa",
    (8, 10): "9545f53e27b8e08e0ce75d66718cb79067cd079e21d3d1c13c580067e487c7b0",
    (9, 10): "b0eeefa511e9742b229144be339f3631bc97ef357459d1ad609416f4cff3c85c",
    (1, 100): "c6c4df0a1aaa5e53e194891394fcc896e307b411fc1863466cc7344db788d334",
    # one trial, partial chunks, many chunks, and a report whose check 1 fails
    (11, 1): "46dd4e203d8ebdff1906fc75472cf8b1337c033c916693c69785719d6cb0116c",
    (12, 7): "f49ffececda63872a38514328638e5ab7d7116d8f0ec32bedb766e0dcd5f9da2",
    (13, 33): "f730e7c43804cb5f4f3f71705c9003aa188543bbb4ecb667e1df0ffe1a7b8a3c",
    (75, 100): "b9d275058c793770d6952e1b3dbdc47b3551a42d2486502cde5767699554b9e6",
}


def test_report_bytes_match_golden():
    got = {
        key: hashlib.sha256(run_all_checks(*key).to_json().encode()).hexdigest()
        for key in GOLDEN_REPORT_SHA256
    }
    assert got == GOLDEN_REPORT_SHA256


def _reference_draw(rng, c):
    """One trial vector drawn call by call, and how many times it was redrawn."""
    for redraws in itertools.count():
        x = rng.uniform(0.1, 10.0) * rng.normals(c)
        if np.mean((x - x.mean()) ** 2) >= verification._REDRAW_VAR:
            return x, redraws


def _oracle_theorem1(seed, trials, c_list=(2, 3, 10, 100), rel_tol=1e-6, abs_tol=1e-8):
    """Check 1 as a per-trial loop of 1-D library calls; also counts redraws."""
    rng = ScalarRng(seed, "ln_derivative_vs_fd")
    abs_errs, rel_errs, redraws = [], [], 0
    for c in c_list:
        for _ in range(trials):
            x, redrawn = _reference_draw(rng, c)
            redraws += redrawn
            bump = np.eye(c) * verification.FD_STEP
            plus = np.array([layer_norm(row)[k] for k, row in enumerate(x + bump)])
            minus = np.array([layer_norm(row)[k] for k, row in enumerate(x - bump)])
            fd = (plus - minus) / (2.0 * verification.FD_STEP)
            analytic = np.array([ln_derivative_analytic(x, k) for k in range(c)])
            abs_err = np.abs(analytic - fd)
            abs_errs.append(abs_err.max())
            need_rel = abs_err > abs_tol
            ref = np.maximum(np.abs(fd[need_rel]), verification._TINY)
            rel_errs.append((abs_err[need_rel] / ref).max(initial=0.0))
    n = trials * len(c_list)
    return verification._result("ln_derivative_vs_fd", n, abs_errs, rel_errs, rel_tol), redraws


def _oracle_theorem4(seed, trials):
    """Check 4 as a per-trial loop of 1-D library calls; also counts redraws."""
    rng = ScalarRng(seed, "channel_exact_beta_vs_ln")
    abs_errs, rel_errs, redraws = [], [], 0
    for c in sorted([rng.randint(2, 100) for _ in range(trials)]):
        x, redrawn = _reference_draw(rng, c)
        redraws += redrawn
        y = layer_norm(x)
        floor = BETA_MIN * np.mean((x - np.mean(x)) ** 2)  # the check's floor: relative to the row variance
        beta = np.array([max(beta_exact(x, k), floor) for k in range(c)])
        d = dyisru(x, DyISRUParams(beta=beta, channels=c, mu=float(np.mean(x))))
        abs_err = np.abs(d - y)
        abs_errs.append(abs_err.max())
        rel_errs.append((abs_err / np.maximum(np.abs(y), verification._TINY)).max())
    return verification._result("channel_exact_beta_vs_ln", trials, abs_errs, rel_errs, 1e-10), redraws


@pytest.mark.parametrize("seed, trials", [(0, 1), (3, 9), (5, 40)])
def test_batched_checks_match_per_trial_oracle_with_redraws(monkeypatch, seed, trials):
    # a variance floor of 1.0 makes redraws frequent, so batches end early and
    # the redrawn trials must still leave the stream in place
    monkeypatch.setattr(verification, "_REDRAW_VAR", 1.0)
    want1, redraws1 = _oracle_theorem1(seed, trials)
    want4, redraws4 = _oracle_theorem4(seed, 5 * trials)
    assert redraws1 + redraws4 > 0
    assert check_theorem1(seed, trials) == want1
    assert check_theorem4(seed, 5 * trials) == want4


@pytest.mark.parametrize("seed", [1, 7])
def test_batched_checks_match_per_trial_oracle(seed):
    assert check_theorem1(seed, 8) == _oracle_theorem1(seed, 8)[0]
    assert check_theorem4(seed, 60) == _oracle_theorem4(seed, 60)[0]


def _oracle_isru_equivalence(seed, trials):
    """Check 5 with its words drawn call by call: randint, uniform and uniform per trial."""
    rng = ScalarRng(seed, "dyisru_isru_equivalence")
    abs_errs, rel_errs = [], []
    for _ in range(trials):
        c = rng.randint(2, 100)
        x = rng.uniform(-50.0, 50.0)
        beta = 10.0 ** rng.uniform(-3.0, 6.0)
        lhs = math.sqrt(beta) * float(dyisru(x, DyISRUParams(beta=beta, channels=c)))
        rhs = math.sqrt(c - 1) * float(isru(x, 1.0 / beta))
        abs_errs.append(abs(lhs - rhs))
        rel_errs.append(abs(lhs - rhs) / max(abs(rhs), verification._TINY))
    return verification._result("dyisru_isru_equivalence", trials, abs_errs, rel_errs, 1e-12)


@pytest.mark.parametrize("trials", [1, 2, 50, 500])
def test_check5_draws_match_per_trial_oracle(trials):
    for seed in range(20):
        assert check_isru_equivalence(seed, trials) == _oracle_isru_equivalence(seed, trials)


# sha256 of _draw_vector's bytes over seeds 0-199, each seed one check 1 stream
# drawn at C = 2, 3, 10, 100 in turn; the benchmark replays check 1 through it.
DRAW_VECTOR_SHA256 = "a093b1a0061c74866d771b7bb45d97ad7b659256a3a892eb718198f77daa3205"


def test_draw_vector_bytes_match_golden():
    digest = hashlib.sha256()
    for seed in range(200):
        rng = CounterRng(seed, "ln_derivative_vs_fd")
        for c in (2, 3, 10, 100):
            digest.update(verification._draw_vector(rng, c).tobytes())
    assert digest.hexdigest() == DRAW_VECTOR_SHA256
