"""Acceptance suite: one test per release criterion, each printing a verdict line."""

import math
import time

import numpy as np

from dynact.cli import main
from dynact.fitting import fit_dyisru, fit_dyt, mirror_augment
from dynact.simulation import SimulationConfig, outlier_points, run_scenario
from dynact.verification import (
    check_isru_equivalence,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
)
from dynact.activations import DyISRUParams, DyTParams, dyisru, scaled_dyt


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_ln_derivative_matches_finite_differences():
    start = time.perf_counter()
    result = check_theorem1(seed=1, trials=100, c_list=(2, 3, 10, 100))
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 1.0
    report(1, f"LN derivative vs FD (max_abs={result.max_abs_error:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_2_scaled_dyt_ode_residual():
    start = time.perf_counter()
    result = check_theorem2()
    elapsed = time.perf_counter() - start
    ok = result.passed and result.tolerance == 1e-8 and elapsed < 1.0
    report(2, f"scaled DyT ODE residual <= 1e-8 (max={result.max_abs_error:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_3_dyisru_ode_residual():
    result = check_theorem3()
    report(3, f"DyISRU-general ODE rel residual <= 1e-10 (max={result.max_rel_error:.2e})",
           result.passed and result.tolerance == 1e-10)


def test_criterion_4_channel_exact_beta_equals_ln():
    result = check_theorem4(seed=7, trials=500)
    report(4, f"channel-exact beta reproduces LN to 1e-10 (max={result.max_rel_error:.2e})",
           result.passed and result.tolerance == 1e-10)


def test_criterion_5_isru_identity():
    result = check_isru_equivalence(seed=3, trials=500)
    report(5, f"sqrt(beta)*DyISRU = sqrt(C-1)*ISRU(1/beta) to 1e-12 (max={result.max_rel_error:.2e})",
           result.passed and result.tolerance == 1e-12)


def test_criterion_6_experiment_reproduction():
    start = time.perf_counter()
    alphas, betas, dyt_maes, dyisru_maes = [], [], [], []
    for seed in range(20):
        scenario = run_scenario(SimulationConfig(seed=seed))
        data = mirror_augment(outlier_points(scenario), channels=100)
        rt = fit_dyt(data)
        ri = fit_dyisru(data)
        alphas.append(rt.parameter)
        betas.append(ri.parameter)
        dyt_maes.append(rt.mae)
        dyisru_maes.append(ri.mae)
    elapsed = time.perf_counter() - start
    med_alpha = float(np.median(alphas))
    med_beta = float(np.median(betas))
    med_dyt_mae = float(np.median(dyt_maes))
    ok = (
        0.03 <= med_alpha <= 0.07
        and 150.0 <= med_beta <= 600.0
        and 0.15 <= med_dyt_mae <= 0.6
        and max(dyisru_maes) <= 0.02
        and all(t >= 10.0 * i for t, i in zip(dyt_maes, dyisru_maes))
        and elapsed < 10.0
    )
    report(
        6,
        f"reproduction over 20 seeds (alpha~{med_alpha:.3f}, beta~{med_beta:.0f}, "
        f"DyT MAE~{med_dyt_mae:.2f}, DyISRU MAE<={max(dyisru_maes):.4f}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_7_ln_invariants():
    rng = np.random.default_rng(2024)
    worst_mean, worst_var = 0.0, 0.0
    for c in (2, 3, 10, 100):
        mats = rng.normal(scale=rng.uniform(0.1, 10.0), size=(2500, c))
        mu = mats.mean(axis=1, keepdims=True)
        var = ((mats - mu) ** 2).mean(axis=1, keepdims=True)
        y = (mats - mu) / np.sqrt(var)
        worst_mean = max(worst_mean, float(np.abs(y.mean(axis=1)).max()))
        yvar = ((y - y.mean(axis=1, keepdims=True)) ** 2).mean(axis=1)
        worst_var = max(worst_var, float(np.abs(yvar - 1.0).max()))
    ok = worst_mean <= 1e-12 and worst_var <= 1e-9
    report(7, f"LN invariants over 10^4 vectors (|mean|<={worst_mean:.1e}, |var-1|<={worst_var:.1e})", ok)


def test_criterion_8_fitter_self_consistency():
    rng = np.random.default_rng(99)
    ok = True
    for trial in range(100):
        c = int(rng.integers(2, 101))
        alpha = 10.0 ** rng.uniform(-2.0, 0.5)
        x = rng.uniform(0.1, 5.0 / alpha, size=15)
        y = scaled_dyt(x, DyTParams(alpha=alpha, channels=c))
        res = fit_dyt(mirror_augment(list(zip(x, y)), channels=c))
        ok &= abs(res.parameter - alpha) / alpha <= 1e-4 and res.sse <= 1e-12

        beta = 10.0 ** rng.uniform(-1.0, 4.0)
        x = rng.uniform(0.1, 5.0, size=15) * math.sqrt(beta)
        y = dyisru(x, DyISRUParams(beta=beta, channels=c))
        res = fit_dyisru(mirror_augment(list(zip(x, y)), channels=c))
        ok &= abs(res.parameter - beta) / beta <= 1e-4 and res.sse <= 1e-12
    report(8, "synthetic parameters recovered to 1e-4 with SSE <= 1e-12 (100 trials/family)", ok)


def test_criterion_9_cli_determinism(tmp_path):
    pairs = []
    for name, cmd in (("simulate", "simulate"), ("figures", "figures")):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main([cmd, "--seed", "5", "--out", str(a)]) == 0
        assert main([cmd, "--seed", "5", "--out", str(b)]) == 0
        for csv_file in sorted(a.glob("*.csv")):
            pairs.append(csv_file.read_bytes() == (b / csv_file.name).read_bytes())
    ok = bool(pairs) and all(pairs)
    report(9, f"simulate/figures CSVs byte-identical across reruns ({len(pairs)} files)", ok)
