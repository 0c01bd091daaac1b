import hashlib
import json
import math
import warnings

import numpy as np
import pytest

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
        with pytest.raises(ValueError):
            check_theorem1(seed=1, trials=0)
        with pytest.raises(ValueError):
            check_theorem4(seed=1, trials=0)
        with pytest.raises(ValueError):
            check_isru_equivalence(seed=1, trials=0)

    def test_channel_precondition(self):
        with pytest.raises(ValueError):
            check_theorem1(seed=1, trials=1, c_list=(1,))

    def test_dyt_ode_identity(self):
        result = check_theorem2()
        assert result.passed
        assert result.max_abs_error <= 1e-8

    def test_dyt_ode_identity_tiny_alpha_grid(self):
        result = check_theorem2(alpha_list=(0.5,), c_list=(50,))
        assert result.passed
        assert result.max_abs_error <= 1e-10

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

    def test_isru_equivalence(self):
        result = check_isru_equivalence(seed=3, trials=500)
        assert result.passed
        assert result.max_rel_error <= 1e-12


    @pytest.mark.parametrize(
        "check, gated",
        [
            (lambda: check_theorem2(grid=np.array([1.0, np.nan])), "max_abs_error"),
            (lambda: check_theorem3(grid=np.array([1.0, np.inf])), "max_rel_error"),
        ],
        ids=["theorem2_nan", "theorem3_inf"],
    )
    def test_nan_error_fails_check(self, check, gated):
        # the NaN must not be dropped by the reduction, nor hide the finite
        # errors beside it
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

    def test_empty_grid_fails_check(self):
        result = check_theorem2(grid=np.array([]))
        assert result.trials == 0
        assert result.passed is False


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


# sha256 of run_all_checks(seed, trials).to_json() for the per-channel scalar
# implementation these checks replaced; the whole-vector one must match it
# byte for byte.
GOLDEN_REPORT_SHA256 = {
    (0, 10): "b258529d1819b2eb21bf74d09874741c23870076527a28ec40e0a9a456a8d978",
    (1, 10): "40502f364d02454b97389ab0fcdbba07f176e197a8374e5644b826a48b45b570",
    (2, 10): "357a185f3994b838ffa11339dd8a5a22a1692afad82cdb5f4d3f37938fbc1ebe",
    (3, 10): "849a67e5064e16acedf8b34b2add841907b9c41562f773d848315cd05fb26398",
    (4, 10): "bc9551e15675a697edb683cca545ccffc71c33041cb4eeb930dfd5bdf5e3393e",
    (5, 10): "b477610f22d1177df4203930a0c9230f57e000d7dbf7d57262e1493e23ba1391",
    (6, 10): "c3299471731bf1c9f7ea79b61b03a1137512d85d4d48123c661397cda822f0e9",
    (7, 10): "f0fc5ab57b608bd889bad80f2212815b2a51e9ae17c489f920f63d80f428f335",
    (8, 10): "1f0b5fe1a87024b4430aba04a24189a267c71ce24594c05ffc9b5627050b1d99",
    (9, 10): "d5b370cb30ed767ba3871a13d2d02fae295eef3b5440d0f0955db351c586cb3e",
    (1, 100): "4b4414e9522fcba7af0259c0d6a6ff4305c0041132bf2ca95250dcc6dc66450e",
}


def test_report_bytes_match_golden():
    got = {
        key: hashlib.sha256(run_all_checks(*key).to_json().encode()).hexdigest()
        for key in GOLDEN_REPORT_SHA256
    }
    assert got == GOLDEN_REPORT_SHA256
