import math

import numpy as np
import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from dynact.activations import beta_exact
from dynact.core_math import (
    DegenerateVariance,
    IndexOutOfRange,
    layer_norm,
    ln_derivative_analytic,
)
from dynact.verification import ln_derivative_fd

finite_values = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
channel_vectors = st.lists(finite_values, min_size=2, max_size=64)


def nondegenerate(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(np.var(arr)) > 1e-8


@pytest.mark.parametrize(
    "f",
    [layer_norm, lambda x: ln_derivative_analytic(x, 0), lambda x: beta_exact(x, 0)],
    ids=["layer_norm", "ln_derivative_analytic", "beta_exact"],
)
def test_near_constant_row_refused(f):
    # the mean rounds to 1.0, so the variance is 2**-105 = 2.47e-32: each public function
    # refuses it, since _centered computes the variance without refusing it
    with pytest.raises(DegenerateVariance, match="at or below the degeneracy threshold"):
        f([1.0, 1.0 + 2**-52])


class TestLayerNorm:
    def test_already_standardized(self):
        np.testing.assert_array_equal(layer_norm([1.0, -1.0]), [1.0, -1.0])

    def test_hand_arithmetic(self):
        np.testing.assert_allclose(layer_norm([2.0, 0.0]), [1.0, -1.0], atol=1e-15)

    def test_constant_vector_refused(self):
        with pytest.raises(DegenerateVariance):
            layer_norm([1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "x,message",
        [
            (1.0, "at least 2 entries"),
            ([1.0], "at least 2 entries"),
            ([[1.0], [2.0]], "at least 2 entries"),
            ([1.0, math.nan], "must be finite"),
            ([[1.0, 2.0], [1.0, math.inf]], "must be finite"),
        ],
        ids=["0d", "single", "short-last-axis", "nan", "inf"],
    )
    def test_bad_input_refused(self, x, message):
        with pytest.raises(ValueError, match=message):
            layer_norm(x)

    @given(channel_vectors)
    def test_output_stats(self, values):
        assume(nondegenerate(values))
        y = layer_norm(values)
        assert abs(y.mean()) <= 1e-12
        assert np.mean((y - y.mean()) ** 2) == pytest.approx(1.0, rel=1e-9)

    @given(channel_vectors, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_shift_invariance(self, values, shift):
        assume(nondegenerate(values))
        y0 = layer_norm(values)
        y1 = layer_norm(np.asarray(values) + shift)
        np.testing.assert_allclose(y1, y0, atol=1e-10)

    @given(channel_vectors, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scale_equivariance(self, values, scale):
        assume(nondegenerate(values))
        y0 = layer_norm(values)
        y1 = layer_norm(scale * np.asarray(values))
        np.testing.assert_allclose(y1, y0, atol=1e-10)
        # component ordering preserved (ties resolved within rounding slack)
        order = np.argsort(np.asarray(values), kind="stable")
        assert np.all(np.diff(y1[order]) >= -1e-10)


@given(
    st.integers(min_value=2, max_value=4096),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-20.0, max_value=30.0),
)
def test_rows_equal_one_dimensional_calls(c, rows, seed, log2_scale):
    # (..., C) input is normalized row by row, bit for bit as the 1-D call
    gen = np.random.default_rng(seed)
    x = (gen.standard_normal((rows, c)) + gen.uniform(-5.0, 5.0)) * 2.0**log2_scale
    idx = np.arange(c)
    ln, deriv, beta = layer_norm(x), ln_derivative_analytic(x, idx), beta_exact(x, idx)
    assert ln.shape == deriv.shape == beta.shape == (rows, c)
    for r in range(rows):
        np.testing.assert_array_equal(ln[r], layer_norm(x[r]))
        np.testing.assert_array_equal(deriv[r], ln_derivative_analytic(x[r], idx))
        np.testing.assert_array_equal(beta[r], beta_exact(x[r], idx))
    stacked = layer_norm(x.reshape(rows, 1, c))
    np.testing.assert_array_equal(stacked.reshape(rows, c), ln)


class TestLnDerivative:
    def test_extremum_gives_zero(self):
        # C = 2 pins y at +-1 = +-sqrt(C-1), so the derivative vanishes
        assert ln_derivative_analytic([1.0, -1.0], 0) == 0.0
        assert ln_derivative_analytic([5.0, 3.0], 1) == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        # x = (1, -1, 0): F = 1/(3*sqrt(2/3)), y_0 = sqrt(3/2), F*(2 - 3/2)
        expected = (1.0 / (3.0 * math.sqrt(2.0 / 3.0))) * 0.5
        assert ln_derivative_analytic([1.0, -1.0, 0.0], 0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.2041241452, abs=1e-9)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ln_derivative_analytic([1.0, 2.0, 3.0], 3)
        with pytest.raises(IndexOutOfRange):
            ln_derivative_analytic([1.0, 2.0, 3.0], -1)
        # negative entries are refused, not wrapped as numpy would
        with pytest.raises(IndexOutOfRange):
            ln_derivative_analytic([1.0, 2.0, 3.0], np.array([0, -1, 2]))
        with pytest.raises(IndexOutOfRange):
            ln_derivative_analytic([1.0, 2.0, 3.0], np.array([0, 3, 2]))
        # a float, string or bool index is refused, not cast to an integer
        for bad in (1.5, "1", True, np.array([0.0, 2.0])):
            with pytest.raises(IndexOutOfRange, match="is not an integer"):
                ln_derivative_analytic([1.0, 2.0, 4.0], bad)
        assert ln_derivative_analytic([1.0, 2.0, 4.0], []).shape == (0,)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            ln_derivative_analytic([2.0, 2.0], 0)

    def test_sign_structure(self):
        # strictly positive strictly inside the extrema, zero at them
        rng = np.random.default_rng(5)
        for c in (3, 10, 50):
            x = rng.normal(size=c)
            y = layer_norm(x)
            for i in range(c):
                d = ln_derivative_analytic(x, i)
                if abs(y[i]) < math.sqrt(c - 1):
                    assert d > 0.0

    @pytest.mark.parametrize("c", [2, 3, 10, 100])
    def test_matches_finite_differences(self, c):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(0.1, 10.0) * rng.normal(size=c)
            fd = ln_derivative_fd(x)
            scalar = []
            for i in range(c):
                analytic = ln_derivative_analytic(x, i)
                assert isinstance(analytic, float)
                scalar.append(analytic)
                err = abs(analytic - fd[i])
                assert err <= 1e-8 or err / abs(fd[i]) <= 1e-6
            # an index array gives the scalar calls' values bit for bit
            idx = np.arange(c)
            np.testing.assert_array_equal(ln_derivative_analytic(x, idx), scalar)
            np.testing.assert_array_equal(ln_derivative_analytic(x, idx[::-1]), scalar[::-1])
