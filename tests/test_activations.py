import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from dynact.activations import (
    BETA_MIN,
    DyISRUParams,
    DyTParams,
    beta_exact,
    dyisru,
    isru,
    scaled_dyt,
)
from dynact.core_math import DegenerateVariance, IndexOutOfRange, _centered, layer_norm
from dynact.fitting import fit_dyisru, fit_dyt, mirror_augment
from dynact.simulation import SimulationConfig, outlier_points, run_scenario

xs = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
alphas = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)
betas = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)
channel_counts = st.integers(min_value=2, max_value=100)


# DyT and DyISRU Params share one contract: a finite positive first field (alpha or beta)
# and integer channels, each broadcasting, compared and hashed by shape and value. The
# contract tests below run over both classes, each built positionally as P(value, channels).
PARAMS = (DyISRUParams, DyTParams)


class TestParams:
    def test_dyt_validation(self):
        # an infinite alpha would make scaled_dyt(0) = sqrt(C-1) * tanh(inf * 0) NaN
        for alpha in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                DyTParams(alpha=alpha, channels=10)
        # an array alpha of one entry is an array too, not a scalar that cannot be hashed
        p = DyTParams(alpha=np.array([0.5]), channels=3)
        assert hash(p) == hash(DyTParams(alpha=[0.5], channels=3))
        assert p != DyTParams(alpha=0.5, channels=3)
        assert DyTParams(alpha=1.0, channels=np.int64(3)).channels == 3
        # an empty field is refused by name, not by min() or by an all() over no entries
        with pytest.raises(ValueError, match=r"^alpha must be finite and > 0, got \[\]$"):
            DyTParams(alpha=np.array([]), channels=3)
        with pytest.raises(ValueError, match=r"^channels must be an integer, got \[\]$"):
            DyTParams(alpha=1.0, channels=[])

    def test_dyisru_validation(self):
        for P in PARAMS:
            name = fields(P)[0].name
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got 0.0$"):
                P(0.0, 10)
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got -1.0$"):
                P(-1.0, 10)
            with pytest.raises(ValueError, match=r"^channels must be >= 2, got 1$"):
                P(1.0, 1)
            with pytest.raises(ValueError, match=r"^channels must be an integer, got 2\.5$"):
                P(1.0, 2.5)
            # an array must be finite and > 0 in every entry
            P(np.array([0.5, 2.0]), 2)
            P([1.0, 2.0], 3)  # array-like: compared as an array on both sides
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                P(np.array([0.5, 0.0]), 2)
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    P(bad, 10)
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    P(np.array([0.5, bad]), 2)
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    P([1.0, bad], 3)
            # no entry at all is not an entry > 0
            for empty in ([], np.array([])):
                with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got \\[\\]$"):
                    P(empty, 3)
        # a NaN mu would make Params unequal to themselves and dyisru all NaN, an infinite one NaN too
        with pytest.raises(ValueError, match=r"^mu must be finite, got nan$"):
            DyISRUParams(beta=1.0, channels=3, mu=math.nan)
        for bad in (math.inf, -math.inf, np.array([[0.5], [math.nan]])):
            with pytest.raises(ValueError, match="^mu must be finite, got"):
                DyISRUParams(beta=1.0, channels=3, mu=bad)
        with pytest.raises(ValueError, match=r"^mu must be finite, got \[\]$"):
            DyISRUParams(beta=1.0, channels=3, mu=np.array([]))

    def test_dyisru_array_channels_validation(self):
        for P in PARAMS:
            P(1.0, np.array([2, 3, 2**63 - 1]))
            P(1.0, [[2], [5]])
            P(1.0, np.uint64(7))
            with pytest.raises(ValueError, match=r"^channels must be an integer, got 2\.0$"):
                P(1.0, np.array([3.0, 2.0]))
            with pytest.raises(ValueError, match=r"^channels must be >= 2, got 1$"):
                P(1.0, 1)
            with pytest.raises(ValueError, match=r"^channels must be >= 2, got 1$"):
                P(1.0, np.array([[3, 1], [4, 5]]))
            # outside int64 is refused where the Params are built, before an evaluator could fail on it
            for big in (2**63, 10**30, 10**400, np.uint64(2**64 - 1), np.array([3, 2**63], dtype=np.uint64)):
                with pytest.raises(ValueError, match=r"^channels must be <= 9223372036854775807, got"):
                    P(1.0, big)
            with pytest.raises(ValueError, match="^channels must be >= 2, got"):
                P(1.0, -(10**30))
            # an empty channel array has no integer to bound
            for empty in ([], np.array([], dtype=np.int64), np.zeros((2, 0))):
                with pytest.raises(ValueError, match=r"^channels must be an integer, got"):
                    P(1.0, empty)

    def test_dyisru_row_mu_equality_and_hash(self):
        # one mu per row of a (k, C) stack takes part in equality and hashing
        a = DyISRUParams(beta=2.0, channels=3, mu=np.array([[0.5], [1.0]]))
        b = DyISRUParams(beta=2.0, channels=3, mu=np.array([[0.5], [1.0]]))
        assert a == b and hash(a) == hash(b)
        assert a != DyISRUParams(beta=2.0, channels=3, mu=np.array([[0.5], [1.5]]))
        assert a != DyISRUParams(beta=2.0, channels=3, mu=np.array([0.5, 1.0]))
        assert DyISRUParams(beta=2.0, channels=3, mu=0.0) == DyISRUParams(beta=2.0, channels=3, mu=-0.0)
        x = np.array([[0.0, 1.0, 2.0], [3.0, 1.0, -1.0]])
        np.testing.assert_array_equal(
            dyisru(x, a)[1], dyisru(x[1], DyISRUParams(beta=2.0, channels=3, mu=1.0))
        )

    def test_dyisru_scalar_equality_and_hash(self):
        for P in PARAMS:
            a = P(4.0, 10)
            assert a == P(4, 10) and a == P(np.float64(4.0), 10) and a == P(4.0, np.int64(10))
            assert hash(a) == hash(P(4, 10))
            assert a != P(4.0, 11)
            assert a != P(5.0, 10)
        assert DyTParams(4.0, 10) != DyISRUParams(4.0, 10)
        a = DyISRUParams(beta=4.0, channels=10, mu=0.5)
        assert a == DyISRUParams(beta=4, channels=10, mu=0.5)
        assert hash(a) == hash(DyISRUParams(beta=4, channels=10, mu=0.5))
        assert a != DyISRUParams(beta=4.0, channels=10)

    def test_dyisru_array_equality_and_hash(self):
        for P in PARAMS:
            a = P(np.array([0.5, 2.0, 3.0]), 3)
            b = P(np.array([0.5, 2.0, 3.0]), 3)
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert a != P(np.array([0.5, 2.0, 3.5]), 3)
            assert a != P(np.array([0.5, 2.0]), 3)
            assert a != P(np.array([[0.5, 2.0, 3.0]]), 3)
            # an array channels takes part by shape and value too
            c = P(2.0, np.array([2, 3, 4]))
            d = P(2.0, np.array([2, 3, 4]))
            assert c == d and not c != d
            assert hash(c) == hash(d)
            assert c == P(2.0, [2, 3, 4])
            assert c != P(2.0, np.array([2, 3, 5]))
            assert c != P(2.0, np.array([[2, 3, 4]]))
            assert c != P(2.0, np.array([2, 3]))
            assert P(2.0, np.array([3])) != P(2.0, 3)
        a = DyISRUParams(beta=np.array([0.5, 2.0, 3.0]), channels=3, mu=1.0)
        assert a == DyISRUParams(beta=np.array([0.5, 2.0, 3.0]), channels=3, mu=1.0)
        assert a != DyISRUParams(beta=np.array([0.5, 2.0, 3.0]), channels=3)

    def test_dyisru_scalar_never_equals_array(self):
        for P in PARAMS:
            scalar = P(2.0, 2)
            array = P(np.array([2.0, 2.0]), 2)
            assert scalar != array and array != scalar
            assert P(np.array(2.0), 2) == scalar

    def test_dyisru_params_in_a_set(self):
        for P in PARAMS:
            params = {
                P(np.array([0.5, 2.0]), 2),
                P(np.array([0.5, 2.0]), 2),
                P(np.array([0.5, 3.0]), 2),
                P(0.5, 2),
                P(0.5, 2),
            }
            assert len(params) == 3
            assert P(np.array([0.5, 3.0]), 2) in params
            assert P(np.array([3.0, 0.5]), 2) not in params


class TestScaledDyt:
    def test_zero_boundary(self):
        assert scaled_dyt(0.0, DyTParams(alpha=3.7, channels=17)) == 0.0

    def test_extremum_c50(self):
        # extrema at +-sqrt(C-1) = +-7 for C = 50
        p = DyTParams(alpha=1.0, channels=50)
        assert float(scaled_dyt(1e6, p)) == pytest.approx(7.0, rel=1e-15)
        assert float(scaled_dyt(-1e6, p)) == pytest.approx(-7.0, rel=1e-15)

    def test_hand_arithmetic(self):
        p = DyTParams(alpha=1.0, channels=5)
        assert float(scaled_dyt(1.0, p)) == pytest.approx(2.0 * math.tanh(1.0), rel=1e-15)

    @given(xs, alphas, channel_counts)
    def test_odd(self, x, alpha, c):
        p = DyTParams(alpha=alpha, channels=c)
        assert float(scaled_dyt(-x, p)) == -float(scaled_dyt(x, p))

    @given(xs, alphas, channel_counts)
    def test_bounded(self, x, alpha, c):
        # rounding can reach the bound exactly once tanh saturates to 1.0
        value = abs(float(scaled_dyt(x, DyTParams(alpha, c))))
        bound = math.sqrt(c - 1)
        assert value <= bound
        if abs(alpha * x) < 15:
            assert value < bound

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
        alphas,
        channel_counts,
    )
    def test_monotone(self, u1, u2, alpha, c):
        # arguments drawn pre-scaled so tanh is not saturated
        assume(abs(u2 - u1) > 1e-6)
        x1, x2 = sorted((u1 / alpha, u2 / alpha))
        p = DyTParams(alpha=alpha, channels=c)
        assert float(scaled_dyt(x1, p)) < float(scaled_dyt(x2, p))


class TestDyisru:
    def test_odd_about_mu(self):
        p = DyISRUParams(beta=2.0, channels=10, mu=3.0)
        assert float(dyisru(3.0, p)) == 0.0
        assert float(dyisru(3.0 + 1.5, p)) == -float(dyisru(3.0 - 1.5, p))

    def test_asymptote(self):
        p = DyISRUParams(beta=1.0, channels=2)
        assert float(dyisru(1e12, p)) == pytest.approx(1.0, rel=1e-12)

    def test_hand_arithmetic_general(self):
        p = DyISRUParams(beta=3.0, channels=5)
        assert float(dyisru(1.0, p)) == pytest.approx(1.0, rel=1e-15)
        # the same point shifted by mu
        p = DyISRUParams(beta=3.0, channels=5, mu=0.5)
        assert float(dyisru(1.5, p)) == pytest.approx(1.0, rel=1e-15)

    def test_hand_arithmetic_outlier_form(self):
        assert float(dyisru(1.0, DyISRUParams(beta=1.0, channels=2))) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-15
        )
        # fitted-curve scale of the C=100 experiment
        expected = math.sqrt(99.0) * 45.0 / math.sqrt(301.1 + 45.0**2)
        assert float(dyisru(45.0, DyISRUParams(beta=301.1, channels=100))) == expected
        assert expected == pytest.approx(9.284, abs=1e-3)

    @given(xs, betas, channel_counts)
    def test_odd(self, x, beta, c):
        p = DyISRUParams(beta=beta, channels=c)
        assert float(dyisru(-x, p)) == -float(dyisru(x, p))

    @given(xs, betas, channel_counts)
    def test_bounded(self, x, beta, c):
        # rounding reaches (or overshoots by one ulp) the bound once x*x
        # dominates beta by ~1/eps
        value = abs(float(dyisru(x, DyISRUParams(beta, c))))
        bound = math.sqrt(c - 1)
        assert value <= bound * (1.0 + 4e-16)
        if x * x < 1e12 * beta:
            assert value < bound

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
        betas,
        channel_counts,
    )
    def test_monotone(self, u1, u2, beta, c):
        # arguments drawn in units of sqrt(beta) so gaps stay resolvable
        assume(abs(u2 - u1) > 1e-6)
        scale = math.sqrt(beta)
        x1, x2 = sorted((u1 * scale, u2 * scale))
        p = DyISRUParams(beta=beta, channels=c)
        assert float(dyisru(x1, p)) < float(dyisru(x2, p))


class TestIsru:
    def test_zero(self):
        assert float(isru(0.0, 1.0)) == 0.0

    def test_asymptote(self):
        assert float(isru(1e12, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_hand_arithmetic(self):
        assert float(isru(2.0, 0.25)) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_rejects_nonpositive_alpha(self):
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                isru(0.0, alpha)
            # one bad entry refuses an array alpha
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                isru([1.0, 2.0], np.array([0.5, alpha]))
        # an empty alpha is refused too, not broadcast to an empty result
        with pytest.raises(ValueError, match=r"^alpha must be finite and > 0, got \[\]$"):
            isru(1.0, np.array([]))

    @given(xs, st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_odd(self, x, alpha):
        assert float(isru(-x, alpha)) == -float(isru(x, alpha))

    @given(xs, betas, channel_counts)
    def test_dyisru_reparameterization(self, x, beta, c):
        # sqrt(beta) * dyisru(x; beta, C) = sqrt(C-1) * isru(x; 1/beta)
        lhs = math.sqrt(beta) * float(dyisru(x, DyISRUParams(beta, c)))
        rhs = math.sqrt(c - 1) * float(isru(x, 1.0 / beta))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(
    st.lists(st.tuples(xs, betas, st.integers(min_value=2, max_value=4096), alphas), min_size=1, max_size=20),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_array_channels_and_alpha_match_scalar_calls(rows, mu):
    # one call over arrays gives each entry the bits of its own scalar call
    x, beta, c, alpha = (np.array(v) for v in zip(*rows))
    scalar_dyisru = [float(dyisru(xi, DyISRUParams(beta=bi, channels=ci, mu=mu))) for xi, bi, ci, _ in rows]
    np.testing.assert_array_equal(dyisru(x, DyISRUParams(beta=beta, channels=c, mu=mu)), scalar_dyisru)
    np.testing.assert_array_equal(isru(x, alpha), [float(isru(xi, ai)) for xi, _, _, ai in rows])
    scalar_dyt = [float(scaled_dyt(xi, DyTParams(alpha=ai, channels=ci))) for xi, _, ci, ai in rows]
    np.testing.assert_array_equal(scaled_dyt(x, DyTParams(alpha=alpha, channels=c)), scalar_dyt)
    # a (k, 1) alpha column against one C per entry of x, the shape check 2 passes
    outer = [[float(scaled_dyt(xj, DyTParams(alpha=ai, channels=cj))) for xj, cj in zip(x, c)] for ai in alpha]
    np.testing.assert_array_equal(scaled_dyt(x, DyTParams(alpha=alpha[:, None], channels=c)), outer)


class TestBetaExact:
    def test_symmetric_pair(self):
        # analytically 0 at C = 2, so it is the floor: BETA_MIN times the row's variance of 1
        assert beta_exact([1.0, -1.0], 0) == BETA_MIN

    def test_hand_arithmetic(self):
        # x = (3, 0, 0): var 2; excluding channel 1 the divisor-2 variance is 2.5
        assert beta_exact([3.0, 0.0, 0.0], 1) == pytest.approx(3.0, rel=1e-14)
        assert beta_exact([3.0, 0.0, 0.0], 0) == pytest.approx(0.0, abs=1e-14)

    def test_constant_vector_is_degenerate(self):
        # the same refusal as layer_norm, instead of a silent beta of 0
        with pytest.raises(DegenerateVariance):
            beta_exact([2.0, 2.0, 2.0], 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            beta_exact([1.0, 2.0], 2)
        with pytest.raises(IndexOutOfRange):
            beta_exact([1.0, 2.0, 4.0], np.array([1, -1]))
        with pytest.raises(IndexOutOfRange):
            beta_exact([1.0, 2.0, 4.0], np.array([3, 0]))
        with pytest.raises(IndexOutOfRange, match="is not an integer"):
            beta_exact([1.0, 2.0, 4.0], np.array([0.0, 2.0]))

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            c = rng.integers(2, 101)
            x = rng.normal(scale=rng.uniform(0.1, 10.0), size=c)
            scalar = [beta_exact(x, i) for i in range(c)]
            assert all(isinstance(b, float) and b > 0 for b in scalar)
            # an index array gives the scalar calls' values bit for bit
            idx = np.arange(c)
            np.testing.assert_array_equal(beta_exact(x, idx), scalar)
            np.testing.assert_array_equal(beta_exact(x, idx[::-1]), scalar[::-1])

    def test_other_channels_equal(self):
        # rounding left the unfloored beta at -8.9e-16 on channel 0, which DyISRUParams refused
        x = np.array([3.7, 0.1, 0.1, 0.1, 0.1])
        beta = beta_exact(x, np.arange(x.size))
        assert (beta > 0).all()
        d = dyisru(x, DyISRUParams(beta=beta, channels=x.size, mu=x.mean()))
        np.testing.assert_allclose(d, layer_norm(x), rtol=1e-10)

    def test_ln_equivalence_brute_force(self):
        # channel-exact beta reproduces layer normalization per channel
        rng = np.random.default_rng(23)
        for _ in range(50):
            c = int(rng.integers(2, 101))
            x = rng.normal(scale=rng.uniform(0.5, 10.0), size=c)
            y = layer_norm(x)
            mu = float(np.mean(x))
            for i in range(c):
                beta = max(beta_exact(x, i), BETA_MIN)
                d = float(dyisru(x[i], DyISRUParams(beta=beta, channels=c, mu=mu)))
                assert d == pytest.approx(y[i], rel=1e-10)
            # the whole vector at once, with a per-channel beta
            beta = np.maximum(beta_exact(x, np.arange(c)), BETA_MIN)
            d = dyisru(x, DyISRUParams(beta=beta, channels=c, mu=mu))
            np.testing.assert_allclose(d, y, rtol=1e-10)

    def test_theorem4_worked_example(self):
        x = [3.0, 0.0, 0.0]
        y = layer_norm(x)
        d = dyisru(0.0, DyISRUParams(beta=3.0, channels=3, mu=1.0))
        assert float(d) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)
        assert float(d) == pytest.approx(y[1], rel=1e-14)


@given(
    st.integers(min_value=2, max_value=100),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.booleans(),
)
def test_beta_exact_is_a_legal_beta(c, seed, log10_scale, log10_offset, others_equal):
    # at least BETA_MIN times the row's variance, also where the unfloored value rounds to 0
    # or below (C = 2, or every other channel equal), so DyISRUParams takes it as it is
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(c)
    if others_equal:
        x[1:] = x[0] + gen.choice([-1.0, 1.0]) * gen.uniform(0.5, 5.0)
    x = x * 10.0**log10_scale + gen.choice([-1.0, 1.0]) * 10.0**log10_offset
    idx = np.arange(c)
    beta = beta_exact(x, idx)
    assert (beta >= BETA_MIN * _centered(x)[1]).all()
    DyISRUParams(beta=beta, channels=c, mu=x.mean())


def test_dyt_reaches_extremum_before_dyisru():
    # fitted to the same outlier data, DyT saturates faster than DyISRU
    scenario = run_scenario(SimulationConfig(seed=0))
    data = mirror_augment(outlier_points(scenario), channels=100)
    alpha = fit_dyt(data).parameter
    beta = fit_dyisru(data).parameter
    grid = np.linspace(5.0, 100.0, 500)
    t = scaled_dyt(grid, DyTParams(alpha=alpha, channels=100))
    d = dyisru(grid, DyISRUParams(beta=beta, channels=100))
    above = t > d
    assert above.any()
    first = int(np.argmax(above))
    assert above[first:].all()
