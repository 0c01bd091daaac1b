import hashlib
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dynact.activations import DyISRUParams, DyTParams, beta_exact, dyisru, scaled_dyt
import dynact.fitting as fitting
from dynact.fitting import (
    BracketFailure,
    FitDataset,
    fit_dyisru,
    fit_dyt,
    mirror_augment,
)
from dynact.simulation import SimulationConfig, outlier_points, run_scenario


class TestMirrorAugment:
    def test_adds_mirrors(self):
        data = mirror_augment([(2.0, 1.0), (0.0, 0.5)], channels=10)
        assert data.x.tolist() == [2.0, 0.0, -2.0, -0.0]
        assert data.y.tolist() == [1.0, 0.5, -1.0, -0.5]
        assert data.n_original == 2

    def test_self_mirror_deduplicated(self):
        data = mirror_augment([(1.0, 0.5), (0.0, 0.0)], channels=10)
        assert data.x.tolist() == [1.0, 0.0, -1.0]
        assert data.y.tolist() == [0.5, 0.0, -0.5]

    def test_nine_outliers_give_eighteen_points(self):
        scenario = run_scenario(SimulationConfig(seed=0))
        data = mirror_augment(outlier_points(scenario), channels=100)
        assert len(data.x) == len(data.y) == 18
        assert data.n_original == 9

    def test_rejects_unattainable_targets(self):
        # |y| >= sqrt(C-1) = 1; the message names the first bad point
        match = r"^target y=5\.0 is unattainable: \|y\| must be < sqrt\(C-1\) = 1$"
        with pytest.raises(ValueError, match=match):
            mirror_augment([(1.0, 0.5), (1.0, 5.0), (2.0, -7.0)], channels=2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match=r"^non-finite data point \(nan, 0\.0\)$"):
            mirror_augment([(1.0, 0.5), (float("nan"), 0.0), (2.0, float("inf"))], channels=10)


def _dyt_data(alpha, c, n=20, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 5.0 / alpha, size=n)
    y = scaled_dyt(x, DyTParams(alpha=alpha, channels=c))
    return mirror_augment(list(zip(x, y)), channels=c)


def _dyisru_data(beta, c, n=20, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 5.0, size=n) * math.sqrt(beta)
    y = dyisru(x, DyISRUParams(beta=beta, channels=c))
    return mirror_augment(list(zip(x, y)), channels=c)


class TestExactRecovery:
    def test_dyt_recovers_generator(self):
        result = fit_dyt(_dyt_data(0.05, 100))
        assert result.parameter == pytest.approx(0.05, rel=1e-6)
        assert result.sse <= 1e-18

    def test_dyisru_recovers_generator(self):
        result = fit_dyisru(_dyisru_data(300.0, 100))
        assert result.parameter == pytest.approx(300.0, rel=1e-4)
        assert result.sse <= 1e-18

    def test_randomized_families(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            c = int(rng.integers(2, 101))
            alpha = 10.0 ** rng.uniform(-2, 0.5)
            res = fit_dyt(_dyt_data(alpha, c, seed=trial))
            assert res.parameter == pytest.approx(alpha, rel=1e-4)
            assert res.sse <= 1e-12
            beta = 10.0 ** rng.uniform(-1, 4)
            res = fit_dyisru(_dyisru_data(beta, c, seed=trial))
            assert res.parameter == pytest.approx(beta, rel=1e-4)
            assert res.sse <= 1e-12


class TestOptimality:
    @pytest.mark.parametrize("kind", ["dyt", "dyisru"])
    def test_beats_nearby_perturbations(self, kind):
        scenario = run_scenario(SimulationConfig(seed=3))
        data = mirror_augment(outlier_points(scenario), channels=100)
        fit = fit_dyt if kind == "dyt" else fit_dyisru
        result = fit(data)
        xs, ys = data.x, data.y
        root = math.sqrt(data.channels - 1)

        def sse(theta):
            if kind == "dyt":
                r = ys - root * np.tanh(theta * xs)
            else:
                r = ys - root * xs / np.sqrt(theta + xs * xs)
            return float(r @ r)

        best = sse(result.parameter)
        for delta in (1e-3, 1e-2):
            assert best <= sse(result.parameter * (1 + delta))
            assert best <= sse(result.parameter * (1 - delta))

    def test_bracket_is_monotone(self):
        scenario = run_scenario(SimulationConfig(seed=3))
        data = mirror_augment(outlier_points(scenario), channels=100)
        for result in (fit_dyt(data), fit_dyisru(data)):
            lo, mid, hi = result.bracket
            assert lo < mid < hi
            s_lo, s_mid, s_hi = result.bracket_sse
            assert s_mid < min(s_lo, s_hi)
            assert lo < result.parameter < hi


@pytest.mark.parametrize("c", [100, 1024, 4096])
def test_residuals_are_the_public_formulas(c):
    # both fitters evaluate the same formula as scaled_dyt and dyisru, bit for bit
    scenario = run_scenario(SimulationConfig(channels=c, seed=0))
    points = outlier_points(scenario)
    data = mirror_augment(points, channels=c)
    x, y = np.array(points).T
    dyt, isr = fit_dyt(data), fit_dyisru(data)
    assert dyt.residuals == tuple((y - scaled_dyt(x, DyTParams(dyt.parameter, c))).tolist())
    assert isr.residuals == tuple((y - dyisru(x, DyISRUParams(isr.parameter, c))).tolist())


def test_mirror_symmetry():
    # already odd-symmetric data: augmentation must not move the optimum
    scenario = run_scenario(SimulationConfig(seed=5))
    pts = outlier_points(scenario)
    odd = pts + [(-x, -y) for x, y in pts]
    plain = FitDataset([x for x, _ in odd], [y for _, y in odd], channels=100)
    augmented = mirror_augment(odd, channels=100)
    for fit in (fit_dyt, fit_dyisru):
        a = fit(plain).parameter
        b = fit(augmented).parameter
        assert a == pytest.approx(b, rel=1e-8)


def test_single_outlier_matches_channel_exact_beta():
    # one (mirrored) target: the fit interpolates it, and the fitted beta
    # tracks the channel-exact value of the extreme outlier
    scenario = run_scenario(SimulationConfig(seed=0))
    o = scenario.outlier_index
    data = mirror_augment([(float(scenario.x[9, o]), float(scenario.y[9, o]))], channels=100)
    result = fit_dyisru(data)
    assert result.sse <= 1e-18
    exact = beta_exact(scenario.x[9], o)
    assert result.parameter == pytest.approx(exact, rel=0.25)


def _decimal_optimum(kind, data, theta):
    """The root of dSSE/dtheta next to theta, by the secant method in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        c1 = Decimal(data.channels - 1)
        root = c1.sqrt()
        points = [(Decimal(x), Decimal(y)) for x, y in zip(data.x.tolist(), data.y.tolist())]

        def grad(p):  # dSSE/dtheta divided by -2
            total = Decimal(0)
            for x, y in points:
                if kind == "dyt":
                    e = (-2 * p * x).exp()
                    m = root * (1 - e) / (1 + e)
                    dm = x * (c1 - m * m) / root
                else:
                    d = p + x * x
                    m = root * x / d.sqrt()
                    dm = -m / (2 * d)
                total += (y - m) * dm
            return total

        p0, p1 = Decimal(theta), Decimal(theta) * (1 + Decimal("1e-9"))
        g0, g1 = grad(p0), grad(p1)
        for _ in range(50):
            if g1 == g0 or abs(p1 - p0) <= abs(p1) * Decimal("1e-45"):
                break
            p0, p1, g0 = p1, p1 - g1 * (p1 - p0) / (g1 - g0), g1
            g1 = grad(p1)
        return p1


class TestPrecision:
    @pytest.mark.parametrize(
        "kind, seed, channels",
        [(k, s, 100) for k in ("dyt", "dyisru") for s in range(4)]
        # at C = 3 the DyT targets sit near sqrt(2), where tanh saturates inside the bracket;
        # on seed 8 the gradient's far end underflows to zero
        + [("dyt", s, 3) for s in (0, 1, 2, 3, 8)],
    )
    def test_fit_matches_50_digit_optimum(self, kind, seed, channels):
        scenario = run_scenario(SimulationConfig(seed=seed, channels=channels))
        data = mirror_augment(outlier_points(scenario), channels=channels)
        theta = (fit_dyt if kind == "dyt" else fit_dyisru)(data).parameter
        best = _decimal_optimum(kind, data, theta)
        assert abs(Decimal(theta) - best) <= Decimal("1e-13") * best

    @pytest.mark.parametrize(
        "channels, x, y",
        [(15, 645.8502834533916, 3.7408829529609866), (167, 2.351236189113298, 12.882214656719498),
         (104, 3190.21173728503, 10.147542203480263)],
    )
    def test_dyt_gradient_keeps_its_sign_where_tanh_saturates(self, channels, x, y):
        # the bracket reaches far into saturation, where the ODE form C-1 - y^2 of the
        # derivative is rounding noise and gave the gradient the wrong sign
        alpha = math.atanh(y / math.sqrt(channels - 1)) / x  # fits one point exactly
        assert fit_dyt(mirror_augment([(x, y)], channels)).parameter == pytest.approx(alpha, rel=1e-12)

    def test_dyt_gradient_that_underflows_at_the_far_end(self):
        # at the bracket's far end every sech(z)^2 underflows, so the gradient there is +-0 and
        # zeroin narrows that end until the gradient has a sign instead of raising
        points = [(535.2463576496317, 1.4142135623617798), (140.7924664088654, 1.4142134880387054)]
        data = mirror_augment(points, channels=3)
        res = fit_dyt(data)
        assert np.all(np.exp(-2.0 * res.bracket[2] * np.abs(data.x)) == 0.0)

        def sse(alpha):
            r = data.y - math.sqrt(2.0) * np.tanh(alpha * data.x)
            return float(r @ r)

        grid = np.exp(np.linspace(math.log(res.bracket[0]), math.log(res.bracket[2]), 1001))
        assert sse(res.parameter) <= min(map(sse, grid))

    def test_evaluations_and_final_bracket(self, monkeypatch):
        # evaluations counts every SSE and gradient call; zeroin needs at most 13 gradients
        sse_calls, grad_calls = [], []

        def expand(f, *args):
            return expand_bracket(lambda t: sse_calls.append(t) or f(t), *args)

        def zeroin(g, *args):
            return fitting_zeroin(lambda t: grad_calls.append(t) or g(t), *args)

        expand_bracket, fitting_zeroin = fitting._expand_bracket, fitting._zeroin
        monkeypatch.setattr(fitting, "_expand_bracket", expand)
        monkeypatch.setattr(fitting, "_zeroin", zeroin)
        for seed in range(10):
            for c in (100, 1024, 4096):
                data = mirror_augment(outlier_points(run_scenario(SimulationConfig(seed=seed, channels=c))), c)
                for fit in (fit_dyt, fit_dyisru):
                    sse_calls.clear()
                    grad_calls.clear()
                    res = fit(data)
                    assert res.evaluations == len(sse_calls) + len(grad_calls)
                    assert len(grad_calls) <= 13
                    t = math.log(res.parameter)
                    assert 0.0 <= res.bracket_width <= 2.0 * sys.float_info.epsilon * (2.0 * abs(t) + 0.5)


class TestZeroin:
    def test_finds_a_root_from_either_half(self):
        # t * t - 2 is zero at no float, so zeroin stops on a bracket within its tolerance
        for tb in (0.5, 1.5):
            t, width = fitting._zeroin(lambda t: t * t - 2.0, 0.0, tb, 3.0)
            assert t == pytest.approx(math.sqrt(2.0), rel=2 * sys.float_info.epsilon)
            assert 0.0 < width <= sys.float_info.epsilon * (2.0 * t + 0.5)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_at_the_middle_is_the_root(self, zero):
        assert fitting._zeroin(lambda t: zero if t == 0.0 else t, -1.0, 0.0, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("tb, root", [(0.0, 2.0), (4.0, 2.0), (0.0, 7.0)])
    def test_far_end_underflow_moves_toward_the_middle(self, zero, tb, root):
        # g is +-0 beyond |t| = 8 (as a DyT gradient is once every tanh saturates), the root on either side
        def g(t):
            return t - root if abs(t) < 8.0 else zero

        t, _ = fitting._zeroin(g, -10.0, tb, 10.0)
        assert t == pytest.approx(root, rel=4 * sys.float_info.epsilon)

    @pytest.mark.parametrize(
        "g",
        [lambda t: t * t + 1.0, lambda t: -1.0, lambda t: 0.5 - t, lambda t: 0.0 if t > 0.0 else t - 1.0],
        ids=["positive", "negative", "maximum", "flat_far_end"],
    )
    def test_gradient_without_sign_change_raises(self, g):
        with pytest.raises(BracketFailure, match="gradient does not change sign"):
            fitting._zeroin(g, -1.0, 0.0, 1.0)


class TestBracketFailure:
    def test_flat_target_drives_alpha_to_zero(self):
        data = mirror_augment([(1.0, 0.0)], channels=100)
        with pytest.raises(BracketFailure):
            fit_dyt(data)

    def test_all_x_zero(self):
        data = FitDataset([0.0, 0.0], [0.0, 0.5], channels=100)
        with pytest.raises(BracketFailure):
            fit_dyt(data)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "fit, x, y",
        [
            (fit_dyisru, [0.0, 0.0], [0.0, 0.5]),  # all x zero: y = 0 for every beta
            (fit_dyisru, [1e200, -1e200], [1.0, -1.0]),  # x * x overflows: y = 0 for every beta
            (fit_dyt, [1e-320, -1e-320], [1.0, -1.0]),  # alpha * x < 1e-300 over the whole domain
        ],
        ids=["zero_x", "huge_x", "subnormal_x"],
    )
    def test_flat_objective_is_not_a_minimum(self, fit, x, y):
        # the SSE is the same everywhere; a bracket at the domain edge is no fit
        with pytest.raises(BracketFailure):
            fit(FitDataset(x, y, channels=100))


class TestFitResult:
    def test_residuals_match_sse_and_mae(self):
        scenario = run_scenario(SimulationConfig(seed=1))
        data = mirror_augment(outlier_points(scenario), channels=100)
        result = fit_dyt(data)
        mae = sum(abs(r) for r in result.residuals) / len(result.residuals)
        assert result.mae == pytest.approx(mae, rel=1e-15)
        # internal consistency over the unmirrored points
        assert result.sse == pytest.approx(sum(r * r for r in result.residuals), rel=1e-15)
        assert result.n_points == 9
        assert len(result.residuals) == 9

    def test_json_keys(self):
        data = mirror_augment([(2.0, 1.0), (4.0, 1.8)], channels=10)
        d = fit_dyisru(data).to_dict()
        assert set(d) == {"function_kind", "parameter", "sse", "mae", "n_points"}

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="at least one point"):
            FitDataset([], [], channels=10)
        with pytest.raises(ValueError, match="channels must be >= 2"):
            FitDataset([1.0], [0.5], channels=1)
        with pytest.raises(ValueError, match=r"^channels must be an integer, got 2\.5$"):
            FitDataset([1.0], [0.5], channels=2.5)
        # the int64 bound of every channels field: a larger count once overflowed math.sqrt
        FitDataset([1.0], [0.5], channels=2**63 - 1)
        for big in (2**63, 10**400):
            with pytest.raises(ValueError, match=r"^channels must be <= 9223372036854775807, got"):
                FitDataset([1.0], [0.5], channels=big)

    @pytest.mark.parametrize("n_original", [0, 4, 7])
    def test_n_original_must_count_stored_points(self, n_original):
        # 7 used to report n_points=7 beside 3 residuals, 0 a NaN mae
        with pytest.raises(ValueError, match=rf"^n_original must be in \[1, 3\], got {n_original}$"):
            FitDataset([1.0, 2.0, 3.0], [0.5, 0.9, 1.2], channels=10, n_original=n_original)

    def test_n_original_must_be_an_integer(self):
        # 1.5 used to pass the range test and fail later in fit_dyt's slice
        with pytest.raises(ValueError, match=r"^n_original must be an integer, got 1\.5$"):
            FitDataset([1.0, 2.0, 3.0], [0.5, 0.9, 1.2], channels=10, n_original=1.5)
        data = FitDataset([1.0, 2.0, 3.0], [0.5, 0.9, 1.2], channels=10, n_original=np.int64(2))
        assert data.n_original == 2


class TestFitDataset:
    @pytest.mark.parametrize(
        "x, y", [([1.0, 2.0], [0.5]), ([[1.0, 2.0]], [[0.5, 0.6]])], ids=["unequal", "2d"]
    )
    def test_rejects_mismatched_or_2d(self, x, y):
        with pytest.raises(ValueError, match="1-D of equal length"):
            FitDataset(x, y, channels=10)

    def test_stores_read_only_copies(self):
        x = np.array([1.0, 2.0])
        data = FitDataset(x, [0.5, 0.6], channels=10)
        x[0] = 9.0
        assert data.x.tolist() == [1.0, 2.0]
        assert data.x.dtype == data.y.dtype == np.float64
        with pytest.raises(ValueError):
            data.x[0] = 3.0
        with pytest.raises(ValueError):
            data.y[0] = 3.0

    def test_equality_is_identity(self):
        a = FitDataset([1.0], [0.5], channels=10)
        b = FitDataset([1.0], [0.5], channels=10)
        assert a == a
        assert (a == b) is False


# sha256 over repr((parameter, sse, mae, residuals, bracket, bracket_sse)) of
# both fits on SimulationConfig(seed=s, channels=c), s = 0..19, c in {3, 100,
# 1024}; a BracketFailure records a fixed token. Any change to the fitted
# numbers, the bracket search or the residuals moves it.
GOLDEN_FIT_SHA256 = "8cb374034a5def3cd1f7a97be719c006f55b077d6b40caf1412d5d8d4d3833c9"


def test_golden_fit_digest():
    h = hashlib.sha256()
    for s in range(20):
        for c in (3, 100, 1024):
            scenario = run_scenario(SimulationConfig(seed=s, channels=c))
            data = mirror_augment(outlier_points(scenario), channels=c)
            for fit in (fit_dyt, fit_dyisru):
                try:
                    r = fit(data)
                    rec = repr((r.parameter, r.sse, r.mae, r.residuals, r.bracket, r.bracket_sse))
                except BracketFailure:
                    rec = "BracketFailure"
                h.update(f"{s} {c} {fit.__name__} {rec}\n".encode())
    assert h.hexdigest() == GOLDEN_FIT_SHA256
