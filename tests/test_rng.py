"""The counter stream is frozen: these draws feed every CSV and report.

``STREAM_DIGESTS`` is stream version 2, whose log and cos are built from IEEE
basic operations and correctly rounded tables. Any change that moves a bit of
``normals`` or the counter it leaves behind fails here. The scalar draws are
``scalar_draws.ScalarRng``'s, the oracle that ``normals``, ``uniforms`` and
``randints`` must match bit for bit.
"""

import ast
import decimal
import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_draws import ScalarRng

from dynact import rng as rng_module
from dynact.rng import CounterRng, randints, uniforms

SEEDS = (0, 1, 7, -1, 2**40 + 3)
STREAMS = ("", "sample_base", "ln_derivative_vs_fd", "channel_exact_beta_vs_ln")
SIZES = (0, 1, 2, 3, 100, 4096)

# (seed, stream) -> (sha256 of the transcript, the u64 drawn after it)
STREAM_DIGESTS = {
    (0, ""): ("8bb20dd96fc998459b3a20b5850eeb1a961e4012bbe55b1db7e7d616211304c7", 0xBF6E8323968673E5),
    (0, "sample_base"): ("234119be1e15c58bdae70a2e0c011bd6b41c7b5bf594bb0b9c32b76f6bb937da", 0xE42B2B0C31DC9482),
    (0, "ln_derivative_vs_fd"): ("520a4a0ff5102e145c7aeac0943412111ef9ee1b045691ec9915bf825c22f7be", 0xEF6F11B6BB2218DA),
    (0, "channel_exact_beta_vs_ln"): ("4c53bfd15418a05e3aa813e3f678dc96e3d5e5a320ba078ad8a6fc46b0b23d1c", 0xD637F52BF22D9529),
    (1, ""): ("8534c268dfb59504a68991c6d14ac4c7b1276af96be73d574ebd64af57709e1c", 0x061F7A40BADBAF5E),
    (1, "sample_base"): ("4ae528165f05a52a0aff1f18dd98a8ee7455340972b8f221846eae17fa4d6f21", 0x0B1BCDACF5136D6E),
    (1, "ln_derivative_vs_fd"): ("450ce86c57632123d5e2a9de3b8e0aec9c8eebb447f9c4feadb6846200f169f0", 0x368485CF0AB654EF),
    (1, "channel_exact_beta_vs_ln"): ("f32d4ed937199538e620a28745365904c3ce9bd7b6ccc5b91afb4e00ed0ac0af", 0x514E239613F04BFA),
    (7, ""): ("3d0bab084f61ba87b43aaf7faf6f05bd9f70710119d4f41760d638a4bb4aaa53", 0xB350215785C20B9B),
    (7, "sample_base"): ("9cbdff9e5f4c243e291e34469c9c88b5cd2d39b8b481db79c1690d7c977490cf", 0x55715F8982F49946),
    (7, "ln_derivative_vs_fd"): ("d52cdf0d067c0a17b1fd1d26a5ee16d3d6bec70ce05f7c4ba97c0190adaeae41", 0x5521E4E9C1026855),
    (7, "channel_exact_beta_vs_ln"): ("7c15b5c3dded13cb0c053301407b3e232e779a719ade9e1abc4692069b82cac5", 0xB81871A01ACEDFAB),
    (-1, ""): ("7216b41f121197f1ce4f6f9c3d07873cbab1d0e0c417dda97924b29b32495c80", 0xFA4AA6F5A2FA460F),
    (-1, "sample_base"): ("0366e5bba0ae3a5c4df8bd48616a6e1a418729676dd0097a8ef799aca1ef4909", 0xBBCA569ED5EE9FBB),
    (-1, "ln_derivative_vs_fd"): ("e3afea46aa365d633e12556ac6b367e005327dfbf01e76f95a662f92575a438e", 0xEBCB3CFA03BC2C56),
    (-1, "channel_exact_beta_vs_ln"): ("3a6910685fbf7f0d5c4537560874b23c9171eeb41b10ec316b289c59d23d7a8f", 0x8E333872F67854AD),
    (2**40 + 3, ""): ("5e7386cdc956237f2dee535e739375c8824398b7820e80014a2b44e1d7e1840d", 0x4A8361882E7030D7),
    (2**40 + 3, "sample_base"): ("c04567a2c510b516f481ce431e4a19fa8f18e5de27ed5bbb036d56b0d59c8d04", 0xE4E0BBFFDD668813),
    (2**40 + 3, "ln_derivative_vs_fd"): ("46c2b2f6c05a343aa5a337f652edf6d60bca3d084d3a77403ad87a9d3e9b36d3", 0xD89D6E0655B950BF),
    (2**40 + 3, "channel_exact_beta_vs_ln"): ("18fd214c82303450eb5c6a79dce2ca6c44dfb0f25a0e20a52c1c1cfc809dedd0", 0xEDFA640E45E8B622),
}


def _scalar_draws(rng: ScalarRng) -> bytes:
    return repr((rng.uniform(-1.0, 3.0), rng.randint(0, 999), rng.u64())).encode()


def _transcript(seed: int, stream: str) -> tuple[str, int]:
    """sha256 over normals(n).tobytes() for every n in SIZES, with scalar draws around each call."""
    rng = ScalarRng(seed, stream)
    h = hashlib.sha256()
    for n in SIZES:
        h.update(_scalar_draws(rng))
        h.update(rng.normals(n).tobytes())
        h.update(_scalar_draws(rng))
    return h.hexdigest(), rng.u64()


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_frozen(seed, stream):
    assert _transcript(seed, stream) == STREAM_DIGESTS[(seed, stream)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.sampled_from(STREAMS),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=300),
)
def test_normals_match_scalar_reference_bit_for_bit(seed, stream, skip, n):
    fast, ref = ScalarRng(seed, stream), ScalarRng(seed, stream)
    for _ in range(skip):
        assert fast.u64() == ref.u64()
    got = fast.normals(n)
    want = np.array([ref.normal() for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert fast.u64() == ref.u64()


def test_normals_match_scalar_reference_across_blocks():
    # normals are computed in blocks of rng._BLOCK draws: the last block is partial
    n = 2 * rng_module._BLOCK + 3
    fast, ref = ScalarRng(5, "sample_base"), ScalarRng(5, "sample_base")
    assert fast.normals(n).tobytes() == np.array([ref.normal() for _ in range(n)]).tobytes()
    assert fast.u64() == ref.u64()


# 50-digit decimal references for the tables and for log u1 and cos(2 pi u2)
CTX = decimal.Context(prec=50)


def _pi() -> Decimal:
    """pi to 50 digits, by the series in the decimal module's documentation."""
    with decimal.localcontext(decimal.Context(prec=60)):
        last, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = t * n / d
            s += t
    return CTX.plus(s)


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x to 50 digits, by their Taylor series at 65 digits (|x| <= 2 pi loses 3)."""
    with decimal.localcontext(decimal.Context(prec=65)):
        x2, cos, sin, k = x * x, Decimal(1), x, 0
        term_c, term_s = Decimal(1), x
        while abs(term_c) > Decimal("1e-70"):
            k += 2
            term_c = -term_c * x2 / ((k - 1) * k)
            term_s = -term_s * x2 / (k * (k + 1))
            cos, sin = cos + term_c, sin + term_s
    return CTX.plus(cos), CTX.plus(sin)


def _rounded(v: Decimal) -> float:
    """The double nearest v, where v is off the real value by at most 1e-48 relative to 1."""
    f = float(v)  # correctly rounded from v's digits
    # no double-rounding: the real value is on f's side of the midpoint too
    assert abs(v - Decimal(f)) < Decimal(math.ulp(f)) / 2 - Decimal("1e-48") or v == Decimal(f)
    return f


with decimal.localcontext(CTX):
    PI = _pi()
    # cos and sin of r pi/128 for r = 0 .. 256; the multiples of pi/2 are exact
    COS_SIN_GRID = [
        (Decimal((1, 0, -1, 0)[r // 64 % 4]), Decimal((0, 1, 0, -1)[r // 64 % 4])) if r % 64 == 0
        else _cos_sin(PI * r / 128)
        for r in range(257)
    ]
    LN2, LN_GRID = CTX.ln(2), [CTX.ln(Decimal(j) / 2048) for j in range(1024, 2049)]
    ATANH_TERMS = [Decimal(1) / (2 * i + 1) for i in range(7, -1, -1)]  # |s| < 2.5e-4: s**16 < 1e-57
    COS_TERMS = [Decimal((-1) ** i) / math.factorial(2 * i) for i in range(9, -1, -1)]  # |phi| < 0.0123
    SIN_TERMS = [Decimal((-1) ** i) / math.factorial(2 * i + 1) for i in range(9, -1, -1)]
    PHI_UNIT = PI / 2**52  # 2 pi 2**-53


def test_tables_are_correctly_rounded():
    with decimal.localcontext(CTX):
        # log(j/64) = hi + lo: hi is the nearest multiple of 2**-32, lo the rest correctly rounded
        logs = [CTX.ln(Decimal(j) / 64) for j in range(46, 91)]
        log_hi = [float((v * 2**32).to_integral_value() / 2**32) for v in logs]  # exact: < 2**32 / 2**32
        assert [v.hex() for v in rng_module._LOG_HI.tolist()] == [v.hex() for v in log_hi]
        assert rng_module._LOG_LO.tolist() == [_rounded(v - Decimal(h)) for v, h in zip(logs, log_hi)]
        assert [v.hex() for v in rng_module._COS.tolist()] == [_rounded(c).hex() for c, _ in COS_SIN_GRID]
        assert [v.hex() for v in rng_module._SIN.tolist()] == [_rounded(s).hex() for _, s in COS_SIN_GRID]
        # by value: the sign of a low part's zero never reaches a draw, as it is added to a high part
        cos_lo = [_rounded(c - Decimal(h)) for (c, _), h in zip(COS_SIN_GRID, rng_module._COS.tolist())]
        assert rng_module._COS_LO.tolist() == cos_lo
        # ln 2 in two parts; the high part has 32 significant bits, so e * hi is exact for |e| < 2**21
        hi, lo = float(rng_module._LN2_HI), float(rng_module._LN2_LO)
        assert hi.as_integer_ratio()[0] < 2**32
        assert abs(Decimal(hi) + Decimal(lo) - LN2) < Decimal(2) ** -85


DRAWS = 200_000


def _log_reference(k: int) -> Decimal:
    """log u1 for u1 = (k + 1) 2**-53, to 50 digits: 2 atanh about the nearest multiple of 1/2048."""
    big = k + 1
    n = (big - 1).bit_length()  # u1 = x 2**(n - 53) with x = big 2**-n in (1/2, 1]
    j = ((big << 12) + (1 << n)) >> (n + 1)  # round(2048 x)
    s = Decimal((big << 11) - (j << n)) / ((big << 11) + (j << n))  # (x - c)/(x + c), c = j/2048
    x, acc = s * s, Decimal(0)
    for term in ATANH_TERMS:
        acc = acc * x + term
    return LN_GRID[j - 1024] + 2 * s * acc + (n - 53) * LN2


def _cos_reference(k: int) -> Decimal:
    """cos(2 pi u2) for u2 = k 2**-53, to 50 digits: the nearest r pi/128 plus a Taylor series."""
    r = (k + 2**44) >> 45
    phi = (k - (r << 45)) * PHI_UNIT  # |phi| <= pi/256
    x, cos, sin = phi * phi, Decimal(0), Decimal(0)
    for c, s in zip(COS_TERMS, SIN_TERMS):
        cos, sin = cos * x + c, sin * x + s
    cos_r, sin_r = COS_SIN_GRID[r]
    return cos_r * cos - sin_r * sin * phi


def test_log_and_cos_are_accurate():
    # within 2 ulp and 7e-16 absolute of 50-digit references, and correctly rounded on at least
    # 95% of draws, so the draws are those of exact log and cos nearly always; measured 1.41 ulp
    # and 5.8e-17, and correctly rounded on 97.7% and 98.6%
    k = (CounterRng(2026, "accuracy").peek(2 * DRAWS) >> np.uint64(11)).astype(np.float64)
    logs, coss = rng_module._log_u1(k[0::2]).tolist(), rng_module._cos_2pi_u2(k[1::2]).tolist()
    worst_log = worst_cos = Decimal(0)
    exact_log = exact_cos = 0
    ks = k.astype(np.int64).tolist()
    with decimal.localcontext(CTX):
        for k1, k2, got_log, got_cos in zip(ks[0::2], ks[1::2], logs, coss):
            want_log, want_cos = _log_reference(k1), _cos_reference(k2)
            worst_log = max(worst_log, abs(Decimal(got_log) - want_log) / Decimal(math.ulp(float(want_log))))
            worst_cos = max(worst_cos, abs(Decimal(got_cos) - want_cos))
            exact_log += got_log == float(want_log)  # float() of a Decimal is correctly rounded
            exact_cos += got_cos == float(want_cos)
    assert worst_log <= 2 and worst_cos <= Decimal("7e-16"), (worst_log, worst_cos)
    assert min(exact_log, exact_cos) >= 0.95 * DRAWS, (exact_log, exact_cos)


def test_edges_of_u1_and_u2():
    # k = word >> 11; u1 = (k + 1) 2**-53 and u2 = k 2**-53
    top = 2**53 - 1
    assert rng_module._log_u1(np.array([float(top)])).tolist() == [0.0]  # u1 = 1: exactly 0, no clamp
    words = np.array([top << 11, 12345 << 11, top << 11, top << 11], dtype=np.uint64)
    assert rng_module._box_muller(words).tolist() == [0.0, 0.0]
    # the smallest u1, 2**-53, gives log = -53 log 2 and a finite draw
    smallest = rng_module._box_muller(np.array([0, 0, 0, 2**52 << 11], dtype=np.uint64))
    assert np.isfinite(smallest).all()
    radius = math.sqrt(106 * math.log(2))  # 8.57
    assert smallest.tolist() == pytest.approx([radius, -radius], rel=1e-15)
    # u2 = 0, 1/4, 1/2 and 3/4 fall on table entries exactly
    quarters = np.array([0.0, 2.0**51, 2.0**52, 3 * 2.0**51])
    assert rng_module._cos_2pi_u2(quarters).tolist() == [1.0, 0.0, -1.0, 0.0]


def _dispatched_features() -> list[str]:
    """numpy's dispatched CPU features, beyond its baseline, that run on this machine."""
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


TRANSCRIPTS = """
import json
import test_rng
print(json.dumps({
    "features": test_rng._dispatched_features(),
    "digests": [[seed, stream, *test_rng._transcript(seed, stream)] for seed, stream in test_rng.STREAM_DIGESTS],
}))
"""


def test_stream_digests_hold_without_numpy_simd_dispatch():
    # the stream uses only steps that are exact or correctly rounded on every SIMD path, so
    # numpy's baseline code must give the frozen digests too
    features = _dispatched_features()
    if not features:
        pytest.skip("no CPU feature beyond numpy's baseline is on in this process")
    paths = [Path(rng_module.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    path = os.pathsep.join([*map(str, paths), *filter(None, [os.environ.get("PYTHONPATH")])])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", TRANSCRIPTS], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["features"] == []
    assert {(seed, stream): (digest, after) for seed, stream, digest, after in doc["digests"]} == STREAM_DIGESTS


@pytest.mark.parametrize("n", [-1, -4096])
def test_negative_n_raises_and_leaves_the_counter(n):
    rng, untouched = ScalarRng(7, "sample_base"), ScalarRng(7, "sample_base")
    assert rng.u64() == untouched.u64()
    with pytest.raises(ValueError, match="n must be >= 0"):
        rng.normals(n)
    assert rng.u64() == untouched.u64()


def test_seed_and_counts_must_be_integers():
    # a float seed used to be truncated, and skip(2.5) left a float counter that peek truncated
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        CounterRng(1.5, "sample_base")
    rng, untouched = ScalarRng(7, "sample_base"), ScalarRng(7, "sample_base")
    with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
        rng.skip(2.5)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
        rng.normals(2.5)
    assert rng.u64() == untouched.u64()
    rng.skip(np.int64(2))
    assert type(rng._counter) is int
    untouched.skip(2)
    assert rng.u64() == untouched.u64()
    assert ScalarRng(np.uint64(7), "sample_base").u64() == ScalarRng(7, "sample_base").u64()


@pytest.mark.parametrize(
    "seed, message",
    [
        (-(2**63) - 1, "seed must be >= -9223372036854775808, got -9223372036854775809"),
        (2**64, "seed must be <= 18446744073709551615, got 18446744073709551616"),
    ],
    ids=["below_int64", "above_uint64"],
)
def test_seed_outside_int64_and_uint64_is_refused(seed, message):
    # seeds 2**64 apart used to draw the same streams under different names
    with pytest.raises(ValueError, match=f"^{message}$"):
        CounterRng(seed, "sample_base")


@pytest.mark.parametrize("seed", [-(2**63), -1])
def test_negative_seed_draws_the_streams_of_seed_plus_two_pow_64(seed):
    # the one alias the bound leaves
    assert ScalarRng(seed, "sample_base").u64() == ScalarRng(seed + 2**64, "sample_base").u64()


def test_peek_and_randint_refuse_non_integers():
    # peek(2.5) used to return 3 words and peek(-1) none; randint(0, 2.5) returned the float 1.5
    rng, untouched = ScalarRng(7, "sample_base"), ScalarRng(7, "sample_base")
    with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
        rng.peek(2.5)
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        rng.peek(-1)
    words = rng.peek(4)
    for low, high, message in [
        (0, 2.5, r"^high must be an integer, got 2\.5$"),
        (0.5, 3, r"^low must be an integer, got 0\.5$"),
        (3, 2, r"^high must be >= 3, got 2$"),  # an empty range
    ]:
        with pytest.raises(ValueError, match=message):
            randints(words, low, high)
    assert rng.u64() == untouched.u64()
    assert rng.peek(np.int64(2)).tolist() == untouched.peek(2).tolist()
    # numpy integer bounds, np.uint64 included, give the values that Python ints give
    got = randints(words, np.int64(0), np.uint64(999))
    oracle = ScalarRng(7, "sample_base")
    assert got.dtype == np.int64 and got.tolist() == [oracle.randint(0, 999) for _ in range(4)]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
FINITE = st.floats(min_value=-1e300, max_value=1e300)


def _skipped(seed, stream, skip):
    """A stream with skip words already drawn one at a time."""
    rng = ScalarRng(seed, stream)
    for _ in range(skip):
        rng.u64()
    return rng


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.sampled_from(STREAMS),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=64),
    FINITE,
    FINITE,
)
def test_uniforms_match_scalar_oracle_bit_for_bit(seed, stream, skip, n, low, high):
    rng = _skipped(seed, stream, skip)
    got = uniforms(rng.peek(n), low, high)
    want = np.array([rng.uniform(low, high) for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.sampled_from(STREAMS),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=64),
    st.lists(
        st.one_of(
            st.integers(min_value=-100, max_value=100),
            st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
            st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
        ),
        min_size=2,
        max_size=2,
    ).map(sorted),
)
def test_randints_match_scalar_oracle(seed, stream, skip, n, bounds):
    low, high = bounds
    rng = _skipped(seed, stream, skip)
    got = randints(rng.peek(n), low, high)
    want = [rng.randint(low, high) for _ in range(n)]
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == want
    assert all(low <= v <= high for v in want)


def test_randints_cover_the_whole_int64_range():
    words = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    assert randints(words, INT64_MIN, INT64_MAX).tolist() == [
        INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX]
    assert randints(words, INT64_MAX, INT64_MAX).tolist() == [INT64_MAX] * 5
    assert randints(words, INT64_MIN, INT64_MIN).tolist() == [INT64_MIN] * 5


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_randints_refuse_bounds_outside_int64(data):
    # int64 cannot hold such a bound's values: refusing it keeps low + word % r from wrapping
    words = ScalarRng(7, "sample_base").peek(8)
    high = data.draw(st.integers(min_value=INT64_MAX + 1, max_value=2**80))
    low = data.draw(st.integers(min_value=INT64_MIN, max_value=INT64_MAX))
    with pytest.raises(ValueError, match=rf"^high must be <= {INT64_MAX}, got {high}$"):
        randints(words, low, high)
    low = data.draw(st.integers(min_value=-(2**80), max_value=INT64_MIN - 1))
    high = data.draw(st.integers(min_value=INT64_MIN, max_value=INT64_MAX))
    with pytest.raises(ValueError, match=rf"^low must be >= {INT64_MIN}, got {low}$"):
        randints(words, low, high)
    pair = st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=2, max_size=2, unique=True)
    low, high = sorted(data.draw(pair))
    with pytest.raises(ValueError, match=rf"^high must be >= {high}, got {low}$"):
        randints(words, high, low)  # an empty range
    bad = data.draw(st.one_of(st.floats(allow_nan=False), st.text(max_size=3), st.none()))
    with pytest.raises(ValueError, match=r"^low must be an integer, got "):
        randints(words, bad, 0)
    with pytest.raises(ValueError, match=r"^high must be an integer, got "):
        randints(words, 0, bad)


def test_peek_reads_ahead_and_skip_consumes():
    rng, ref = ScalarRng(3, "channel_exact_beta_vs_ln"), ScalarRng(3, "channel_exact_beta_vs_ln")
    rng.u64(), ref.u64()
    words = rng.peek(5)
    assert words.dtype == np.uint64
    assert rng.peek(5).tolist() == words.tolist()  # peeking consumes nothing
    assert words.tolist() == [ref.u64() for _ in range(5)]
    rng.skip(2)
    assert rng.u64() == int(words[2])
    rng.skip(0)
    with pytest.raises(ValueError, match="n must be >= 0"):
        rng.skip(-1)
    assert rng.u64() == int(words[3])


# rng.py is the one file that turns words into uniforms and integers; the rest of the
# package draws through its public names, and _box_muller for interleaved normal words
RNG_PRIVATE_ALLOWED = {"_box_muller"}


def rng_private_uses(source: str) -> list[str]:
    """The private dynact.rng names that a module's source imports or reads off the module."""
    tree = ast.parse(source)
    modules, used = {"dynact.rng"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "dynact.rng" and a.asname}
        elif isinstance(node, ast.ImportFrom):
            if node.module == "dynact.rng" or (node.level and node.module == "rng"):
                used += [a.name for a in node.names if a.name.startswith("_")]
            elif node.module == "dynact" or (node.level and node.module is None):
                modules |= {a.asname or a.name for a in node.names if a.name == "rng"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if ast.unparse(node.value) in modules:
                used.append(node.attr)
    return sorted(set(used) - RNG_PRIVATE_ALLOWED)


def test_no_other_module_uses_rng_private_names():
    src = Path(__file__).resolve().parents[1] / "src" / "dynact"
    found = {
        path.name: rng_private_uses(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py"))
        if path.name != "rng.py"
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


@pytest.mark.parametrize("source, uses", [
    ("from dynact.rng import _TWO_POW_MINUS_53, _U11, CounterRng, _box_muller", ["_TWO_POW_MINUS_53", "_U11"]),
    ("from .rng import _words", ["_words"]),
    ("import dynact.rng as r\nr._finalize(1)", ["_finalize"]),
    ("from dynact import rng\nrng._U11", ["_U11"]),
    ("import dynact.rng\ndynact.rng._MASK", ["_MASK"]),
    ("from dynact.rng import CounterRng, _box_muller, randints, uniforms", []),
    ("rng = object()\nrng._counter", []),
])
def test_rng_private_uses_finds_each_form(source, uses):
    assert rng_private_uses(source) == uses
