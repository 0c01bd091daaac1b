"""The counter stream is frozen: these draws feed every CSV and report.

``STREAM_DIGESTS`` was computed with the per-draw scalar Box-Muller code
(one ``u64`` pair, ``math.log`` and ``math.cos`` per value). Any change that
moves a bit of ``normals`` or the counter it leaves behind fails here. The
scalar draws are ``scalar_draws.ScalarRng``'s, the oracle that ``uniforms``
and ``randints`` must match bit for bit.
"""

import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_draws import ScalarRng

from dynact.rng import CounterRng, randints, uniforms

SEEDS = (0, 1, 7, -1, 2**40 + 3)
STREAMS = ("", "sample_base", "ln_derivative_vs_fd", "channel_exact_beta_vs_ln")
SIZES = (0, 1, 2, 3, 100, 4096)

# (seed, stream) -> (sha256 of the transcript, the u64 drawn after it)
STREAM_DIGESTS = {
    (0, ""): ("7a96c697f6f4b7739e2bb731f38aed9524de38549db7435d07006bab8db5e2b5", 0xBF6E8323968673E5),
    (0, "sample_base"): ("028e5d50b50c87a42a1d747c1a4b5c9a2078858a69d53a4bd436a8df35bfd333", 0xE42B2B0C31DC9482),
    (0, "ln_derivative_vs_fd"): ("d451d78d282af12a62035ff971fc0c8f0f6a547edb5b3db9b5d4d1c05203f78d", 0xEF6F11B6BB2218DA),
    (0, "channel_exact_beta_vs_ln"): ("a833dc3c0666ac182416d25e1016b33823306e02066b14c68ccbca52ed00311d", 0xD637F52BF22D9529),
    (1, ""): ("df6fc33d76e212f5e9965544a07ead10d17095fec43082c8a71a75d072e698e7", 0x061F7A40BADBAF5E),
    (1, "sample_base"): ("3f01ea9d27aba059684437b9a10bb1b4c41cfd15b90d687202a2deca66e3ea0a", 0x0B1BCDACF5136D6E),
    (1, "ln_derivative_vs_fd"): ("baef1a2a9f843f94bad25fbf3850816c312d5391320b85732fe20991125f306d", 0x368485CF0AB654EF),
    (1, "channel_exact_beta_vs_ln"): ("f9eba228c25dd9d5cd52c369fc0d9941b3f9b650e2c29dae1a092f1acf0c5be9", 0x514E239613F04BFA),
    (7, ""): ("e04d5b6498a4f860b1cf58c7ef760851a5e209ed65501f80272fe01835a42473", 0xB350215785C20B9B),
    (7, "sample_base"): ("cb3ef6f39272944adab9738835d5f5bf3a936bcae226da0bc6d3c7e125b15b47", 0x55715F8982F49946),
    (7, "ln_derivative_vs_fd"): ("b51fc43e6cbf68de44ca6219ac1333e66da53b1714a91ea380daea39c75a0183", 0x5521E4E9C1026855),
    (7, "channel_exact_beta_vs_ln"): ("6b339c4f5655c9c45688a1ac3e2b7fb585e14e3a1cf6f2ee78e688230937b2c9", 0xB81871A01ACEDFAB),
    (-1, ""): ("c937ac9414046629dfd378900f9097f5b1279b39c3769182f4b1069e52f37f0d", 0xFA4AA6F5A2FA460F),
    (-1, "sample_base"): ("c1cd51d1bf5e56ab25dfcc96761045d9ac6d2eb5223800ee409f4191f9ae3501", 0xBBCA569ED5EE9FBB),
    (-1, "ln_derivative_vs_fd"): ("f8824556a9caa78c1d20078af5f77a6a9ecd62c3c03bf25c8620c3c7cfb0100a", 0xEBCB3CFA03BC2C56),
    (-1, "channel_exact_beta_vs_ln"): ("3358192a408afef7932ee8e65850150fe65c4ee2702cbbf2e6d21bac833c4401", 0x8E333872F67854AD),
    (2**40 + 3, ""): ("0c2ac2396766a4329fc6aa3cf671f2a23a9a31f4fcfc23155428615589219e89", 0x4A8361882E7030D7),
    (2**40 + 3, "sample_base"): ("e7023cc37ffa2696b58c6e62ab11e58cab1fbed2861e81f36471a0a668060ef6", 0xE4E0BBFFDD668813),
    (2**40 + 3, "ln_derivative_vs_fd"): ("87f73dff5db60e924e57d163c71093994322474d3830e7d30a1283bf17e661dc", 0xD89D6E0655B950BF),
    (2**40 + 3, "channel_exact_beta_vs_ln"): ("435f7e2e12bf1a7191e75a402aa8fc74c81937d9498b37ca2e5fb57f6bae7b06", 0xEDFA640E45E8B622),
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


def _reference_normals(rng: ScalarRng, n: int) -> np.ndarray:
    """Box-Muller one draw at a time: u1 in (0, 1] from one u64, u2 in [0, 1) from the next."""
    out = []
    for _ in range(n):
        u1 = ((rng.u64() >> 11) + 1) * 2.0**-53
        u2 = (rng.u64() >> 11) * 2.0**-53
        out.append(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    return np.array(out, dtype=np.float64)


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
    want = _reference_normals(ref, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert fast.u64() == ref.u64()


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
