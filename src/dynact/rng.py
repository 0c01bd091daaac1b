"""Deterministic counter-based PRNG with Box-Muller Gaussian sampling.

Stream contract. The raw stream is the splitmix64 output sequence: the word
at counter i (i = 1, 2, ...) is ``finalize(key + i * GOLDEN) mod 2**64`` with
the standard 64-bit finalizer. Streams are keyed by (seed, stream name), so
independent consumers derived from the same seed never overlap. Every draw
takes the next counter value(s) in order; ``peek`` reads them and ``skip`` consumes them.

- ``uniforms(words, low, high)`` is ``low + (high - low) * ((word >> 11) * 2**-53)`` and
  ``randints(words, low, high)`` is ``low + word % (high - low + 1)``, one word per value.
- ``normals(n)`` takes 2n words. Draw k uses words 2k+1 and 2k+2 after the
  current counter: ``u1 = ((w1 >> 11) + 1) * 2**-53`` in (0, 1],
  ``u2 = (w2 >> 11) * 2**-53`` in [0, 1), and the value is
  ``sqrt(-2 log u1) * cos(2 pi u2)``.

Because each word depends only on its counter, ``peek`` computes a whole
counter range at once with wrapping ``np.uint64`` arithmetic. ``u1`` and
``u2`` are exact, and ``log`` and ``cos`` are built only from ``+``, ``-``,
``*``, ``/``, ``sqrt``, ``frexp``, ``rint``, exact integer conversions and
lookups in correctly rounded tables (see ``_log_u1`` and ``_cos_2pi_u2``).
Each of those steps is correctly rounded or exact, in every numpy SIMD path
and in Python floats alike, so given the same seed the same draws come out
on any platform with IEEE-754 doubles, and the CSV and JSON artifacts built
from them are byte-identical.

Any change to the values this module returns, or to how many counter values
a draw takes, is a new stream version: record it explicitly in CHANGES.md.
``STREAM_VERSION`` names the current stream, and ``tests/test_rng.py`` freezes it.
"""

from __future__ import annotations

import math

import numpy as np

from dynact.core_math import _INT64_MAX, _INT64_MIN, _SEED_RANGE, _check_integer

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

STREAM_VERSION = 2  # version 1 took log and cos from the C library

# uint64 operands keep the array arithmetic in uint64, wrapping mod 2**64
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)

# The tables below hold correctly rounded values; tests/test_rng.py checks every entry against a
# 50-digit decimal value. log(j / 64) = _LOG_HI + _LOG_LO for the centres j / 64, j = 46 .. 90:
# _LOG_HI is log(j / 64) rounded to a multiple of 2**-32, so that e * _LN2_HI + _LOG_HI is exact,
# and _LOG_LO is the rest, correctly rounded
_LOG_HI = np.array([
    -0.33024168689735234, -0.30873548169620335, -0.28768207249231637, -0.26706278533674777,
    -0.2468600778374821, -0.22705745068378747, -0.20763936475850642, -0.18859116989187896,
    -0.16989903687499464, -0.15154989808797836, -0.13353139255195856, -0.1158318156376481,
    -0.09844007273204625, -0.08134563942439854, -0.0645385212264955, -0.048009219113737345,
    -0.03174869832582772, -0.01574835693463683, 0.0, 0.015504186507314444,
    0.03077165875583887, 0.04580953600816429, 0.0606246218085289, 0.07522342121228576,
    0.0896121587138623, 0.10379679361358285, 0.11778303561732173, 0.1315763578750193,
    0.14518200978636742, 0.158605030272156, 0.17185025685466826, 0.18492233846336603,
    0.19782574335113168, 0.21056476910598576, 0.22314355126582086, 0.23556607123464346,
    0.24783616396598518, 0.2599575244821608, 0.27193371555767953, 0.28376817307434976,
    0.2954642130061984, 0.30702503537759185, 0.3184537310153246, 0.3297532864380628,
    0.3409265868831426,
])
_LOG_LO = np.array([
    2.6775481557811462e-11, 4.659008133837093e-11, 4.053543780278539e-11, 8.770251924838942e-11,
    -9.404370311993247e-11, 4.844138023690714e-11, -1.9738084340965946e-11, 8.432894015786108e-11,
    7.959716268154532e-11, -3.922257480358044e-11, -7.25640622027401e-11, 1.1252640052221784e-10,
    -8.120627337426309e-11, -2.955386443684187e-11, 8.892433270634855e-11, -7.262326301018234e-11,
    1.1247416624070612e-11, -3.3502337323980175e-11, 0.0, 2.865081056259721e-11,
    -8.908518263116906e-11, 2.3129916553214912e-11, 7.905942434121756e-12, 2.5301768633786004e-11,
    -2.4175167299176948e-11, 6.806071532349833e-11, 3.906172487875993e-11, -8.63000393161911e-11,
    5.8130480900099126e-11, -9.551741604395793e-11, 7.199096271943244e-11, 3.0645961017175074e-11,
    -2.1211797264991407e-11, 1.3638769807710745e-12, 4.838889490356316e-11, 7.812344975751986e-11,
    -6.140392216684597e-11, -4.5234739683804296e-11, -7.403777512676557e-11, 5.629483733768491e-11,
    -1.1236252983280051e-10, -8.267998629828855e-11, 1.0321002321991519e-10, -6.559480524154642e-11,
    8.745061978232308e-11,
])
# the same at index j for j = 0 .. 26, and at index j from the end for j = -18 .. -1
_LOG_1P_HI, _LOG_1P_LO = (np.roll(t, 46 - 64) for t in (_LOG_HI, _LOG_LO))
# cos(r pi / 128) for r = 0 .. 64, a quarter wave; exact symmetries give r = 0 .. 256
_COS_QUARTER = np.array([
    1.0, 0.9996988186962042, 0.9987954562051724, 0.9972904566786902,
    0.9951847266721969, 0.99247953459871, 0.989176509964781, 0.9852776423889412,
    0.9807852804032304, 0.9757021300385286, 0.970031253194544, 0.9637760657954398,
    0.9569403357322088, 0.9495281805930367, 0.9415440651830208, 0.9329927988347388,
    0.9238795325112867, 0.9142097557035307, 0.9039892931234433, 0.8932243011955153,
    0.881921264348355, 0.8700869911087115, 0.8577286100002721, 0.8448535652497071,
    0.8314696123025452, 0.8175848131515837, 0.8032075314806449, 0.7883464276266062,
    0.773010453362737, 0.7572088465064846, 0.7409511253549591, 0.7242470829514669,
    0.7071067811865476, 0.6895405447370669, 0.6715589548470184, 0.6531728429537768,
    0.6343932841636455, 0.6152315905806268, 0.5956993044924334, 0.5758081914178453,
    0.5555702330196022, 0.5349976198870973, 0.5141027441932218, 0.49289819222978404,
    0.47139673682599764, 0.4496113296546066, 0.4275550934302821, 0.40524131400498986,
    0.3826834323650898, 0.35989503653498817, 0.33688985339222005, 0.31368174039889146,
    0.2902846772544624, 0.26671275747489837, 0.2429801799032639, 0.2191012401568698,
    0.19509032201612828, 0.17096188876030122, 0.14673047445536175, 0.1224106751992162,
    0.0980171403295606, 0.07356456359966743, 0.049067674327418015, 0.024541228522912288,
    0.0,
])
# cos(r pi / 128) - _COS_QUARTER, correctly rounded: the low parts of the quarter wave
_COS_QUARTER_LO = np.array([
    0.0, -2.985148640379975e-17, -1.2291693337075465e-17, 9.164769537110173e-18,
    -4.248691367830441e-17, 3.1093055095428906e-17, -4.098730993704711e-17, 2.3155637027900207e-17,
    1.8546939997825006e-17, -2.5572556081259686e-17, 1.8365300348428844e-17, 2.646395056122003e-17,
    4.05538698618757e-17, -7.55441519280433e-18, -2.789637954769834e-17, 4.2041415555384355e-17,
    1.7645047084336677e-17, -3.631618252781442e-17, -6.609754468748431e-18, -4.116123915190891e-18,
    -1.9843248405890562e-17, -4.188851086854997e-17, -4.818344793633662e-17, -4.363136029687964e-17,
    1.4073856984728024e-18, -1.4883149812426772e-17, -3.306060980481491e-17, 3.439699315405971e-17,
    -3.256590703364977e-17, -1.9909098777335502e-17, -1.4708616952297345e-17, 2.9198471334403004e-17,
    -4.833646656726457e-17, -1.588932329480679e-17, -4.048903774929669e-17, 8.569564206002624e-18,
    1.0420901929280035e-17, 2.623141776726695e-17, -1.3438641936579467e-17, -3.7909495458942734e-17,
    4.709410940561677e-17, -5.3683132708358134e-17, -4.5712707523615624e-17, -1.0257831676562186e-18,
    6.516678136069013e-18, 4.883192423203524e-18, 9.411189816295473e-18, 9.911140194289988e-18,
    -1.0050772696461588e-17, -1.7601687123839282e-17, -4.200094003347509e-19, 1.4560447299968912e-17,
    -1.892797870777425e-17, 2.0941222578826688e-17, -8.751431529719663e-18, -3.6513812299150776e-19,
    -7.991079068461731e-18, 9.19199801817591e-18, 3.726947147046568e-18, 2.8354501489965335e-18,
    -1.634582362244256e-18, -2.7784941506273593e-18, -6.79610372051828e-19, -9.186849012577878e-20,
    0.0,
])


def _full_wave(quarter: np.ndarray) -> np.ndarray:
    """Values at r = 0 .. 256 from those at r = 0 .. 64, by cos(pi - x) = -cos x and cos(2 pi - x) = cos x."""
    return np.concatenate([quarter, -quarter[63::-1], -quarter[1:64], quarter[64::-1]])


_COS, _COS_LO = _full_wave(_COS_QUARTER), _full_wave(_COS_QUARTER_LO)
_SIN = _COS[(np.arange(257) - 64) % 256]  # sin x = cos(x - pi / 2)

# The constants of _log_u1 and _cos_2pi_u2 are 0-d arrays: numpy combines an array with one faster
# than with a Python float, and at the sizes that checks 1 and 4 draw a call costs more than
# its arithmetic
_ONE, _TWO, _MINUS_TWO, _64, _128 = (np.array(c) for c in (1.0, 2.0, -2.0, 64.0, 128.0))
_POW_MINUS_53, _POW_MINUS_45 = np.array(2.0**-53), np.array(2.0**-45)
_SQRT_HALF = np.array(math.sqrt(0.5))
# ln 2 = _LN2_HI + _LN2_LO to about 2**-85; _LN2_HI ends in 21 zero bits, so e * _LN2_HI is exact
_LN2_HI = np.array(float.fromhex("0x1.62e42feep-1"))
_LN2_LO = np.array(float.fromhex("0x1.a39ef35793c76p-33"))
_PI_OVER_128 = np.array(math.pi / 128)
# Taylor coefficients: atanh(s) = s + s x (A3 + x (A5 + x A7)) for x = s**2, and for x = phi**2
# 1 - cos(phi) = x (H2 + x (H4 + x H6)) and sin(phi) = phi + phi x (S3 + x (S5 + x S7))
_A3, _A5, _A7 = (np.array(c) for c in (1 / 3, 1 / 5, 1 / 7))
_H2, _H4, _H6 = (np.array(c) for c in (1 / 2, -1 / 24, 1 / 720))
_S3, _S5, _S7 = (np.array(c) for c in (-1 / 6, 1 / 120, -1 / 5040))
# draws per pass: one pass over 4096 draws took 1.7x as long as two passes of 2048, as
# the temporaries outgrew what the allocator keeps between calls
_BLOCK = 2048


def _words(key: int, first: int, count: int) -> np.ndarray:
    """The splitmix64 words at counters first .. first + count - 1, as uint64."""
    z = np.arange(first, first + count, dtype=np.uint64)
    z *= _GOLDEN_U64
    z += np.uint64(key)
    z ^= z >> _U30
    z *= _MIX1_U64
    z ^= z >> _U27
    z *= _MIX2_U64
    z ^= z >> _U31
    return z


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from consecutive (u1, u2) word pairs, as uint64."""
    z = np.empty(u.size // 2)
    for start in range(0, z.size, _BLOCK):
        k = (u[2 * start : 2 * (start + _BLOCK)] >> _U11).astype(np.float64)  # < 2**53: exact
        radius = np.sqrt(_MINUS_TWO * _log_u1(k[0::2]))
        np.multiply(radius, _cos_2pi_u2(k[1::2]), out=z[start : start + _BLOCK])
    return z


def _log_u1(k: np.ndarray) -> np.ndarray:
    """log u1 for u1 = (k + 1) 2**-53 in (0, 1], from exact or correctly rounded steps.

    With u1 = m 2**e, m in [sqrt(1/2), sqrt(2)), and the centre c = 1 + j/64 next to m on the
    side of 1, log u1 = e log 2 + log c + 2 atanh(s) for s = (m - c)/(m + c). log c and
    atanh(s) share a sign, so their sum never cancels, and u1 = 1 gives exactly 0. The high
    parts of e log 2 and log c add exactly, so only the last addition rounds by much: over
    200,000 draws the result was the correctly rounded log u1 on 97.7%, and 1.41 ulp off at worst.
    """
    m, e = np.frexp((k + _ONE) * _POW_MINUS_53)
    low = m < _SQRT_HALF
    m = np.ldexp(m, low)
    e = np.subtract(e, low, dtype=np.float64)
    d = m * _64 - _64  # 64 (m - 1), exact
    j = np.trunc(d)  # toward 0
    s = (d - j) / ((d + j) + _128)  # d - j is exact
    x = s * s
    atanh = s + s * (x * (_A3 + x * (_A5 + x * _A7)))
    j = j.astype(np.intp)
    return (e * _LN2_HI + _LOG_1P_HI[j]) + ((e * _LN2_LO + _LOG_1P_LO[j]) + _TWO * atanh)


def _cos_2pi_u2(k: np.ndarray) -> np.ndarray:
    """cos(2 pi u2) for u2 = k 2**-53 in [0, 1), from exact or correctly rounded steps.

    256 u2 = r + t, with integer r in [0, 256] and |t| <= 1/2 both exact, and
    cos(2 pi u2) = cos(r pi/128 + phi) for phi = t pi/128, by angle addition. cos(r pi/128)
    enters in a high and a low part, so only the last addition rounds by much: over 200,000
    draws the result was the correctly rounded cos(2 pi u2) on 98.6%, and 5.8e-17 off at worst.
    """
    a = k * _POW_MINUS_45
    r = np.rint(a)
    phi = (a - r) * _PI_OVER_128
    x = phi * phi
    one_minus_cos = x * (_H2 + x * (_H4 + x * _H6))
    sin = phi + phi * (x * (_S3 + x * (_S5 + x * _S7)))
    r = r.astype(np.intp)
    cos_r = _COS[r]
    return cos_r + (_COS_LO[r] - (cos_r * one_minus_cos + _SIN[r] * sin))


def uniforms(words: np.ndarray, low: float, high: float) -> np.ndarray:
    """One float64 uniform over [low, high) per uint64 word: low + (high - low) * ((word >> 11) * 2**-53)."""
    # word >> 11 < 2**53: the conversion and the 2**-53 scaling are exact
    return low + (high - low) * ((words >> _U11) * _POW_MINUS_53)


def randints(words: np.ndarray, low: int, high: int) -> np.ndarray:
    """One int64 in [low, high] per uint64 word: low + word % (high - low + 1). Bounds outside
    int64 are refused, so no value wraps. Modulo bias: each value's probability is within a
    relative r / 2**64 of 1/r for r = high - low + 1, e.g. below 6e-18 for r = 100.
    """
    _check_integer("low", low, _INT64_MIN)
    _check_integer("high", high, low, _INT64_MAX)  # an empty range is refused too
    size = int(high) - int(low) + 1
    offsets = words % np.uint64(size) if size <= _MASK else words  # all of int64: no reduction
    # low + offset lies in int64: add low mod 2**64 with uint64 wraparound, then reinterpret
    return (offsets + np.uint64(int(low) & _MASK)).view(np.int64)


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


class CounterRng:
    """Counter-indexed splitmix64 stream: raw words by peek and skip, Gaussian draws by normals."""

    def __init__(self, seed: int, stream: str = ""):
        _check_integer("seed", seed, *_SEED_RANGE)
        key = int(seed) & _MASK
        if stream:
            key ^= _fnv1a64(stream)
        self._key = int(_words(key, 0, 1)[0])  # the finalized key: its word at counter 0
        self._counter = 0

    def peek(self, n: int) -> np.ndarray:
        """The next n words as uint64, without consuming them."""
        _check_integer("n", n, 0)
        return _words(self._key, self._counter + 1, n)

    def skip(self, n: int) -> None:
        """Consume n counter values without computing their words."""
        _check_integer("n", n, 0)
        self._counter += int(n)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals by Box-Muller; consumes 2n counter values."""
        _check_integer("n", n, 0)
        u = self.peek(2 * n)
        self.skip(2 * n)
        return _box_muller(u)
