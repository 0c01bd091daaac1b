"""The counter stream's scalar draws, one word at a time: the oracle for ``dynact.rng``.

``ScalarRng`` is a ``CounterRng`` that also draws one value per call. Its ``u64``
computes the word at the next counter from Python ints, independently of the
array ``_words`` behind ``peek`` (only the key, ``_words``' word at counter 0,
is shared); ``uniform`` and ``randint`` are the formulas
that ``rng.uniforms`` and ``rng.randints`` apply to whole word arrays.
``normal`` is one Box-Muller draw on Python floats, with ``math.frexp``, ``round``
(which rounds half to even, as ``np.rint`` does) and ``rng``'s tables: the same
exact or correctly rounded steps as ``rng._log_u1`` and ``rng._cos_2pi_u2``, so numpy must
match it bit for bit on any SIMD path.
"""

import math

from dynact import rng
from dynact.rng import _GOLDEN, _MASK, _MIX1, _MIX2, CounterRng

LOG_HI = dict(zip(range(46, 91), rng._LOG_HI.tolist()))  # j -> log(j/64), high part
LOG_LO = dict(zip(range(46, 91), rng._LOG_LO.tolist()))  # and low part
COS, COS_LO, SIN = rng._COS.tolist(), rng._COS_LO.tolist(), rng._SIN.tolist()  # of r pi/128, r = 0 .. 256
LN2_HI, LN2_LO = float(rng._LN2_HI), float(rng._LN2_LO)


def log_u1(k: int) -> float:
    """log u1 for u1 = (k + 1) 2**-53, reduced to m in [sqrt(1/2), sqrt(2)) and a centre 1 + j/64."""
    m, e = math.frexp((k + 1.0) * 2.0**-53)
    if m < math.sqrt(0.5):
        m, e = m * 2.0, e - 1
    d = m * 64.0 - 64.0
    j = math.trunc(d)
    s = (d - j) / ((d + j) + 128.0)
    x = s * s
    atanh = s + s * (x * (1 / 3 + x * (1 / 5 + x * (1 / 7))))
    return (e * LN2_HI + LOG_HI[64 + j]) + ((e * LN2_LO + LOG_LO[64 + j]) + 2.0 * atanh)


def cos_2pi_u2(k: int) -> float:
    """cos(2 pi u2) for u2 = k 2**-53, from cos and sin at the nearest multiple r pi/128."""
    a = k * 2.0**-45
    r = round(a)
    phi = (a - r) * (math.pi / 128)
    x = phi * phi
    one_minus_cos = x * (1 / 2 + x * (-1 / 24 + x * (1 / 720)))
    sin = phi + phi * (x * (-1 / 6 + x * (1 / 120 + x * (-1 / 5040))))
    return COS[r] + (COS_LO[r] - (COS[r] * one_minus_cos + SIN[r] * sin))


def finalize(z: int) -> int:
    """The splitmix64 finalizer of z mod 2**64, in Python ints."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class ScalarRng(CounterRng):
    def u64(self) -> int:
        self._counter += 1
        return finalize(self._key + self._counter * _GOLDEN)

    def uniform_halfopen(self) -> float:
        """Uniform in [0, 1)."""
        return (self.u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.uniform_halfopen()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], as a Python int: one word modulo the range size."""
        return int(low) + self.u64() % (int(high) - int(low) + 1)

    def normal(self) -> float:
        """One standard normal by Box-Muller: u1 from one u64, u2 from the next."""
        k1, k2 = self.u64() >> 11, self.u64() >> 11
        return math.sqrt(-2.0 * log_u1(k1)) * cos_2pi_u2(k2)
