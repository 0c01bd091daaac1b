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
counter range at once with wrapping ``np.uint64`` arithmetic. ``u1``
and ``u2`` are exact, and multiplication and sqrt are correctly rounded, so
numpy reproduces those steps bit for bit. ``log`` and ``cos`` are not
correctly rounded: numpy's own versions differ from the C library's in the
last bit on about 0.2% of draws, so they go through ``math.log`` and
``math.cos``. Given the same seed and the same C library, the same draws
come out on every run, and the CSV and JSON artifacts built from them are
byte-identical.

Any change to the values this module returns, or to how many counter values
a draw takes, is a new stream version: record it explicitly in CHANGES.md.
``tests/test_rng.py`` freezes the current stream.
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

_TWO_POW_MINUS_53 = 2.0**-53
_TWO_PI = 2.0 * math.pi


# uint64 operands keep the array arithmetic in uint64, wrapping mod 2**64
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)


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
    # u >> 11 < 2**53: the conversion, the + 1 and the 2**-53 scaling are
    # exact, and the 2 pi product rounds once, as in the one-draw formula
    f = (u >> _U11).astype(np.float64)
    f[0::2] += 1.0
    f *= _TWO_POW_MINUS_53
    f[1::2] *= _TWO_PI
    u1_and_angle = f.tolist()
    logs = np.fromiter(map(math.log, u1_and_angle[0::2]), dtype=np.float64, count=f.size // 2)
    coss = np.fromiter(map(math.cos, u1_and_angle[1::2]), dtype=np.float64, count=f.size // 2)
    return np.sqrt(-2.0 * logs) * coss


def uniforms(words: np.ndarray, low: float, high: float) -> np.ndarray:
    """One float64 uniform over [low, high) per uint64 word: low + (high - low) * ((word >> 11) * 2**-53)."""
    # word >> 11 < 2**53: the conversion and the 2**-53 scaling are exact
    return low + (high - low) * ((words >> _U11) * _TWO_POW_MINUS_53)


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
