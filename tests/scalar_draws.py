"""The counter stream's scalar draws, one word at a time: the oracle for ``dynact.rng``.

``ScalarRng`` is a ``CounterRng`` that also draws one value per call. Its ``u64``
computes the word at the next counter from Python ints, independently of the
array ``_words`` behind ``peek`` (only the key, ``_words``' word at counter 0,
is shared); ``uniform`` and ``randint`` are the formulas
that ``rng.uniforms`` and ``rng.randints`` apply to whole word arrays.
"""

from dynact.rng import _GOLDEN, _MASK, _MIX1, _MIX2, CounterRng


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
