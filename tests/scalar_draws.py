"""The counter stream's scalar draws, one word at a time: the oracle for ``dynact.rng``.

``ScalarRng`` is a ``CounterRng`` that also draws one value per call. Its ``u64``
computes the word at the next counter from Python ints, independently of the
array ``_words`` behind ``peek``; ``uniform`` and ``randint`` are the formulas
that ``rng.uniforms`` and ``rng.randints`` apply to whole word arrays.
"""

from dynact.rng import _GOLDEN, CounterRng, _finalize


class ScalarRng(CounterRng):
    def u64(self) -> int:
        self._counter += 1
        return _finalize(self._key + self._counter * _GOLDEN)

    def uniform_halfopen(self) -> float:
        """Uniform in [0, 1)."""
        return (self.u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.uniform_halfopen()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], as a Python int: one word modulo the range size."""
        return int(low) + self.u64() % (int(high) - int(low) + 1)
