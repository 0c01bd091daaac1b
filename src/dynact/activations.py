"""Closed-form dynamic activation functions.

Scaled DyT and the DyISRU family are the element-wise counterparts of layer
normalization: both saturate at +-sqrt(C-1) for a C-channel vector. All
functions accept scalars or numpy arrays in ``x`` and broadcast element-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dynact.core_math import as_channel_vector, _centered, _check_index

# Lower clamp for beta when constructing DyISRUParams from a channel-exact
# value: beta = 0 is analytically valid but collapses DyISRU to a step.
BETA_MIN = 1e-18


@dataclass(frozen=True)
class DyTParams:
    """Finite slope alpha > 0 and channel count C >= 2 for scaled DyT."""

    alpha: float
    channels: int

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.channels < 2:
            raise ValueError(f"channels must be >= 2, got {self.channels}")


@dataclass(frozen=True)
class DyISRUParams:
    """Denominator offset beta > 0, channel count C >= 2, and center mu.

    ``beta`` is a scalar or a per-channel array that broadcasts against x.
    Two params are equal when their betas have the same shape and values and
    their channels and mu are equal, so a scalar beta never equals an array.
    """

    beta: float | np.ndarray
    channels: int
    mu: float = 0.0

    def __post_init__(self):
        if not np.all(np.asarray(self.beta) > 0):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.channels < 2:
            raise ValueError(f"channels must be >= 2, got {self.channels}")

    def _key(self) -> tuple:
        # beta > 0 rules out NaN and -0.0, so equal bytes means equal values
        beta = np.asarray(self.beta, dtype=np.float64)
        return (beta.shape, beta.tobytes(), self.channels, self.mu)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def scaled_dyt(x, p: DyTParams):
    """sqrt(C-1) * tanh(alpha * x): odd, strictly increasing, |.| < sqrt(C-1)."""
    return math.sqrt(p.channels - 1) * np.tanh(p.alpha * np.asarray(x, dtype=np.float64))


def dyisru(x, p: DyISRUParams):
    """sqrt(C-1) * (x - mu) / sqrt(beta + (x - mu)^2); mu = 0 is the outlier form."""
    u = np.asarray(x, dtype=np.float64) - p.mu
    return math.sqrt(p.channels - 1) * u / np.sqrt(p.beta + u * u)


def isru(x, alpha: float):
    """Inverse square root unit x / sqrt(1 + alpha * x^2), alpha finite and > 0."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    xa = np.asarray(x, dtype=np.float64)
    return xa / np.sqrt(1.0 + alpha * xa * xa)


def beta_exact(x, i):
    """Channel-exact beta making DyISRU with mu = mean(x) reproduce layer_norm on channel i.

    Equals (C-1) * var_excluding_i - var, where var_excluding_i uses divisor
    C-1 over the channels k != i. Always >= 0 analytically (it is a squared
    integration constant); may be exactly 0, so clamp with BETA_MIN before
    building DyISRUParams from it. An int ``i`` gives a float, an integer
    index array gives the array of betas at those channels. A (near-)constant
    vector raises DegenerateVariance, as in layer_norm.
    """
    arr = as_channel_vector(x)
    i = _check_index(i, arr.size)
    dev, var = _centered(arr)
    sq = dev * dev
    # (C-1) * var_excluding_i is just the deviation sum of squares without i
    beta = np.sum(sq) - sq[i] - var
    return float(beta) if np.ndim(beta) == 0 else beta
