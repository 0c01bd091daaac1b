"""Closed-form dynamic activation functions.

Scaled DyT and the DyISRU family are the element-wise counterparts of layer
normalization: both saturate at +-sqrt(C-1) for a C-channel vector. All
functions accept scalars or numpy arrays in ``x`` and broadcast element-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dynact.core_math import as_channel_vector, _centered, _check_index, _check_integer

# Floor for a channel-exact beta, as a multiple of the row's population variance:
# beta = 0 is analytically valid but collapses DyISRU to a step, and an absolute
# floor can be above rounding on a narrow row.
BETA_MIN = 1e-18


@dataclass(frozen=True)
class DyTParams:
    """Finite slope alpha > 0 and channel count C >= 2 for scaled DyT."""

    alpha: float
    channels: int

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        _check_integer("channels", self.channels, 2)


@dataclass(frozen=True)
class DyISRUParams:
    """Finite denominator offset beta > 0, channel count C >= 2, and center mu.

    ``beta`` and ``mu`` are scalars or arrays that broadcast against x, e.g. a
    per-channel beta or a (k, 1) mu for a (k, C) stack. Params are equal when
    channels, beta and mu (shape and values) are, so a scalar never equals an array.
    """

    beta: float | np.ndarray
    channels: int
    mu: float | np.ndarray = 0.0

    def __post_init__(self):
        beta = np.asarray(self.beta)
        if not ((beta > 0) & (beta < np.inf)).all():
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        _check_integer("channels", self.channels, 2)

    def _key(self) -> tuple:
        # beta > 0 rules out NaN and -0.0, so equal bytes means equal values
        beta = np.asarray(self.beta, dtype=np.float64)
        return (beta.shape, beta.tobytes(), self.channels, np.shape(self.mu), *np.ravel(self.mu).tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _dyt(x, alpha, root, slope=False):
    """root * tanh(z), z = alpha * x; with slope also its log-alpha derivative root * z * sech(z)^2."""
    z = alpha * x
    if slope:  # 4e / (1+e)^2, e = exp(-2|z|), keeps its sign where tanh rounds to +-1 and C-1 - y^2 is noise
        e = np.exp(-2.0 * np.abs(z))
        return root * np.tanh(z), root * z * (4.0 * e / (1.0 + e) ** 2)
    return root * np.tanh(z)


def _dyisru(u, beta, root, slope=False):
    """y = root * u / sqrt(beta + u^2); with slope also its log-beta derivative -beta y / (2 (beta + u^2))."""
    d = beta + u * u
    y = root * u / np.sqrt(d)
    return (y, -beta * y / (2.0 * d)) if slope else y


def scaled_dyt(x, p: DyTParams):
    """sqrt(C-1) * tanh(alpha * x): odd, strictly increasing, |.| < sqrt(C-1)."""
    return _dyt(np.asarray(x, dtype=np.float64), p.alpha, math.sqrt(p.channels - 1))


def dyisru(x, p: DyISRUParams):
    """sqrt(C-1) * (x - mu) / sqrt(beta + (x - mu)^2); mu = 0 is the outlier form."""
    return _dyisru(np.asarray(x, dtype=np.float64) - p.mu, p.beta, math.sqrt(p.channels - 1))


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
    integration constant); may be exactly 0 (always at C = 2), so floor it at
    BETA_MIN times the row's population variance before building DyISRUParams
    from it, as verification's check 4 does. An int ``i`` on one vector gives
    a float, an integer index array the betas at those channels of each row of a
    (..., C) x. A (near-)constant vector raises DegenerateVariance.
    """
    arr = as_channel_vector(x)
    i = _check_index(i, arr.shape[-1])
    dev, var = _centered(arr, keepdims=i.ndim > 0)
    sq = dev * dev
    # (C-1) * var_excluding_i is just the deviation sum of squares without i
    beta = np.add.reduce(sq, axis=-1, keepdims=i.ndim > 0) - sq[..., i] - var
    return float(beta) if np.ndim(beta) == 0 else beta
