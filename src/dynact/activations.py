"""Closed-form dynamic activation functions.

Scaled DyT and the DyISRU family are the element-wise counterparts of layer
normalization: both saturate at +-sqrt(C-1) for a C-channel vector. All
functions accept scalars or numpy arrays in ``x`` and broadcast element-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from dynact.core_math import _INT64_MAX, as_channel_vector, _centered, _check_index, _check_integer, _nondegenerate

# Floor for a channel-exact beta, as a multiple of the row's population variance:
# beta = 0 is analytically valid but collapses DyISRU to a step, and an absolute
# floor can be above rounding on a narrow row.
BETA_MIN = 1e-18


class _Params:
    """Equality and hashing by the shape and values of every field, so a scalar never equals an array."""

    def _key(self) -> tuple:
        # fields > 0 and a finite mu rule out NaN, and -0.0 == 0.0 hash alike, so equal values mean equal keys
        return tuple((np.shape(v), *np.ravel(v).tolist()) for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class DyTParams(_Params):
    """Finite slope alpha > 0 and channel count C >= 2 for scaled DyT, each broadcasting as in DyISRUParams."""

    alpha: float | np.ndarray
    channels: int | np.ndarray

    def __post_init__(self):
        _check_positive("alpha", self.alpha)
        _check_channels(self.channels)


@dataclass(frozen=True, eq=False)
class DyISRUParams(_Params):
    """Finite denominator offset beta > 0, channel count C >= 2, and finite center mu.

    Each is a scalar or an array that broadcasts against x, e.g. a per-channel beta, a
    (k, 1) mu for a (k, C) stack or one C per entry of x.
    """

    beta: float | np.ndarray
    channels: int | np.ndarray
    mu: float | np.ndarray = 0.0

    def __post_init__(self):
        _check_positive("beta", self.beta)
        _check_channels(self.channels)
        if not (np.size(self.mu) and np.isfinite(self.mu).all()):  # an empty mu is refused too
            raise ValueError(f"mu must be finite, got {self.mu}")


def _check_channels(channels) -> None:
    """Refuse a channel count (or array) that is empty or has an entry not an integer in [2, 2**63 - 1]."""
    c = np.ravel(channels).tolist() or [channels]  # a float array's entries stay floats; [] is no integer
    for v in (min(c), max(c)):
        _check_integer("channels", v, 2, _INT64_MAX)


def _check_positive(name: str, value) -> None:
    """Refuse a value (or array) that is empty or has an entry not finite and > 0, by a ValueError naming the field."""
    if not (np.size(value) and (np.isfinite(value) & np.greater(value, 0)).all()):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


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
    return _dyt(np.asarray(x, dtype=np.float64), p.alpha, np.sqrt(np.asarray(p.channels) - 1))


def dyisru(x, p: DyISRUParams):
    """sqrt(C-1) * (x - mu) / sqrt(beta + (x - mu)^2); mu = 0 is the outlier form."""
    return _dyisru(np.asarray(x, dtype=np.float64) - p.mu, p.beta, np.sqrt(np.asarray(p.channels) - 1))


def isru(x, alpha):
    """Inverse square root unit x / sqrt(1 + alpha * x^2), alpha finite and > 0 (or such an array)."""
    _check_positive("alpha", alpha)
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
    beta = np.add.reduce(sq, axis=-1, keepdims=i.ndim > 0) - sq[..., i] - _nondegenerate(var)
    return float(beta) if np.ndim(beta) == 0 else beta
