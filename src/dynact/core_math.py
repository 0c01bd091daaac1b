"""Layer normalization and its analytic derivative.

All operations act on channel vectors (one token representation of length
C >= 2) along the last axis, so each row of a (..., C) stack gets the bits of
the 1-D call, and use population statistics (divisor C). Pure and 64-bit.
"""

from __future__ import annotations

import numpy as np

# Below this variance the input is treated as constant and normalization is
# refused instead of regularized.
VAR_EPSILON = 1e-24

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1  # the range of integer fields numpy computes with
_SEED_RANGE = (_INT64_MIN, (1 << 64) - 1)  # int64 and uint64 seeds; a negative seed s draws the streams of s + 2**64


class DegenerateVariance(ValueError):
    """Input vector is constant or near-constant; normalization is undefined."""


class IndexOutOfRange(IndexError):
    """Channel index falls outside [0, C)."""


def as_channel_vector(x) -> np.ndarray:
    """Validate and convert to float64 channel vectors (..., C), C >= 2, all finite."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim < 1 or arr.shape[-1] < 2:
        raise ValueError(f"channel vectors need at least 2 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("channel vector entries must be finite")
    return arr


def _check_integer(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Refuse a non-integer value (numpy integers pass) or one outside [low, high], by a ValueError naming the field."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def _check_index(i, c: int):
    """Validate a channel index or integer index array against [0, C).

    Negative entries are refused rather than wrapped as numpy would, and so is
    a float, bool or string index; an empty index list gives an empty array.
    """
    idx = np.asarray(i)
    if idx.dtype.kind not in "iu" and idx.size:
        raise IndexOutOfRange(f"channel index {i!r} is not an integer")
    bad = (idx < 0) | (idx >= c)
    if bad.any():
        raise IndexOutOfRange(f"channel index {idx[bad].flat[0]} outside [0, {c})")
    return idx.astype(np.int64, copy=False)


def _row_mean(arr: np.ndarray, keepdims: bool = True) -> np.ndarray:
    """Means over the last axis with np.mean's bits (row sum, then / C), without its Python overhead."""
    return np.add.reduce(arr, axis=-1, keepdims=keepdims) / arr.shape[-1]


def _nondegenerate(var: np.ndarray) -> np.ndarray:
    """The row variances var, unless one is at or below VAR_EPSILON (a (near-)constant row)."""
    if (var <= VAR_EPSILON).any():
        raise DegenerateVariance(f"variance {np.min(var):.3g} is at or below the degeneracy threshold {VAR_EPSILON:.0e}")
    return var


def _centered(arr: np.ndarray, keepdims: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Row deviations x - mean and population variances, computed nowhere else; refuses nothing."""
    dev = arr - _row_mean(arr)
    return dev, _row_mean(dev**2, keepdims)


def layer_norm(x) -> np.ndarray:
    """Center and scale: y_i = (x_i - mean) / sqrt(population variance)."""
    dev, var = _centered(as_channel_vector(x))
    # dev is _centered's own array, so it takes the result
    return np.divide(dev, np.sqrt(_nondegenerate(var)), out=dev)


def ln_derivative_analytic(x, i):
    """Closed-form d(layer_norm(x)_i)/dx_i.

    Equals F(x) * (C - 1 - y_i^2) with F(x) = 1 / (C * sqrt(variance)) and
    y = layer_norm(x). Zero exactly when y_i hits the extremum +-sqrt(C-1).
    Channel index ``i`` is 0-based: an int on one vector gives a float, an
    integer index array gives the derivatives at those channels of each row.
    """
    arr = as_channel_vector(x)
    c = arr.shape[-1]
    i = _check_index(i, c)
    dev, var = _centered(arr, keepdims=i.ndim > 0)
    sd = np.sqrt(_nondegenerate(var))
    y_i = dev[..., i] / sd
    d = (1.0 / (c * sd)) * (c - 1 - y_i**2)
    return float(d) if np.ndim(d) == 0 else d
