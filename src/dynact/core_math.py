"""Layer normalization and its analytic derivative.

All operations act on a single channel vector (one token representation of
length C >= 2) and use population statistics (divisor C). Everything is pure
and 64-bit.
"""

from __future__ import annotations

import numpy as np

# Below this variance the input is treated as constant and normalization is
# refused instead of regularized.
VAR_EPSILON = 1e-24


class DegenerateVariance(ValueError):
    """Input vector is constant or near-constant; normalization is undefined."""


class IndexOutOfRange(IndexError):
    """Channel index falls outside [0, C)."""


def as_channel_vector(x) -> np.ndarray:
    """Validate and convert to a float64 channel vector (1-D, C >= 2, finite)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D channel vector, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError("channel vector needs at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError("channel vector entries must be finite")
    return arr


def _check_index(i, c: int):
    """Validate a channel index or integer index array against [0, C).

    Negative entries are refused rather than wrapped as numpy would.
    """
    idx = np.asarray(i, dtype=np.int64)
    bad = (idx < 0) | (idx >= c)
    if np.any(bad):
        raise IndexOutOfRange(f"channel index {idx[bad].flat[0]} outside [0, {c})")
    return idx


def _centered(arr: np.ndarray) -> tuple[np.ndarray, np.floating]:
    """Deviations x - mean and population variance; refuses a (near-)constant vector."""
    dev = arr - arr.mean()
    var = np.mean(dev**2)
    if var <= VAR_EPSILON:
        raise DegenerateVariance(
            f"variance {var:.3g} is at or below the degeneracy threshold {VAR_EPSILON:.0e}"
        )
    return dev, var


def layer_norm(x) -> np.ndarray:
    """Center and scale: y_i = (x_i - mean) / sqrt(population variance)."""
    dev, var = _centered(as_channel_vector(x))
    return dev / np.sqrt(var)


def ln_derivative_analytic(x, i):
    """Closed-form d(layer_norm(x)_i)/dx_i.

    Equals F(x) * (C - 1 - y_i^2) with F(x) = 1 / (C * sqrt(variance)) and
    y = layer_norm(x). Zero exactly when y_i hits the extremum +-sqrt(C-1).
    Channel index ``i`` is 0-based: an int gives a float, an integer index
    array gives the array of derivatives at those channels.
    """
    arr = as_channel_vector(x)
    c = arr.size
    i = _check_index(i, c)
    dev, var = _centered(arr)
    sd = np.sqrt(var)
    y_i = dev[i] / sd
    d = (1.0 / (c * sd)) * (c - 1 - y_i**2)
    return float(d) if np.ndim(d) == 0 else d
