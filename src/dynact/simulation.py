"""Deterministic stepwise outlier simulation.

A Gaussian channel vector is sampled once, then its largest entry is pushed
up in fixed steps; each frame is layer-normalized, all frames in one call. The
modified channel is the labeled outlier and supplies the (x, y) points the
activation fits use.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from dynact.core_math import layer_norm
from dynact.rng import CounterRng

CSV_HEADER = ["s", "channel", "x", "y", "is_outlier"]


class EmptyOutliers(ValueError):
    """Scenario has no modified frames (s_max = 0), so no outlier points exist."""


@dataclass(frozen=True)
class SimulationConfig:
    channels: int = 100
    sigma: float = 2.0
    mu: float = 0.0
    step: float = 5.0
    s_max: int = 9
    seed: int = 0

    def __post_init__(self):
        if self.channels < 2:
            raise ValueError(f"channels must be >= 2, got {self.channels}")
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (self.step > 0):
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.s_max < 0:
            raise ValueError(f"s_max must be >= 0, got {self.s_max}")


@dataclass(frozen=True)
class OutlierScenario:
    """The base sample, the outlier channel, and (s_max + 1, C) matrices whose row s is frame s."""

    base_sample: np.ndarray
    outlier_index: int
    x: np.ndarray
    y: np.ndarray


def sample_base(config: SimulationConfig) -> np.ndarray:
    """C Gaussian draws N(mu, sigma^2) from the counter-based stream for this seed."""
    rng = CounterRng(config.seed, "sample_base")
    return config.mu + config.sigma * rng.normals(config.channels)


def run_scenario(config: SimulationConfig) -> OutlierScenario:
    """Frames s = 0..s_max; frame s has x_o = base_o + step * s, y = layer_norm(x).

    The outlier channel o is the argmax of the base sample (lowest index on
    ties) and stays fixed across frames; steps apply to the base value, not
    cumulatively.
    """
    base = sample_base(config)
    o = int(np.argmax(base))
    x = np.tile(base, (config.s_max + 1, 1))
    x[:, o] += config.step * np.arange(config.s_max + 1)
    return OutlierScenario(base_sample=base, outlier_index=o, x=x, y=layer_norm(x))


def outlier_points(scenario: OutlierScenario) -> list[tuple[float, float]]:
    """(x_o, y_o) of every modified frame s = 1..s_max, one point per frame."""
    o = scenario.outlier_index
    pts = list(zip(scenario.x[1:, o].tolist(), scenario.y[1:, o].tolist()))
    if not pts:
        raise EmptyOutliers("scenario has s_max = 0; no outlier frames")
    return pts


def scenario_to_csv(scenario: OutlierScenario) -> str:
    """Serialize as `s,channel,x,y,is_outlier` rows with round-trip float text.

    A frame's x text is the base sample's, formatted once, except on the
    channels whose bits differ from the base sample (the stepped outlier).
    """
    base = scenario.base_sample
    base_x = list(map(repr, base.tolist()))
    o = scenario.outlier_index
    blocks = [",".join(CSV_HEADER)]
    # bits, not values, so that -0.0 against 0.0 is formatted again too
    changed = scenario.x.view(np.int64) != base.view(np.int64)
    for s, x in enumerate(scenario.x):
        xs = base_x.copy()
        for k in np.flatnonzero(changed[s]).tolist():
            xs[k] = repr(x.item(k))
        y = scenario.y[s].tolist()
        rows = [f"{s},{k},{xk},{yk!r},0" for k, (xk, yk) in enumerate(zip(xs, y))]
        if s >= 1:
            rows[o] = f"{s},{o},{xs[o]},{y[o]!r},1"
        # one string per frame keeps the peak near the size of the output
        blocks.append("\n".join(rows))
    blocks.append("")
    return "\n".join(blocks)


def _raise_first_bad_row(rows: list[list[str]], first: int, types: tuple) -> None:
    """Raise the error of the first row, counted from `first`, whose width or values misfit `types`."""
    for n, row in enumerate(rows, start=first):
        if len(row) != len(types):
            raise ValueError(f"row {n}: expected {len(types)} columns, got {len(row)}")
        try:
            for convert, text in zip(types, row):
                convert(text)
        except ValueError as exc:
            raise ValueError(f"row {n}: {exc}") from exc


def read_points_csv(path: str | Path) -> tuple[list[tuple[float, float]], int | None]:
    """Read fit inputs from CSV.

    Accepts either a scenario CSV (header s,channel,x,y,is_outlier; rows with
    is_outlier=1 are taken) or a plain x,y CSV. Returns (points, channels)
    where channels is inferred from a scenario CSV and None otherwise.
    Raises ValueError with the offending row number on malformed input.
    """
    # utf-8-sig drops a byte-order mark, which would otherwise hide the header
    text = Path(path).read_text(encoding="utf-8-sig")
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    header = [h.strip().lower() for h in rows[0]]
    if header == CSV_HEADER:
        data = rows[1:]
        try:
            if not set(map(len, data)) <= {5}:
                raise ValueError("bad row width")
            deque(map(int, map(itemgetter(0), data)), maxlen=0)
            channels = max(0, max(map(int, map(itemgetter(1), data)), default=-1) + 1)
            # every x and y is converted to check it; only flagged rows keep theirs
            for k in (2, 3):
                deque(map(float, map(itemgetter(k), data)), maxlen=0)
            flags = map(int, map(itemgetter(4), data))
            points = [(float(row[2]), float(row[3])) for row in compress(data, flags)]
        except ValueError:
            # a whole-column conversion cannot say which row failed
            _raise_first_bad_row(data, 2, (int, int, float, float, int))
            raise
        return points, channels
    first, data = (2, rows[1:]) if header == ["x", "y"] else (1, rows)
    try:
        # a row of the wrong width fails to unpack
        points = [(float(x), float(y)) for x, y in data]
    except ValueError:
        _raise_first_bad_row(data, first, (float, float))
        raise
    return points, None
