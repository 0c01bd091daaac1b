"""Deterministic stepwise outlier simulation.

A Gaussian channel vector is sampled once, then its largest entry is pushed
up in fixed steps; each frame is layer-normalized, all frames in one call. The
modified channel is the labeled outlier and supplies the (x, y) points the
activation fits use.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from dynact.core_math import _INT64_MAX, _SEED_RANGE, _check_integer, layer_norm
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
        _check_integer("channels", self.channels, 2, _INT64_MAX)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        _check_integer("s_max", self.s_max, 0)
        _check_integer("seed", self.seed, *_SEED_RANGE)
        if not math.isfinite(self.step * self.s_max):
            raise ValueError(f"step * s_max must be finite, got {self.step} * {self.s_max}")


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
    The `<k>,` keys are formatted once too; a frame is one join of its pieces.
    """
    base = scenario.base_sample
    keys = [f"{k}," for k in range(base.size)]
    base_x = [f"{v!r}," for v in base.tolist()]
    o = scenario.outlier_index
    blocks = [",".join(CSV_HEADER) + "\n"]
    # bits, not values, so that -0.0 against 0.0 is formatted again too
    changed = scenario.x.view(np.int64) != base.view(np.int64)
    for s, x in enumerate(scenario.x):
        xs = base_x.copy()
        for k in np.flatnonzero(changed[s]).tolist():
            xs[k] = f"{x.item(k)!r},"
        flags = [",0\n"] * len(keys)
        if s >= 1:
            flags[o] = ",1\n"
        ys = map(repr, scenario.y[s].tolist())
        # one string per frame keeps the peak near the size of the output
        blocks.append("".join(map("".join, zip(repeat(f"{s},"), keys, xs, ys, flags))))
    return "".join(blocks)


# characters of unquoted text converted at a time; a block ends at the first line end
# this far past its start
_BLOCK = 1 << 16

# rows as scenario_to_csv writes them: digits for s and channel (at most 18, which
# int64 holds and int() accepts whatever its digit limit), the shape of a finite
# float's repr for x and y, and a 0 or 1 flag; every field converts without error.
# A row parses one way only, so the greedy repeat's match ends at the block's end
# exactly when the block fullmatches, and a block that fails does not backtrack.
_INT = "[0-9]{1,18}"
_NUM = r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?"
_ROW = f"{_INT},{_INT},{_NUM},{_NUM},[01]"
_SCENARIO_ROWS = re.compile(f"{_ROW}(?:\n{_ROW})*")


def _line_blocks(text: str, pos: int):
    """Yield text from pos on, without copying the whole text, in blocks of about _BLOCK
    characters cut at line ends; the line end at a cut and a final line end are dropped.
    """
    stop = len(text) - text.endswith("\n")
    while pos <= stop:
        end = text.find("\n", pos + _BLOCK, stop)
        if end < 0:
            end = stop
        yield text[pos:end]
        pos = end + 1


def _scenario_block(block: str) -> tuple[list[tuple[float, float]], int, int]:
    """The flagged (x, y) pairs, the largest channel and the row count of a block of
    rows that fullmatches _SCENARIO_ROWS.
    """
    data = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    # each row has four commas; its channel is the digits between the first two, read
    # right-aligned in the widest channel's width, positions before a row's channel
    # (negative ones wrap) counting 0
    commas = np.flatnonzero(data == ord(",")).reshape(-1, 4)
    start, stop = commas[:, 0] + 1, commas[:, 1]
    width = int((stop - start).max())
    at = stop[:, None] - np.arange(width, 0, -1)
    digits = np.where(at >= start[:, None], data[at].astype(np.int64) - ord("0"), 0)
    channel = int((digits @ 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)).max())
    flagged = commas[data[commas[:, 3] + 1] == ord("1"), 1:]
    points = [(float(block[a + 1:b]), float(block[b + 1:c])) for a, b, c in flagged.tolist()]
    return points, channel, len(commas)


def _row_points(rows, n: int, scenario: bool, points: list) -> tuple[int, int]:
    """Append the points of rows, the first of which is row n, to points; return the
    largest channel (-1 if none) and the number of the row after the last.

    Each row's fields convert left to right. The first bad row, or a csv.Error met
    while reading the rows, raises ValueError naming its row.
    """
    channel = -1
    try:
        if scenario:
            for row in rows:
                s, c, x, y, flag = row
                int(s)
                if (c := int(c)) < 0:
                    raise ValueError(f"channel must be >= 0, got {row[1]!r}")
                x, y = float(x), float(y)
                if (f := int(flag)) == 1:
                    points.append((x, y))
                elif f != 0:
                    raise ValueError(f"is_outlier must be 0 or 1, got {flag!r}")
                if c > channel:
                    channel = c
                n += 1
        else:
            for row in rows:
                x, y = row
                points.append((float(x), float(y)))
                n += 1
    except csv.Error as exc:
        raise ValueError(f"row {n}: {exc}") from exc
    except ValueError as exc:
        width = 5 if scenario else 2
        message = exc if len(row) == width else f"expected {width} columns, got {len(row)}"
        raise ValueError(f"row {n}: {message}") from exc
    return channel, n


def read_points_csv(path: str | Path) -> tuple[list[tuple[float, float]], int | None]:
    """Read fit inputs from CSV.

    Accepts either a scenario CSV (header s,channel,x,y,is_outlier; rows with
    is_outlier=1 are taken, and is_outlier must be 0 or 1) or a plain x,y CSV
    with or without its header. Returns (points, channels) where channels is
    inferred from a scenario CSV and None otherwise. Raises ValueError with
    the offending row number on malformed input.
    """
    # utf-8-sig drops a byte-order mark, which would otherwise hide the header
    text = Path(path).read_text(encoding="utf-8-sig")
    if not text:
        raise ValueError("empty CSV")
    # read_text's universal newlines leave no CR, so without quotes csv.reader's rows
    # are exactly the lines cut at commas; quoted text is streamed through csv.reader
    plain = '"' not in text
    if plain:
        end = text.find("\n")
        if end < 0:
            end = len(text)
        header = text[:end].split(",")
    else:
        rows = csv.reader(io.StringIO(text))
        try:
            header = next(rows)
        except csv.Error as exc:
            raise ValueError(f"row 1: {exc}") from exc
    names = [h.strip().lower() for h in header]
    scenario = names == CSV_HEADER
    n = 2 if scenario or names == ["x", "y"] else 1
    points = []
    if not plain:
        channel, n = _row_points(rows if n == 2 else chain([header], rows), n, scenario, points)
    else:
        channel = -1
        for block in _line_blocks(text, 0 if n == 1 else end + 1):
            if scenario and (match := _SCENARIO_ROWS.match(block)) and match.end() == len(block):
                block_points, block_channel, count = _scenario_block(block)
                points.extend(block_points)
                n += count
            else:
                # csv.reader reads a blank line as a row of no fields
                lines = (line.split(",") if line else [] for line in block.split("\n"))
                block_channel, n = _row_points(lines, n, scenario, points)
            channel = max(channel, block_channel)
    return points, channel + 1 if scenario else None
