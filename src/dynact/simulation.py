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
from itertools import chain, compress, repeat
from pathlib import Path

import numpy as np

from dynact.core_math import _check_integer, layer_norm
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
        _check_integer("channels", self.channels, 2)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        _check_integer("s_max", self.s_max, 0)
        _check_integer("seed", self.seed)
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


def _channel(text: str) -> int:
    channel = int(text)
    if channel < 0:
        raise ValueError(f"channel must be >= 0, got {text!r}")
    return channel


def _flag(text: str) -> int:
    flag = int(text)
    if flag not in (0, 1):
        raise ValueError(f"is_outlier must be 0 or 1, got {text!r}")
    return flag


# the converter of each column, and the index of y, whose texts rarely repeat; x is the
# column before y
_SCENARIO_COLUMNS = (int, _channel, float, float, _flag), 3
_XY_COLUMNS = (float, float), 1

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


def _reader_rows(text: str) -> list[list[str]]:
    """csv.reader's rows of text; a csv.Error becomes a ValueError naming its row."""
    rows = []
    try:
        rows.extend(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"row {len(rows) + 1}: {exc}") from exc
    return rows


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


def _columns(rows: list, width: int, plain: bool) -> list[list[str]] | None:
    """The `width` columns of rows, or None if some row has another width.

    Plain rows are lines not yet cut at their commas.
    """
    if plain:
        if any(line.count(",") != width - 1 for line in rows):
            return None
        flat = ",".join(rows).split(",") if rows else []
    else:
        if any(len(row) != width for row in rows):
            return None
        flat = list(chain.from_iterable(rows))
    return [flat[k::width] for k in range(width)]


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
    # are exactly the lines cut at commas; quoted text is read whole, so that a
    # csv.Error is raised before any value
    plain = '"' not in text
    if plain:
        end = text.find("\n")
        if end < 0:
            end = len(text)
        header = text[:end].split(",")
    else:
        rows = _reader_rows(text)
        header = rows[0]
    header = [h.strip().lower() for h in header]
    scenario = header == CSV_HEADER
    types, y = _SCENARIO_COLUMNS if scenario else _XY_COLUMNS
    first = 2 if scenario or header == ["x", "y"] else 1
    blocks = _line_blocks(text, 0 if first == 1 else end + 1) if plain else [rows[first - 1:]]
    # every column but y converts each distinct text once, in tables kept across blocks:
    # a scenario CSV repeats its s, channel, flag and (the base sample's) x texts
    tables = [{} for _ in types]
    points = []
    channel = -1
    for block in blocks:
        if plain and scenario and (match := _SCENARIO_ROWS.match(block)) and match.end() == len(block):
            block_points, block_channel, count = _scenario_block(block)
            points.extend(block_points)
            channel = max(channel, block_channel)
            first += count
            continue
        rows = block.split("\n") if plain else block
        columns = _columns(rows, len(types), plain)
        try:
            if columns is None:
                raise ValueError("bad row width")
            for k, (convert, column, table) in enumerate(zip(types, columns, tables)):
                if k != y:
                    table.update((text, convert(text)) for text in set(column).difference(table))
            pairs = zip(map(tables[y - 1].__getitem__, columns[y - 1]), map(float, columns[y]))
            points.extend(compress(pairs, map(tables[-1].__getitem__, columns[-1])) if scenario else pairs)
        except ValueError:
            # a whole-column conversion cannot say which row failed
            if plain:
                # csv.reader reads a blank line as a row of no fields
                rows = [line.split(",") if line else [] for line in rows]
            _raise_first_bad_row(rows, first, types)
            raise
        first += len(rows)
    if not scenario:
        return points, None
    return points, max(channel, max(tables[1].values(), default=-1)) + 1
