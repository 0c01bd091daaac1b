"""Minimal deterministic SVG scatter/line plots.

Fixed 800x600 viewport, linear axes auto-ranged with 5% padding, data as
circles (filled or empty) and curves as polylines. Output is presentational;
the CSV artifacts next to each figure are the golden data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

WIDTH = 800
HEIGHT = 600
MARGIN = dict(left=70, right=20, top=40, bottom=50)

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


@dataclass(frozen=True)
class Scatter:
    xs: tuple
    ys: tuple
    filled: bool = True
    color: str = "#1f77b4"
    label: str = ""


@dataclass(frozen=True)
class Curve:
    xs: tuple
    ys: tuple
    color: str = "#d62728"
    dashed: bool = False
    label: str = ""


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    series: list = field(default_factory=list)
    hlines: list = field(default_factory=list)  # y values of dashed horizontal lines


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """lo, hi; a zero-width range widens by 0.5, or by one float spacing where 0.5 would vanish."""
    if lo != hi:
        return lo, hi
    w = max(0.5, math.ulp(lo))
    return lo - w, hi + w


def _data_bounds(panel: Panel) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for s in panel.series:
        xs.extend(s.xs)
        ys.extend(s.ys)
    ys.extend(panel.hlines)
    if not xs or not ys:
        return 0.0, 1.0, 0.0, 1.0
    x0, x1 = _widened(min(xs), max(xs))
    y0, y1 = _widened(min(ys), max(ys))
    px, py = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    return x0 - px, x1 + px, y0 - py, y1 + py


def _ticks(lo: float, hi: float, axis: str) -> list[float]:
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"the {axis} axis spans [{lo:g}, {hi:g}], wider than the float range")
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:
            # the step is below half the float spacing at t, so no later tick exists
            break
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _text(x: float, y: float, body: str, size: int, anchor: str = "middle", extra: str = "") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" font-size="{size}" '
        f'font-family="sans-serif"{extra}>{body}</text>'
    )


def _render_panel(panel: Panel, y_off: float, height: float) -> list[str]:
    x0, x1, y0, y1 = _data_bounds(panel)
    inner_w = WIDTH - MARGIN["left"] - MARGIN["right"]
    inner_h = height - MARGIN["top"] - MARGIN["bottom"]
    ox = MARGIN["left"]
    oy = y_off + MARGIN["top"]

    def sx(x: float) -> float:
        return ox + (x - x0) / (x1 - x0) * inner_w

    def sy(y: float) -> float:
        return oy + inner_h - (y - y0) / (y1 - y0) * inner_h

    parts = [
        f'<rect x="{ox:.2f}" y="{oy:.2f}" width="{inner_w:.2f}" height="{inner_h:.2f}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        _text(ox + inner_w / 2, y_off + 24, panel.title, 15),
    ]
    for t in _ticks(x0, x1, "x"):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{oy + inner_h:.2f}" x2="{sx(t):.2f}" '
            f'y2="{oy + inner_h + 5:.2f}" stroke="#333"/>'
        )
        parts.append(_text(sx(t), oy + inner_h + 18, _fmt(t), 11))
    for t in _ticks(y0, y1, "y"):
        parts.append(
            f'<line x1="{ox - 5:.2f}" y1="{sy(t):.2f}" x2="{ox:.2f}" y2="{sy(t):.2f}" stroke="#333"/>'
        )
        parts.append(_text(ox - 8, sy(t) + 4, _fmt(t), 11, anchor="end"))
    parts.append(_text(ox + inner_w / 2, oy + inner_h + 38, panel.xlabel, 13))
    cx, cy = 18, oy + inner_h / 2
    parts.append(_text(cx, cy, panel.ylabel, 13, extra=f' transform="rotate(-90 {cx:.2f} {cy:.2f})"'))
    for y in panel.hlines:
        parts.append(
            f'<line x1="{ox:.2f}" y1="{sy(y):.2f}" x2="{ox + inner_w:.2f}" y2="{sy(y):.2f}" '
            f'stroke="#777" stroke-width="1" stroke-dasharray="6 4"/>'
        )
    legend_y = oy + 16
    for s in panel.series:
        if isinstance(s, Curve):
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.xs, s.ys))
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{s.color}" stroke-width="1.5"{dash}/>'
            )
        else:
            fill = s.color if s.filled else "none"
            for x, y in zip(s.xs, s.ys):
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4.0" '
                    f'fill="{fill}" stroke="{s.color}" stroke-width="1"/>'
                )
        if s.label:
            parts.append(
                _text(ox + inner_w - 8, legend_y, s.label, 12, anchor="end", extra=f' fill="{s.color}"')
            )
            legend_y += 15
    return parts


def render_figure(panels: list[Panel]) -> str:
    """Render panels stacked vertically into one SVG document."""
    panel_h = HEIGHT / len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for k, panel in enumerate(panels):
        parts.extend(_render_panel(panel, k * panel_h, panel_h))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def color_cycle(i: int) -> str:
    return _COLORS[i % len(_COLORS)]
