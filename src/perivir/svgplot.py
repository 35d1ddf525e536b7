"""Minimal self-contained SVG line and phase plots (no plotting dependency).

Each panel is one set of axes with 1-2-5 tick spacing, polyline series,
and an inline legend. Output is deterministic: floats are formatted with
a fixed precision so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "Panel", "render_panels", "write_panels"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 64.0
_MARGIN_R = 14.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0
_PANEL_W = 420.0
_PANEL_H = 300.0
_TICK_TARGET = 5


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""


@dataclass(frozen=True)
class Panel:
    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...] = field(default_factory=tuple)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


_point = "{:.6g},{:.6g}".format  # one polyline point "x,y", each as _fmt writes it


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0]
    if hi <= lo:
        hi = lo + max(1.0, abs(lo)) * 1e-3
    raw = (hi - lo) / _TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 0.5 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:  # a step under half an ulp of v: a range of an ulp or two
            break
        v += step
    return ticks


def _panel_svg(panel: Panel, x0: float, y0: float) -> list[str]:
    xs = [s for s in panel.series if len(s.x)]
    if xs:
        x_lo = min(float(np.min(s.x)) for s in xs)
        x_hi = max(float(np.max(s.x)) for s in xs)
        y_lo = min(float(np.min(s.y)) for s in xs)
        y_hi = max(float(np.max(s.y)) for s in xs)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if y_hi <= y_lo:
        pad = max(1.0, abs(y_lo)) * 1e-3
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    px0, py0 = x0 + _MARGIN_L, y0 + _MARGIN_T
    pw, ph = _PANEL_W - _MARGIN_L - _MARGIN_R, _PANEL_H - _MARGIN_T - _MARGIN_B

    def tx(v):
        return px0 + (v - x_lo) / (x_hi - x_lo) * pw

    def ty(v):
        return py0 + ph - (v - y_lo) / (y_hi - y_lo) * ph

    out = [f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
           'fill="white" stroke="#444444" stroke-width="1"/>']
    out.append(f'<text x="{_fmt(px0 + pw / 2)}" y="{_fmt(y0 + 20)}" text-anchor="middle" '
               f'font-size="13" font-weight="bold">{panel.title}</text>')

    for v in _nice_ticks(x_lo, x_hi):
        px = tx(v)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(py0 + ph)}" x2="{_fmt(px)}" '
                   f'y2="{_fmt(py0 + ph + 4)}" stroke="#444444"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(py0 + ph + 16)}" text-anchor="middle" '
                   f'font-size="10">{_fmt(v)}</text>')
    for v in _nice_ticks(y_lo, y_hi):
        py = ty(v)
        out.append(f'<line x1="{_fmt(px0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(px0)}" '
                   f'y2="{_fmt(py)}" stroke="#444444"/>')
        out.append(f'<text x="{_fmt(px0 - 6)}" y="{_fmt(py + 3)}" text-anchor="end" '
                   f'font-size="10">{_fmt(v)}</text>')

    out.append(f'<text x="{_fmt(px0 + pw / 2)}" y="{_fmt(py0 + ph + 32)}" text-anchor="middle" '
               f'font-size="11">{panel.x_label}</text>')
    out.append(f'<text x="{_fmt(x0 + 14)}" y="{_fmt(py0 + ph / 2)}" text-anchor="middle" '
               f'font-size="11" transform="rotate(-90 {_fmt(x0 + 14)} {_fmt(py0 + ph / 2)})">'
               f'{panel.y_label}</text>')

    for i, s in enumerate(panel.series):
        color = PALETTE[i % len(PALETTE)]
        # tx and ty on whole arrays run their operations in order, so each point has their bits
        px = tx(np.asarray(s.x, dtype=float)).tolist()
        py = ty(np.asarray(s.y, dtype=float)).tolist()
        pts = " ".join(map(_point, px, py))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        if s.label:
            lx = px0 + pw - 8
            ly = py0 + 14 + 13 * i
            out.append(f'<line x1="{_fmt(lx - 40)}" y1="{_fmt(ly - 3)}" x2="{_fmt(lx - 24)}" '
                       f'y2="{_fmt(ly - 3)}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{_fmt(lx - 20)}" y="{_fmt(ly)}" font-size="10" '
                       f'text-anchor="start">{s.label}</text>')
    return out


def render_panels(panels, n_cols: int = 2) -> str:
    """Lay panels out in a grid and return the full SVG document."""
    panels = list(panels)
    n = len(panels)
    n_cols = max(1, min(n_cols, n))
    n_rows = (n + n_cols - 1) // n_cols
    width = n_cols * _PANEL_W
    height = n_rows * _PANEL_H
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        'font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]
    for idx, panel in enumerate(panels):
        r, c = divmod(idx, n_cols)
        parts.extend(_panel_svg(panel, c * _PANEL_W, r * _PANEL_H))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_panels(path, panels, n_cols: int = 2) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_panels(panels, n_cols=n_cols))
