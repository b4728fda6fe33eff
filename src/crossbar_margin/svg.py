"""Self-contained SVG line charts, written by hand for byte determinism.

A plotting library would drag in raster backends and embed metadata that
changes run to run; these charts are plain text, diff cleanly, and are
cheap to golden-test.  Layout is fixed: plot area on the left, legend
column on the right, log x axis (decade ticks), linear y axis.  The y
axis follows the curves' y_kind: "margin" curves get "normalized margin"
on 0..1, "delta" curves "margin gain" on their data range padded by 5 %.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import MarginCurve
from .results import _grid_text, write_text

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#17becf",
    "#bcbd22",
)

WIDTH, HEIGHT = 760, 480
LEFT, RIGHT, TOP, BOTTOM = 70, 545, 46, 425


def _nice_ticks(lo: float, hi: float) -> list[float]:  # at most five, for lo < hi
    span = hi - lo
    mag = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mag * mult
        if span / step <= 5:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def escape(text: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_plot(
    curves: Sequence[MarginCurve],
    path: str | Path,
    *,
    title: str = "",
    x_label: str = "",
    marker_labels: Iterable[str] = (),
    dash_labels: Iterable[str] = (),
) -> None:
    """Render curves into one SVG file.

    Curves named in marker_labels are drawn as point markers (no line),
    those in dash_labels with a dashed stroke.  The curves share one
    y_kind, which sets the y axis (module docstring).  A curve's x Grid gets its
    pixel x texts and polyline template "x0,%.2f x1,%.2f ..." once per process and
    x axis range; a curve's points are one template % its pixel ys.
    Every pixel y of a plot comes from one numpy pass, in the per-point
    expression's order of operations, so each is the float it gives.
    """
    if not curves:
        raise ValueError("render_plot needs at least one curve")
    kinds = sorted({c.y_kind for c in curves})
    if len(kinds) > 1:
        raise ValueError(f"render_plot cannot mix y kinds, got {kinds}")
    marker_labels = set(marker_labels)
    dash_labels = set(dash_labels)

    # every curve's x is strictly increasing: its ends are its extremes
    x_lo, x_hi = min(c.x[0] for c in curves), max(c.x[-1] for c in curves)
    if x_lo <= 0:
        raise ValueError("log x axis requires positive x values")
    tx_lo, tx_hi = math.log10(x_lo), math.log10(x_hi)
    if tx_hi == tx_lo:
        tx_lo, tx_hi = tx_lo - 0.5, tx_hi + 0.5

    if kinds == ["margin"]:  # margins lie in (0, model._MARGIN_MAX]: under 4e-7 px above the frame
        y_label, y_min, y_max = "normalized margin", 0.0, 1.0
    else:
        data_lo, data_hi = min(min(c.y) for c in curves), max(max(c.y) for c in curves)
        pad = 0.05 * (data_hi - data_lo) or max(abs(data_hi) * 0.1, 1e-6)
        y_label, y_min, y_max = "margin gain", data_lo - pad, data_hi + pad

    x_span, y_span = tx_hi - tx_lo, y_max - y_min

    def px(xs: Iterable[float]) -> list[float]:
        return [LEFT + (t - tx_lo) / x_span * (RIGHT - LEFT) for t in map(math.log10, xs)]

    def x_text(grid):  # its pixel x texts and polyline template: the x axis sets them
        xs = tuple(map("{:.2f}".format, px(grid)))  # shared by later plots: kept immutable
        return xs, " ".join([x + ",%.2f" for x in xs])

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{(LEFT + RIGHT) / 2:.0f}" y="24" text-anchor="middle" '
            f'font-size="15">{escape(title)}</text>'
        )

    # axes frame
    out.append(
        f'<rect x="{LEFT}" y="{TOP}" width="{RIGHT - LEFT}" height="{BOTTOM - TOP}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    # x ticks, one per decade
    ticks = [
        (10.0**d, f"1e{d}")
        for d in range(math.ceil(tx_lo - 1e-9), math.floor(tx_hi + 1e-9) + 1)
    ]
    if not ticks:
        ticks = [(10.0**tx_lo, f"{10.0 ** tx_lo:g}"), (10.0**tx_hi, f"{10.0 ** tx_hi:g}")]
    for x, (_, label) in zip(px(value for value, _ in ticks), ticks):
        out.append(
            f'<line x1="{x:.2f}" y1="{BOTTOM}" x2="{x:.2f}" y2="{BOTTOM + 5}" '
            f'stroke="#333333"/>'
        )
        out.append(
            f'<line x1="{x:.2f}" y1="{TOP}" x2="{x:.2f}" y2="{BOTTOM}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{BOTTOM + 18}" text-anchor="middle" '
            f'font-size="11">{escape(label)}</text>'
        )

    # y ticks, and the pixel y of every tick and curve point in one pass (docstring)
    y_ticks = _nice_ticks(y_min, y_max)
    pixel_ys = (BOTTOM - (np.concatenate([y_ticks, *(c.y for c in curves)]) - y_min) / y_span
                * (BOTTOM - TOP)).tolist()
    for y, t in zip(pixel_ys, y_ticks):
        out.append(
            f'<line x1="{LEFT - 5}" y1="{y:.2f}" x2="{LEFT}" y2="{y:.2f}" '
            f'stroke="#333333"/>'
        )
        out.append(
            f'<line x1="{LEFT}" y1="{y:.2f}" x2="{RIGHT}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{LEFT - 9}" y="{(y + 4):.2f}" text-anchor="end" '
            f'font-size="11">{t:g}</text>'
        )

    if x_label:
        out.append(
            f'<text x="{(LEFT + RIGHT) / 2:.0f}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-size="12">{escape(x_label)}</text>'
        )
    out.append(
        f'<text x="18" y="{(TOP + BOTTOM) / 2:.0f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 18 {(TOP + BOTTOM) / 2:.0f})">'
        f"{y_label}</text>"
    )

    # curves, inside the frame by construction of the y bounds, then their legend
    legend = []
    end = len(y_ticks)
    for idx, curve in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        xs, template = _grid_text(curve.x, (tx_lo, tx_hi), x_text)
        ys = pixel_ys[end : end + len(curve.y)]
        end += len(curve.y)
        y = TOP + 10 + idx * 18
        if curve.label in marker_labels:
            circle = f'<circle cx="{{}}" cy="{{:.2f}}" r="3" fill="{color}"/>'
            out.extend(map(circle.format, xs, ys))
            legend.append(f'<circle cx="{RIGHT + 18}" cy="{y}" r="3" fill="{color}"/>')
        else:
            dash = ' stroke-dasharray="6 3"' if curve.label in dash_labels else ""
            out.append(
                f'<polyline points="{template % tuple(ys)}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>'
            )
            legend.append(
                f'<line x1="{RIGHT + 10}" y1="{y}" x2="{RIGHT + 26}" y2="{y}" '
                f'stroke="{color}" stroke-width="1.5"{dash}/>'
            )
        legend.append(
            f'<text x="{RIGHT + 32}" y="{y + 4}" font-size="11">'
            f"{escape(curve.label)}</text>"
        )
    out += legend

    out.append("</svg>")
    write_text(path, "\n".join(out) + "\n")
