"""Point-by-point SVG renderer: one px/py/_fmt call per drawn point.

The reference form of svg.render_plot, which transforms and formats each
curve's coordinates a whole column at a time; the tests check that both
write the same bytes.
"""

import math
from pathlib import Path
from typing import Iterable, Sequence
from xml.sax.saxutils import escape

from crossbar_margin.svg import (
    BOTTOM,
    HEIGHT,
    LEFT,
    PALETTE,
    RIGHT,
    TOP,
    WIDTH,
    _nice_ticks,
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_plot_reference(
    curves: Sequence,
    path: str | Path,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    y_min: float | None = None,
    y_max: float | None = None,
    marker_labels: Iterable[str] = (),
    dash_labels: Iterable[str] = (),
) -> None:
    """Render curves into one SVG file.

    Curves named in marker_labels are drawn as point markers (no line),
    those in dash_labels with a dashed stroke.  y bounds default to the
    data range with 5 % padding; margin plots typically pin them to 0..1.
    """
    if not curves:
        raise ValueError("render_plot needs at least one curve")
    marker_labels = set(marker_labels)
    dash_labels = set(dash_labels)

    xs = [x for c in curves for x in c.x]
    ys = [y for c in curves for y in c.y]
    if min(xs) <= 0:
        raise ValueError("log x axis requires positive x values")
    tx_lo, tx_hi = math.log10(min(xs)), math.log10(max(xs))
    if tx_hi == tx_lo:
        tx_lo, tx_hi = tx_lo - 0.5, tx_hi + 0.5

    data_lo, data_hi = min(ys), max(ys)
    if y_min is None:
        pad = 0.05 * (data_hi - data_lo) or max(abs(data_hi) * 0.1, 1e-6)
        y_min = data_lo - pad
    if y_max is None:
        pad = 0.05 * (data_hi - data_lo) or max(abs(data_hi) * 0.1, 1e-6)
        y_max = data_hi + pad
    if y_max <= y_min:
        y_max = y_min + 1.0

    def px(x: float) -> float:
        return LEFT + (math.log10(x) - tx_lo) / (tx_hi - tx_lo) * (RIGHT - LEFT)

    def py(y: float) -> float:
        return BOTTOM - (y - y_min) / (y_max - y_min) * (BOTTOM - TOP)

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

    # x ticks
    ticks = [
        (10.0**d, f"1e{d}")
        for d in range(math.ceil(tx_lo - 1e-9), math.floor(tx_hi + 1e-9) + 1)
    ]
    if not ticks:
        ticks = [(10.0**tx_lo, f"{10.0 ** tx_lo:g}"), (10.0**tx_hi, f"{10.0 ** tx_hi:g}")]
    for value, label in ticks:
        x = px(value)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{BOTTOM}" x2="{_fmt(x)}" y2="{BOTTOM + 5}" '
            f'stroke="#333333"/>'
        )
        out.append(
            f'<line x1="{_fmt(x)}" y1="{TOP}" x2="{_fmt(x)}" y2="{BOTTOM}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{BOTTOM + 18}" text-anchor="middle" '
            f'font-size="11">{escape(label)}</text>'
        )

    # y ticks
    for t in _nice_ticks(y_min, y_max):
        y = py(t)
        out.append(
            f'<line x1="{LEFT - 5}" y1="{_fmt(y)}" x2="{LEFT}" y2="{_fmt(y)}" '
            f'stroke="#333333"/>'
        )
        out.append(
            f'<line x1="{LEFT}" y1="{_fmt(y)}" x2="{RIGHT}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{LEFT - 9}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11">{t:g}</text>'
        )

    if x_label:
        out.append(
            f'<text x="{(LEFT + RIGHT) / 2:.0f}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-size="12">{escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="18" y="{(TOP + BOTTOM) / 2:.0f}" text-anchor="middle" '
            f'font-size="12" transform="rotate(-90 18 {(TOP + BOTTOM) / 2:.0f})">'
            f"{escape(y_label)}</text>"
        )

    # curves, clipped to the frame only by construction of the data ranges
    for idx, curve in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(px(x), py(min(max(y, y_min), y_max))) for x, y in zip(curve.x, curve.y)]
        if curve.label in marker_labels:
            for x, y in pts:
                out.append(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>'
                )
        else:
            dash = ' stroke-dasharray="6 3"' if curve.label in dash_labels else ""
            points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            out.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>'
            )

    # legend
    for idx, curve in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        y = TOP + 10 + idx * 18
        if curve.label in marker_labels:
            out.append(f'<circle cx="{RIGHT + 18}" cy="{y}" r="3" fill="{color}"/>')
        else:
            dash = ' stroke-dasharray="6 3"' if curve.label in dash_labels else ""
            out.append(
                f'<line x1="{RIGHT + 10}" y1="{y}" x2="{RIGHT + 26}" y2="{y}" '
                f'stroke="{color}" stroke-width="1.5"{dash}/>'
            )
        out.append(
            f'<text x="{RIGHT + 32}" y="{y + 4}" font-size="11">'
            f"{escape(curve.label)}</text>"
        )

    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
