"""Every table and plot layout the package writes, as deterministic CSV + SVG.

Two kinds of output live here.  The preset studies run from the bundled
technology profile and the package's pre-checked grids alone, so two runs
of the same study are byte-identical.  Each fig3 panel and fig4 layer is one
analysis._sensed_rows plane, each fig6 read voltage one model._sensed call,
each curve a row of it; fig6's gains are compensation_curve's, from its margins.
The studies are exposed through the fig3..fig6 CLI subcommands:

  fig3  joint-effect curves: margin versus column size with each
        non-ideality family isolated, then combined
  fig4  margin versus on-resistance across column sizes, with the
        distributed-network solver overlaid on the closed-form model
  fig5  factor ablation at a fixed column size
  fig6  read-voltage compensation and its margin gain

The sweep, ablate, compensate and validate commands write through the
write_*_csv and render_*_svg writers below (ablate through fig5's).
Every table is written as one block per curve, its constant cells as
scalars and its points as the curve's own sequences (results module).  A curve's x
is a Grid: only its CSV cells and pixel x texts are kept, formatted once per process.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .analysis import (
    COARSE_R_ON_GRID,
    DEFAULT_N_GRID,
    DEFAULT_R_ON_GRID,
    VALIDATION_N_GRID,
    MarginCurve,
    _gain_curve,
    _raise_first,
    _sensed_rows,
    ablation_series,
)
from .model import (
    CellSpec,
    FactorToggles,
    ReadSetup,
    TechnologyProfile,
    _sensed,
)
from .oracle import ComparisonRow
from .results import ResultTable, write_csv
from .svg import render_plot

V_READ_DEFAULT = 0.2
RATIO_DEFAULT = 10.0
# The columns of a sense_grid result, in its order, in every table and JSON output.
SENSED_COLUMNS = ("i_on_a", "i_off_a", "ratio_effective", "margin_normalized")


def _plot_vs_r_on(curves: list[MarginCurve], path: str | Path, title: str, **styles) -> None:
    """render_plot with the x axis of every plot against R_on; styles are its line styles."""
    render_plot(curves, path, title=title, x_label="R_on (ohm)", **styles)


def write_fig3(profile: TechnologyProfile, outdir: str | Path) -> list[Path]:
    """Margin versus column size, per non-ideality family and combined."""
    outdir = Path(outdir)
    panels = [
        ("a", "IR drop only", FactorToggles(True, True, False), (1e4, 1e5)),
        ("b", "leakage only", FactorToggles(False, True, True), (1e4, 1e5)),
        ("c", "all factors", FactorToggles(True, True, True), (1e4, 5e4, 1e5)),
    ]
    n_row = np.fromiter(DEFAULT_N_GRID, float, len(DEFAULT_N_GRID))
    blocks = []
    written = []
    for key, desc, toggles, r_ons in panels:
        rows = list(zip(r_ons, _raise_first(_sensed_rows(
            profile, np.array(r_ons)[:, None], RATIO_DEFAULT, n_row, V_READ_DEFAULT, toggles))))
        curves = [MarginCurve._of_row(f"R_on={r_on:g}", DEFAULT_N_GRID, sensed)
                  for r_on, sensed in rows]
        blocks += [(key, r_on, DEFAULT_N_GRID, V_READ_DEFAULT, *sensed) for r_on, sensed in rows]
        svg_path = outdir / f"fig3{key}.svg"
        render_plot(
            curves,
            svg_path,
            title=f"Sensing margin vs column size ({desc})",
            x_label="cells per column",
        )
        written.append(svg_path)
    table = ResultTable(
        header=("panel", "r_on_ohm", "n_cells", "v_read_v", *SENSED_COLUMNS),
        blocks=tuple(blocks),
    )
    csv_path = outdir / "fig3.csv"
    write_csv(table, csv_path)
    return [csv_path] + written


def write_fig4(profile: TechnologyProfile, outdir: str | Path) -> list[Path]:
    """Margin versus on-resistance; panel (a) overlays the network solver."""
    outdir = Path(outdir)
    model = ("lumped", "", DEFAULT_R_ON_GRID)
    # The network solver is drawn as markers on the coarse grid.
    network = ("oracle", " (network)", COARSE_R_ON_GRID)
    panels = [
        ("a", RATIO_DEFAULT, (model, network),
         "Sensing margin vs R_on (k=10), model lines, network points"),
        ("b", 100.0, (model,), "Sensing margin vs R_on (k=100)"),
    ]
    n_column = np.fromiter(VALIDATION_N_GRID, float, len(VALIDATION_N_GRID))[:, None]
    written = []
    for key, ratio, layers, title in panels:
        curves = [
            MarginCurve._of_row(f"n={n}{suffix}", grid, sensed, {"n_cells": n, "engine": engine})
            for engine, suffix, grid in layers
            for n, sensed in zip(VALIDATION_N_GRID, _raise_first(_sensed_rows(
                profile, np.fromiter(grid, float, len(grid)), ratio, n_column, V_READ_DEFAULT,
                engine=engine)))
        ]
        blocks = tuple(
            (curve.meta["engine"], curve.meta["n_cells"], curve.x, curve.y) for curve in curves
        )
        csv_path, svg_path = outdir / f"fig4{key}.csv", outdir / f"fig4{key}.svg"
        header = ("engine", "n_cells", "r_on_ohm", "margin_normalized")
        write_csv(ResultTable(header=header, blocks=blocks), csv_path)
        oracle_labels = [c.label for c in curves if c.meta["engine"] == "oracle"]
        _plot_vs_r_on(curves, svg_path, title, marker_labels=oracle_labels)
        written += [csv_path, svg_path]
    return written


def write_ablation_csv(series: list[tuple[str, MarginCurve]], path: str | Path) -> int:
    """The ablation table, one (variant, r_on_ohm, margin) row per point; returns the row count."""
    blocks = tuple((label, curve.x, curve.y) for label, curve in series)
    return write_csv(
        ResultTable(header=("variant", "r_on_ohm", "margin_normalized"), blocks=blocks),
        path,
    )


def render_ablation_svg(series: list[tuple[str, MarginCurve]], path: str | Path) -> None:
    """The ablation plot, one margin curve per variant of ablation_series."""
    meta = series[0][1].meta
    title = f"Non-ideality ablation (k={meta['ratio_ideal']:g}, n={meta['n_cells']})"
    _plot_vs_r_on([curve for _, curve in series], path, title)


def write_sweep_csv(curves: list[MarginCurve], path: str | Path) -> int:
    """The sweep table, one (factors, v_read_v, n_cells, r_on_ohm, sensed...) row
    per point of sweep_grid's curves; returns the row count."""
    blocks = tuple(
        (curve.meta["toggles"].describe(), curve.meta["v_read"], curve.meta["n_cells"], curve.x,
         *curve.sensed)
        for curve in curves
    )
    header = ("factors", "v_read_v", "n_cells", "r_on_ohm", *SENSED_COLUMNS)
    return write_csv(ResultTable(header=header, blocks=blocks), path)


def render_sweep_svg(curves: list[MarginCurve], path: str | Path) -> None:
    """The sweep plot, one margin curve per slice of sweep_grid."""
    _plot_vs_r_on(curves, path, f"Sensing margin vs R_on (k={curves[0].meta['ratio_ideal']:g})")


def write_compensation_csv(curve: MarginCurve, path: str | Path) -> int:
    """The compensation table, one (r_on_ohm, margin_gain) row per point; returns the row count."""
    return write_csv(
        ResultTable(header=("r_on_ohm", "margin_gain"), blocks=((curve.x, curve.y),)), path)


def render_compensation_svg(curve: MarginCurve, path: str | Path) -> None:
    """The compensation plot: compensation_curve's margin gain."""
    meta = curve.meta
    title = f"Margin gain {meta['v_base']:g}V->{meta['v_alt']:g}V (n={meta['n_cells']})"
    _plot_vs_r_on([curve], path, title)


def write_validation_csv(rows: list[ComparisonRow], path: str | Path) -> int:
    """The validation table, one row per ComparisonRow (no error is an empty
    cell), written as one block of columns; returns the row count."""
    header = ("r_on_ohm", "ratio_ideal", "n_cells", "v_read_v", "margin_lumped",
              "margin_oracle", "relative_gap", "error")
    blocks = (tuple(zip(*rows)),) if rows else ()
    return write_csv(ResultTable(header=header, blocks=blocks), path)


def write_fig5(profile: TechnologyProfile, outdir: str | Path) -> list[Path]:
    """Factor ablation at n=1024: which non-ideality owns which flank."""
    outdir = Path(outdir)
    setup = ReadSetup(v_read=V_READ_DEFAULT, n_cells=1024)
    series = ablation_series(
        profile, CellSpec(r_on=1e4, ratio_ideal=RATIO_DEFAULT), setup
    )
    csv_path, svg_path = outdir / "fig5.csv", outdir / "fig5.svg"
    write_ablation_csv(series, csv_path)
    render_ablation_svg(series, svg_path)
    return [csv_path, svg_path]


def write_fig6(profile: TechnologyProfile, outdir: str | Path) -> list[Path]:
    """Read-voltage compensation at n=1024: margins and margin gains."""
    outdir = Path(outdir)
    n, r_on = 1024, np.fromiter(DEFAULT_R_ON_GRID, float, len(DEFAULT_R_ON_GRID))
    margins = []
    for v in (0.2, 0.4, 0.6):  # one kernel call per read voltage
        sensed = _sensed(profile, r_on, RATIO_DEFAULT, n, v)
        margins.append(MarginCurve._of_row(f"V_read={v:g}V", DEFAULT_R_ON_GRID, sensed))
    gains = [_gain_curve(DEFAULT_R_ON_GRID, margins[0].sensed, alt.sensed, RATIO_DEFAULT, n,
                         0.2, v) for alt, v in zip(margins[1:], (0.4, 0.6))]  # from 0.2 V

    csv_path = outdir / "fig6.csv"
    header = ("r_on_ohm", "margin_0.2v", "margin_0.4v", "margin_0.6v", "gain_0.4v", "gain_0.6v")
    blocks = ((DEFAULT_R_ON_GRID, *(c.y for c in margins + gains)),)
    write_csv(ResultTable(header=header, blocks=blocks), csv_path)
    svg_margins = outdir / "fig6_margins.svg"
    _plot_vs_r_on(margins, svg_margins, "Sensing margin vs R_on at three read voltages (n=1024)",
                  dash_labels=["V_read=0.4V", "V_read=0.6V"])
    svg_gain = outdir / "fig6.svg"
    _plot_vs_r_on(gains, svg_gain, "Margin gain from raising the read voltage (n=1024)")
    return [csv_path, svg_margins, svg_gain]


FIGURE_WRITERS = {
    "fig3": write_fig3,
    "fig4": write_fig4,
    "fig5": write_fig5,
    "fig6": write_fig6,
}
