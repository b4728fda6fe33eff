"""Preset studies bundled as reproducible CSV + SVG outputs.

Each study runs from the bundled technology profile alone and writes
deterministic files, so two runs of the same study are byte-identical.
They are exposed through the fig3..fig6 CLI subcommands:

  fig3  joint-effect curves: margin versus column size with each
        non-ideality family isolated, then combined
  fig4  margin versus on-resistance across column sizes, with the
        distributed-network solver overlaid on the closed-form model
  fig5  factor ablation at a fixed column size
  fig6  read-voltage compensation and its margin gain
"""

from __future__ import annotations

from pathlib import Path

from .analysis import (
    COARSE_R_ON_GRID,
    DEFAULT_N_GRID,
    DEFAULT_R_ON_GRID,
    VALIDATION_N_GRID,
    MarginCurve,
    _check_grid,
    ablation_series,
    compensation_curve,
    margin_curve,
)
from .model import (
    CellSpec,
    FactorToggles,
    ReadSetup,
    TechnologyProfile,
    sense_grid,
)
from .results import ResultTable, write_csv
from .svg import render_plot

V_READ_DEFAULT = 0.2
RATIO_DEFAULT = 10.0
# The axes of every margin-versus-R_on plot.
MARGIN_VS_R_ON = dict(x_label="R_on (ohm)", y_label="normalized margin", y_min=0.0, y_max=1.0)
# The x grids of the figures' margin curves, which margin_curve leaves to its caller.
_check_grid("DEFAULT_N_GRID", DEFAULT_N_GRID)
_check_grid("DEFAULT_R_ON_GRID", DEFAULT_R_ON_GRID)
_check_grid("COARSE_R_ON_GRID", COARSE_R_ON_GRID)


def write_fig3(profile: TechnologyProfile, outdir: str | Path) -> list[Path]:
    """Margin versus column size, per non-ideality family and combined."""
    outdir = Path(outdir)
    panels = [
        ("a", "IR drop only", FactorToggles(True, True, False), (1e4, 1e5)),
        ("b", "leakage only", FactorToggles(False, True, True), (1e4, 1e5)),
        ("c", "all factors", FactorToggles(True, True, True), (1e4, 5e4, 1e5)),
    ]
    rows = []
    written = []
    for key, desc, toggles, r_ons in panels:
        curves = [
            margin_curve(
                f"R_on={r_on:g}",
                map(float, DEFAULT_N_GRID),
                sense_grid(
                    profile, r_on, RATIO_DEFAULT, DEFAULT_N_GRID, V_READ_DEFAULT, toggles
                ),
                meta={"r_on": r_on, "toggles": toggles, "v_read": V_READ_DEFAULT},
            )
            for r_on in r_ons
        ]
        rows += [
            (key, r_on, n, V_READ_DEFAULT, *sensed)
            for r_on, curve in zip(r_ons, curves)
            for n, *sensed in zip(DEFAULT_N_GRID, *curve.sensed)
        ]
        svg_path = outdir / f"fig3{key}.svg"
        render_plot(
            curves,
            svg_path,
            title=f"Sensing margin vs column size ({desc})",
            x_label="cells per column",
            y_label="normalized margin",
            x_log=True,
            y_min=0.0,
            y_max=1.0,
        )
        written.append(svg_path)
    table = ResultTable(
        header=("panel", "r_on_ohm", "n_cells", "v_read_v", "i_on_a", "i_off_a",
                "ratio_effective", "margin_normalized"),
        rows=tuple(rows),
    )
    csv_path = outdir / "fig3.csv"
    write_csv(table, csv_path)
    return [csv_path] + written


def _margin_vs_r(
    profile: TechnologyProfile,
    label: str,
    ratio_ideal: float,
    n: int,
    grid: tuple[float, ...],
    v_read: float = V_READ_DEFAULT,
    engine: str = "lumped",
) -> MarginCurve:
    return margin_curve(
        label,
        grid,
        sense_grid(profile, grid, ratio_ideal, n, v_read, engine=engine),
        meta={
            "n_cells": n, "engine": engine, "ratio_ideal": ratio_ideal, "v_read": v_read
        },
    )


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
    written = []
    for key, ratio, layers, title in panels:
        curves = [
            _margin_vs_r(profile, f"n={n}{suffix}", ratio, n, grid, engine=engine)
            for engine, suffix, grid in layers
            for n in VALIDATION_N_GRID
        ]
        rows = [
            (curve.meta["engine"], curve.meta["n_cells"], r_on, margin)
            for curve in curves
            for r_on, margin in zip(curve.x, curve.y)
        ]
        csv_path, svg_path = outdir / f"fig4{key}.csv", outdir / f"fig4{key}.svg"
        write_csv(
            ResultTable(header=("engine", "n_cells", "r_on_ohm", "margin_normalized"), rows=tuple(rows)),
            csv_path,
        )
        render_plot(
            curves,
            svg_path,
            title=title,
            marker_labels=[c.label for c in curves if c.meta["engine"] == "oracle"],
            **MARGIN_VS_R_ON,
        )
        written += [csv_path, svg_path]
    return written


def write_ablation_csv(series: list[tuple[str, MarginCurve]], path: str | Path) -> int:
    """The ablation table, one (variant, r_on_ohm, margin) row per point; returns the row count."""
    rows = [
        (label, r_on, margin)
        for label, curve in series
        for r_on, margin in zip(curve.x, curve.y)
    ]
    write_csv(
        ResultTable(header=("variant", "r_on_ohm", "margin_normalized"), rows=tuple(rows)),
        path,
    )
    return len(rows)


def render_ablation_svg(series: list[tuple[str, MarginCurve]], path: str | Path) -> None:
    """The ablation plot, one margin curve per variant of ablation_series."""
    meta = series[0][1].meta
    render_plot(
        [curve for _, curve in series],
        path,
        title=f"Non-ideality ablation (k={meta['ratio_ideal']:g}, n={meta['n_cells']})",
        **MARGIN_VS_R_ON,
    )


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
    n = 1024
    margin_curves = [
        _margin_vs_r(profile, f"V_read={v:g}V", RATIO_DEFAULT, n, DEFAULT_R_ON_GRID, v)
        for v in (0.2, 0.4, 0.6)
    ]
    gain_04 = compensation_curve(profile, RATIO_DEFAULT, n, 0.2, 0.4, DEFAULT_R_ON_GRID)
    gain_06 = compensation_curve(profile, RATIO_DEFAULT, n, 0.2, 0.6, DEFAULT_R_ON_GRID)

    rows = zip(DEFAULT_R_ON_GRID, *(c.y for c in margin_curves + [gain_04, gain_06]))
    csv_path = outdir / "fig6.csv"
    write_csv(
        ResultTable(
            header=("r_on_ohm", "margin_0.2v", "margin_0.4v", "margin_0.6v", "gain_0.4v",
                    "gain_0.6v"),
            rows=tuple(rows),
        ),
        csv_path,
    )
    svg_margins = outdir / "fig6_margins.svg"
    render_plot(
        margin_curves,
        svg_margins,
        title="Sensing margin vs R_on at three read voltages (n=1024)",
        dash_labels=["V_read=0.4V", "V_read=0.6V"],
        **MARGIN_VS_R_ON,
    )
    svg_gain = outdir / "fig6.svg"
    render_plot(
        [gain_04, gain_06],
        svg_gain,
        title="Margin gain from raising the read voltage (n=1024)",
        x_label="R_on (ohm)",
        y_label="margin gain",
    )
    return [csv_path, svg_margins, svg_gain]


FIGURE_WRITERS = {
    "fig3": write_fig3,
    "fig4": write_fig4,
    "fig5": write_fig5,
    "fig6": write_fig6,
}
