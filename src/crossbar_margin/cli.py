"""Command-line front end.

Subcommands: margin, sweep, ablate, optimal-range, compensate, validate,
and the preset studies fig3..fig6.  Exit codes: 0 success, 1 computation
or validation failure, 2 usage error; a sweep reports each slice it drops
on stderr and exits 0 while one survives.  Resistances and currents are
plain ohms / amperes (scientific notation welcome, e.g. --ron 20e3).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analysis import (
    COARSE_R_ON_GRID,
    DEFAULT_N_GRID,
    VALIDATION_N_GRID,
    SweepSpec,
    argmax_resistance,
    ablation_series,
    compensation_curve,
    find_optimal_range,
    read_power_ratio,
    sweep_grid,
)
from .figures import (
    FIGURE_WRITERS,
    MARGIN_VS_R_ON,
    render_ablation_svg,
    write_ablation_csv,
)
from .model import (
    ENGINES,
    CellSpec,
    FactorToggles,
    ReadSetup,
    SolverError,
    sense_grid,
    sense_point,
)
from .oracle import compare_lumped_distributed
from .profile_io import load_bundled_profile, load_profile
from .results import ResultTable, write_csv
from .svg import render_plot

# (R_on grid, n grid) per --grid choice; "full" is fig4's network grid.
VALIDATION_GRIDS = {
    "full": (COARSE_R_ON_GRID, VALIDATION_N_GRID),
    "quick": (tuple(float(x) for x in np.logspace(4.0, 8.0, 8)), (256, 1024)),
}


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="technology profile JSON (default: bundled 22nm profile)",
    )


def _add_toggle_args(parser: argparse.ArgumentParser) -> None:
    # One --no-<factor> flag per FactorToggles field, stored under its name.
    for field in fields(FactorToggles):
        parser.add_argument(
            f"--no-{field.name.replace('_', '-')}",
            dest=field.name,
            action="store_false",
            help=f"disable the {field.name.replace('_', ' ')} term",
        )


def _add_ron_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ron-min", type=float, default=1e4, help="grid start (ohm)")
    parser.add_argument("--ron-max", type=float, default=1e8, help="grid end (ohm)")
    parser.add_argument("--ron-points", type=int, default=200, help="log-spaced grid size")


def _ron_grid(args: argparse.Namespace) -> tuple[float, ...]:
    if args.ron_min <= 0 or args.ron_max <= args.ron_min or args.ron_points < 2:
        raise ValueError("need 0 < --ron-min < --ron-max and --ron-points >= 2")
    return tuple(
        float(x)
        for x in np.logspace(
            np.log10(args.ron_min), np.log10(args.ron_max), args.ron_points
        )
    )


def _load(args: argparse.Namespace):
    if args.profile is None:
        return load_bundled_profile()
    return load_profile(args.profile)


def _toggles(args: argparse.Namespace) -> FactorToggles:
    return FactorToggles(*(getattr(args, f.name) for f in fields(FactorToggles)))


def _cmd_margin(args: argparse.Namespace) -> int:
    profile = _load(args)
    cell = CellSpec(r_on=args.ron, ratio_ideal=args.k)
    setup = ReadSetup(v_read=args.vread, n_cells=args.n, toggles=_toggles(args))
    result = sense_point(profile, cell, setup, args.engine)
    if args.json:
        print(
            json.dumps(
                {
                    "i_on_a": result.i_on,
                    "i_off_a": result.i_off,
                    "ratio_effective": result.ratio_effective,
                    "margin_normalized": result.margin_normalized,
                },
                indent=2,
            )
        )
        return 0
    print(f"profile: {profile.node_label}")
    print(
        f"R_on = {cell.r_on:g} ohm, k = {cell.ratio_ideal:g}, n = {setup.n_cells}, "
        f"V_read = {setup.v_read:g} V, engine = {args.engine}, "
        f"factors = {setup.toggles.describe()}"
    )
    print(f"I_on  = {result.i_on:.6e} A")
    print(f"I_off = {result.i_off:.6e} A")
    print(f"effective on/off ratio k' = {result.ratio_effective:.6g}")
    print(f"normalized margin k'/k    = {result.margin_normalized:.6g}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    profile = _load(args)
    spec = SweepSpec(
        r_on_grid=_ron_grid(args),
        n_grid=tuple(sorted(set(args.n))),
        v_read_grid=tuple(sorted(set(args.vread))),
        ratio_ideal=args.k,
        toggles=(_toggles(args),),
        engine=args.engine,
    )
    with warnings.catch_warnings(record=True) as dropped:
        warnings.simplefilter("always")
        curves = sweep_grid(spec, profile)
    for warning in dropped:
        print(f"warning: {warning.message}", file=sys.stderr)
    rows = [
        (
            curve.meta["toggles"].describe(),
            curve.meta["v_read"],
            curve.meta["n_cells"],
            *point,
        )
        for curve in curves
        for point in zip(curve.x, *curve.sensed)
    ]
    table = ResultTable(
        header=(
            "factors",
            "v_read_v",
            "n_cells",
            "r_on_ohm",
            "i_on_a",
            "i_off_a",
            "ratio_effective",
            "margin_normalized",
        ),
        rows=tuple(rows),
    )
    if args.csv:
        write_csv(table, args.csv)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    if args.svg:
        render_plot(
            curves,
            args.svg,
            title=f"Sensing margin vs R_on (k={args.k:g})",
            **MARGIN_VS_R_ON,
        )
        print(f"wrote {args.svg} ({len(curves)} curves)")
    if not args.csv and not args.svg:
        for curve in curves:
            print(
                f"{curve.label}: margin {min(curve.y):.4f} .. {max(curve.y):.4f} "
                f"over R_on {curve.x[0]:g} .. {curve.x[-1]:g} ohm"
            )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    profile = _load(args)
    grid = _ron_grid(args)
    setup = ReadSetup(v_read=args.vread, n_cells=args.n)
    series = ablation_series(profile, CellSpec(r_on=grid[0], ratio_ideal=args.k), setup, grid)
    if args.csv:
        n_rows = write_ablation_csv(series, args.csv)
        print(f"wrote {args.csv} ({n_rows} rows)")
    if args.svg:
        render_ablation_svg(series, args.svg)
        print(f"wrote {args.svg}")
    if not args.csv and not args.svg:
        for label, curve in series:
            print(f"{label}: margin {min(curve.y):.4f} .. {max(curve.y):.4f}")
    return 0


def _cmd_optimal_range(args: argparse.Namespace) -> int:
    profile = _load(args)
    grid = _ron_grid(args)
    span = find_optimal_range(
        profile, args.k, args.n, args.vread, args.threshold, grid
    )
    peak_r = argmax_resistance(profile, args.k, args.n, args.vread, grid)
    peak_margin = float(sense_grid(profile, peak_r, args.k, args.n, args.vread)[3])
    if args.json:
        payload = {
            "threshold": args.threshold,
            "peak_r_on_ohm": peak_r,
            "peak_margin": peak_margin,
            "r_low_ohm": None if span is None else span[0],
            "r_high_ohm": None if span is None else span[1],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"margin threshold {args.threshold:g} at k={args.k:g}, n={args.n}, "
        f"V_read={args.vread:g} V (peak margin {peak_margin:.4f} at "
        f"R_on={peak_r:.4g} ohm)"
    )
    if span is None:
        print("no R_on in the searched grid reaches the threshold")
    else:
        print(f"optimal R_on range: {span[0]:.4g} .. {span[1]:.4g} ohm")
    return 0


def _cmd_compensate(args: argparse.Namespace) -> int:
    profile = _load(args)
    curve = compensation_curve(
        profile, args.k, args.n, args.vbase, args.valt, _ron_grid(args)
    )
    best = max(range(len(curve.y)), key=curve.y.__getitem__)
    print(
        f"max margin gain {args.vbase:g}V->{args.valt:g}V at n={args.n}: "
        f"{curve.y[best]:.4f} at R_on={curve.x[best]:.4g} ohm "
        f"(read power x{read_power_ratio(args.valt, args.vbase):g})"
    )
    if args.csv:
        rows = list(zip(curve.x, curve.y))
        write_csv(
            ResultTable(header=("r_on_ohm", "margin_gain"), rows=tuple(rows)), args.csv
        )
        print(f"wrote {args.csv} ({len(rows)} rows)")
    if args.svg:
        render_plot(
            [curve],
            args.svg,
            title=f"Margin gain {args.vbase:g}V->{args.valt:g}V (n={args.n})",
            x_label="R_on (ohm)",
            y_label="margin gain",
        )
        print(f"wrote {args.svg}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    profile = _load(args)
    r_grid, n_grid = VALIDATION_GRIDS[args.grid]
    cells = [CellSpec(r_on=r, ratio_ideal=args.k) for r in r_grid]
    setups = [ReadSetup(v_read=args.vread, n_cells=n) for n in n_grid]
    rows = compare_lumped_distributed(profile, cells, setups)
    failed = [row for row in rows if row.error is not None]
    clean = [row for row in rows if row.error is None]
    if args.csv:
        table = ResultTable(
            header=(
                "r_on_ohm",
                "ratio_ideal",
                "n_cells",
                "v_read_v",
                "margin_lumped",
                "margin_oracle",
                "relative_gap",
                "error",
            ),
            rows=tuple(
                (
                    row.r_on,
                    row.ratio_ideal,
                    row.n_cells,
                    row.v_read,
                    row.margin_lumped,
                    row.margin_oracle,
                    row.relative_gap,
                    row.error or "",
                )
                for row in rows
            ),
        )
        write_csv(table, args.csv)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    print(
        f"lumped model vs distributed network: {len(rows)} points "
        f"({len(r_grid)} R_on x {len(n_grid)} n), "
        f"k={args.k:g}, V_read={args.vread:g} V"
    )
    if failed:
        print(f"{len(failed)} points failed to solve (flagged in CSV)")
    if not clean:
        print("verdict: FAIL (no successfully solved points)")
        return 1
    worst = max(clean, key=lambda row: row.relative_gap)
    print(
        f"max relative margin gap = {worst.relative_gap:.3e} "
        f"(at R_on={worst.r_on:.4g} ohm, n={worst.n_cells})"
    )
    if worst.relative_gap <= args.tolerance and not failed:
        print(f"verdict: PASS (tolerance {args.tolerance:g})")
        return 0
    print(f"verdict: FAIL (tolerance {args.tolerance:g})")
    return 1


def _cmd_figure(args: argparse.Namespace) -> int:
    profile = _load(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = FIGURE_WRITERS[args.command](profile, outdir)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossbar-margin",
        description="Sensing-margin analysis for 1T1R crossbar columns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("margin", help="evaluate one read condition")
    _add_profile_arg(p)
    p.add_argument("--ron", type=float, required=True, help="on-state resistance (ohm)")
    p.add_argument("--k", type=float, required=True, help="fabricated on/off ratio")
    p.add_argument("--n", type=int, required=True, help="cells per column")
    p.add_argument("--vread", type=float, required=True, help="read voltage (V)")
    p.add_argument("--engine", choices=ENGINES, default="lumped")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_toggle_args(p)
    p.set_defaults(func=_cmd_margin)

    p = sub.add_parser("sweep", help="margin curves over an R_on grid")
    _add_profile_arg(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, nargs="+", default=list(DEFAULT_N_GRID))
    p.add_argument("--vread", type=float, nargs="+", default=[0.2])
    p.add_argument("--engine", choices=ENGINES, default="lumped")
    _add_ron_grid_args(p)
    _add_toggle_args(p)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ablate", help="remove non-idealities one at a time")
    _add_profile_arg(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vread", type=float, default=0.2)
    _add_ron_grid_args(p)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser(
        "optimal-range", help="R_on interval keeping the margin above a threshold"
    )
    _add_profile_arg(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vread", type=float, default=0.2)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--json", action="store_true")
    _add_ron_grid_args(p)
    p.set_defaults(func=_cmd_optimal_range)

    p = sub.add_parser("compensate", help="margin gain from a higher read voltage")
    _add_profile_arg(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vbase", type=float, default=0.2)
    p.add_argument("--valt", type=float, required=True)
    _add_ron_grid_args(p)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")
    p.set_defaults(func=_cmd_compensate)

    p = sub.add_parser(
        "validate", help="check the lumped model against the network solver"
    )
    _add_profile_arg(p)
    p.add_argument("--grid", choices=sorted(VALIDATION_GRIDS), default="full")
    p.add_argument("--k", type=float, default=10.0)
    p.add_argument("--vread", type=float, default=0.2)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_validate)

    for name in ("fig3", "fig4", "fig5", "fig6"):
        p = sub.add_parser(name, help=f"write the {name} study (CSV + SVG)")
        _add_profile_arg(p)
        p.add_argument("--outdir", default=".", help="output directory")
        p.set_defaults(func=_cmd_figure)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SolverError, ValueError, OSError) as exc:  # ProfileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
