"""Command-line front end: it only parses, calls and prints.

Each subcommand parses its flags, calls a study and writes any file
through a figures writer; the tables, plot layouts and shared defaults
(R_on grid, read voltage, k) come from figures and analysis.

Subcommands: margin, sweep, ablate, optimal-range, compensate, validate,
and the preset studies fig3..fig6.  Exit codes: 0 success, 1 computation
or validation failure, 2 usage error; a sweep reports each slice it drops
on stderr and exits 0 while one survives.  Resistances and currents are
plain ohms / amperes (scientific notation welcome, e.g. --ron 20e3).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .analysis import (
    COARSE_R_ON_GRID,
    DEFAULT_N_GRID,
    DEFAULT_R_ON_GRID,
    VALIDATION_N_GRID,
    Grid,
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
    RATIO_DEFAULT,
    SENSED_COLUMNS,
    V_READ_DEFAULT,
    render_ablation_svg,
    render_compensation_svg,
    render_sweep_svg,
    write_ablation_csv,
    write_compensation_csv,
    write_sweep_csv,
    write_validation_csv,
)
from .model import (
    ENGINES,
    CellSpec,
    FactorToggles,
    ReadSetup,
    SolverError,
    TechnologyProfile,
    sense_grid,
    sense_point,
)
from .oracle import compare_lumped_distributed
from .profile_io import load_bundled_profile, load_profile

# (R_on grid, n grid) per --grid choice; "full" is fig4's network grid.
VALIDATION_GRIDS = {
    "full": (COARSE_R_ON_GRID, VALIDATION_N_GRID),
    "quick": (tuple(float(x) for x in np.logspace(4.0, 8.0, 8)), (256, 1024)),
}


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
    grid = DEFAULT_R_ON_GRID
    parser.add_argument("--ron-min", type=float, default=grid[0], help="grid start (ohm)")
    parser.add_argument("--ron-max", type=float, default=grid[-1], help="grid end (ohm)")
    parser.add_argument("--ron-points", type=int, default=len(grid), help="log-spaced grid size")


def _ron_grid(args: argparse.Namespace) -> Grid:
    if not 0 < args.ron_min < args.ron_max < np.inf or args.ron_points < 2:  # NaN fails too
        raise ValueError("need 0 < --ron-min < --ron-max and --ron-points >= 2")
    with np.errstate(over="ignore"):  # an end near the float limit may round up to inf
        ends = np.log10(args.ron_min), np.log10(args.ron_max)
        return Grid(map(float, np.logspace(*ends, args.ron_points)), "r_on_grid")


def _toggles(args: argparse.Namespace) -> FactorToggles:
    return FactorToggles(*(getattr(args, f.name) for f in fields(FactorToggles)))


def _cmd_margin(profile: TechnologyProfile, args: argparse.Namespace) -> int:
    cell = CellSpec(r_on=args.ron, ratio_ideal=args.k)
    setup = ReadSetup(v_read=args.vread, n_cells=args.n, toggles=_toggles(args))
    result = sense_point(profile, cell, setup, args.engine)
    if args.json:
        print(json.dumps(dict(zip(SENSED_COLUMNS, astuple(result))), indent=2))
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


def _cmd_sweep(profile: TechnologyProfile, args: argparse.Namespace) -> int:
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
    if args.csv:
        n_rows = write_sweep_csv(curves, args.csv)
        print(f"wrote {args.csv} ({n_rows} rows)")
    if args.svg:
        render_sweep_svg(curves, args.svg)
        print(f"wrote {args.svg} ({len(curves)} curves)")
    if not args.csv and not args.svg:
        for curve in curves:
            print(
                f"{curve.label}: margin {min(curve.y):.4f} .. {max(curve.y):.4f} "
                f"over R_on {curve.x[0]:g} .. {curve.x[-1]:g} ohm"
            )
    return 0


def _cmd_ablate(profile: TechnologyProfile, args: argparse.Namespace) -> int:
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


def _cmd_optimal_range(profile: TechnologyProfile, args: argparse.Namespace) -> int:
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


def _cmd_compensate(profile: TechnologyProfile, args: argparse.Namespace) -> int:
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
        n_rows = write_compensation_csv(curve, args.csv)
        print(f"wrote {args.csv} ({n_rows} rows)")
    if args.svg:
        render_compensation_svg(curve, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_validate(profile: TechnologyProfile, args: argparse.Namespace) -> int:
    if not args.tolerance >= 0:  # NaN too
        raise ValueError(f"--tolerance must be >= 0, got {args.tolerance}")
    r_grid, n_grid = VALIDATION_GRIDS[args.grid]
    cells = [CellSpec(r_on=r, ratio_ideal=args.k) for r in r_grid]
    setups = [ReadSetup(v_read=args.vread, n_cells=n) for n in n_grid]
    rows = compare_lumped_distributed(profile, cells, setups)
    failed = [row for row in rows if row.error is not None]
    clean = [row for row in rows if row.error is None]
    if args.csv:
        n_rows = write_validation_csv(rows, args.csv)
        print(f"wrote {args.csv} ({n_rows} rows)")
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


def _cmd_figure(profile: TechnologyProfile, args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = FIGURE_WRITERS[args.command](profile, outdir)
    for path in written:
        print(f"wrote {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every later one: its
    defaults are immutable, so no parse can change what the next one sees."""
    parser = argparse.ArgumentParser(
        prog="crossbar-margin",
        description="Sensing-margin analysis for 1T1R crossbar columns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        """Subcommand `name`, run by handler, with the --profile option of every subcommand."""
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--profile",
            metavar="PATH",
            default=None,
            help="technology profile JSON (default: bundled 22nm profile)",
        )
        p.set_defaults(func=handler)
        return p

    p = command("margin", _cmd_margin, "evaluate one read condition")
    p.add_argument("--ron", type=float, required=True, help="on-state resistance (ohm)")
    p.add_argument("--k", type=float, required=True, help="fabricated on/off ratio")
    p.add_argument("--n", type=int, required=True, help="cells per column")
    p.add_argument("--vread", type=float, required=True, help="read voltage (V)")
    p.add_argument("--engine", choices=ENGINES, default="lumped")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_toggle_args(p)

    p = command("sweep", _cmd_sweep, "margin curves over an R_on grid")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, nargs="+", default=tuple(DEFAULT_N_GRID))
    p.add_argument("--vread", type=float, nargs="+", default=(V_READ_DEFAULT,))
    p.add_argument("--engine", choices=ENGINES, default="lumped")
    _add_ron_grid_args(p)
    _add_toggle_args(p)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")

    p = command("ablate", _cmd_ablate, "remove non-idealities one at a time")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vread", type=float, default=V_READ_DEFAULT)
    _add_ron_grid_args(p)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")

    p = command(
        "optimal-range", _cmd_optimal_range,
        "R_on interval keeping the margin above a threshold",
    )
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vread", type=float, default=V_READ_DEFAULT)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--json", action="store_true")
    _add_ron_grid_args(p)

    p = command("compensate", _cmd_compensate, "margin gain from a higher read voltage")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vbase", type=float, default=V_READ_DEFAULT)
    p.add_argument("--valt", type=float, required=True)
    _add_ron_grid_args(p)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")

    p = command(
        "validate", _cmd_validate, "check the lumped model against the network solver"
    )
    p.add_argument("--grid", choices=sorted(VALIDATION_GRIDS), default="full")
    p.add_argument("--k", type=float, default=RATIO_DEFAULT)
    p.add_argument("--vread", type=float, default=V_READ_DEFAULT)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--csv", metavar="PATH")

    for name in FIGURE_WRITERS:
        p = command(name, _cmd_figure, f"write the {name} study (CSV + SVG)")
        p.add_argument("--outdir", default=".", help="output directory")

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code or 0)
    try:
        profile = load_bundled_profile() if args.profile is None else load_profile(args.profile)
        return args.func(profile, args)
    except (SolverError, ValueError, OSError) as exc:  # ProfileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
