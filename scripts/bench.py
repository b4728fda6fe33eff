#!/usr/bin/env python3
"""Time crossbar-margin layer by layer and write the medians as JSON.

    python3 scripts/bench.py [--repeat R] [--out BENCH.json]

Imports the package from src/ of the checkout this file lives in, so the
same script times any commit it is copied into.  Five layers:

  model     one read_currents point; sense_grid over the default R_on x n grid
            and, per engine, over one R_on row at n = 1024
  oracle    oracle_margin, solve_column and kcl_residuals as n grows, and
            compare_lumped_distributed over 20 log-spaced cells at n = 64, 1024
            and 16384 (the oracle-validation workload's shape)
  analysis  find_optimal_range, argmax_resistance, sweep_grid, ablation_series
            and compensation_curve, and MarginCurve alone on one sense_grid row;
            all but sweep_grid also as .tuple_grid, on a plain tuple of the
            default grid's values (the design-space workload's kind of grid),
            which they check on every call where the package's grid is
            pre-checked
  figures   each figure writer whole, and its write_csv and render_plot
            calls replayed on the same arguments, apart from curve compute;
            validate --grid full --csv, in process
  cli       in process, build_parser built afresh (its uncached function),
            the argparse tree run_cli builds once per process; fresh
            interpreters: start-up alone, the numpy and package imports, and
            the wall time of one margin query

Every case is timed R times (timeit, a loop of about 50 ms each; the CLI
cases one interpreter each) and reported as the median and interquartile
range of seconds per call.  The JSON also carries the Python, numpy and
CPU facts and one non-performance column: the largest lumped-vs-oracle
margin gap at each n.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from crossbar_margin import (  # noqa: E402
    CellSpec,
    ReadSetup,
    SweepSpec,
    ablation_series,
    argmax_resistance,
    build_column,
    compare_lumped_distributed,
    compensation_curve,
    find_optimal_range,
    kcl_residuals,
    load_bundled_profile,
    oracle_margin,
    read_currents,
    sense_grid,
    solve_column,
    sweep_grid,
)
from crossbar_margin import figures, results, svg  # noqa: E402
from crossbar_margin.analysis import DEFAULT_N_GRID, DEFAULT_R_ON_GRID, MarginCurve  # noqa: E402
from crossbar_margin.cli import build_parser, run_cli  # noqa: E402

LOOP_SECONDS = 0.05
ORACLE_N = (256, 1024, 4096, 16384)
COMPARE_N = (64, 1024, 16384)
COMPARE_R_ON = tuple(float(r) for r in np.logspace(4.0, 8.0, 20))
GAP_N = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
GAP_R_ON = tuple(float(r) for r in np.logspace(4.0, 8.0, 40))
K, V_READ = 10.0, 0.2


def summary(per_call: list[float]) -> dict[str, float]:
    """Median and interquartile range (seconds per call)."""
    q1, _, q3 = statistics.quantiles(per_call, n=4) if len(per_call) > 1 else per_call * 3
    return {"median_s": statistics.median(per_call), "iqr_s": q3 - q1}


def time_call(fn, repeat: int) -> dict[str, float]:
    """timeit loops of about LOOP_SECONDS each, `repeat` of them."""
    timer = timeit.Timer(fn)
    number = max(1, int(LOOP_SECONDS / max(timer.timeit(1), 1e-9)))
    runs = [t / number for t in timer.repeat(repeat=repeat, number=number)]
    return dict(summary(runs), number=number, runs=repeat)


def capture_outputs(writer, profile, outdir):
    """Run one figure writer; return its write_csv and render_plot calls."""
    calls = {"write_csv": [], "render_plot": []}
    originals = {name: getattr(figures, name) for name in calls}

    def recorder(name):
        def record(*args, **kwargs):
            calls[name].append((args, kwargs))
            return originals[name](*args, **kwargs)
        return record

    try:
        for name in calls:
            setattr(figures, name, recorder(name))
        writer(profile, outdir)
    finally:
        for name, fn in originals.items():
            setattr(figures, name, fn)
    return calls


def replay(fn, calls):
    return lambda: [fn(*args, **kwargs) for args, kwargs in calls]


def model_cases(profile):
    cell, setup = CellSpec(r_on=2e4, ratio_ideal=K), ReadSetup(v_read=V_READ, n_cells=512)
    r_on = np.asarray(DEFAULT_R_ON_GRID)[:, None]
    n = np.asarray(DEFAULT_N_GRID)[None, :]
    yield "model.read_currents", lambda: read_currents(profile, cell, setup)
    yield "model.sense_grid", lambda: sense_grid(profile, r_on, K, n, V_READ)
    for engine in ("lumped", "oracle"):  # one margin curve, the call behind each sweep slice
        yield f"model.sense_grid.row.{engine}", lambda e=engine: sense_grid(
            profile, DEFAULT_R_ON_GRID, K, 1024, V_READ, engine=e)


def oracle_cases(profile):
    cell = CellSpec(r_on=2e4, ratio_ideal=K)
    for n in ORACLE_N:
        setup = ReadSetup(v_read=V_READ, n_cells=n)
        net = build_column(profile, cell, setup, "on")
        sol = solve_column(net)
        yield f"oracle.oracle_margin.n{n}", lambda s=setup: oracle_margin(profile, cell, s)
        yield f"oracle.solve_column.n{n}", lambda net=net: solve_column(net)
        yield f"oracle.kcl_residuals.n{n}", lambda net=net, sol=sol: kcl_residuals(net, sol)
    cells = [CellSpec(r_on=r, ratio_ideal=K) for r in COMPARE_R_ON]
    for n in COMPARE_N:
        setups = [ReadSetup(v_read=V_READ, n_cells=n)]
        yield f"oracle.compare_lumped_distributed.n{n}", lambda s=setups: (
            compare_lumped_distributed(profile, cells, s))


def analysis_cases(profile):
    spec = SweepSpec(DEFAULT_R_ON_GRID, DEFAULT_N_GRID, (V_READ,), K)
    cell, setup = CellSpec(r_on=1e4, ratio_ideal=K), ReadSetup(v_read=V_READ, n_cells=1024)
    row = sense_grid(profile, DEFAULT_R_ON_GRID, K, 1024, V_READ)
    plain = tuple(DEFAULT_R_ON_GRID)
    yield "analysis.find_optimal_range", lambda: find_optimal_range(profile, K, 1024, V_READ, 0.8)
    yield "analysis.find_optimal_range.tuple_grid", lambda: find_optimal_range(
        profile, K, 1024, V_READ, 0.8, plain)
    yield "analysis.argmax_resistance", lambda: argmax_resistance(
        profile, K, 1024, V_READ, DEFAULT_R_ON_GRID)
    yield "analysis.argmax_resistance.tuple_grid", lambda: argmax_resistance(
        profile, K, 1024, V_READ, plain)
    yield "analysis.sweep_grid", lambda: sweep_grid(spec, profile)
    yield "analysis.ablation_series", lambda: ablation_series(profile, cell, setup)
    yield "analysis.ablation_series.tuple_grid", lambda: ablation_series(
        profile, cell, setup, plain)
    yield "analysis.compensation_curve", lambda: compensation_curve(
        profile, K, 1024, V_READ, 0.4)
    yield "analysis.compensation_curve.tuple_grid", lambda: compensation_curve(
        profile, K, 1024, V_READ, 0.4, plain)
    yield "analysis.MarginCurve", lambda: MarginCurve("margin", DEFAULT_R_ON_GRID, row[3], row, {})
    yield "analysis.MarginCurve.tuple_grid", lambda: MarginCurve("margin", plain, row[3], row, {})


def figure_cases(profile, outdir):
    for name, writer in figures.FIGURE_WRITERS.items():
        calls = capture_outputs(writer, profile, outdir)
        yield f"figures.{name}", lambda w=writer: w(profile, outdir)
        yield f"figures.{name}.write_csv", replay(results.write_csv, calls["write_csv"])
        yield f"figures.{name}.render_plot", replay(svg.render_plot, calls["render_plot"])
    argv = ["validate", "--grid", "full", "--csv", str(Path(outdir) / "validate.csv")]

    def validate():
        with contextlib.redirect_stdout(io.StringIO()):
            if run_cli(argv) != 0:
                raise RuntimeError(f"run_cli({argv}) failed")

    yield "figures.validate_full", validate


CLI_IMPORTS = (
    "from time import perf_counter as clock\n"
    "t0 = clock()\nimport numpy\nt1 = clock()\nimport crossbar_margin.cli\nt2 = clock()\n"
    "print(t1 - t0, t2 - t1)"
)
CLI_QUERY = ["-m", "crossbar_margin", "margin", "--ron", "20e3", "--k", "10", "--n", "512",
             "--vread", "0.2", "--json"]


def cli_cases(repeat: int) -> dict[str, dict]:
    """Fresh interpreters, one per repetition, wall time (perf_counter)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def wall(args):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return perf_counter() - t0, proc.stdout

    samples = {name: [] for name in
               ("cli.interp_start", "cli.import_numpy", "cli.import_package", "cli.margin_wall")}
    for _ in range(repeat):
        samples["cli.interp_start"].append(wall(["-c", "pass"])[0])
        t_numpy, t_package = map(float, wall(["-c", CLI_IMPORTS])[1].split())
        samples["cli.import_numpy"].append(t_numpy)
        samples["cli.import_package"].append(t_package)
        samples["cli.margin_wall"].append(wall(CLI_QUERY)[0])
    return {name: dict(summary(times), number=1, runs=repeat) for name, times in samples.items()}


def gap_column(profile) -> dict[str, float]:
    """Largest lumped-vs-oracle relative margin gap (percent) at each n."""
    cells = [CellSpec(r_on=r, ratio_ideal=K) for r in GAP_R_ON]
    return {
        str(n): 100.0 * max(row.relative_gap for row in compare_lumped_distributed(
            profile, cells, [ReadSetup(v_read=V_READ, n_cells=n)]))
        for n in GAP_N
    }


def facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed repetitions per case")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to write")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    profile = load_bundled_profile()
    cases: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as outdir:
        groups = (model_cases(profile), oracle_cases(profile), analysis_cases(profile),
                  figure_cases(profile, outdir),
                  [("cli.build_parser", build_parser.__wrapped__)])
        for group in groups:
            for name, fn in group:
                cases[name] = time_call(fn, args.repeat)
    for name in figures.FIGURE_WRITERS:  # derived: the writer's time outside its output calls
        whole, csv_case, svg_case = (cases[f"figures.{name}{part}"]["median_s"]
                                     for part in ("", ".write_csv", ".render_plot"))
        cases[f"figures.{name}"]["compute_median_s"] = whole - csv_case - svg_case
    cases.update(cli_cases(args.repeat))
    for name, case in cases.items():
        case["layer"] = name.split(".")[0]

    record = {"facts": facts(), "repeat": args.repeat, "cases": cases,
              "accuracy": {"gap_max_pct": gap_column(profile)}}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    width = max(map(len, cases))
    for name, case in cases.items():
        print(f"{name:<{width}}  {1e3 * case['median_s']:10.4f} ms  "
              f"(IQR {1e3 * case['iqr_s']:.4f} ms)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
