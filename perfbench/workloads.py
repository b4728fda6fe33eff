"""The benchmark workloads: inputs drawn from the seed, tasks, checks.

A workload is a sequence of passes that the runner runs in a closed
loop.  A pass is an ordered list of tasks whose inputs are drawn from
(seed, pass index), so no pass repeats an earlier one (paper-figures,
which regenerates the paper's fixed figures, draws nothing).  A task is one
top-level public call into the package plus a check of its output
against the closed-form reference or the golden digests.  Every task
declares how many design points it requests; a point is one (R_on, k, n,
V_read, toggles, engine) evaluation, so the count is fixed by the inputs
and not by how the package evaluates it.

Package functions are always looked up through their module at call time
(``analysis.sweep_grid``, not a bound name), so the tracer's wrappers are
seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

from crossbar_margin import analysis, cli, figures, model, oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROFILE_JSON = SRC / "crossbar_margin" / "profiles" / "22nm.json"
GOLDEN_DIGESTS = HERE / "golden_digests.json"

R_ON_GRID = tuple(float(x) for x in np.logspace(4.0, 8.0, 200))
DESIGN_N_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
# Stays below the worst-case solver breakdown near n = 63 250 (0.2 V).
ORACLE_N_GRID = tuple(64 * 2 ** i for i in range(9))  # 64 .. 16384
V_GRID = (0.2, 0.4, 0.6)
K_RANGE = (5.0, 100.0)
THRESHOLD_RANGE = (0.5, 0.9)
ORACLE_R_POINTS = 20

# The accuracy column: lumped-vs-oracle gap at the conditions the
# validation claim is made for.
GAP_K = 10.0
GAP_V = 0.2
GAP_R_GRID = tuple(float(x) for x in np.logspace(4.0, 8.0, 20))

# Fixed in the order (line, transistor, leakage): all factors, then each
# one removed, so the sweep covers the same slices the ablation does.
TOGGLE_SETS = (
    (True, True, True),
    (True, False, True),
    (False, True, True),
    (True, True, False),
)
ABLATION_VARIANTS = (
    ("baseline", (True, True, True)),
    ("-R_T", (True, False, True)),
    ("-r", (False, True, True)),
    ("-I_Tleak", (True, True, False)),
)

@dataclass
class Task:
    kind: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # For sweeps: slices requested minus curves returned.
    dropped: Callable[[object], int] | None = None


@dataclass
class Context:
    root: Path
    profile: model.TechnologyProfile
    consts: ref.Constants
    tmp: Path
    python: str
    env: dict


def child_env() -> dict:
    """Environment for fresh interpreters: the source tree, one thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def make_context(tmp: Path, profile: model.TechnologyProfile) -> Context:
    return Context(root=ROOT, profile=profile, consts=ref.load_constants(PROFILE_JSON),
                   tmp=tmp, python=sys.executable, env=child_env())


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _toggles(bits) -> model.FactorToggles:
    return model.FactorToggles(*bits)


def _lumped(ctx: Context, grid, k, n, v, bits=(True, True, True)):
    return ref.lumped_margin(ctx.consts, grid, k, n, v, *bits)


def _first_error(*messages) -> str | None:
    return next((m for m in messages if m), None)


def check_range(ctx, out, grid, k, n, v, threshold) -> str | None:
    """find_optimal_range: endpoints above threshold, 1 % resolution, no gap."""
    tol = ref.REL_TOL
    margins = _lumped(ctx, grid, k, n, v)
    if out is None:
        if margins.max() >= threshold * (1 + tol):
            return f"range None but reference peak {margins.max()!r} >= {threshold!r}"
        return None
    lo, hi = out
    grid_a = np.asarray(grid)
    if not (grid[0] * (1 - 1e-12) <= lo <= hi <= grid[-1] * (1 + 1e-12)):
        return f"range {out!r} not ordered inside the grid"
    edge = _lumped(ctx, [lo, hi], k, n, v)
    if edge.min() < threshold * (1 - tol):
        return f"range {out!r} endpoint margins {edge.tolist()!r} below {threshold!r}"
    inside = grid_a[margins >= threshold * (1 + tol)]
    if inside.size and (inside.min() < lo * (1 - 1e-12) or inside.max() > hi * (1 + 1e-12)):
        return f"range {out!r} misses grid points above threshold"
    outer = [r for r, at_edge in ((lo / 1.01, lo <= grid[0]), (hi * 1.01, hi >= grid[-1]))
             if not at_edge]
    if outer and _lumped(ctx, outer, k, n, v).max() >= threshold * (1 + tol):
        return f"range {out!r} coarser than 1 % resolution"
    return None


def check_argmax(ctx, out, grid, k, n, v) -> str | None:
    margins = _lumped(ctx, grid, k, n, v)
    if out not in grid:
        return f"argmax {out!r} not a grid point"
    got = margins[grid.index(out)]
    if got < margins.max() * (1 - ref.REL_TOL):
        return f"argmax {out!r} margin {got!r} below reference peak {margins.max()!r}"
    return None


# ---------------------------------------------------------------- design-space


def design_space(ctx: Context, rng: random.Random) -> list[Task]:
    """Five analysis tasks per (n, V_read) over the 200-point R_on grid."""
    profile, grid = ctx.profile, R_ON_GRID
    toggle_sets = tuple(_toggles(b) for b in TOGGLE_SETS)
    tasks = []
    for n in DESIGN_N_GRID:
        for i, v in enumerate(V_GRID):
            k = _log_uniform(rng, *K_RANGE)
            threshold = rng.uniform(*THRESHOLD_RANGE)
            v_alt = V_GRID[(i + 1) % len(V_GRID)]
            spec = analysis.SweepSpec(r_on_grid=grid, n_grid=(n,), v_read_grid=(v,),
                                      ratio_ideal=k, toggles=toggle_sets)
            setup = model.ReadSetup(v_read=v, n_cells=n)
            cell = model.CellSpec(r_on=grid[0], ratio_ideal=k)

            def check_sweep(curves, k=k, n=n, v=v):
                if len(curves) != len(TOGGLE_SETS):
                    return f"sweep_grid returned {len(curves)} of {len(TOGGLE_SETS)} slices"
                return _first_error(*(
                    _first_error(
                        None if curve.meta["toggles"] == _toggles(bits)
                        else f"slice {j} has toggles {curve.meta['toggles']!r}",
                        None if curve.x == grid else f"slice {j} x differs from the grid",
                        ref.mismatch(f"sweep slice {j} margin", curve.y,
                                     _lumped(ctx, grid, k, n, v, bits)))
                    for j, (curve, bits) in enumerate(zip(curves, TOGGLE_SETS))))

            def check_ablation(series, k=k, n=n, v=v):
                labels = [label for label, _ in series]
                if labels != [label for label, _ in ABLATION_VARIANTS]:
                    return f"ablation labels {labels!r}"
                return _first_error(*(
                    ref.mismatch(f"ablation {label} margin", curve.y,
                                 _lumped(ctx, grid, k, n, v, bits))
                    for (label, curve), (_, bits) in zip(series, ABLATION_VARIANTS)))

            def check_gain(curve, k=k, n=n, v=v, v_alt=v_alt):
                want = _lumped(ctx, grid, k, n, v_alt) - _lumped(ctx, grid, k, n, v)
                return ref.mismatch("compensation gain", curve.y, want, rel=0.0,
                                    abs_=ref.ABS_TOL)

            tasks += [
                Task("sweep_grid", len(grid) * len(TOGGLE_SETS),
                     lambda spec=spec: analysis.sweep_grid(spec, profile),
                     check_sweep, lambda curves: len(TOGGLE_SETS) - len(curves)),
                Task("find_optimal_range", len(grid),
                     lambda k=k, n=n, v=v, t=threshold: analysis.find_optimal_range(
                         profile, k, n, v, t, grid),
                     lambda out, k=k, n=n, v=v, t=threshold: check_range(
                         ctx, out, grid, k, n, v, t)),
                Task("argmax_resistance", len(grid),
                     lambda k=k, n=n, v=v: analysis.argmax_resistance(profile, k, n, v, grid),
                     lambda out, k=k, n=n, v=v: check_argmax(ctx, out, grid, k, n, v)),
                Task("ablation_series", len(grid) * len(ABLATION_VARIANTS),
                     lambda cell=cell, setup=setup: analysis.ablation_series(
                         profile, cell, setup, grid),
                     check_ablation),
                Task("compensation_curve", 2 * len(grid),
                     lambda k=k, n=n, v=v, v_alt=v_alt: analysis.compensation_curve(
                         profile, k, n, v, v_alt, grid),
                     check_gain),
            ]
    return tasks


# ----------------------------------------------------------- oracle-validation


def check_rows(ctx, rows, r_pts, k, n, v) -> str | None:
    if len(rows) != len(r_pts):
        return f"compare returned {len(rows)} rows for {len(r_pts)} cells"
    errors = [row.error for row in rows if row.error is not None]
    if errors:
        return f"compare row failed: {errors[0]}"
    r_on = [row.r_on for row in rows]
    lumped = np.array([row.margin_lumped for row in rows])
    dist = np.array([row.margin_oracle for row in rows])
    gap = np.array([row.relative_gap for row in rows])
    want_dist = ref.distributed_margin(ctx.consts, r_pts, k, n, v)
    return _first_error(
        None if r_on == list(r_pts) else "compare rows out of order",
        ref.mismatch(f"n={n} lumped margin", lumped, _lumped(ctx, r_pts, k, n, v)),
        ref.mismatch(f"n={n} oracle margin", dist, want_dist),
        ref.mismatch(f"n={n} relative gap", gap, np.abs(lumped - want_dist) / want_dist,
                     rel=0.0, abs_=ref.ABS_TOL),
    )


def check_network(ctx, solved, r_on, k, n, v) -> str | None:
    state, sol, kcl, kvl = solved
    r_state = r_on if state == "on" else k * r_on
    return _first_error(
        None if len(kcl) == 2 * n - 1 else f"kcl has {len(kcl)} entries for n={n}",
        None if kcl.max() <= ref.KCL_TOL else f"n={n} {state}: KCL residual {kcl.max()!r}",
        None if kvl <= ref.KVL_TOL else f"n={n} {state}: KVL residual {kvl!r}",
        ref.mismatch(f"n={n} {state} sensed current", sol.i_sensed,
                     ref.distributed_current(ctx.consts, r_state, n, v)),
    )


def oracle_validation(ctx: Context, rng: random.Random) -> list[Task]:
    """compare_lumped_distributed per n, and one Kirchhoff-checked network per n and state."""
    profile = ctx.profile
    tasks = []
    for n in ORACLE_N_GRID:
        k = _log_uniform(rng, *K_RANGE)
        v = rng.choice(V_GRID)
        r_pts = tuple(sorted(_log_uniform(rng, 1e4, 1e8) for _ in range(ORACLE_R_POINTS)))
        r_net = rng.choice(r_pts)
        cells = [model.CellSpec(r_on=r, ratio_ideal=k) for r in r_pts]
        setup = model.ReadSetup(v_read=v, n_cells=n)
        net_cell = model.CellSpec(r_on=r_net, ratio_ideal=k)

        def solve_and_verify(state, cell=net_cell, setup=setup):
            net = oracle.build_column(profile, cell, setup, state)
            sol = oracle.solve_column(net)
            return state, sol, oracle.kcl_residuals(net, sol), oracle.kvl_loop_residual(net, sol)

        # Each row is two points, one lumped and one oracle evaluation.  A
        # single-state network solve is no margin evaluation: it requests
        # no points, so its time only lowers points_per_s.
        tasks.append(Task(
            "compare_lumped_distributed", 2 * len(cells),
            lambda cells=cells, setup=setup: oracle.compare_lumped_distributed(
                profile, cells, [setup]),
            lambda rows, r_pts=r_pts, k=k, n=n, v=v: check_rows(ctx, rows, r_pts, k, n, v)))
        tasks += [
            Task("network_residuals", 0, lambda state=state, f=solve_and_verify: f(state),
                 lambda solved, r=r_net, k=k, n=n, v=v: check_network(ctx, solved, r, k, n, v))
            for state in ("on", "off")
        ]
    return tasks


def gap_column(ctx: Context) -> tuple[dict[int, float], str | None]:
    """Largest lumped-vs-oracle relative margin gap (percent) at each n."""
    cells = [model.CellSpec(r_on=r, ratio_ideal=GAP_K) for r in GAP_R_GRID]
    gaps, problems = {}, []
    for n in ORACLE_N_GRID:
        rows = oracle.compare_lumped_distributed(
            ctx.profile, cells, [model.ReadSetup(v_read=GAP_V, n_cells=n)])
        problems.append(check_rows(ctx, rows, GAP_R_GRID, GAP_K, n, GAP_V))
        gaps[n] = 100.0 * max(row.relative_gap for row in rows)
    return gaps, _first_error(*problems)


# --------------------------------------------------------------- paper-figures


@functools.cache
def _golden_digests() -> dict:
    return json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digests(paths, golden: dict) -> str | None:
    for path in paths:
        path = Path(path)
        want = golden.get(path.name)
        if want is None:
            return f"no golden digest for {path.name}"
        if _sha256(path) != want:
            return f"{path.name} differs from its golden digest"
    return None


def paper_figures(ctx: Context, rng: random.Random) -> list[Task]:
    """fig3..fig6 and `validate --grid full --csv`; fixed inputs, nothing drawn."""
    golden = _golden_digests()
    outdir = ctx.tmp / "figures"
    outdir.mkdir(parents=True, exist_ok=True)
    profile = ctx.profile
    validate_csv = outdir / "validate.csv"
    expected = {
        "write_fig3": {"fig3.csv", "fig3a.svg", "fig3b.svg", "fig3c.svg"},
        "write_fig4": {"fig4a.csv", "fig4a.svg", "fig4b.csv", "fig4b.svg"},
        "write_fig5": {"fig5.csv", "fig5.svg"},
        "write_fig6": {"fig6.csv", "fig6_margins.svg", "fig6.svg"},
    }
    # Design points per figure: fig3 7 curves x 7 n; fig4 2 x 5 n x 200
    # lumped + 5 n x 20 oracle; fig5 4 variants x 200; fig6 3 V x 200
    # plus 2 gains x 2 V x 200; validate 20 R_on x 5 n x 2 engines.
    points = {"write_fig3": 49, "write_fig4": 2100, "write_fig5": 800,
              "write_fig6": 1400}

    def figure_task(kind):
        def check(paths):
            names = {Path(p).name for p in paths}
            if names != expected[kind]:
                return f"{kind} wrote {sorted(names)!r}"
            return check_digests(paths, golden)
        return Task(kind, points[kind],
                    lambda: getattr(figures, kind)(profile, outdir), check)


    def check_validate(out):
        rc, text = out
        if rc != 0 or "verdict: PASS" not in text:
            return f"validate exited {rc}: {text.strip().splitlines()[-1:]!r}"
        return check_digests([validate_csv], golden)

    tasks = [figure_task(kind) for kind in sorted(expected)]
    tasks.append(Task("validate_full", 200,
                      lambda: run_cli_inprocess(["validate", "--grid", "full",
                                                 "--csv", str(validate_csv)]),
                      check_validate))
    return tasks


# ------------------------------------------------------------ CLI compute probe


def cli_argvs(seed: int, index: int) -> list[list[str]]:
    """CLI queries drawn from (seed, index), behind the cli.compute_ms probe."""
    rng = pass_rng(seed, index)
    r_on = _log_uniform(rng, 1e4, 1e6)
    k = _log_uniform(rng, *K_RANGE)
    n = rng.choice(DESIGN_N_GRID)
    v = rng.choice(V_GRID)
    threshold = rng.uniform(*THRESHOLD_RANGE)
    v_base, v_alt = sorted(rng.sample(V_GRID, 2))
    point = ["--ron", repr(r_on), "--k", repr(k), "--n", str(n), "--vread", repr(v)]
    column = ["--k", repr(k), "--n", str(n)]
    return [
        ["margin", *point, "--engine", "lumped", "--json"],
        ["margin", *point, "--engine", "oracle", "--json"],
        ["optimal-range", *column, "--vread", repr(v), "--threshold", repr(threshold), "--json"],
        ["compensate", *column, "--vbase", repr(v_base), "--valt", repr(v_alt)],
        ["validate", "--grid", "quick", "--k", repr(k), "--vread", repr(v)],
    ]


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_cli_output(ctx: Context, argv: list[str], text: str) -> str | None:
    """Check one CLI invocation's stdout against the reference."""
    command = argv[0]
    k = float(_opt(argv, "--k"))
    if command == "validate":
        v = float(_opt(argv, "--vread"))
        found = re.search(r"max relative margin gap = (\S+) ", text)
        if "verdict: PASS" not in text or not found:
            return f"validate did not pass: {text!r}"
        r_pts = np.logspace(4.0, 8.0, 8)
        worst = max(
            float(np.max(np.abs(_lumped(ctx, r_pts, k, nn, v) - dist) / dist))
            for nn in (256, 1024)
            for dist in [ref.distributed_margin(ctx.consts, r_pts, k, nn, v)])
        return ref.mismatch("max gap", float(found.group(1)), worst, rel=1e-3, abs_=ref.ABS_TOL)
    if command == "margin":
        r_on, n, v = float(_opt(argv, "--ron")), int(_opt(argv, "--n")), float(_opt(argv, "--vread"))
        got = json.loads(text)["margin_normalized"]
        if _opt(argv, "--engine") == "lumped":
            want = _lumped(ctx, [r_on], k, n, v)[0]
        else:
            want = ref.distributed_margin(ctx.consts, [r_on], k, n, v)[0]
        return ref.mismatch("margin", got, want)
    n = int(_opt(argv, "--n"))
    if command == "optimal-range":
        v, threshold = float(_opt(argv, "--vread")), float(_opt(argv, "--threshold"))
        out = json.loads(text)
        span = None if out["r_low_ohm"] is None else (out["r_low_ohm"], out["r_high_ohm"])
        peak = out["peak_r_on_ohm"]
        return _first_error(
            check_range(ctx, span, R_ON_GRID, k, n, v, threshold),
            ref.mismatch("peak margin", out["peak_margin"], _lumped(ctx, [peak], k, n, v)[0]),
            ref.mismatch("peak r_on", peak, _nearest(R_ON_GRID, peak)),
            check_argmax(ctx, _nearest(R_ON_GRID, peak), R_ON_GRID, k, n, v),
        )
    if command == "compensate":
        v_base, v_alt = float(_opt(argv, "--vbase")), float(_opt(argv, "--valt"))
        found = re.search(r": (-?[0-9.]+) at R_on=(\S+) ohm", text)
        if not found:
            return f"compensate output not understood: {text!r}"
        gain = _lumped(ctx, R_ON_GRID, k, n, v_alt) - _lumped(ctx, R_ON_GRID, k, n, v_base)
        at = R_ON_GRID.index(_nearest(R_ON_GRID, float(found.group(2))))
        return _first_error(
            None if gain[at] >= gain.max() - ref.ABS_TOL else "compensate peak is not the maximum",
            ref.mismatch("printed gain", float(found.group(1)), gain[at], rel=0.0, abs_=5.1e-5),
        )
    return f"unknown command {command!r}"


def _nearest(grid, value: float) -> float:
    return min(grid, key=lambda r: abs(math.log(r / value)))


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.run_cli(argv)
    return rc, stdout.getvalue()


BUILDERS = {
    "design-space": design_space,
    "oracle-validation": oracle_validation,
    "paper-figures": paper_figures,
}


def pass_rng(seed: int, index: int) -> random.Random:
    """The generator for pass `index` of a run: no two passes share inputs."""
    return random.Random(f"{seed}/{index}")


def build(name: str, ctx: Context, seed: int, index: int) -> list[Task]:
    """Pass `index` of the named workload, its inputs drawn from (seed, index).

    Every pass has the same tasks in the same order (same kind, n and
    V_read at each position); only the drawn values differ.
    """
    return BUILDERS[name](ctx, pass_rng(seed, index))
