"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in the captured output) and enforces its runtime budget.  Tolerances are
fixed here, not configurable.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from crossbar_margin import (
    CellSpec,
    FactorToggles,
    ReadSetup,
    TechnologyProfile,
    argmax_resistance,
    build_column,
    compare_lumped_distributed,
    compensation_curve,
    find_optimal_range,
    kcl_residuals,
    load_bundled_profile,
    read_currents,
    solve_column,
)
from crossbar_margin.analysis import DEFAULT_R_ON_GRID
from crossbar_margin.cli import run_cli

PROFILE = load_bundled_profile()


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {num:>2} ({name}): {status} in {elapsed:.2f}s")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_criterion_01_reduction_identity():
    """All non-idealities disabled: effective ratio equals ideal exactly."""
    with criterion(1, "reduction identity", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            cell = CellSpec(
                r_on=float(10 ** rng.uniform(2, 9)),
                ratio_ideal=float(rng.uniform(1.0, 1e4)),
            )
            setup = ReadSetup(
                v_read=float(rng.uniform(0.01, 2.0)),
                n_cells=int(rng.integers(1, 8193)),
                toggles=FactorToggles(False, False, False),
            )
            assert read_currents(PROFILE, cell, setup).ratio_effective == cell.ratio_ideal


def test_criterion_02_margin_anchor_512():
    """Reference operating point: margin around 85-87 percent."""
    with criterion(2, "n=512 margin anchor", 1.0):
        res = read_currents(PROFILE, CellSpec(20e3, 10), ReadSetup(0.2, 512))
        assert 0.84 <= res.margin_normalized <= 0.89


def test_criterion_03_intermediate_resistance_optimal():
    """50 kOhm beats 10 kOhm and 100 kOhm for every large column size."""
    with criterion(3, "joint-effect optimum at 50 kOhm", 1.0):
        for n in (1024, 2048, 4096):
            best = argmax_resistance(PROFILE, 10.0, n, 0.2, (1e4, 5e4, 1e5))
            assert best == 5e4, f"n={n}: argmax {best}"


def test_criterion_04_optimal_band():
    """The 80 percent band at n=1024 brackets the headline 20k..150k range."""
    with criterion(4, "optimal resistance band", 5.0):
        span = find_optimal_range(PROFILE, 10.0, 1024, 0.2, 0.80)
        assert span is not None
        r_low, r_high = span
        assert 10e3 <= r_low <= 30e3, f"r_low {r_low}"
        assert 80e3 <= r_high <= 200e3, f"r_high {r_high}"
        # stable to 1 %: identical rerun, and a 2x denser pre-sweep
        assert find_optimal_range(PROFILE, 10.0, 1024, 0.2, 0.80) == span
        dense_grid = tuple(float(x) for x in np.logspace(4, 8, 400))
        dense = find_optimal_range(PROFILE, 10.0, 1024, 0.2, 0.80, dense_grid)
        assert dense is not None
        assert abs(r_low - dense[0]) / dense[0] <= 0.01
        assert abs(r_high - dense[1]) / dense[1] <= 0.01


def test_criterion_05_read_voltage_compensation():
    """Peak margin gain: about 8 percent at 0.4 V and 11 percent at 0.6 V."""
    with criterion(5, "read-voltage compensation", 5.0):
        gain4 = compensation_curve(PROFILE, 10.0, 1024, 0.2, 0.4, DEFAULT_R_ON_GRID)
        gain6 = compensation_curve(PROFILE, 10.0, 1024, 0.2, 0.6, DEFAULT_R_ON_GRID)
        assert len(gain4.x) == 200
        assert abs(max(gain4.y) - 0.08) <= 0.015, max(gain4.y)
        assert abs(max(gain6.y) - 0.11) <= 0.015, max(gain6.y)


def test_criterion_06_model_matches_network_solver():
    """Lumped model vs distributed solver within 1 percent over the full grid."""
    with criterion(6, "model vs network solver", 30.0):
        cells = [CellSpec(float(r), 10.0) for r in np.logspace(4, 8, 20)]
        setups = [ReadSetup(0.2, n) for n in (256, 512, 1024, 2048, 4096)]
        rows = compare_lumped_distributed(PROFILE, cells, setups)
        assert len(rows) == 100
        assert all(row.error is None for row in rows)
        worst = max(row.relative_gap for row in rows)
        assert worst <= 0.01, f"max relative gap {worst}"


def test_criterion_07_monotonicity_suite():
    """10^4 randomized monotonicity checks with zero violations.

    The 1e-12 slack only absorbs last-place float rounding; any real
    monotonicity violation is orders of magnitude larger.
    """
    with criterion(7, "monotonicity suite", 10.0):
        rng = np.random.default_rng(20240815)
        table = ((0.2, 4e-11), (0.6, 8e-11))

        def margin(profile, r_on, k, n, setup_kwargs=None):
            setup = ReadSetup(0.2, n, **(setup_kwargs or {}))
            return read_currents(profile, CellSpec(r_on, k), setup).margin_normalized

        # non-increasing in column length
        for _ in range(2000):
            r_on = float(10 ** rng.uniform(3, 8))
            k = float(rng.uniform(1.0, 500))
            n1, n2 = sorted(int(v) for v in rng.integers(1, 8193, size=2))
            assert margin(PROFILE, r_on, k, n2) <= margin(PROFILE, r_on, k, n1) + 1e-12

        # non-increasing in each technology non-ideality
        for which in ("r_unit", "r_transistor", "i_leak"):
            for _ in range(2000):
                r_on = float(10 ** rng.uniform(3, 8))
                k = float(rng.uniform(1.0, 500))
                n = int(rng.integers(1, 4097))
                lo, hi = sorted(float(v) for v in rng.uniform(0.0, 1.0, size=2))
                base = {"r_unit": 2.5, "r_transistor": 1700.0, "i_leak": 4e-11}
                scale = {"r_unit": 50.0, "r_transistor": 5e4, "i_leak": 1e-8}[which]
                margins = []
                for value in (lo, hi):
                    params = dict(base)
                    params[which] = value * scale
                    profile = TechnologyProfile(
                        "synthetic",
                        params["r_unit"],
                        params["r_transistor"],
                        ((0.2, params["i_leak"]), (0.6, params["i_leak"] * 2)),
                    )
                    margins.append(margin(profile, r_on, k, n))
                assert margins[1] <= margins[0] + 1e-12

        # line-drop only: strictly increasing in r_on
        strict_off = {"toggles": FactorToggles(leakage=False)}
        for _ in range(1000):
            k = float(rng.uniform(1.5, 500))
            n = int(rng.integers(1, 8193))
            r1 = float(10 ** rng.uniform(3, 7.5))
            r2 = r1 * float(rng.uniform(1.01, 10.0))
            assert margin(PROFILE, r2, k, n, strict_off) > margin(PROFILE, r1, k, n, strict_off)

        # leakage only: strictly decreasing in r_on
        leak_only = {
            "toggles": FactorToggles(line_resistance=False, transistor_resistance=False)
        }
        for _ in range(1000):
            k = float(rng.uniform(1.5, 500))
            n = int(rng.integers(2, 8193))
            r1 = float(10 ** rng.uniform(3, 7.5))
            r2 = r1 * float(rng.uniform(1.01, 10.0))
            assert margin(PROFILE, r2, k, n, leak_only) < margin(PROFILE, r1, k, n, leak_only)


def test_criterion_08_network_solver_physics():
    """Kirchhoff residuals at solver tolerance; n=2 matches the hand solution."""
    with criterion(8, "network solver physics", 5.0):
        for n in (1, 2, 64, 1024, 8192):
            for r_on in (10e3, 100e3, 100e6):
                for state in ("on", "off"):
                    net = build_column(
                        PROFILE, CellSpec(r_on, 10), ReadSetup(0.2, n), state
                    )
                    sol = solve_column(net)
                    worst = kcl_residuals(net, sol).max()
                    assert worst <= 1e-12, f"n={n} {state} residual {worst}"

        # hand-derived 2-cell nodal solution, 12 significant digits
        v, r, rc, i_leak = 0.2, 2.5, 21700.0, 4e-11
        expected = {
            "b1": (v - i_leak * r) * (rc + r) / (rc + 2 * r),
            "b2": (v - i_leak * r) * rc / (rc + 2 * r),
            "s1": i_leak * r,
            "i_cell": (v - i_leak * r) / (rc + 2 * r),
        }
        net = build_column(PROFILE, CellSpec(20e3, 10), ReadSetup(0.2, 2), "on")
        sol = solve_column(net)
        assert sol.bl_voltages[0] == pytest.approx(expected["b1"], rel=1e-12)
        assert sol.bl_voltages[1] == pytest.approx(expected["b2"], rel=1e-12)
        assert sol.sl_voltages[0] == pytest.approx(expected["s1"], rel=1e-12)
        assert sol.i_selected_cell == pytest.approx(expected["i_cell"], rel=1e-12)
        assert sol.i_sensed == pytest.approx(expected["i_cell"] + i_leak, rel=1e-12)


def test_criterion_09_higher_ratio_shifts_optimum_lower():
    """Dense-grid argmax at k=100 sits at or below the k=10 argmax."""
    with criterion(9, "ratio shift of the optimum", 2.0):
        best_k10 = argmax_resistance(PROFILE, 10.0, 1024, 0.2, DEFAULT_R_ON_GRID)
        best_k100 = argmax_resistance(PROFILE, 100.0, 1024, 0.2, DEFAULT_R_ON_GRID)
        assert best_k100 <= best_k10, (best_k100, best_k10)


def test_criterion_10_figure_outputs_deterministic(tmp_path):
    """fig3..fig6 produce byte-identical CSV/SVG across two runs."""
    with criterion(10, "figure determinism", 60.0):
        runs = [tmp_path / "one", tmp_path / "two"]
        for outdir in runs:
            outdir.mkdir()
            for command in ("fig3", "fig4", "fig5", "fig6"):
                assert run_cli([command, "--outdir", str(outdir)]) == 0
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir())
        assert names, "figure commands wrote no files"
        for name in names:
            first = (runs[0] / name).read_bytes()
            second = (runs[1] / name).read_bytes()
            assert first == second, f"{name} differs between runs"
