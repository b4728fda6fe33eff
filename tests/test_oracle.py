"""Tests for the distributed column solver.

The n=2 network is solved symbolically from first principles inside the
test; larger networks are cross-checked against an independent dense
nodal-analysis solve (tests/nodal_reference.py) and against closed-form
limits.
"""

import copy
import dataclasses
import itertools
import math
import pickle
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbar_margin import (
    CellSpec,
    ColumnNetwork,
    ComparisonRow,
    FactorToggles,
    ReadSetup,
    SolverError,
    TechnologyProfile,
    build_column,
    compare_lumped_distributed,
    kcl_residuals,
    kvl_loop_residual,
    oracle_margin,
    read_currents,
    sense_grid,
    solve_column,
)
from crossbar_margin import model, oracle
from crossbar_margin.analysis import DEFAULT_R_ON_GRID
from crossbar_margin.figures import write_validation_csv
from compare_reference import compare_lumped_distributed as compare_reference
from kirchhoff_reference import kcl_residuals_loop, kvl_loop_residual_loop, solve_column_cumsum
from nodal_reference import dense_nodal_solution

# The hypothesis tests live at module level: hypothesis takes a method's instance
# as its executor, and a test collected twice (--keep-duplicates) would meet two
# of them and fail its health check.

REL = 1e-12
TOGGLE_SETS = [FactorToggles(*bits) for bits in itertools.product((True, False), repeat=3)]


class TestBuildColumn:
    def test_single_cell(self, profile22):
        net = build_column(
            profile22, CellSpec(20e3, 10), ReadSetup(v_read=0.2, n_cells=1), "on"
        )
        assert net.r_cell_on_path == 21700.0
        assert net.r_segment == 2.5
        assert net.n_cells == 1 and net.selected_index == 1
        assert net.i_leak_per_cell == 4e-11

    def test_reference_column_counts(self, profile22):
        net = build_column(
            profile22, CellSpec(20e3, 10), ReadSetup(v_read=0.2, n_cells=512), "on"
        )
        assert net.n_cells == 512  # n segments on the worst-case path
        assert net.selected_index == 512  # 511 leaking neighbors
        assert net.i_leak_per_cell == 4e-11
        assert net.v_drive == 0.2

    def test_off_state_uses_derived_resistance(self, profile22):
        net = build_column(
            profile22, CellSpec(20e3, 10), ReadSetup(v_read=0.2, n_cells=4), "off"
        )
        assert net.r_cell_on_path == 200e3 + 1700.0

    def test_leakage_toggle_zeroes_sources(self, profile22):
        net = build_column(
            profile22,
            CellSpec(20e3, 10),
            ReadSetup(0.2, 4, FactorToggles(leakage=False)),
            "on",
        )
        assert net.i_leak_per_cell == 0.0

    def test_invalid_state_rejected(self, profile22):
        with pytest.raises(ValueError):
            build_column(profile22, CellSpec(20e3, 10), ReadSetup(0.2, 4), "half")

    def test_network_validation(self):
        with pytest.raises(ValueError):
            ColumnNetwork(0, 2.5, 1e4, 0.0, 1, 0.2)
        with pytest.raises(ValueError):
            ColumnNetwork(4, 2.5, 1e4, 0.0, 5, 0.2)
        with pytest.raises(ValueError):
            ColumnNetwork(4, -1.0, 1e4, 0.0, 4, 0.2)
        with pytest.raises(ValueError):
            ColumnNetwork(4, 2.5, 0.0, 0.0, 4, 0.2)
        with pytest.raises(ValueError):
            ColumnNetwork(4, 2.5, 1e4, -1e-12, 4, 0.2)

    @pytest.mark.parametrize("v_drive", [0.0, -0.0])
    def test_a_zero_drive_is_rejected(self, v_drive):
        # kvl_loop_residual is relative to the drive; a negative drive stays valid.
        with pytest.raises(ValueError, match=re.escape(
                f"v_drive must be finite and nonzero, got {v_drive!r}")):
            ColumnNetwork(4, 2.5, 2e4, 4e-11, 2, v_drive)


class TestSolveColumn:
    def test_single_cell_is_ohms_law(self, profile22):
        net = build_column(
            profile22, CellSpec(20e3, 10), ReadSetup(v_read=0.2, n_cells=1), "on"
        )
        sol = solve_column(net)
        assert sol.i_sensed == pytest.approx(0.2 / 21702.5, rel=REL)
        assert sol.i_sensed == pytest.approx(9.2155e-06, abs=1e-10)
        assert sol.i_selected_cell == sol.i_sensed

    def test_two_cell_ladder_matches_hand_solution(self, profile22):
        # First-principles nodal solution of the 2-cell ladder, selected
        # at the far end: cell current i = (V - I*r) / (r_cell + 2r),
        # bit-line nodes V - i*r*(1,2) shifted by the neighbor's leakage
        # share, source-line node s1 = I*r.
        v, r, rc, i_leak = 0.2, 2.5, 21700.0, 4e-11
        vb1 = (v - i_leak * r) * (rc + r) / (rc + 2 * r)
        vb2 = (v - i_leak * r) * rc / (rc + 2 * r)
        vs1 = i_leak * r
        i_cell = vb2 / rc
        i_sensed = i_cell + i_leak

        net = build_column(
            profile22, CellSpec(20e3, 10), ReadSetup(v_read=0.2, n_cells=2), "on"
        )
        sol = solve_column(net)
        assert sol.bl_voltages[0] == pytest.approx(vb1, rel=REL)
        assert sol.bl_voltages[1] == pytest.approx(vb2, rel=REL)
        assert sol.sl_voltages[0] == pytest.approx(vs1, rel=REL)
        assert sol.sl_voltages[1] == 0.0
        assert sol.i_selected_cell == pytest.approx(i_cell, rel=REL)
        assert sol.i_sensed == pytest.approx(i_sensed, rel=REL)

    def test_distributed_current_near_lumped(self, profile22):
        # the lumped series formula should stay within 1 % of the network
        net = build_column(
            profile22, CellSpec(50e3, 10), ReadSetup(v_read=0.2, n_cells=1024), "on"
        )
        sol = solve_column(net)
        lumped = 0.2 / (50e3 + 1700.0 + 1024 * 2.5)
        assert sol.i_selected_cell == pytest.approx(lumped, rel=1e-2)

    def test_superposition_without_leakage_is_exact(self, profile22):
        for n in (1, 2, 7, 512):
            net = build_column(
                profile22,
                CellSpec(20e3, 10),
                ReadSetup(0.2, n, FactorToggles(leakage=False)),
                "on",
            )
            sol = solve_column(net)
            assert sol.i_sensed == net.v_drive / (
                net.r_cell_on_path + net.n_cells * net.r_segment
            )

    def test_linearity_doubling_drive(self):
        base = ColumnNetwork(512, 2.5, 21700.0, 0.0, 512, 0.2)
        doubled = ColumnNetwork(512, 2.5, 21700.0, 0.0, 512, 0.4)
        assert solve_column(doubled).i_sensed == 2 * solve_column(base).i_sensed

    def test_zero_segment_resistance_collapses(self, profile22):
        net = build_column(
            profile22,
            CellSpec(20e3, 10),
            ReadSetup(0.2, 64, FactorToggles(line_resistance=False)),
            "on",
        )
        sol = solve_column(net)
        assert np.all(sol.bl_voltages == 0.2)
        assert np.all(sol.sl_voltages == 0.0)
        assert sol.i_selected_cell == 0.2 / 21700.0
        assert sol.i_sensed == pytest.approx(0.2 / 21700.0 + 63 * 4e-11, rel=REL)

    def test_current_conservation(self, profile22):
        for n in (2, 64, 1024):
            net = build_column(
                profile22, CellSpec(20e3, 10), ReadSetup(0.2, n), "on"
            )
            sol = solve_column(net)
            expected = sol.i_selected_cell + (n - 1) * net.i_leak_per_cell
            assert sol.i_sensed == pytest.approx(expected, rel=1e-15)

    def test_monotonic_in_segment_resistance(self):
        currents = [
            solve_column(ColumnNetwork(256, r, 21700.0, 4e-11, 256, 0.2)).i_sensed
            for r in (0.0, 0.5, 2.5, 10.0, 50.0)
        ]
        assert all(b <= a for a, b in zip(currents, currents[1:]))

    def test_monotonic_in_length_without_leakage(self):
        currents = [
            solve_column(ColumnNetwork(n, 2.5, 21700.0, 0.0, n, 0.2)).i_sensed
            for n in (1, 2, 64, 512, 4096)
        ]
        assert all(b <= a for a, b in zip(currents, currents[1:]))

    def test_margin_non_increasing_in_length_with_leakage(self, profile22):
        cell = CellSpec(20e3, 10)
        margins = [
            oracle_margin(profile22, cell, ReadSetup(0.2, n)).margin_normalized
            for n in (1, 64, 512, 4096)
        ]
        assert all(b <= a for a, b in zip(margins, margins[1:]))

    def test_non_finite_solution_raises(self):
        # subnormal cell resistance and no line resistance: the cell
        # current overflows and must be reported, not returned as inf
        with pytest.raises(SolverError):
            solve_column(ColumnNetwork(4, 0.0, 5e-324, 0.0, 4, 0.2))


def assert_same_solution(got, reference):
    """got equals solve_column_cumsum's (solution, bl, sl) bit for bit: every field and both
    voltages against the reference's own; arrays by bytes, floats with their sign."""
    want, bl, sl = reference
    pairs = [(field.name, getattr(got, field.name), getattr(want, field.name))
             for field in dataclasses.fields(want)]
    for name, a, b in pairs + [("bl_voltages", got.bl_voltages, bl),
                               ("sl_voltages", got.sl_voltages, sl)]:
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        elif isinstance(b, ColumnNetwork):  # its repr shows each value's sign
            assert (a, repr(a)) == (b, repr(b)), name
        else:
            assert (type(a), a, math.copysign(1.0, a)) == (type(b), b, math.copysign(1.0, b)), name


class TestSolveColumnEqualsCumsumReference:
    """solve_column's closed-form leakage counts give the cumsum solve's bits."""

    @pytest.mark.parametrize("n", range(1, 18))
    def test_every_position_toggle_set_and_state(self, profile22, n):
        for toggles, state, sel in itertools.product(TOGGLE_SETS, ("on", "off"), range(1, n + 1)):
            net = build_column(profile22, CellSpec(2e4, 10), ReadSetup(0.2, n, toggles), state, sel)
            assert_same_solution(solve_column(net), solve_column_cumsum(net))

    @pytest.mark.parametrize("n", [1024, 16384])
    def test_long_columns_at_both_ends_and_the_middle(self, profile22, n):
        for toggles, state, sel in itertools.product(
                TOGGLE_SETS, ("on", "off"), (1, (n + 1) // 2, n)):
            net = build_column(profile22, CellSpec(2e4, 10), ReadSetup(0.2, n, toggles), state, sel)
            assert_same_solution(solve_column(net), solve_column_cumsum(net))

    @pytest.mark.parametrize("i_leak, v_drive", [(1.0, 0.2), (0.0, -0.2), (-0.0, -0.2),
                                                 (-0.0, 0.2)])
    def test_negative_drive_and_signed_zero_leakage(self, i_leak, v_drive):
        # i_leak = 1 A on 50 ohm segments drives the cell current negative; a
        # zero leakage of either sign meets a cell current of either sign.
        for sel in range(1, 65):
            net = ColumnNetwork(64, 50.0, 1e4, i_leak, sel, v_drive)
            sol = solve_column(net)
            assert_same_solution(sol, solve_column_cumsum(net))
            assert kcl_residuals(net, sol).tobytes() == kcl_residuals_loop(net, sol).tobytes()
            assert kvl_loop_residual(net, sol) == kvl_loop_residual_loop(net, sol)
        assert solve_column(ColumnNetwork(64, 50.0, 1e4, 1.0, 32, 0.2)).i_selected_cell < 0


class TestVoltagesReadOnDemand:
    """solve_column's solution derives its node voltages on their first read."""

    @staticmethod
    def network(sel=37):
        return ColumnNetwork(64, 2.5, 2e4, 4e-11, sel, 0.2)

    def test_no_voltage_is_held_until_one_is_read(self):
        sol = solve_column(self.network())
        held = [name for name, value in vars(sol).items() if isinstance(value, np.ndarray)]
        assert held == ["bl_segment_currents", "sl_segment_currents"]
        sol.sl_voltages  # builds its own line only
        assert "sl_voltages" in vars(sol) and "bl_voltages" not in vars(sol)
        sol.bl_voltages
        assert "bl_voltages" in vars(sol)

    @pytest.mark.parametrize("sel", [1, 37, 64])
    def test_voltages_read_after_the_residuals_are_the_references(self, sel):
        net = self.network(sel)
        sol = solve_column(net)
        kcl_residuals(net, sol)
        kvl_loop_residual(net, sol)
        assert_same_solution(sol, solve_column_cumsum(net))

    def test_a_second_read_returns_the_same_array(self):
        sol = solve_column(self.network())
        bl, sl = sol.bl_voltages, sol.sl_voltages
        object.__setattr__(sol, "network", None)  # so a second read cannot rebuild a line
        assert sol.bl_voltages is bl and sol.sl_voltages is sl

    def test_the_getter_returns_the_array_already_kept(self):
        # cached_property locks a first read on Python 3.11 and not from 3.12 on; the
        # getter's own setdefault is what hands concurrent first reads one array.
        sol = solve_column(self.network())
        bl, sl = sol.bl_voltages, sol.sl_voltages
        assert oracle.NetworkSolution.bl_voltages.func(sol) is bl
        assert oracle.NetworkSolution.sl_voltages.func(sol) is sl

    def test_concurrent_first_reads_return_one_array(self):
        sol = solve_column(ColumnNetwork(16384, 2.5, 2e4, 4e-11, 16384, 0.2))
        barrier, seen = threading.Barrier(4), []

        def read(name):
            barrier.wait()
            seen.append(getattr(sol, name))

        threads = [threading.Thread(target=read, args=(name,))
                   for name in ("bl_voltages", "sl_voltages") * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(array) for array in seen}) == 2
        assert {id(sol.bl_voltages), id(sol.sl_voltages)} == {id(array) for array in seen}

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda sol: pickle.loads(pickle.dumps(sol))])
    def test_a_copy_of_an_unread_solution_gives_the_same_voltages(self, duplicate):
        net = self.network()
        sol = solve_column(net)
        twin = duplicate(sol)
        assert "bl_voltages" not in vars(sol) and "bl_voltages" not in vars(twin)
        assert_same_solution(twin, solve_column_cumsum(net))
        assert_same_solution(sol, solve_column_cumsum(net))

    def test_replace_repr_and_asdict_hold_no_voltage(self):
        net = self.network()
        sol, (want, bl, _) = solve_column(net), solve_column_cumsum(net)
        replaced = dataclasses.replace(sol, i_sensed=1.0)
        assert replaced.i_sensed == 1.0 and replaced.network is net
        assert replaced.bl_voltages.tobytes() == bl.tobytes()
        sol.bl_voltages
        assert repr(sol) == repr(want) and "voltages" not in repr(sol)
        assert list(dataclasses.asdict(sol)) == [
            "network", "bl_segment_currents", "sl_segment_currents", "i_sensed", "i_selected_cell"]

    def test_a_voltage_cannot_be_assigned(self):
        sol = solve_column(self.network())
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.bl_voltages = np.zeros(64)

    def test_an_unknown_attribute_is_missing(self):
        sol = solve_column(self.network())
        with pytest.raises(AttributeError, match="bl_voltage'"):
            sol.bl_voltage
        assert not hasattr(sol, "__setstate__")
        assert "bl_voltages" not in vars(sol)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=48),
    sel_frac=st.floats(min_value=0.0, max_value=1.0),
    r_on=st.floats(min_value=1e3, max_value=1e6),
    r_seg=st.floats(min_value=0.5, max_value=20.0),
    i_leak=st.floats(min_value=0.0, max_value=1e-9),
)
def test_chain_elimination_matches_dense_nodal_solve(n, sel_frac, r_on, r_seg, i_leak):
    sel = 1 + round(sel_frac * (n - 1))
    net = ColumnNetwork(n, r_seg, r_on, i_leak, sel, 0.2)
    sol = solve_column(net)
    bl, sl, i_sensed, i_cell = dense_nodal_solution(net)
    np.testing.assert_allclose(sol.bl_voltages, bl, rtol=1e-9, atol=1e-13)
    np.testing.assert_allclose(sol.sl_voltages, sl, rtol=1e-9, atol=1e-13)
    assert sol.i_selected_cell == pytest.approx(i_cell, rel=1e-8)
    assert sol.i_sensed == pytest.approx(i_sensed, rel=1e-8)


class TestAgainstDenseNodalReference:
    def test_worst_case_cell_at_column_end(self, profile22):
        net = build_column(
            profile22, CellSpec(20e3, 10), ReadSetup(0.2, 16), "on", selected_index=16
        )
        sol = solve_column(net)
        bl, sl, i_sensed, i_cell = dense_nodal_solution(net)
        np.testing.assert_allclose(sol.bl_voltages, bl, rtol=1e-10)
        assert sol.i_sensed == pytest.approx(i_sensed, rel=1e-10)


class TestPhysicsChecks:
    @pytest.mark.parametrize("n", [1, 2, 64, 1024, 8192])
    def test_kcl_below_tolerance(self, profile22, n):
        for r_on in (10e3, 100e6):
            for state in ("on", "off"):
                net = build_column(
                    profile22, CellSpec(r_on, 10), ReadSetup(0.2, n), state
                )
                sol = solve_column(net)
                assert kcl_residuals(net, sol).max() <= 1e-12

    def test_kvl_loop_closes(self, profile22):
        for n in (1, 2, 64, 1024):
            for sel in {1, n}:
                net = build_column(
                    profile22, CellSpec(20e3, 10), ReadSetup(0.2, n), "on", sel
                )
                assert kvl_loop_residual(net, solve_column(net)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1024])
    def test_residuals_bit_identical_to_node_loops(self, profile22, n):
        for bits in itertools.product((True, False), repeat=3):
            setup = ReadSetup(0.2, n, FactorToggles(*bits))
            positions = sorted({s for s in (1, 2, n // 2, n - 1, n) if 1 <= s <= n})
            for r_on, state, sel in itertools.product((1e4, 1e6, 1e8), ("on", "off"), positions):
                net = build_column(profile22, CellSpec(r_on, 10), setup, state, sel)
                sol = solve_column(net)
                got = kcl_residuals(net, sol)
                assert got.tobytes() == kcl_residuals_loop(net, sol).tobytes()
                assert kvl_loop_residual(net, sol) == kvl_loop_residual_loop(net, sol)

    def test_kcl_flags_exactly_the_perturbed_nodes(self, profile22):
        n = 64
        net = build_column(profile22, CellSpec(20e3, 10), ReadSetup(0.2, n), "on")
        sol = solve_column(net)
        f_bl = sol.bl_segment_currents.copy()
        f_sl = sol.sl_segment_currents.copy()
        f_bl[10] *= 1 + 1e-9  # enters bit-line node 11, leaves node 10
        f_sl[20] *= 1 + 1e-9  # leaves source-line node 21, enters node 22
        bad = dataclasses.replace(sol, bl_segment_currents=f_bl, sl_segment_currents=f_sl)
        flagged = np.flatnonzero(kcl_residuals(net, bad) > 1e-12)
        assert flagged.tolist() == [9, 10, n + 20, n + 21]


@st.composite
def float_arrays(draw):
    """float64 arrays of 0..5000 values: magnitudes from subnormal to about 1e300 over a
    drawn exponent span, either sign, optional zeros of either sign, inf and NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(0, 5000))
    lo = draw(st.integers(-1075, 997))
    hi = min(997, lo + draw(st.sampled_from([0, 1, 60, 120, 400, 2100])))
    x = np.ldexp(rng.random(size) + 0.5, rng.integers(lo, hi + 1, size))
    x[rng.random(size) < draw(st.sampled_from([0.0, 0.5, 1.0]))] *= -1.0
    zeros = rng.random(size) < draw(st.sampled_from([0.0, 0.01, 1.0]))
    x[zeros] = np.copysign(0.0, rng.random(zeros.sum()) - 0.5)
    for special in draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=2)):
        if size:
            x[rng.integers(size)] = special
    return x


def fsum_outcome(total, x):
    try:
        return repr(total(x))
    except (ValueError, OverflowError) as exc:  # fsum's inf - inf and intermediate overflow
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(x=float_arrays())
def test_exact_sum_equals_fsum(x):
    want = fsum_outcome(lambda v: math.fsum(v.tolist()), x)
    assert fsum_outcome(oracle._exact_sum, x) == want


class TestExactSum:
    """oracle._exact_sum is math.fsum over the array's values, bit for bit."""

    @pytest.mark.parametrize("size", [1023, 1024, 1025, 2047, 2048, 4096, 16385])
    def test_equal_magnitudes_fill_the_extraction_range(self, size):
        # size values just below 2**e of one sign sum to nearly size * 2**e, the
        # most that the first pass's sigma = 2**(e + bit_length(size)) must hold.
        for seed in range(20):
            x = np.random.default_rng(seed).uniform(1.0 - 2**-20, 1.0, size) * 2.0**-3
            for v in (x, -x):
                assert repr(oracle._exact_sum(v)) == repr(math.fsum(v.tolist()))

    def test_three_passes_leave_only_their_partial_sums(self, monkeypatch):
        # 4096 values from 2**-61 to 1.5: each pass extracts 40 bits, so three
        # passes take every bit and fsum rounds just the three partial sums.
        x = np.ldexp(np.random.default_rng(5).random(4096) + 0.5,
                     np.random.default_rng(6).integers(-60, 1, 4096))
        want = math.fsum(x.tolist())
        seen, fsum = [], math.fsum
        monkeypatch.setattr(math, "fsum", lambda values: seen.append(len(values)) or fsum(values))
        assert oracle._exact_sum(x) == want
        assert seen == [3]


class TestOracleMargin:
    def test_ideal_network_margin_is_unity(self, profile22):
        res = oracle_margin(
            profile22, CellSpec(20e3, 10), ReadSetup(0.2, 64, FactorToggles(False, False, False))
        )
        assert res.margin_normalized == pytest.approx(1.0, abs=1e-12)

    def test_matches_lumped_reference_column(self, profile22):
        lumped = read_currents(profile22, CellSpec(20e3, 10), ReadSetup(0.2, 512))
        oracle = oracle_margin(profile22, CellSpec(20e3, 10), ReadSetup(0.2, 512))
        gap = abs(lumped.margin_normalized - oracle.margin_normalized)
        assert gap / oracle.margin_normalized <= 1e-2
        assert oracle.margin_normalized == pytest.approx(0.867, abs=5e-3)

    def test_leakage_dominated_regime_matches_lumped(self, profile22):
        cell = CellSpec(100e6, 10)
        setup = ReadSetup(0.2, 4096)
        lumped = read_currents(profile22, cell, setup).margin_normalized
        oracle = oracle_margin(profile22, cell, setup).margin_normalized
        assert abs(lumped - oracle) / oracle <= 1e-2
        assert oracle == pytest.approx(1.0 / 10.0, rel=0.02)


class TestCompareLumpedDistributed:
    def test_validation_grid_gap_within_one_percent(self, profile22):
        cells = [CellSpec(float(r), 10.0) for r in np.logspace(4, 8, 8)]
        setups = [ReadSetup(0.2, n) for n in (256, 1024)]
        rows = compare_lumped_distributed(profile22, cells, setups)
        assert len(rows) == 16
        assert all(row.error is None for row in rows)
        assert max(row.relative_gap for row in rows) <= 1e-2

    def test_single_point_all_toggles_off(self, profile22):
        rows = compare_lumped_distributed(
            profile22,
            [CellSpec(20e3, 10)],
            [ReadSetup(0.2, 64, FactorToggles(False, False, False))],
        )
        (row,) = rows
        assert row.margin_lumped == 1.0
        # both engines agree to float rounding; exact zero is not
        # guaranteed because only the lumped path reduces algebraically
        assert row.relative_gap <= 1e-12

    def test_zero_line_resistance_gap_is_exactly_zero(self, profile22):
        cells = [CellSpec(r, 10) for r in (10e3, 1e6)]
        setups = [
            ReadSetup(0.2, n, FactorToggles(line_resistance=False)) for n in (4, 256)
        ]
        rows = compare_lumped_distributed(profile22, cells, setups)
        assert all(row.relative_gap == 0.0 for row in rows)

    def test_solver_failure_flagged_not_dropped(self, profile22):
        cells = [CellSpec(5e-324, 10), CellSpec(20e3, 10)]
        setups = [ReadSetup(0.2, 8, FactorToggles(False, False, False))]
        rows = compare_lumped_distributed(profile22, cells, setups)
        assert len(rows) == 2
        assert rows[0].error is not None
        assert np.isnan(rows[0].margin_oracle)
        assert rows[1].error is None

    def test_one_sense_grid_call_per_setup_and_engine(self, profile22, monkeypatch):
        calls = []

        def counting(profile, r_on, ratio_ideal, n_cells, v_read, toggles, engine="lumped"):
            calls.append((np.shape(r_on), type(ratio_ideal), n_cells, engine))
            return model._sensed(profile, r_on, ratio_ideal, n_cells, v_read, toggles, engine)

        def per_point(*args, **kwargs):
            raise AssertionError("a margin evaluated point by point")

        monkeypatch.setattr(oracle, "_sensed", counting)
        for module, name in ((model, "read_currents"), (model, "sense_point"),
                             (oracle, "sense_point"), (oracle, "oracle_margin")):
            monkeypatch.setattr(module, name, per_point)
        cells = [CellSpec(float(r), 10) for r in np.logspace(4, 8, 20)]
        setups = [ReadSetup(0.2, n) for n in (64, 1024, 16384)]
        rows = compare_lumped_distributed(profile22, cells, setups)
        assert len(rows) == 60 and all(row.error is None for row in rows)
        assert calls == [((20,), float, n, engine)
                         for n in (64, 1024, 16384) for engine in ("lumped", "oracle")]
        calls.clear()
        mixed = [CellSpec(1e4, 10), CellSpec(1e5, 100)]
        compare_lumped_distributed(profile22, mixed, setups[:1])
        assert calls == [((2,), np.ndarray, 64, "lumped"), ((2,), np.ndarray, 64, "oracle")]

    def test_empty_grids_evaluate_nothing(self, profile22):
        out_of_table = [ReadSetup(0.7, 64)]
        assert compare_lumped_distributed(profile22, [], out_of_table) == []
        assert compare_lumped_distributed(profile22, [CellSpec(1e4, 10)], []) == []

    def test_a_cell_failing_in_the_middle_setup_keeps_its_row(self, profile22):
        # R_on = 5e-324 with every factor off has no finite oracle margin; with
        # the transistor resistance on, both engines read it.
        cells = [CellSpec(2e4, 10), CellSpec(5e-324, 10), CellSpec(1e5, 10)]
        failing = ReadSetup(0.2, 8, FactorToggles(False, False, False))
        setups = [ReadSetup(0.2, 64), failing, ReadSetup(0.2, 1024)]
        rows = compare_lumped_distributed(profile22, cells, setups)
        assert [(row.r_on, row.n_cells, row.v_read) for row in rows] == [
            (cell.r_on, setup.n_cells, setup.v_read) for cell in cells for setup in setups]
        assert [row.error is None for row in rows] == [True] * 4 + [False] + [True] * 4
        with pytest.raises(SolverError) as err:
            oracle_margin(profile22, cells[1], failing)
        assert rows[4].error == str(err.value)
        assert rows[4].margin_lumped == read_currents(profile22, cells[1], failing).margin_normalized
        assert np.isnan(rows[4].margin_oracle) and np.isnan(rows[4].relative_gap)
        assert [repr(row) for row in rows] == [
            repr(row) for row in compare_reference(profile22, cells, setups)]


class TestComparisonRow:
    """A comparison row is a named tuple in validate.csv's column order."""

    def test_fields_are_the_validation_columns_in_order(self, tmp_path):
        path = tmp_path / "validate.csv"
        assert write_validation_csv([], path) == 0
        header = path.read_text(encoding="utf-8").rstrip("\n").split(",")
        units = [name.removesuffix("_ohm").removesuffix("_v") for name in header]
        assert ComparisonRow._fields == tuple(units)

    def test_repr_of_a_failed_row(self):
        nan = float("nan")
        row = ComparisonRow(2e4, 10.0, 4096, 0.2, 0.5, nan, nan, "column, of n=4096")
        assert repr(row) == (
            "ComparisonRow(r_on=20000.0, ratio_ideal=10.0, n_cells=4096, v_read=0.2, "
            "margin_lumped=0.5, margin_oracle=nan, relative_gap=nan, "
            "error='column, of n=4096')")

    def test_fields_cannot_be_assigned(self):
        row = ComparisonRow(1e4, 10.0, 64, 0.2, 0.9, 0.91, 0.011)
        with pytest.raises(AttributeError):
            row.relative_gap = 0.0
        assert row._replace(relative_gap=0.0).relative_gap == 0.0 and row.relative_gap == 0.011

    def test_error_defaults_to_none(self):
        row = ComparisonRow(1e4, 10.0, 64, 0.2, 0.9, 0.91, 0.011)
        assert row.error is None
        assert row == (1e4, 10.0, 64, 0.2, 0.9, 0.91, 0.011, None)


# A profile whose leakage is so large that the lumped model's summed
# leakage overflows (its margin is inf/inf) while the oracle's drive term
# is already negative: the two engines fail with different messages.
FLOOD = TechnologyProfile("flood", 1.0, 0.0, ((0.1, 1e308), (0.7, 1e308)))


# compare_lumped_distributed gives the rows of the point-by-point reference
# (tests/compare_reference.py), or raises its error.
COMPARE_R_ON = st.one_of(st.sampled_from([5e-324, 1e300, 1e306, 1e4, 2e5, 1e8]),
                         st.floats(5e-324, 1e308))
COMPARE_K = st.one_of(st.sampled_from([1, 10, 10.0, 100.0, 1e3]), st.floats(1.0, 1e300))
COMPARE_SETUP = st.builds(
    ReadSetup,
    st.sampled_from([0.1, 0.2, 0.25, 0.4, 0.6, 0.7]),
    st.one_of(st.sampled_from([1, 2, 64, 63246, 63247, 65536]), st.integers(1, 70000)),
    st.sampled_from(TOGGLE_SETS),
)


def compare_outcome(compare, profile, cells, setups):
    try:
        return [repr(row) for row in compare(profile, cells, setups)]
    except Exception as exc:  # the same error type and message, if any
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(points=st.lists(st.tuples(COMPARE_R_ON, COMPARE_K), max_size=6), shared_k=st.booleans(),
       setups=st.lists(COMPARE_SETUP, max_size=4), flood=st.booleans())
def test_compare_rows_equal_the_reference(profile22, points, shared_k, setups, flood):
    profile = FLOOD if flood else profile22
    cells = [CellSpec(r, points[0][1] if shared_k else k) for r, k in points]
    assert compare_outcome(compare_lumped_distributed, profile, cells, setups) == (
        compare_outcome(compare_reference, profile, cells, setups))


class TestCompareMatchesReference:
    @pytest.mark.parametrize("flood", [False, True])
    def test_failures_keep_their_row(self, profile22, flood):
        profile = FLOOD if flood else profile22
        cells = [CellSpec(5e-324, 10), CellSpec(2e4, 10), CellSpec(1e306, 1e3),
                 CellSpec(1e5, 100)]
        setups = [ReadSetup(0.2, n, t) for n in (1, 4, 63246, 63247)
                  for t in (FactorToggles(), FactorToggles(False, False, True),
                            FactorToggles(leakage=False), FactorToggles(False, False, False))]
        rows = compare_outcome(compare_lumped_distributed, profile, cells, setups)
        assert rows == compare_outcome(compare_reference, profile, cells, setups)
        assert sum("error=None" not in row for row in rows) > 0


class TestClosedFormEqualsLadder:
    """sense_grid's oracle engine is the ladder solution, bit for bit.

    The two-solve route (build_column + solve_column per state and R_on)
    is the reference; the closed form must reproduce its sensed currents
    exactly, well past the sizes the dense-reference property test reaches.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024, 16384])
    @pytest.mark.parametrize("toggles", TOGGLE_SETS, ids=lambda t: t.describe())
    def test_currents_equal_solve_column(self, profile22, n, toggles):
        setup = ReadSetup(0.2, n, toggles)
        i_on, i_off, _, _ = sense_grid(
            profile22, DEFAULT_R_ON_GRID, 10.0, n, 0.2, toggles, "oracle"
        )
        for r_on, got_on, got_off in zip(DEFAULT_R_ON_GRID, i_on, i_off):
            cell = CellSpec(r_on, 10.0)
            for state, got in (("on", got_on), ("off", got_off)):
                want = solve_column(build_column(profile22, cell, setup, state)).i_sensed
                assert got == want, (r_on, state)


class TestLeakageBreakdown:
    """Past n(n-1)/2 * I_leak * r >= V_read the worst-case cell cannot be read."""

    def test_oracle_raises_named_solver_error(self, profile22):
        with pytest.raises(SolverError) as err:
            oracle_margin(profile22, CellSpec(20e3, 10), ReadSetup(0.2, 65536))
        assert "n=65536" in str(err.value)
        assert "n=63246" in str(err.value)

    def test_bound_is_the_last_readable_column(self, profile22):
        cell = CellSpec(20e3, 10)
        assert oracle_margin(profile22, cell, ReadSetup(0.2, 63246)).margin_normalized > 0
        with pytest.raises(SolverError):
            oracle_margin(profile22, cell, ReadSetup(0.2, 63247))

    def test_comparison_flags_the_row(self, profile22):
        rows = compare_lumped_distributed(
            profile22,
            [CellSpec(20e3, 10)],
            [ReadSetup(0.2, 1024), ReadSetup(0.2, 65536)],
        )
        assert [row.error is None for row in rows] == [True, False]
        assert "63246" in rows[1].error
        assert np.isnan(rows[1].margin_oracle)
        assert rows[1].margin_lumped == read_currents(
            profile22, CellSpec(20e3, 10), ReadSetup(0.2, 65536)
        ).margin_normalized
