"""Unit tests for the closed-form column model.

Reference values are frozen from an exact rational-arithmetic evaluation
of the same expressions (see exact_margin below), so the float
implementation is checked against an independent numeric route.
"""

import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbar_margin import (
    CellSpec,
    FactorToggles,
    LeakageRangeError,
    ReadSetup,
    SenseResult,
    SolverError,
    TechnologyProfile,
    leakage_at,
    read_currents,
    sense_grid,
)
from crossbar_margin import model
from crossbar_margin.model import ENGINES, sense_point
import sense_grid_reference as reference

REL = 1e-12

NAN, INF = float("nan"), float("inf")
# Input classes of the reference comparison: valid values, the float limits
# (5e-324 overflows the currents, 1e306 underflows I_off without leakage),
# non-finite and non-positive values, and n across breakdown at 0.2 V, where
# the largest readable column has n = 63 246.
R_ON_CASES = (2e4, 3e5, 1e8, 5e-324, 1e300, 1e306, NAN, INF, -INF, -1.0, 0.0)
N_CASES = (1, 2, 1024, 63246, 63247, 0, -3)
V_READ_CASES = (0.2, 0.35, 0.6, 0.1, 0.0, -0.2, NAN, INF, 1, np.float64(0.4),
                np.array([0.2, 0.4]))
K_CASES = (10.0, 1.0, 1e3, 0.5, NAN, INF, 10, np.float64(5.0), [10.0], (10, 1e3), [10.0, 0.5])

r_on_inputs = st.one_of(
    st.sampled_from(R_ON_CASES),
    st.floats(1e2, 1e9),
    st.lists(st.one_of(st.sampled_from(R_ON_CASES), st.floats(1e2, 1e9)), max_size=5),
    st.lists(st.floats(1e2, 1e9), min_size=1, max_size=5).map(np.array),
)
n_inputs = st.one_of(
    st.sampled_from(N_CASES),
    st.integers(1, 70000),
    st.just(4.0),
    st.lists(st.sampled_from(N_CASES), min_size=1, max_size=3).map(np.array),
    st.lists(st.integers(1, 70000), min_size=1, max_size=3).map(
        lambda n: np.array(n)[:, None]),
)
toggle_inputs = st.builds(FactorToggles, st.booleans(), st.booleans(), st.booleans())


def assert_matches_reference(*args, reference_args=None):
    """sense_grid(*args) returns sense_grid_reference's arrays, bit for bit,
    as float64 ndarrays, or raises its exception with the same message; the
    reference runs on reference_args where given."""
    try:
        want = reference.sense_grid_reference(*(reference_args or args))
    except Exception as exc:
        with pytest.raises(Exception) as got:
            sense_grid(*args)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    for w, g in zip(want, sense_grid(*args)):
        w = np.asarray(w, dtype=float)
        assert type(g) is np.ndarray and g.dtype == np.float64
        assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())


# Grids (R_on row, n column, toggles) with several faults at once, or none at all.
FAULT_GRIDS = {
    # I_off underflows at (1e308, n = 1), and the margin is inf/inf at (5e-324, n = 2).
    "underflow and non-finite": (
        [5e-324, 1e4, 1e308], np.array([[1], [2]]), FactorToggles(False, False, True)),
    # The oracle breaks down at n = 63 247, and I_off underflows at (1e308, n = 1).
    "breakdown and underflow": ([1e4, 1e308], np.array([[1], [63247]]), FactorToggles()),
    "non-finite alone": ([5e-324, 1e4], np.array([[2], [3]]), FactorToggles(False, False, True)),
    "empty row": (np.empty(0), 64, FactorToggles()),
    "empty column": ([1e4, 1e5], np.empty((0, 1), dtype=int), FactorToggles()),
}


def plane_reference(profile, r_on, k, n, v, sets, engine):
    """model._sensed over a plane of toggle sets from sense_grid_reference, set by set: the
    sets' arrays stacked, or else the error that the plane's checks meet first, in the
    order drive, underflow, non-finite margin, invariant, and then by set."""
    outcomes = []
    for toggles in sets:
        try:
            outcomes.append(reference.sense_grid_reference(profile, r_on, k, n, v, toggles, engine))
        except (SolverError, ValueError) as exc:
            outcomes.append(exc)
    errors = [outcome for outcome in outcomes if isinstance(outcome, Exception)]
    if errors:
        order = ("cannot be read", "underflows", "not finite", "must")
        raise min(errors, key=lambda exc: [word in str(exc) for word in order].index(True))
    return tuple(np.stack([np.asarray(a, dtype=float) for a in arrays]) for arrays in zip(*outcomes))


def exact_margin(profile, r_on, k, n, v, line=True, transistor=True, leak=True):
    """Rational-arithmetic evaluation of the lumped column expressions."""
    r = Fraction(profile.r_unit) if line else Fraction(0)
    r_t = Fraction(profile.r_transistor) if transistor else Fraction(0)
    i_leak = Fraction(leakage_at(profile, v)) if leak else Fraction(0)
    series = r_t + n * r
    leak_total = (n - 1) * i_leak
    i_on = Fraction(v) / (Fraction(r_on) + series) + leak_total
    i_off = Fraction(v) / (Fraction(k) * Fraction(r_on) + series) + leak_total
    ratio = i_on / i_off
    return float(i_on), float(i_off), float(ratio), float(ratio / Fraction(k))


class TestIdealRatio:
    def test_quotient_of_derived_off_state(self):
        cell = CellSpec(r_on=20e3, ratio_ideal=10)
        assert cell.r_off == 200e3
        assert cell.ratio_ideal == 10.0

    def test_degenerate_equal_state_cell(self):
        assert CellSpec(r_on=10e3, ratio_ideal=1).ratio_ideal == 1.0

    def test_high_ratio(self):
        assert CellSpec(r_on=100e3, ratio_ideal=100).ratio_ideal == 100.0


class TestLeakageAt:
    def test_table_points(self, profile22):
        assert leakage_at(profile22, 0.2) == 4e-11
        assert leakage_at(profile22, 0.4) == 5.5e-11
        assert leakage_at(profile22, 0.6) == 7.4e-11

    def test_linear_interpolation(self, profile22):
        assert leakage_at(profile22, 0.3) == pytest.approx(4.75e-11, rel=REL)
        assert leakage_at(profile22, 0.5) == pytest.approx(6.45e-11, rel=REL)

    @pytest.mark.parametrize("v", [0.1, 0.61, 1.0, 0.0])
    def test_out_of_range_refused(self, profile22, v):
        with pytest.raises(LeakageRangeError) as err:
            leakage_at(profile22, v)
        assert "0.2" in str(err.value) and "0.6" in str(err.value)

    def test_single_point_table(self):
        profile = TechnologyProfile("t", 1.0, 10.0, ((0.2, 1e-11),))
        assert leakage_at(profile, 0.2) == 1e-11
        with pytest.raises(LeakageRangeError):
            leakage_at(profile, 0.3)


class TestReadCurrents:
    def test_reference_column_512(self, profile22):
        res = read_currents(
            profile22, CellSpec(20e3, 10), ReadSetup(v_read=0.2, n_cells=512)
        )
        i_on, i_off, ratio, margin = exact_margin(profile22, 20e3, 10, 512, 0.2)
        assert res.i_on == pytest.approx(i_on, rel=REL)
        assert res.i_off == pytest.approx(i_off, rel=REL)
        assert res.ratio_effective == pytest.approx(ratio, rel=REL)
        assert res.margin_normalized == pytest.approx(margin, rel=REL)
        # the headline operating point: margin around 87 %
        assert res.ratio_effective == pytest.approx(8.6737, abs=5e-4)
        assert res.margin_normalized == pytest.approx(0.8674, abs=5e-4)

    def test_long_column_100k(self, profile22):
        res = read_currents(
            profile22, CellSpec(100e3, 10), ReadSetup(v_read=0.2, n_cells=4096)
        )
        _, _, ratio, margin = exact_margin(profile22, 100e3, 10, 4096, 0.2)
        assert res.ratio_effective == pytest.approx(ratio, rel=REL)
        assert res.ratio_effective == pytest.approx(5.3964, abs=5e-4)
        assert res.margin_normalized == pytest.approx(0.5396, abs=5e-4)

    def test_all_factors_disabled_reduces_exactly(self, profile22):
        cell = CellSpec(20e3, 10)
        setup = ReadSetup(0.2, 512, FactorToggles(False, False, False))
        res = read_currents(profile22, cell, setup)
        assert res.ratio_effective == cell.ratio_ideal
        assert res.margin_normalized == 1.0

    def test_ratio_consistent_with_currents(self, profile22):
        for r_on in (15e3, 50e3, 3e6):
            res = read_currents(
                profile22, CellSpec(r_on, 10), ReadSetup(0.2, 1024)
            )
            assert res.ratio_effective == pytest.approx(
                res.i_on / res.i_off, rel=REL
            )

    def test_leakage_required_inside_table(self, profile22):
        with pytest.raises(LeakageRangeError):
            read_currents(profile22, CellSpec(20e3, 10), ReadSetup(0.8, 16))


class TestSenseGrid:
    def test_r_on_row_broadcasts_against_n_column(self, profile22):
        r_on = np.array([1e4, 5e4, 1e6])
        n = np.array([[1], [64], [4096]])
        for engine in ("lumped", "oracle"):
            grid = sense_grid(profile22, r_on, 10.0, n, 0.2, engine=engine)
            assert all(a.shape == (3, 3) and a.dtype == np.float64 for a in grid)
            for row, n_row in zip(grid[3], n[:, 0]):
                assert row.tolist() == sense_grid(
                    profile22, r_on, 10.0, int(n_row), 0.2, engine=engine
                )[3].tolist()

    @pytest.mark.parametrize(
        "r_on, n_cells, engine",
        [(-1.0, 4, "lumped"), (float("nan"), 4, "lumped"), (1e4, 0, "lumped"),
         (1e4, 4.0, "lumped"), (1e4, 4, "spice")],
    )
    def test_invalid_inputs_rejected(self, profile22, r_on, n_cells, engine):
        with pytest.raises(ValueError):
            sense_grid(profile22, r_on, 10.0, n_cells, 0.2, engine=engine)

    @pytest.mark.parametrize("toggles", [None, [FactorToggles()], (), (FactorToggles(),),
                                         (FactorToggles(), FactorToggles(leakage=False))])
    def test_toggles_must_be_one_factor_toggles(self, profile22, toggles):
        # A tuple of sets is model._sensed's plane, not a sense_grid input.
        message = f"toggles must be a FactorToggles, got {toggles!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sense_grid(profile22, 1e4, 10.0, 64, 0.2, toggles)

    def test_non_finite_margin_is_solver_error(self, profile22):
        # R_on this small overflows both currents; with leakage on their
        # quotient is inf/inf, in the array and in the scalar view alike.
        leak_only = FactorToggles(False, False, True)
        with pytest.raises(SolverError, match="not finite"):
            sense_grid(profile22, [5e-324, 1e4], 10.0, 4, 0.2, leak_only)
        with pytest.raises(SolverError, match="not finite"):
            read_currents(profile22, CellSpec(5e-324, 10), ReadSetup(0.2, 4, leak_only))

    def test_ideal_margin_survives_infinite_currents(self, profile22):
        ideal = FactorToggles(False, False, False)
        res = read_currents(profile22, CellSpec(5e-324, 10), ReadSetup(0.2, 4, ideal))
        assert res.i_on == float("inf") and res.margin_normalized == 1.0
        grid = sense_grid(profile22, [5e-324, 1e4], 10.0, 4, 0.2, ideal)
        assert grid[3].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("engine", ["lumped", "oracle"])
    def test_vanishing_off_current_is_solver_error(self, profile22, engine):
        # R_off = k * R_on overflows, so without leakage I_off is exactly 0.
        setup = ReadSetup(0.2, 4, FactorToggles(leakage=False))
        with pytest.raises(SolverError, match="underflows"):
            sense_point(profile22, CellSpec(1e306, 1e3), setup, engine)
        with pytest.raises(SolverError, match="underflows"):
            sense_grid(profile22, [1e4, 1e306], 1e3, 4, 0.2, setup.toggles, engine)
        # With leakage the off current stays positive, as at any R_off.
        grid = sense_grid(profile22, [1e4, 1e306], 1e3, 4, 0.2, engine=engine)
        assert grid[1][1] == 3 * leakage_at(profile22, 0.2)

    def test_matches_reference_on_every_input_class(self, profile22):
        rows = ([], [1e4, 5e4, 1e6], [1e4, INF, 1e6], [[1e4], [2e5]])
        ns = (*N_CASES, 4.0, np.array([[1], [64], [4096]]), np.array([1, 64]),
              np.array([[2, 3, 4]]), np.zeros((0, 1), dtype=int))
        toggles = [FactorToggles(*bits) for bits in product((True, False), repeat=3)]
        for r_on, n, t, engine in product((*R_ON_CASES, *rows), ns, toggles, ENGINES):
            assert_matches_reference(profile22, r_on, 10.0, n, 0.2, t, engine)

    def test_wrong_dtype_on_an_empty_grid_names_the_dtype(self, profile22):
        # An empty grid has no value to name, so the error names the array's dtype.
        with pytest.raises(ValueError) as got:
            sense_grid(profile22, [], 10.0, 4.0, 0.2)
        assert str(got.value) == "n_cells must be integers, got an empty float64 array"

    @settings(max_examples=500, deadline=None)
    @given(r_on=r_on_inputs, k=st.sampled_from(K_CASES), n=n_inputs,
           v=st.sampled_from(V_READ_CASES), toggles=toggle_inputs,
           engine=st.sampled_from((*ENGINES, "spice")))
    def test_matches_reference(self, profile22, r_on, k, n, v, toggles, engine):
        assert_matches_reference(profile22, r_on, k, n, v, toggles, engine)

    @pytest.mark.parametrize(
        "at, value", [(0, 1e-12), (1, 1.0), (2, 0.5), (3, 1.5), (3, -0.1)]
    )
    def test_invariant_breach_raises_the_reference_error(
        self, profile22, monkeypatch, at, value
    ):
        # No valid input makes the kernel break a SenseResult invariant, so
        # both kernels are patched to break one at the second point.  (1, 1.0)
        # breaks I_on >= I_off alone.
        def breach(kernel):
            def patched(*args):
                grid = [np.array(a, dtype=float) for a in kernel(*args)]
                grid[at][1] = value
                return tuple(grid)
            return patched

        monkeypatch.setattr(model, "_sense", breach(model._sense))
        monkeypatch.setattr(reference, "_sense", breach(reference._sense))
        with pytest.raises(ValueError, match="must"):
            reference.sense_grid_reference(profile22, [1e4, 5e4, 1e6], 10.0, 1024, 0.2)
        assert_matches_reference(profile22, [1e4, 5e4, 1e6], 10.0, 1024, 0.2)

    def test_a_patched_zero_off_current_is_the_kernels_underflow(self, profile22, monkeypatch):
        # _sensed's check pass, not the kernel, raises the underflow of an array result, so
        # an I_off of 0 that a patched kernel returns is an underflow, not an invariant breach.
        kernel = model._sense

        def zero_off_current(*args):
            grid = [np.array(a, dtype=float) for a in kernel(*args)]
            grid[1][1] = 0.0
            return tuple(grid)

        monkeypatch.setattr(model, "_sense", zero_off_current)
        with pytest.raises(SolverError, match=re.escape("(r_off up to 1e+07 ohm)")):
            sense_grid(profile22, [1e4, 5e4, 1e6], 10.0, 1024, 0.2)

    @pytest.mark.parametrize("fault", FAULT_GRIDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_several_faults_meet_the_reference_order(self, profile22, engine, fault):
        r_on, n, toggles = FAULT_GRIDS[fault]
        assert_matches_reference(profile22, r_on, 10.0, n, 0.2, toggles, engine)

    @pytest.mark.parametrize("fault", FAULT_GRIDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_several_faults_on_a_plane_meet_the_reference_order(self, profile22, engine, fault):
        r_on, n, toggles = FAULT_GRIDS[fault]
        sets = (FactorToggles(), toggles, FactorToggles(leakage=False),
                FactorToggles(False, False, False))
        args = (profile22, r_on, 10.0, n, 0.2, sets, engine)
        try:
            want = plane_reference(*args)
        except Exception as exc:
            with pytest.raises(Exception) as got:
                model._sensed(*args)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            return
        got = model._sensed(*args)
        assert [(g.shape, g.tobytes()) for g in got] == [(w.shape, w.tobytes()) for w in want]

    # A profile whose leakage table covers integer read voltages.
    WIDE = TechnologyProfile("wide", 2.5, 1700.0, ((0.0, 0.0), (1.0, 4e-11), (3.0, 9e-11)))

    @pytest.mark.parametrize("k", [10, 2**53 + 1, 2**63, 2**64, True, 0, -3, 10.0])
    @pytest.mark.parametrize("v", [1, 2, 2**64, True, 0, 0.5])
    def test_int_inputs_match_reference(self, k, v):
        # The reference takes True as 1 and fails on 2**64 with numpy's raw
        # TypeError.  sense_grid rejects a bool, v_read before ratio_ideal, and
        # computes with any other int as the float it rounds to.
        bad = "v_read" if v is True else "ratio_ideal" if k is True and v != 0 else None
        as_float = [float(x) if x == 2**64 else x for x in (k, v)]
        for n in (1024, np.array([1, 64, 4096])):
            args = (self.WIDE, [1e4, 5e4, 1e6], k, n, v)
            if bad:
                with pytest.raises(ValueError, match=f"^{bad} must be a number, got True$"):
                    sense_grid(*args)
            else:
                assert_matches_reference(*args, reference_args=(
                    self.WIDE, [1e4, 5e4, 1e6], as_float[0], n, as_float[1]))

    def test_exact_int_inputs_take_the_fast_path(self, monkeypatch):
        checked = []
        monkeypatch.setattr(model, "_require", lambda name, values: checked.append(name))
        for k, v in ((10, 1), (2**63, 2), (10.0, 2), (7, 0.5), (2**53 + 1, 1), (2**64, 2)):
            sense_grid(self.WIDE, [1e4, 5e4, 1e6], k, 1024, v)
        assert set(checked) == {"r_on", "n_cells"}  # k and v_read: the scalar check only

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "toggles", [FactorToggles(*bits) for bits in product((True, False), repeat=3)],
        ids=lambda t: t.describe(),
    )
    def test_array_ratio_ideal_equals_per_point(self, profile22, toggles, engine):
        # One k per R_on takes the element-wise path, point for point.
        r_on, k = [5e-324, 1e4, 5e4, 1e6, 3e7], [10.0, 10.0, 100.0, 1.0, 2.5]
        try:
            grid = sense_grid(profile22, r_on, np.array(k), 1024, 0.2, toggles, engine)
        except SolverError:  # the ideal oracle overflows at 5e-324 ohm
            r_on, k = r_on[1:], k[1:]
            grid = sense_grid(profile22, r_on, np.array(k), 1024, 0.2, toggles, engine)
        setup = ReadSetup(0.2, 1024, toggles)
        for i, (r, ki) in enumerate(zip(r_on, k)):
            want = (read_currents(profile22, CellSpec(r, ki), setup) if engine == "lumped"
                    else sense_point(profile22, CellSpec(r, ki), setup, engine))
            assert SenseResult(*(float(a[i]) for a in grid)) == want

    @pytest.mark.parametrize("k", [[10.0, 100.0], (10, 100)], ids=["list", "tuple"])
    def test_sequence_ratio_ideal_equals_array(self, profile22, k):
        want = sense_grid(profile22, [1e4, 5e4], np.array([10.0, 100.0]), 1024, 0.2)
        got = sense_grid(profile22, [1e4, 5e4], k, 1024, 0.2)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize(
        "args, message",
        [(([1e4, -1.0], 10.0, 64, 0.2), "r_on must be finite and > 0, got -1.0"),
         ((1e4, 10.0, 0, 0.2), "n_cells must be >= 1, got 0"),
         ((1e4, 10.0, 2**64, 0.2), "n_cells must be integers, got 18446744073709551616"),
         ((1e4, [10.0, 0.5], 64, 0.2), "ratio_ideal must be finite and >= 1, got 0.5"),
         ((1e4, 10.0, 64, np.array([0.2, 0.4])),
          "v_read must be a number, got array([0.2, 0.4])"),
         ((1e4, 10.0, 64, [0.2]), "v_read must be a number, got [0.2]")],
    )
    def test_errors_name_the_python_value(self, profile22, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sense_grid(profile22, *args)

    @pytest.mark.parametrize("r_on, n", [(1e4, 64), ([1e4], np.array([64]))])
    def test_a_longer_k_array_sets_the_shape_of_all_four(self, profile22, r_on, n):
        grid = sense_grid(profile22, r_on, [10.0, 20.0], n, 0.2)
        assert [a.shape for a in grid] == [(2,)] * 4
        for i, k in enumerate((10.0, 20.0)):
            want = sense_grid(profile22, 1e4, k, 64, 0.2)
            assert [a[i].tobytes() for a in grid] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_toggle_sets_lead_the_grid(self, profile22, engine):
        # model._sensed on a tuple of toggle sets: one leading entry per set, each bit for
        # bit that set's own call, for an R_on row, an n column and scalars.
        sets = tuple(FactorToggles(*bits) for bits in product((True, False), repeat=3))
        for r_on, n in ((np.array([1e4, 3e5, 1e7]), np.array([[1.0], [64.0], [16384.0]])),
                        (np.array([1e4, 3e5]), 1024), (2e4, 512)):
            plane = model._sensed(profile22, r_on, 10.0, n, 0.35, sets, engine)
            assert [a.shape for a in plane] == [(8, *np.broadcast_shapes(
                np.shape(r_on), np.shape(n)))] * 4
            for t, toggles in enumerate(sets):
                want = model._sensed(profile22, r_on, 10.0, n, 0.35, toggles, engine)
                assert [a[t].tobytes() for a in plane] == [w.tobytes() for w in want]

    def test_toggle_sets_share_one_leakage_lookup(self, profile22, monkeypatch):
        looked_up = []
        monkeypatch.setattr(model, "leakage_at",
                            lambda *args: looked_up.append(args) or leakage_at(*args))
        sets = (FactorToggles(), FactorToggles(leakage=False), FactorToggles(True, False))
        r_line, r_t, i_leak = model.element_values(profile22, sets, 0.4)
        assert len(looked_up) == 1
        assert (r_line.tolist(), r_t.tolist(), i_leak.tolist()) == (
            [2.5, 2.5, 2.5], [1700.0, 1700.0, 0.0], [5.5e-11, 0.0, 5.5e-11])
        no_leakage = model.element_values(profile22, (FactorToggles(leakage=False),), 0.9)
        assert no_leakage[2].tolist() == [0.0]  # no lookup, so no LeakageRangeError

    def test_toggle_sets_past_breakdown_name_the_first_failing_set(self, profile22):
        sets = (FactorToggles(leakage=False), FactorToggles(),
                FactorToggles(line_resistance=False))
        with pytest.raises(SolverError) as want:
            model._sensed(profile22, np.array([1e4]), 10.0, 70000, 0.2, sets[1], "oracle")
        for n in (70000, np.array([[64.0], [70000.0]])):
            with pytest.raises(SolverError) as got:
                model._sensed(profile22, np.array([1e4]), 10.0, n, 0.2, sets, "oracle")
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("toggles", [FactorToggles(), FactorToggles(False, False, False)])
    @pytest.mark.parametrize("k", [10.0, 10])
    def test_scalar_inputs_give_0d_float64_arrays(self, profile22, toggles, k):
        grid = sense_grid(profile22, 3e5, k, 1024, 0.2, toggles)
        for a in grid:
            assert (type(a), a.dtype, a.shape) == (np.ndarray, np.float64, ())
        assert float(grid[3]) == read_currents(
            profile22, CellSpec(3e5, k), ReadSetup(0.2, 1024, toggles)
        ).margin_normalized


class TestEffectiveRatio:
    def test_single_cell_is_series_resistance_quotient(self, profile22):
        # one cell: no leakage neighbors, ratio of the two series paths
        ratio = read_currents(
            profile22, CellSpec(20e3, 10), ReadSetup(v_read=0.2, n_cells=1)
        ).ratio_effective
        expected = (200e3 + 1700 + 2.5) / (20e3 + 1700 + 2.5)
        assert ratio == pytest.approx(expected, rel=REL)
        assert ratio == pytest.approx(9.294, abs=1e-3)

    def test_leakage_dominated_limit(self, profile22):
        # enormous cell resistance: both currents sink to the leakage floor
        ratio = read_currents(
            profile22, CellSpec(100e6, 10), ReadSetup(v_read=0.2, n_cells=4096)
        ).ratio_effective
        assert 1.0 < ratio < 1.05
        _, _, expected, _ = exact_margin(profile22, 100e6, 10, 4096, 0.2)
        assert ratio == pytest.approx(expected, rel=REL)

    def test_middle_of_optimal_band(self, profile22):
        ratio = read_currents(
            profile22, CellSpec(50e3, 10), ReadSetup(v_read=0.2, n_cells=1024)
        ).ratio_effective
        assert ratio == pytest.approx(8.5178, abs=5e-4)


class TestValidation:
    def test_cell_invariants(self):
        with pytest.raises(ValueError):
            CellSpec(r_on=0.0, ratio_ideal=10)
        with pytest.raises(ValueError):
            CellSpec(r_on=-5.0, ratio_ideal=10)
        with pytest.raises(ValueError):
            CellSpec(r_on=1e4, ratio_ideal=0.5)
        with pytest.raises(ValueError):
            CellSpec(r_on=float("inf"), ratio_ideal=10)

    @pytest.mark.parametrize(
        "r_on, ratio_ideal, message",
        [(1e4, True, "ratio_ideal must be a number, got True"),
         (True, 10.0, "r_on must be a number, got True"),
         (1e4, np.True_, "ratio_ideal must be a number, got True"),
         (np.True_, 10.0, "r_on must be a number, got True")],
        ids=["bool-k", "bool-r_on", "numpy-bool-k", "numpy-bool-r_on"],
    )
    def test_cell_rejects_bools(self, r_on, ratio_ideal, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CellSpec(r_on, ratio_ideal)

    @pytest.mark.parametrize(
        "r_on, ratio_ideal",
        [(10_000, 10), (1e4, 10.0), (np.float64(1e4), np.int64(10)), (np.float32(1e4), np.uint8(1))],
    )
    def test_cell_takes_python_and_numpy_numbers(self, r_on, ratio_ideal):
        cell = CellSpec(r_on, ratio_ideal)
        assert (cell.r_on, cell.ratio_ideal) == (r_on, ratio_ideal)

    def test_setup_invariants(self):
        with pytest.raises(ValueError):
            ReadSetup(v_read=0.0, n_cells=4)
        with pytest.raises(ValueError):
            ReadSetup(v_read=0.2, n_cells=0)
        with pytest.raises(ValueError):
            ReadSetup(v_read=0.2, n_cells=2.5)

    @pytest.mark.parametrize("v_read", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_setup_rejects_bool_v_read(self, v_read):
        message = "v_read must be a number, got True"  # the Python value, as sense_grid's
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ReadSetup(v_read, 64)

    @pytest.mark.parametrize(
        "bits, message",
        [((1, 1, "x"), "line_resistance must be a bool, got 1"),
         ((True, True, "x"), "leakage must be a bool, got 'x'"),
         ((True, np.False_, True), "transistor_resistance must be a bool, got np.False_"),
         ((True, True, None), "leakage must be a bool, got None")],
    )
    def test_toggles_take_only_bools(self, bits, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FactorToggles(*bits)

    def test_profile_invariants(self):
        with pytest.raises(ValueError):
            TechnologyProfile("x", -1.0, 10.0, ((0.2, 1e-11),))
        with pytest.raises(ValueError):
            TechnologyProfile("x", 1.0, -1.0, ((0.2, 1e-11),))
        with pytest.raises(ValueError):
            TechnologyProfile("x", 1.0, 1.0, ())
        with pytest.raises(ValueError):
            TechnologyProfile("x", 1.0, 1.0, ((0.2, 1e-11), (0.2, 2e-11)))
        with pytest.raises(ValueError):
            TechnologyProfile("x", 1.0, 1.0, ((0.2, 2e-11), (0.4, 1e-11)))
        with pytest.raises(ValueError):
            TechnologyProfile("x", 1.0, 1.0, ((0.2, -1e-11),))

    def test_sense_result_invariants(self):
        with pytest.raises(ValueError):
            SenseResult(i_on=1e-6, i_off=0.0, ratio_effective=1.0, margin_normalized=1.0)
        with pytest.raises(ValueError):
            SenseResult(i_on=1e-7, i_off=1e-6, ratio_effective=0.1, margin_normalized=0.1)
        with pytest.raises(ValueError):
            SenseResult(i_on=1e-6, i_off=1e-7, ratio_effective=10.0, margin_normalized=1.5)

    def test_sense_result_margin_bound_is_the_models(self):
        # One margin rule (model._MARGIN_MAX), shared with MarginCurve.
        assert SenseResult(1e-6, 1e-7, 10.0, 1 + 5e-10).margin_normalized == 1 + 5e-10
        message = f"margin_normalized must lie in (0, 1], got {1 + 2e-9}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SenseResult(1e-6, 1e-7, 10.0, 1 + 2e-9)
