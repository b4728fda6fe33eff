"""Unit tests for the closed-form column model.

Reference values are frozen from an exact rational-arithmetic evaluation
of the same expressions (see exact_margin below), so the float
implementation is checked against an independent numeric route.
"""

from fractions import Fraction

import numpy as np
import pytest

from crossbar_margin import (
    CellSpec,
    FactorToggles,
    LeakageRangeError,
    ReadSetup,
    SenseResult,
    SolverError,
    TechnologyProfile,
    effective_ratio,
    ideal_ratio,
    leakage_at,
    read_currents,
    sense_grid,
)
from crossbar_margin.model import sense_point

REL = 1e-12


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
        assert ideal_ratio(cell) == 10.0

    def test_degenerate_equal_state_cell(self):
        assert ideal_ratio(CellSpec(r_on=10e3, ratio_ideal=1)) == 1.0

    def test_high_ratio(self):
        assert ideal_ratio(CellSpec(r_on=100e3, ratio_ideal=100)) == 100.0


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
        setup = ReadSetup(0.2, 512, FactorToggles.all_off())
        res = read_currents(profile22, cell, setup)
        assert res.ratio_effective == ideal_ratio(cell)
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

    def test_non_finite_margin_is_solver_error(self, profile22):
        # R_on this small overflows both currents; with leakage on their
        # quotient is inf/inf, in the array and in the scalar view alike.
        leak_only = FactorToggles(False, False, True)
        with pytest.raises(SolverError, match="not finite"):
            sense_grid(profile22, [5e-324, 1e4], 10.0, 4, 0.2, leak_only)
        with pytest.raises(SolverError, match="not finite"):
            read_currents(profile22, CellSpec(5e-324, 10), ReadSetup(0.2, 4, leak_only))

    def test_ideal_margin_survives_infinite_currents(self, profile22):
        ideal = FactorToggles.all_off()
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


class TestEffectiveRatio:
    def test_single_cell_is_series_resistance_quotient(self, profile22):
        # one cell: no leakage neighbors, ratio of the two series paths
        ratio = effective_ratio(
            profile22, CellSpec(20e3, 10), ReadSetup(v_read=0.2, n_cells=1)
        )
        expected = (200e3 + 1700 + 2.5) / (20e3 + 1700 + 2.5)
        assert ratio == pytest.approx(expected, rel=REL)
        assert ratio == pytest.approx(9.294, abs=1e-3)

    def test_leakage_dominated_limit(self, profile22):
        # enormous cell resistance: both currents sink to the leakage floor
        ratio = effective_ratio(
            profile22, CellSpec(100e6, 10), ReadSetup(v_read=0.2, n_cells=4096)
        )
        assert 1.0 < ratio < 1.05
        _, _, expected, _ = exact_margin(profile22, 100e6, 10, 4096, 0.2)
        assert ratio == pytest.approx(expected, rel=REL)

    def test_middle_of_optimal_band(self, profile22):
        ratio = effective_ratio(
            profile22, CellSpec(50e3, 10), ReadSetup(v_read=0.2, n_cells=1024)
        )
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

    def test_setup_invariants(self):
        with pytest.raises(ValueError):
            ReadSetup(v_read=0.0, n_cells=4)
        with pytest.raises(ValueError):
            ReadSetup(v_read=0.2, n_cells=0)
        with pytest.raises(ValueError):
            ReadSetup(v_read=0.2, n_cells=2.5)

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
