"""Tests for sweeps, ablation, range search and compensation."""

import math

import numpy as np
import pytest

from crossbar_margin import (
    CellSpec,
    FactorToggles,
    LeakageRangeError,
    MarginCurve,
    NonUnimodalError,
    ReadSetup,
    SenseResult,
    SweepSpec,
    ablation_series,
    argmax_resistance,
    compensation_curve,
    find_optimal_range,
    read_currents,
    read_power_ratio,
    sense_grid,
    sweep_grid,
)
from crossbar_margin.analysis import DEFAULT_R_ON_GRID, _check_quasi_concave


# Grids every R_on search rejects: descending, empty, and holding NaN.
BAD_GRIDS = [DEFAULT_R_ON_GRID[::-1], (), (1e4, math.nan, 1e6)]


def margin_reference(profile, r_on, k, n, v):
    """Inline evaluation of the worst-case column margin, kept separate
    from the package implementation on purpose."""
    series = profile.r_transistor + n * profile.r_unit
    leak = dict(profile.leakage_table)[v] * (n - 1)
    i_on = v / (r_on + series) + leak
    i_off = v / (k * r_on + series) + leak
    return (i_on / i_off) / k


class TestSweepGrid:
    def test_points_bit_identical_to_direct_calls(self, profile22):
        spec = SweepSpec(
            r_on_grid=(1e4, 5e4, 1e6),
            n_grid=(64, 1024),
            v_read_grid=(0.2, 0.4),
            ratio_ideal=10.0,
        )
        curves = sweep_grid(spec, profile22)
        assert len(curves) == 4  # toggles x v x n
        for curve in curves:
            setup = ReadSetup(curve.meta["v_read"], curve.meta["n_cells"])
            for r_on, *point in zip(curve.x, *curve.sensed):
                direct = read_currents(profile22, CellSpec(r_on, 10.0), setup)
                assert SenseResult(*map(float, point)) == direct

    def test_slice_order_deterministic(self, profile22):
        spec = SweepSpec(
            r_on_grid=(1e4, 1e5),
            n_grid=(64, 128),
            v_read_grid=(0.2, 0.4),
            ratio_ideal=10.0,
            toggles=(FactorToggles.all_on(), FactorToggles.all_off()),
        )
        labels = [c.label for c in sweep_grid(spec, profile22)]
        assert labels == [
            "r+R_T+I_Tleak, V=0.2V, n=64",
            "r+R_T+I_Tleak, V=0.2V, n=128",
            "r+R_T+I_Tleak, V=0.4V, n=64",
            "r+R_T+I_Tleak, V=0.4V, n=128",
            "ideal, V=0.2V, n=64",
            "ideal, V=0.2V, n=128",
            "ideal, V=0.4V, n=64",
            "ideal, V=0.4V, n=128",
        ]

    def test_ir_only_prefers_high_resistance(self, profile22):
        # without leakage, the 100k curve beats the 10k curve at every size
        spec = SweepSpec(
            r_on_grid=(1e4, 1e5),
            n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
            v_read_grid=(0.2,),
            ratio_ideal=10.0,
            toggles=(FactorToggles(True, True, False),),
        )
        for curve in sweep_grid(spec, profile22):
            assert curve.y[1] > curve.y[0]

    def test_leakage_only_prefers_low_resistance(self, profile22):
        spec = SweepSpec(
            r_on_grid=(1e4, 1e5),
            n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
            v_read_grid=(0.2,),
            ratio_ideal=10.0,
            toggles=(FactorToggles(False, False, True),),
        )
        for curve in sweep_grid(spec, profile22):
            assert curve.y[1] < curve.y[0]

    def test_combined_factors_favor_intermediate_resistance(self, profile22):
        spec = SweepSpec(
            r_on_grid=(1e4, 5e4, 1e5),
            n_grid=(4096,),
            v_read_grid=(0.2,),
            ratio_ideal=10.0,
        )
        (curve,) = sweep_grid(spec, profile22)
        assert curve.y[1] == max(curve.y)

    def test_all_toggles_off_is_flat_unity(self, profile22):
        spec = SweepSpec(
            r_on_grid=(1e4, 1e6, 1e8),
            n_grid=(64, 4096),
            v_read_grid=(0.2,),
            ratio_ideal=10.0,
            toggles=(FactorToggles.all_off(),),
        )
        for curve in sweep_grid(spec, profile22):
            assert all(y == 1.0 for y in curve.y)

    def test_oracle_engine_matches_oracle_calls(self, profile22):
        from crossbar_margin import oracle_margin

        spec = SweepSpec(
            r_on_grid=(1e4, 1e6),
            n_grid=(64,),
            v_read_grid=(0.2,),
            ratio_ideal=10.0,
            engine="oracle",
        )
        (curve,) = sweep_grid(spec, profile22)
        for r_on, *point in zip(curve.x, *curve.sensed):
            assert SenseResult(*map(float, point)) == oracle_margin(
                profile22, CellSpec(r_on, 10.0), ReadSetup(0.2, 64)
            )

    def test_partial_failure_drops_slice(self, profile22):
        spec = SweepSpec(
            r_on_grid=(1e4, 1e5),
            n_grid=(64,),
            v_read_grid=(0.2, 0.7),  # 0.7 V is outside the leakage table
            ratio_ideal=10.0,
        )
        with pytest.warns(UserWarning) as dropped:
            curves = sweep_grid(spec, profile22)
        assert [c.meta["v_read"] for c in curves] == [0.2]
        (warning,) = dropped
        message = str(warning.message)
        assert message.startswith("sweep slice r+R_T+I_Tleak, V=0.7V, n=64 dropped: ")
        assert "read voltage 0.7 V outside leakage table range" in message

    def test_total_failure_raises(self, profile22):
        spec = SweepSpec(
            r_on_grid=(1e4,),
            n_grid=(64,),
            v_read_grid=(0.9,),
            ratio_ideal=10.0,
        )
        with pytest.raises(LeakageRangeError):
            sweep_grid(spec, profile22)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(r_on_grid=(), n_grid=(64,), v_read_grid=(0.2,), ratio_ideal=10)
        with pytest.raises(ValueError):
            SweepSpec(
                r_on_grid=(1e5, 1e4), n_grid=(64,), v_read_grid=(0.2,), ratio_ideal=10
            )
        with pytest.raises(ValueError, match="r_on_grid must be strictly increasing"):
            SweepSpec(
                r_on_grid=(1e4, math.nan), n_grid=(64,), v_read_grid=(0.2,), ratio_ideal=10
            )
        with pytest.raises(ValueError):
            SweepSpec(
                r_on_grid=(1e4,), n_grid=(64,), v_read_grid=(0.2,), ratio_ideal=10,
                engine="spice",
            )
        with pytest.raises(ValueError):
            SweepSpec(
                r_on_grid=(1e4,), n_grid=(64,), v_read_grid=(0.2,), ratio_ideal=10,
                toggles=(),
            )


class TestMarginCurve:
    def _sensed(self, profile, points=2):
        return sense_grid(profile, (1e4,) * points, 10, 4, 0.2)

    def test_x_must_increase(self, profile22):
        sensed = self._sensed(profile22)
        with pytest.raises(ValueError):
            MarginCurve("c", (2.0, 1.0), (0.5, 0.5), sensed)

    def test_margin_bounds_enforced(self, profile22):
        sensed = self._sensed(profile22)
        with pytest.raises(ValueError):
            MarginCurve("c", (1.0, 2.0), (0.0, 0.5), sensed)
        with pytest.raises(ValueError):
            MarginCurve("c", (1.0, 2.0), (0.5, 1.5), sensed)

    def test_delta_curves_may_touch_zero(self, profile22):
        sensed = self._sensed(profile22)
        curve = MarginCurve("c", (1.0, 2.0), (0.0, -0.1), sensed, y_kind="delta")
        assert curve.y == (0.0, -0.1)

    def test_length_mismatch(self, profile22):
        with pytest.raises(ValueError):
            MarginCurve("c", (1.0, 2.0), (0.5,), self._sensed(profile22, 1))

    def test_sensed_length_mismatch(self, profile22):
        with pytest.raises(ValueError):
            MarginCurve("c", (1.0, 2.0), (0.5, 0.5), self._sensed(profile22, 3))

    @pytest.mark.parametrize(
        "x, y, named",
        [
            ((1.0, 2.0, 3.0), (0.0, math.nan, 0.1), "nan"),
            ((1.0, 2.0, 3.0), (0.0, 0.1, -math.inf), "-inf"),
            ((1.0, math.nan, 3.0), (0.0, 0.1, 0.2), "nan"),
            ((math.nan, 2.0, 3.0), (0.0, 0.1, 0.2), "nan"),
            ((1.0, 2.0, math.inf), (0.0, 0.1, 0.2), "inf"),
            ((-math.inf, 2.0, 3.0), (0.0, 0.1, 0.2), "-inf"),
            ((math.nan,), (0.5,), "nan"),
        ],
    )
    def test_non_finite_values_rejected(self, profile22, x, y, named):
        sensed = self._sensed(profile22, len(x))
        with pytest.raises(ValueError, match=f"got.*{named}"):
            MarginCurve("d", x, y, sensed, y_kind="delta")


class TestAblationSeries:
    def test_labels_and_baseline(self, profile22):
        series = ablation_series(
            profile22,
            CellSpec(1e4, 10),
            ReadSetup(0.2, 1024),
            r_on_grid=(1e4, 1e6),
        )
        assert [label for label, _ in series] == ["baseline", "-R_T", "-r", "-I_Tleak"]
        baseline = dict(series)["baseline"]
        direct = read_currents(profile22, CellSpec(1e4, 10), ReadSetup(0.2, 1024))
        assert SenseResult(*(float(a[0]) for a in baseline.sensed)) == direct

    def test_without_leakage_margin_approaches_unity(self, profile22):
        series = dict(
            ablation_series(
                profile22,
                CellSpec(1e4, 10),
                ReadSetup(0.2, 1024),
                r_on_grid=(1e4, 1e5, 1e6, 1e7),
            )
        )
        no_leak = series["-I_Tleak"]
        assert list(no_leak.y) == sorted(no_leak.y)  # monotone increasing
        # closed form (k*R + D) / (k * (R + D)) with D = R_T + n*r = 4260
        assert no_leak.y[-1] == pytest.approx(100004260 / (10 * 10004260), rel=1e-12)
        assert no_leak.y[-1] == pytest.approx(0.99962, abs=1e-5)

    def test_dominant_factor_swaps_across_the_curve(self, profile22):
        series = dict(
            ablation_series(
                profile22,
                CellSpec(1e4, 10),
                ReadSetup(0.2, 1024),
                r_on_grid=(1e4, 1e6),
            )
        )
        base = series["baseline"].y
        gain_r = [a - b for a, b in zip(series["-r"].y, base)]
        gain_leak = [a - b for a, b in zip(series["-I_Tleak"].y, base)]
        # low resistance: line drop dominates; high resistance: leakage does
        assert gain_r[0] > gain_leak[0]
        assert gain_r[1] < gain_leak[1]

    def test_requires_all_factors_enabled(self, profile22):
        with pytest.raises(ValueError):
            ablation_series(
                profile22,
                CellSpec(1e4, 10),
                ReadSetup(0.2, 1024, FactorToggles(leakage=False)),
            )


class TestFindOptimalRange:
    def test_reference_band_at_80_percent(self, profile22):
        span = find_optimal_range(profile22, 10.0, 1024, 0.2, 0.80)
        assert span is not None
        r_low, r_high = span
        # threshold crossings sit near 17.78 k and 117.17 k; bisection
        # returns the inside of a <=1 % bracket around each
        assert 17700 <= r_low <= 18100
        assert 115800 <= r_high <= 117400
        setup = ReadSetup(0.2, 1024)
        assert read_currents(profile22, CellSpec(r_low, 10), setup).margin_normalized >= 0.80
        assert read_currents(profile22, CellSpec(r_high, 10), setup).margin_normalized >= 0.80
        # just outside the bracket the margin falls below the threshold
        assert (
            read_currents(profile22, CellSpec(r_low / 1.02, 10), setup).margin_normalized
            < 0.80
        )
        assert (
            read_currents(profile22, CellSpec(r_high * 1.02, 10), setup).margin_normalized
            < 0.80
        )

    def test_threshold_above_peak_returns_none(self, profile22):
        assert find_optimal_range(profile22, 10.0, 4096, 0.2, 0.99) is None

    def test_stability_against_denser_presweep(self, profile22):
        coarse = find_optimal_range(profile22, 10.0, 1024, 0.2, 0.80)
        dense_grid = tuple(float(x) for x in np.logspace(4, 8, 400))
        dense = find_optimal_range(profile22, 10.0, 1024, 0.2, 0.80, dense_grid)
        assert coarse is not None and dense is not None
        assert abs(coarse[0] - dense[0]) / dense[0] <= 0.01
        assert abs(coarse[1] - dense[1]) / dense[1] <= 0.01

    def test_higher_ratio_shifts_band_lower(self, profile22):
        span10 = find_optimal_range(profile22, 10.0, 1024, 0.2, 0.5)
        span100 = find_optimal_range(profile22, 100.0, 1024, 0.2, 0.5)
        assert span10 is not None and span100 is not None
        mid10 = math.sqrt(span10[0] * span10[1])
        mid100 = math.sqrt(span100[0] * span100[1])
        assert mid100 < mid10

    def test_interval_clipped_at_grid_edge(self, profile22):
        span = find_optimal_range(profile22, 10.0, 64, 0.2, 0.2)
        assert span is not None
        assert span[0] == DEFAULT_R_ON_GRID[0]
        assert span[1] < DEFAULT_R_ON_GRID[-1]

    def test_threshold_validation(self, profile22):
        with pytest.raises(ValueError):
            find_optimal_range(profile22, 10.0, 1024, 0.2, 0.0)
        with pytest.raises(ValueError):
            find_optimal_range(profile22, 10.0, 1024, 0.2, 1.0)

    @pytest.mark.parametrize("grid", BAD_GRIDS, ids=["descending", "empty", "nan"])
    def test_grid_validation(self, profile22, grid):
        with pytest.raises(ValueError, match="r_on_grid"):
            find_optimal_range(profile22, 10.0, 1024, 0.2, 0.8, grid)

    def test_quasi_concavity_guard(self):
        _check_quasi_concave((1.0, 2.0, 3.0), [0.2, 0.5, 0.4])  # single peak: fine
        _check_quasi_concave((1.0, 2.0, 3.0), [0.3, 0.3, 0.3])  # plateau: fine
        with pytest.raises(NonUnimodalError) as err:
            _check_quasi_concave((1.0, 2.0, 3.0, 4.0), [0.2, 0.5, 0.3, 0.6])
        assert "2" in str(err.value)


class TestArgmaxResistance:
    def test_intermediate_resistance_wins_when_combined(self, profile22):
        grid = (1e4, 5e4, 1e5)
        for n in (1024, 2048, 4096):
            assert argmax_resistance(profile22, 10.0, n, 0.2, grid) == 5e4

    def test_monotone_case_picks_last_point(self, profile22):
        # leakage cannot act at n=1, so the margin only grows with r_on
        grid = (1e4, 1e5, 1e6)
        assert argmax_resistance(profile22, 10.0, 1, 0.2, grid) == 1e6

    def test_dense_grid_matches_independent_argmax(self, profile22):
        margins = [
            margin_reference(profile22, r, 10.0, 1024, 0.2) for r in DEFAULT_R_ON_GRID
        ]
        expected = DEFAULT_R_ON_GRID[int(np.argmax(margins))]
        result = argmax_resistance(profile22, 10.0, 1024, 0.2, DEFAULT_R_ON_GRID)
        assert result == expected
        assert 4e4 <= result <= 5e4

    def test_tie_breaks_toward_lower_resistance(self, profile22):
        # a degenerate cell has margin exactly 1 everywhere
        grid = (1e4, 1e5, 1e6)
        assert argmax_resistance(profile22, 1.0, 64, 0.2, grid) == 1e4

    def test_empty_grid_rejected(self, profile22):
        with pytest.raises(ValueError, match="r_on_grid must be non-empty"):
            argmax_resistance(profile22, 10.0, 64, 0.2, ())

    @pytest.mark.parametrize("grid", BAD_GRIDS, ids=["descending", "empty", "nan"])
    def test_grid_validation(self, profile22, grid):
        with pytest.raises(ValueError, match="r_on_grid"):
            argmax_resistance(profile22, 10.0, 1024, 0.2, grid)


class TestCompensationCurve:
    def test_gain_peaks_near_reference_values(self, profile22):
        gain4 = compensation_curve(profile22, 10.0, 1024, 0.2, 0.4)
        gain6 = compensation_curve(profile22, 10.0, 1024, 0.2, 0.6)
        ref4 = max(
            margin_reference(profile22, r, 10.0, 1024, 0.4)
            - margin_reference(profile22, r, 10.0, 1024, 0.2)
            for r in DEFAULT_R_ON_GRID
        )
        ref6 = max(
            margin_reference(profile22, r, 10.0, 1024, 0.6)
            - margin_reference(profile22, r, 10.0, 1024, 0.2)
            for r in DEFAULT_R_ON_GRID
        )
        assert max(gain4.y) == pytest.approx(ref4, rel=1e-12)
        assert max(gain6.y) == pytest.approx(ref6, rel=1e-12)
        assert max(gain4.y) == pytest.approx(0.0835, abs=2e-4)
        assert max(gain6.y) == pytest.approx(0.1075, abs=2e-4)

    def test_gain_nonnegative_for_sublinear_leakage(self, profile22):
        # leakage grows slower than the voltage (40->55->74 pA vs 2x, 3x)
        gain = compensation_curve(profile22, 10.0, 1024, 0.2, 0.6)
        assert min(gain.y) >= 0.0
        assert gain.y_kind == "delta"

    def test_without_leakage_gain_is_identically_zero(self, profile22):
        gain = compensation_curve(
            profile22,
            10.0,
            1024,
            0.2,
            0.6,
            toggles=FactorToggles(True, True, False),
        )
        assert all(y == 0.0 for y in gain.y)

    def test_out_of_table_voltage_propagates(self, profile22):
        with pytest.raises(LeakageRangeError):
            compensation_curve(profile22, 10.0, 1024, 0.2, 0.9)


class TestReadPowerRatio:
    def test_quadratic_law(self):
        assert read_power_ratio(0.4, 0.2) == pytest.approx(4.0, rel=1e-12)
        assert read_power_ratio(0.3, 0.3) == 1.0
        assert read_power_ratio(0.6, 0.2) == pytest.approx(9.0, rel=1e-12)

    def test_rejects_nonpositive_voltages(self):
        with pytest.raises(ValueError):
            read_power_ratio(0.0, 0.2)
        with pytest.raises(ValueError):
            read_power_ratio(0.4, -0.2)
