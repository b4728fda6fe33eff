"""Tests for sweeps, ablation, range search and compensation."""

import copy
import math
import pickle
import re
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossbar_margin import (
    CellSpec,
    FactorToggles,
    LeakageRangeError,
    MarginCurve,
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
from crossbar_margin import analysis, compare_lumped_distributed, model, oracle
from crossbar_margin.analysis import (
    COARSE_R_ON_GRID,
    DEFAULT_N_GRID,
    DEFAULT_R_ON_GRID,
    VALIDATION_N_GRID,
    Grid,
)
from crossbar_margin.model import _sensed, leakage_at
from optimal_range_reference import find_optimal_range_reference


# Grids every R_on search rejects, with their errors: descending, empty,
# holding NaN (the input domain is checked before the grid's shape) and nested.
BAD_GRIDS = [(DEFAULT_R_ON_GRID[::-1], "r_on_grid must be strictly increasing"),
             ((), "r_on_grid must be non-empty"),
             ((1e4, math.nan, 1e6), "r_on must be finite and > 0, got nan"),
             ([[1e4], [2e5]], "r_on_grid must be one-dimensional, got shape (2, 1)")]
BAD_GRID_IDS = ["descending", "empty", "nan", "nested"]

# Wider and ten times denser than the default grid, for band checks.
DENSE_GRID = tuple(float(x) for x in np.logspace(3.0, 9.0, 2001))
band_inputs = dict(
    k=st.floats(1.0, 1e3),
    n=st.one_of(st.just(1), st.integers(1, 16384)),
    v=st.floats(0.2, 0.6),
    t=st.floats(0.01, 0.99),
)


def exact_band(profile, k, n, v, t):
    """Roots of the band's quadratic (analysis docstring) in rational
    arithmetic, with the square root taken to 50 digits."""
    s = Fraction(profile.r_transistor) + n * Fraction(profile.r_unit)
    leak = (n - 1) * Fraction(leakage_at(profile, v))
    k, t, v = Fraction(k), Fraction(t), Fraction(v)
    a = (1 - t * k) * leak * k
    b = (1 - t * k) * leak * s * (k + 1) + v * k * (1 - t)
    c = (1 - t * k) * s * (leak * s + v)
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c = (Decimal(x.numerator) / x.denominator for x in (a, b, c))
        root = (b * b - 4 * a * c).sqrt()
        return float((-b + root) / (2 * a)), float((-b - root) / (2 * a))


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
            toggles=(FactorToggles(), FactorToggles(False, False, False)),
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
            toggles=(FactorToggles(False, False, False),),
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

    def test_a_defect_is_not_a_dropped_slice(self, profile22, monkeypatch):
        # Only a model failure (SolverError or ValueError) drops a slice.
        def broken_at_0_4(profile, r_on, k, n, v_read, *args):
            if v_read == 0.4:
                raise TypeError("defect in one slice")
            return _sensed(profile, r_on, k, n, v_read, *args)

        monkeypatch.setattr(analysis, "_sensed", broken_at_0_4)
        spec = SweepSpec((1e4, 1e5), (64,), (0.2, 0.4), 10.0)
        with pytest.raises(TypeError, match="^defect in one slice$"):
            sweep_grid(spec, profile22)

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
        with pytest.raises(ValueError, match="r_on must be finite and > 0, got nan"):
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

    @pytest.mark.parametrize(
        "toggles, message",
        [((1,), "toggles must be a FactorToggles, got 1"),
         ((FactorToggles(), None), "toggles must be a FactorToggles, got None"),
         ((), "toggles must be a non-empty tuple, got ()"),
         (FactorToggles(), "toggles must be a non-empty tuple, got FactorToggles("
                           "line_resistance=True, transistor_resistance=True, leakage=True)")],
        ids=["int", "None", "empty", "not-a-tuple"],
    )
    def test_spec_takes_factor_toggles_only(self, toggles, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec((1e4, 1e5), (64,), (0.2,), 10.0, toggles)

    @pytest.mark.parametrize(
        "n_grid, value",
        [((64.9, 128), "64.9"), ((64.2, 64.9), "64.2"), ((True, 2), "True"),
         (("64",), "'64'"), ((math.inf,), "inf"), ((64, math.nan), "nan"),
         ((np.float32(64.5),), "64.5"), ((Fraction(64),), "Fraction(64, 1)")],
        ids=["fraction-part", "two-fraction-parts", "bool", "str", "inf", "nan",
             "float32", "Fraction"],
    )
    def test_n_grid_takes_integers_only(self, n_grid, value):
        message = f"n_cells must be integers, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec((1e4, 1e5), n_grid, (0.2,), 10.0)

    @pytest.mark.parametrize(
        "r_on_grid, v_read_grid, name, value",
        [((True, 1e4, 1e5), (0.2,), "r_on", "True"),
         ((1e4, "1e5"), (0.2,), "r_on", "'1e5'"),
         ((np.True_, 2.0), (0.2,), "r_on", "True"),
         ((Fraction(10_000), 1e5), (0.2,), "r_on", "Fraction(10000, 1)"),
         ((1e4, 1e5), ("0.2",), "v_read", "'0.2'"),
         ((1e4, 1e5), (0.2, True), "v_read", "True")],
        ids=["r_on-bool", "r_on-str", "r_on-numpy-bool", "r_on-Fraction", "v_read-str",
             "v_read-bool"],
    )
    def test_float_grids_take_numbers_only(self, r_on_grid, v_read_grid, name, value):
        message = f"{name} must be a number, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(r_on_grid, (64,), v_read_grid, 10.0)

    def test_float_grids_keep_python_and_numpy_numbers(self):
        spec = SweepSpec((10_000, np.float32(1e5), np.int64(10**6)), (64,), (np.float64(0.2),), 10.0)
        assert spec.r_on_grid == (1e4, 1e5, 1e6) and spec.v_read_grid == (0.2,)
        assert all(type(v) is float for v in spec.r_on_grid + spec.v_read_grid)

    def test_n_grid_keeps_integral_values(self):
        n_grid = (np.int64(64), 128, np.uint16(512), 2**53, 2**53 + 1, 2**63)
        spec = SweepSpec((1e4, 1e5), n_grid, (0.2,), 10.0)
        assert spec.n_grid == (64, 128, 512, 2**53, 2**53 + 1, 2**63)
        assert all(type(n) is int for n in spec.n_grid)


class TestGrid:
    def test_package_grids_are_grids(self):
        for grid in (DEFAULT_R_ON_GRID, COARSE_R_ON_GRID, DEFAULT_N_GRID, VALIDATION_N_GRID):
            assert type(grid) is Grid

    def test_sweep_spec_grids_are_grids(self):
        spec = SweepSpec((1e4, 1e5), [np.int64(64), 128], (0.2,), 10.0)
        assert (spec.r_on_grid, spec.n_grid, spec.v_read_grid) == ((1e4, 1e5), (64, 128), (0.2,))
        assert all(type(g) is Grid for g in (spec.r_on_grid, spec.n_grid, spec.v_read_grid))
        assert type(spec.n_grid[0]) is int
        spec = SweepSpec(DEFAULT_R_ON_GRID, DEFAULT_N_GRID, (0.2,), 10.0)
        assert spec.r_on_grid is DEFAULT_R_ON_GRID and spec.n_grid is DEFAULT_N_GRID

    def test_grid_keeps_a_grid_and_checks_anything_else(self):
        assert Grid(DEFAULT_R_ON_GRID, "g") is DEFAULT_R_ON_GRID
        grid = Grid([1.0, 2.0], "g")
        assert type(grid) is Grid and grid == (1.0, 2.0)
        for bad, message in [((), "g must be non-empty"),
                             ((2.0, 1.0), "g must be strictly increasing, got 2.0 then 1.0"),
                             ((1.0, math.inf), "g must be finite, got inf"),
                             ((1, 10**400), f"g must be finite, got {10**400}")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Grid(bad, "g")

    def test_a_grid_holds_numbers(self, profile22):
        for bad, named in [((True, 2.0), "True"), (("1", "2"), "'1'"), ((1.0, None), "None")]:
            with pytest.raises(ValueError, match=f"^g values must be numbers, got {named}$"):
                Grid(bad, "g")
        grid = Grid(np.array([1e4, 2e4]), "g")  # numpy numbers are numbers
        assert argmax_resistance(profile22, 10.0, 64, 0.2, grid) in grid
        with pytest.raises(ValueError, match=r"^r_on must be finite and > 0, got -1\.0$"):
            argmax_resistance(profile22, 10.0, 64, 0.2, Grid((-1.0, 1e4)))

    @pytest.mark.parametrize(
        "values, name, message",
        [((3e5, 2e5, 1e5), None, "grid must be strictly increasing, got 300000.0 then 200000.0"),
         ((), "x", "x must be non-empty"),
         ((1.0, math.nan), "x", "x must be strictly increasing, got 1.0 then nan")],
    )
    def test_a_grid_is_checked_when_built(self, values, name, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Grid(values) if name is None else Grid(values, name)

    def test_a_grid_is_not_checked_again(self, profile22, monkeypatch):
        v_grid = Grid((0.2,), "v_read_grid")

        def unexpected_check(name, grid):
            raise AssertionError(f"{name} checked again")

        monkeypatch.setattr(analysis, "_check_grid", unexpected_check)
        spec = SweepSpec(DEFAULT_R_ON_GRID, DEFAULT_N_GRID, v_grid, 10.0)
        assert all(c.x is DEFAULT_R_ON_GRID for c in sweep_grid(spec, profile22))
        series = ablation_series(profile22, CellSpec(1e4, 10), ReadSetup(0.2, 1024))
        assert all(c.x is DEFAULT_R_ON_GRID for _, c in series)
        curve = compensation_curve(profile22, 10.0, 1024, 0.2, 0.4)
        assert curve.x is DEFAULT_R_ON_GRID
        assert find_optimal_range(profile22, 10.0, 1024, 0.2, 0.8) is not None
        assert argmax_resistance(profile22, 10.0, 1024, 0.2, DEFAULT_R_ON_GRID) > 0
        with pytest.raises(AssertionError, match="r_on_grid checked again"):
            argmax_resistance(profile22, 10.0, 1024, 0.2, tuple(DEFAULT_R_ON_GRID))

    def test_each_input_is_checked_once_per_call(self, profile22, monkeypatch):
        # A study checks each input once, at entry, or takes it as a SweepSpec, CellSpec
        # or ReadSetup holds it checked; its kernel calls check nothing again.
        grid = (1e4, 1e5, 1e6)
        toggles = (FactorToggles(), FactorToggles(leakage=False))
        spec = SweepSpec(grid, (64, 128), (0.2,), 10.0, toggles)
        cell, setup = CellSpec(1e4, 10.0), ReadSetup(0.2, 64)
        cells = [CellSpec(r, 10.0) for r in grid]
        setups = [ReadSetup(0.2, n) for n in (64, 128, 256)]
        checks = []

        def counting(check):
            def count(name, value):
                checks.append((check.__name__, name))
                return check(name, value)
            return count

        originals = {name: getattr(model, name) for name in ("_require", "_checked")}
        for module in (model, analysis, oracle):  # every module that binds a check
            for name, check in originals.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(check))

        def checked(call, *args):
            checks.clear()
            call(*args)
            return Counter(checks)

        assert checked(ablation_series, profile22, cell, setup, grid) == {("_require", "r_on"): 1}
        assert checked(compensation_curve, profile22, 10.0, 64, 0.2, 0.4, grid) == {
            ("_require", "r_on"): 1, ("_checked", "ratio_ideal"): 1, ("_checked", "n_cells"): 1,
            ("_checked", "v_read"): 2}
        assert checked(argmax_resistance, profile22, 10.0, 64, 0.2, grid) == {
            ("_require", "r_on"): 1, ("_checked", "ratio_ideal"): 1, ("_checked", "n_cells"): 1,
            ("_checked", "v_read"): 1}
        assert checked(sweep_grid, spec, profile22) == {("_checked", "r_on"): 1}  # its lower bound
        assert checked(compare_lumped_distributed, profile22, cells, setups) == {}

    def test_grid_and_curve_survive_pickle_and_deepcopy(self, profile22):
        curve = compensation_curve(profile22, 10.0, 1024, 0.2, 0.4, COARSE_R_ON_GRID)
        for clone in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve)):
            assert type(clone) is MarginCurve and type(clone.x) is Grid
            assert (clone.label, clone.x, clone.y, clone.meta, clone.y_kind) == (
                curve.label, curve.x, curve.y, curve.meta, curve.y_kind)
            assert all(np.array_equal(a, b) for a, b in zip(clone.sensed, curve.sensed))
        for clone in (pickle.loads(pickle.dumps(DEFAULT_N_GRID)), copy.deepcopy(DEFAULT_N_GRID)):
            assert type(clone) is Grid and clone == DEFAULT_N_GRID


class TestMarginCurve:
    def _sensed(self, profile, points=2):
        return sense_grid(profile, (1e4,) * points, 10, 4, 0.2)

    @pytest.mark.parametrize(
        "x, message",
        [
            ((3e5, 2e5, 1e5), "x must be strictly increasing, got 300000.0 then 200000.0"),
            ((1e4, math.nan, 1e6), "x must be strictly increasing, got 10000.0 then nan"),
            ((), "x must be non-empty"),
            ((1, 10**400), f"x must be finite, got {10**400}"),
        ],
        ids=["descending", "nan", "empty", "int-past-float"],
    )
    def test_x_checked_on_every_path(self, profile22, x, message):
        sensed = sense_grid(profile22, np.full(len(x), 2e5), 10.0, 64, 0.2)
        match = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            MarginCurve("m", x, sensed[3], sensed, {})
        with pytest.raises(ValueError, match=match):
            MarginCurve("m", x, sensed[3], sensed)

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

    @pytest.mark.parametrize("bad, named", [(0.0, "0.0"), (1.5, "1.5"), (math.nan, "nan")])
    def test_margin_curve_names_the_first_bad_margin(self, profile22, bad, named):
        sensed = [a.copy() for a in self._sensed(profile22, 3)]
        good = MarginCurve("c", (1.0, 2.0, 3.0), sensed[3], tuple(sensed), {})
        assert good == MarginCurve("c", (1.0, 2.0, 3.0), good.y, good.sensed, {})
        sensed[3][1:] = bad, 2.0
        with pytest.raises(ValueError, match=rf"must lie in \(0, 1\], got {named}$"):
            MarginCurve("c", (1.0, 2.0, 3.0), sensed[3], tuple(sensed), {})

    def test_non_finite_gain_rejected(self, profile22, monkeypatch):
        def nan_margin(*args):
            grid = [a.copy() for a in _sensed(*args)]
            grid[3][1] = math.nan
            return tuple(grid)

        monkeypatch.setattr(analysis, "_sensed", nan_margin)
        with pytest.raises(ValueError, match="delta values must be finite, got nan"):
            compensation_curve(profile22, 10.0, 1024, 0.2, 0.4, (1e4, 1e5, 1e6))


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

    @pytest.mark.parametrize("grid, message", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_grid_validation(self, profile22, grid, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ablation_series(profile22, CellSpec(1e4, 10), ReadSetup(0.2, 1024), grid)


class TestFindOptimalRange:
    def test_reference_band_at_80_percent(self, profile22):
        span = find_optimal_range(profile22, 10.0, 1024, 0.2, 0.80)
        assert span is not None
        r_low, r_high = span
        # threshold crossings sit near 17.78 k and 117.17 k
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

    @pytest.mark.parametrize("grid, message", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_grid_validation(self, profile22, grid, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            find_optimal_range(profile22, 10.0, 1024, 0.2, 0.8, grid)

    @settings(max_examples=300, deadline=None)
    @given(**band_inputs)
    @example(k=10.0, n=1, v=0.2, t=0.95)  # no leakage: no upper end
    @example(k=2.0, n=1024, v=0.2, t=0.5)  # t*k = 1: every R_on
    @example(k=10.0, n=1024, v=0.4, t=0.05)  # t*k < 1
    @example(k=10.0, n=4096, v=0.2, t=0.99)  # peak below t: empty band
    def test_band_is_the_superlevel_set_of_a_dense_sweep(self, profile22, k, n, v, t):
        grid = np.array(DENSE_GRID)
        above = sense_grid(profile22, grid, k, n, v)[3] >= t
        span = find_optimal_range(profile22, k, n, v, t, DENSE_GRID)
        if span is None:
            assert not above.any()
            return
        lo, hi = span
        assert grid[0] <= lo <= hi <= grid[-1]
        assert (sense_grid(profile22, [lo, hi], k, n, v)[3] >= t).all()
        assert ((grid >= lo) & (grid <= hi)).tolist() == above.tolist()
        # The ends are exact, not a bracket: just beyond one the margin drops.
        outside = [r for r, clipped in ((lo * (1 - 1e-6), lo == grid[0]),
                                        (hi * (1 + 1e-6), hi == grid[-1])) if not clipped]
        assert (sense_grid(profile22, outside, k, n, v)[3] < t).all()

    @settings(max_examples=200, deadline=None)
    @given(**band_inputs)
    def test_agrees_with_the_bisection_reference(self, profile22, k, n, v, t):
        want = find_optimal_range_reference(profile22, k, n, v, t, DEFAULT_R_ON_GRID)
        got = find_optimal_range(profile22, k, n, v, t)
        if want is None:  # the pre-sweep sees no band narrower than a grid step
            assert got is None or not any(got[0] <= r <= got[1] for r in DEFAULT_R_ON_GRID)
            return
        assert got is not None
        # The reference returns the inside of a 1 % bracket around each end.
        assert got[0] <= want[0] <= got[0] * 1.01
        assert got[1] / 1.01 <= want[1] <= got[1]

    @pytest.mark.parametrize(
        "k, n, v, t", [(10.0, 1024, 0.2, 0.8), (100.0, 2, 0.2, 0.5), (3.0, 2, 0.2, 0.9)]
    )
    def test_ends_match_the_exact_roots(self, profile22, k, n, v, t):
        # The two n = 2 bands span 4.5 decades: the textbook root formula
        # loses about 1e-12 of the lower end to cancellation there.
        want = exact_band(profile22, k, n, v, t)
        got = find_optimal_range(profile22, k, n, v, t, DENSE_GRID)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "k, n, v", [(0.5, 1024, 0.2), (math.nan, 1024, 0.2), (10.0, 0, 0.2), (10.0, 1024, 0.0)]
    )
    def test_invalid_inputs_rejected(self, profile22, k, n, v):
        with pytest.raises(ValueError):
            find_optimal_range(profile22, k, n, v, 0.99)

    def test_numpy_integer_n_cells_accepted(self, profile22):
        band = find_optimal_range(profile22, 10.0, 1024, 0.2, 0.8)
        for n in (np.int64(1024), np.int32(1024), np.uint16(1024)):
            assert find_optimal_range(profile22, 10.0, n, 0.2, 0.8) == band
        with pytest.raises(ValueError, match="^n_cells must be integers, got True$"):
            find_optimal_range(profile22, 10.0, True, 0.2, 0.8)

    def test_band_narrower_than_a_grid_step_is_returned(self, profile22):
        k, n, v = 10.0, 1024, 0.2
        s = profile22.r_transistor + n * profile22.r_unit
        leak = (n - 1) * leakage_at(profile22, v)
        r_star = math.sqrt(s * (s + v / leak) / k)
        peak = float(sense_grid(profile22, r_star, k, n, v)[3])
        dense = sense_grid(profile22, DENSE_GRID, k, n, v)[3]
        assert peak >= dense.max()  # R* is the peak
        t = (peak + sense_grid(profile22, DEFAULT_R_ON_GRID, k, n, v)[3].max()) / 2
        assert find_optimal_range_reference(profile22, k, n, v, t, DEFAULT_R_ON_GRID) is None
        lo, hi = find_optimal_range(profile22, k, n, v, t)
        assert lo < r_star < hi
        assert not any(lo <= r <= hi for r in DEFAULT_R_ON_GRID)

    def test_without_leakage_band_has_no_upper_end(self, profile22):
        # n = 1: the margin rises with R_on, reaching t at (t*k - 1)*S / (k*(1 - t))
        s = profile22.r_transistor + profile22.r_unit
        lo, hi = find_optimal_range(profile22, 10.0, 1, 0.2, 0.95)
        assert lo == pytest.approx(8.5 * s / 0.5, rel=1e-12)
        assert hi == DEFAULT_R_ON_GRID[-1]

    @pytest.mark.parametrize("k, t", [(2.0, 0.5), (10.0, 0.05)])
    def test_threshold_at_most_one_over_k_keeps_the_whole_grid(self, profile22, k, t):
        assert find_optimal_range(profile22, k, 4096, 0.2, t) == (
            DEFAULT_R_ON_GRID[0], DEFAULT_R_ON_GRID[-1])


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

    @pytest.mark.parametrize("grid, message", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_grid_validation(self, profile22, grid, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            argmax_resistance(profile22, 10.0, 1024, 0.2, grid)

    @pytest.mark.parametrize("k, n, v", [(True, 0, None), (0.5, 2.5, 0.2), (10.0, 0, math.nan)])
    def test_scalars_fail_as_sense_grid_does(self, profile22, k, n, v):
        # Past its grid, a study checks V_read, k and n in sense_grid's order.
        grid = (1e4, 1e5)
        with pytest.raises(ValueError) as first:
            sense_grid(profile22, grid, k, n, v)
        for study in (lambda: argmax_resistance(profile22, k, n, v, grid),
                      lambda: compensation_curve(profile22, k, n, v, 0.4, grid)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(first.value))}$"):
                study()


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

    def test_out_of_table_voltage_propagates(self, profile22):
        with pytest.raises(LeakageRangeError):
            compensation_curve(profile22, 10.0, 1024, 0.2, 0.9)

    @pytest.mark.parametrize("grid, message", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_grid_validation(self, profile22, grid, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            compensation_curve(profile22, 10.0, 1024, 0.2, 0.4, grid)


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
