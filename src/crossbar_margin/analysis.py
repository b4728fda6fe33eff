"""Design-space studies built on the column model and the network oracle.

A Grid is a tuple checked when built (numbers, non-empty, strictly
increasing, finite): the grid constants, SweepSpec's grids, each
MarginCurve's x.  A study checks each input once, at entry (an R_on Grid by
its least value, any other grid by the input domain and then by shape), and
makes each curve from one model._sensed call, sense_grid's unchecked part.

The optimal R_on band needs no sweep at all.  With S = R_T + n*r,
L = (n-1)*I_leak, drive V, fabricated ratio k and threshold t, the lumped
margin reaches t exactly where

    a*R**2 + b*R + c >= 0,    a = (1 - t*k)*L*k,
                              b = (1 - t*k)*L*S*(k + 1) + V*k*(1 - t),
                              c = (1 - t*k)*S*(L*S + V),

one interval of R for t*k > 1 and L > 0 (then a < 0), around the peak
R* = sqrt(S*(S + V/L)/k): line and transistor resistance (S) set the
lower end, leakage (L) the upper one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .model import (
    ENGINES,
    CellSpec,
    FactorToggles,
    ReadSetup,
    SolverError,
    TechnologyProfile,
    _array,
    _checked,
    _sensed,
    element_values,
    sense_point,
)


class Grid(tuple):
    """Grid values, checked (as `name`) when built, also when copy or pickle rebuild one:
    numbers, non-empty, strictly increasing and finite.  A Grid passed in comes back as is."""

    __slots__ = ()

    def __new__(cls, values, name: str = "grid"):
        if isinstance(values, Grid):
            return values
        grid = super().__new__(cls, values)
        if not {int, float}.issuperset(map(type, grid)):  # numpy numbers, or an offender
            for v in grid:
                if type(v.item() if isinstance(v, np.generic) else v) not in (int, float):
                    raise ValueError(f"{name} values must be numbers, got {v!r}")
        with np.errstate(invalid="ignore"):  # Python's order (ints stay exact), NaN unordered
            _check_grid(name, np.array(grid, dtype=object))
        return grid


def _check_grid(name: str, values: np.ndarray) -> None:
    """Reject grid values, as an array, that are not one row, empty, not strictly increasing
    or not finite."""
    if values.ndim != 1:  # a nested list of valid values
        raise ValueError(f"{name} must be one-dimensional, got shape {values.shape}")
    if len(values) == 0:
        raise ValueError(f"{name} must be non-empty")
    if not (increasing := values[1:] > values[:-1]).all():
        a, b = values[(at := int(np.argmin(increasing))):at + 2].tolist()
        raise ValueError(f"{name} must be strictly increasing, got {a} then {b}")
    for v in (values[0], values[-1]):
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int past the float range, as model._checked reads it
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {v}")


def _r_on_grid(values) -> tuple[Grid, np.ndarray]:
    """A study's R_on grid as a Grid and as the float64 array it computes with: a Grid
    (checked when built) bounded by its least value, anything else checked by the input
    domain (model._array) and then by shape."""
    if isinstance(values, Grid):
        _checked("r_on", values[0])
        return values, np.fromiter(values, float, len(values))
    _check_grid("r_on_grid", r_on := _array("r_on", values))
    return tuple.__new__(Grid, values), r_on  # it passed every check Grid makes


def _scalars(ratio_ideal, n_cells, v_read) -> tuple[float, int, float]:
    """(k, n, V_read) as the model computes with them, checked in sense_grid's order."""
    v_read = _checked("v_read", v_read)
    return _checked("ratio_ideal", ratio_ideal), _checked("n_cells", n_cells), v_read


# Default grids mirror the usual presentation of this design space:
# on-resistance swept over four decades, column length in powers of two.
DEFAULT_R_ON_GRID = Grid(map(float, np.logspace(4.0, 8.0, 200)), "DEFAULT_R_ON_GRID")
COARSE_R_ON_GRID = Grid(map(float, np.logspace(4.0, 8.0, 20)), "COARSE_R_ON_GRID")
DEFAULT_N_GRID = Grid((64, 128, 256, 512, 1024, 2048, 4096), "DEFAULT_N_GRID")
VALIDATION_N_GRID = Grid((256, 512, 1024, 2048, 4096), "VALIDATION_N_GRID")


@dataclass(frozen=True)
class SweepSpec:
    """A margin sweep: resistance grid crossed with sizes, voltages, toggles."""

    r_on_grid: Grid
    n_grid: Grid
    v_read_grid: Grid
    ratio_ideal: float
    toggles: tuple[FactorToggles, ...] = (FactorToggles(),)
    engine: str = "lumped"

    def __post_init__(self) -> None:
        for name, quantity in (("r_on_grid", "r_on"), ("n_grid", "n_cells"),
                               ("v_read_grid", "v_read")):
            values = _array(quantity, grid := getattr(self, name))  # before the shape
            if not isinstance(grid, Grid):  # held as the model's numbers
                object.__setattr__(self, name, Grid(values.tolist(), name))
        object.__setattr__(self, "ratio_ideal", _checked("ratio_ideal", self.ratio_ideal))
        if not (isinstance(self.toggles, tuple) and self.toggles):
            raise ValueError(f"toggles must be a non-empty tuple, got {self.toggles!r}")
        for toggles in self.toggles:
            if not isinstance(toggles, FactorToggles):
                raise ValueError(f"toggles must be a FactorToggles, got {toggles!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


@dataclass(frozen=True, init=False)
class MarginCurve:
    """Ordered (x, y) samples with the model's arrays behind them.

    x goes through Grid and y is stored as a tuple of floats.  sensed
    is the (i_on, i_off, ratio_effective, margin_normalized) arrays of the
    model call behind the curve, one entry per x.  y_kind is "margin"
    for normalized-margin curves (values in (0, 1]) and "delta" for
    margin-difference curves, which may touch zero.
    """

    label: str
    x: Grid
    y: tuple[float, ...]
    sensed: tuple[np.ndarray, ...]
    meta: dict[str, Any]
    y_kind: str

    def __init__(self, label: str, x, y, sensed: tuple[np.ndarray, ...],
                 meta: dict[str, Any] | None = None, y_kind: str = "margin") -> None:
        x = Grid(x, "x")
        if {len(y), *map(len, sensed)} != {len(x)}:
            raise ValueError("x, y and the sensed arrays must have equal length")
        if y_kind not in ("margin", "delta"):
            raise ValueError(f'y_kind must be "margin" or "delta", got {y_kind!r}')
        y = np.asarray(y, dtype=float)
        _check_y(y, y_kind)
        # Frozen: bypass __setattr__, as dataclass's own __init__ does.
        self.__dict__.update(label=label, x=x, y=tuple(y.tolist()), sensed=sensed,
                             meta={} if meta is None else meta, y_kind=y_kind)


def _check_y(y: np.ndarray, y_kind: str) -> None:
    """Margins must lie in (0, 1] (to 1e-12), deltas must be finite."""
    if y_kind == "margin" and y.min() > 0.0 and y.max() <= 1.0 + 1e-12:
        return  # a NaN fails both reductions; the test below names it
    ok = (y > 0.0) & (y <= 1.0 + 1e-12) if y_kind == "margin" else np.isfinite(y)
    if not ok.all():
        rule = "lie in (0, 1]" if y_kind == "margin" else "be finite"
        raise ValueError(f"{y_kind} values must {rule}, got {float(y[np.argmin(ok)])}")


def sweep_grid(spec: SweepSpec, profile: TechnologyProfile) -> list[MarginCurve]:
    """One margin-versus-r_on curve per (toggles, v_read, n) slice.

    Slices iterate in that nesting order, so the output ordering is
    deterministic for a given spec.  A slice the model fails on (SolverError
    or ValueError, say a read voltage outside the leakage table) is dropped
    with a warning naming it and the error; the sweep itself fails,
    re-raising the first error, only when no slice survives.
    """
    curves = []
    dropped: list[tuple[str, Exception]] = []
    r_on = _r_on_grid(spec.r_on_grid)[1]
    for toggles in spec.toggles:
        for v_read in spec.v_read_grid:
            for n in spec.n_grid:
                label = f"{toggles.describe()}, V={v_read:g}V, n={n}"
                try:  # the spec's grids hold numbers, and float() is _checked's conversion
                    grid = _sensed(profile, r_on, spec.ratio_ideal, n, float(v_read), toggles,
                                   spec.engine)
                except (SolverError, ValueError) as exc:
                    dropped.append((label, exc))
                    continue
                meta = {
                    "n_cells": n,
                    "v_read": v_read,
                    "toggles": toggles,
                    "ratio_ideal": spec.ratio_ideal,
                    "engine": spec.engine,
                }
                curves.append(MarginCurve(label, spec.r_on_grid, grid[3], grid, meta))
    if not curves:
        raise dropped[0][1]
    for label, exc in dropped:
        warnings.warn(f"sweep slice {label} dropped: {exc}", stacklevel=2)
    return curves


# ablation_series' variants: the baseline, then one factor switched off at a time.
_ABLATION_VARIANTS = (
    ("baseline", FactorToggles()),
    ("-R_T", FactorToggles(transistor_resistance=False)),
    ("-r", FactorToggles(line_resistance=False)),
    ("-I_Tleak", FactorToggles(leakage=False)),
)


def ablation_series(
    profile: TechnologyProfile,
    cell: CellSpec,
    setup: ReadSetup,
    r_on_grid: tuple[float, ...] = DEFAULT_R_ON_GRID,
) -> list[tuple[str, MarginCurve]]:
    """Baseline margin curve plus one curve per removed non-ideality.

    The setup must have every factor enabled; each variant then switches
    a single factor off, showing which non-ideality owns which flank of
    the margin curve.  The swept resistance replaces cell.r_on point by
    point; cell.ratio_ideal is kept.  r_on_grid is a list, tuple or Grid.
    """
    if setup.toggles != FactorToggles():
        raise ValueError("ablation baseline requires all factors enabled")
    r_on_grid, r_on = _r_on_grid(r_on_grid)
    series = []
    for label, toggles in _ABLATION_VARIANTS:
        grid = _sensed(profile, r_on, cell.ratio_ideal, setup.n_cells, setup.v_read, toggles)
        meta = {
            "n_cells": setup.n_cells,
            "v_read": setup.v_read,
            "toggles": toggles,
            "ratio_ideal": cell.ratio_ideal,
            "removed": label if label != "baseline" else "",
        }
        series.append((label, MarginCurve(label, r_on_grid, grid[3], grid, meta)))
    return series


_NUDGE_ULPS = (0, *(2**i for i in range(31)))  # find_optimal_range's inward steps


def find_optimal_range(
    profile: TechnologyProfile,
    ratio_ideal: float,
    n_cells: int,
    v_read: float,
    threshold: float,
    r_on_grid: tuple[float, ...] = DEFAULT_R_ON_GRID,
) -> tuple[float, float] | None:
    """Maximal r_on interval within the grid's span whose margin stays at
    or above threshold: the band of the module docstring, exactly.

    Its ends are the roots q/a and c/q, q = -(b + sqrt(b**2 - 4*a*c))/2,
    and the margin peaks between them at R* = sqrt(S*(S + V/L)/k).
    Without leakage (n = 1) there is no upper end; for threshold*k <= 1
    every r_on qualifies.  The band is clipped to the grid's ends, and
    each end is moved inward by the fewest of 0, 1, 2, 4, ... 2**30 ulps
    at which the model reads margin >= threshold.  None when the peak
    falls short (b**2 < 4*a*c), the band misses the grid's span or
    rounding keeps an end below threshold.  r_on_grid is a Grid, list or
    tuple of R_on values; only its ends are used.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    r_on_grid = _r_on_grid(r_on_grid)[0]  # only its ends are read
    setup = ReadSetup(v_read=v_read, n_cells=n_cells)
    n_cells, v_read = setup.n_cells, setup.v_read
    k, t = _checked("ratio_ideal", ratio_ideal), threshold
    r_line, r_t, i_leak = element_values(profile, setup.toggles, v_read)
    s, leak, g = r_t + n_cells * r_line, (n_cells - 1.0) * i_leak, 1.0 - t * k
    a = g * leak * k
    b = g * leak * s * (k + 1) + v_read * k * (1 - t)
    c = g * s * (leak * s + v_read)
    if a < 0:  # t*k > 1 with leakage: margin >= t between the roots
        disc = b * b - 4 * a * c
        if disc < 0:  # the peak falls short; b < 0 gives two roots below 0
            return None
        q = -(b + math.sqrt(disc)) / 2
        lo, hi = c / q, q / a
    else:  # b > 0 and the quadratic term vanishes or helps: R >= -c/b
        lo, hi = -c / b, math.inf
    ends = [max(lo, r_on_grid[0]), min(hi, r_on_grid[-1])]
    if not ends[0] <= ends[1]:
        return None
    # Rounding blurs the model's crossing over a few ulps: move each end
    # inward, lo first and never past the other end, by the fewest ulps
    # at which the model reads margin >= t.
    for i in (0, 1):
        r, toward = ends[i], ends[1 - i]
        step = math.copysign(math.ulp(r), toward - r)
        for ulps in _NUDGE_ULPS:
            ends[i] = (min if step > 0 else max)(r + ulps * step, toward)
            if sense_point(profile, CellSpec(ends[i], k), setup).margin_normalized >= t:
                break
        else:
            return None
    return ends[0], ends[1]


def argmax_resistance(
    profile: TechnologyProfile,
    ratio_ideal: float,
    n_cells: int,
    v_read: float,
    r_on_grid: tuple[float, ...],
) -> float:
    """Grid resistance with the highest margin; ties go to the lower value.

    The tie rule favors read speed and is fixed so results are reproducible.
    r_on_grid is a Grid, list or tuple of R_on values.
    """
    r_on_grid, r_on = _r_on_grid(r_on_grid)
    margins = _sensed(profile, r_on, *_scalars(ratio_ideal, n_cells, v_read))[3]
    return r_on_grid[int(np.argmax(margins))]


def compensation_curve(
    profile: TechnologyProfile,
    ratio_ideal: float,
    n_cells: int,
    v_base: float,
    v_alt: float,
    r_on_grid: tuple[float, ...] = DEFAULT_R_ON_GRID,
) -> MarginCurve:
    """Margin improvement from raising the read voltage, per r_on point.

    Leakage is re-evaluated at each voltage from the profile table, so the
    gain reflects both the stronger read current and the higher leakage.
    The attached sensed arrays are those at the raised voltage.  r_on_grid
    is a Grid, list or tuple of R_on values.
    """
    r_on_grid, r_on = _r_on_grid(r_on_grid)
    k, n, v = _scalars(ratio_ideal, n_cells, v_base)
    base = _sensed(profile, r_on, k, n, v)
    alt = _sensed(profile, r_on, k, n, _checked("v_read", v_alt))  # after v_base's errors
    meta = {"n_cells": n_cells, "v_base": v_base, "v_alt": v_alt, "ratio_ideal": ratio_ideal}
    return MarginCurve(f"margin gain {v_base:g}V->{v_alt:g}V", r_on_grid,
                       alt[3] - base[3], alt, meta, "delta")


def read_power_ratio(v_alt: float, v_base: float) -> float:
    """Read-power ratio of two read voltages under an ohmic cell, (v_alt/v_base)^2."""
    return (_checked("v_read", v_alt) / _checked("v_read", v_base)) ** 2
