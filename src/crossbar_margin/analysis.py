"""Design-space studies built on the column model and the network oracle.

A Grid is a tuple checked when built (non-empty, strictly increasing,
finite): the grid constants, SweepSpec's grids, each MarginCurve's x.  A
study turns any other grid into one at entry, once, and makes each curve
from one model.sense_grid call, whose arrays it carries, one entry per x.

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
import operator
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .model import (
    ENGINES,
    CellSpec,
    FactorToggles,
    ReadSetup,
    TechnologyProfile,
    _checked,
    element_values,
    sense_grid,
    sense_point,
)


class Grid(tuple):
    """Grid values, checked (as `name`) when built, also when copy or pickle rebuild one.

    A Grid passed in comes back as it is, as tuple(t) returns a tuple t.
    """

    __slots__ = ()

    def __new__(cls, values, name: str = "grid"):
        if isinstance(values, Grid):
            return values
        grid = super().__new__(cls, values)
        _check_grid(name, grid)
        return grid


def _check_grid(name: str, grid) -> None:
    """Reject a grid that is empty, not strictly increasing or not finite.

    A NaN anywhere fails the order check, so between finite ends every
    value is finite.
    """
    if len(grid) == 0:
        raise ValueError(f"{name} must be non-empty")
    if not all(map(operator.lt, grid, grid[1:])):
        a, b = next((a, b) for a, b in zip(grid, grid[1:]) if not a < b)
        raise ValueError(f"{name} must be strictly increasing, got {a} then {b}")
    for v in (grid[0], grid[-1]):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


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
            grid = getattr(self, name)
            if not isinstance(grid, Grid):
                grid = (_grid_value(quantity, v) for v in grid)
            object.__setattr__(self, name, Grid(grid, name))
        _checked("ratio_ideal", self.ratio_ideal)
        if not (isinstance(self.toggles, tuple) and self.toggles):
            raise ValueError(f"toggles must be a non-empty tuple, got {self.toggles!r}")
        for toggles in self.toggles:
            if not isinstance(toggles, FactorToggles):
                raise ValueError(f"toggles must be a FactorToggles, got {toggles!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


def _grid_value(quantity: str, v) -> int | float:
    """A grid value of the model input `quantity`, as the model takes it; an
    n grid also takes an integral float."""
    if quantity == "n_cells" and isinstance(v, (float, np.floating)) and v % 1 == 0:
        v = int(v)
    return _checked(quantity, v)


@dataclass(frozen=True, init=False)
class MarginCurve:
    """Ordered (x, y) samples with the sense_grid arrays behind them.

    x goes through Grid and y is stored as a tuple of floats.  sensed
    is the (i_on, i_off, ratio_effective, margin_normalized) arrays of the
    sense_grid call behind the curve, one entry per x.  y_kind is "margin"
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
    deterministic for a given spec.  A point failure (for example a read
    voltage outside the leakage table) drops the affected slice, with a
    warning naming the slice and the error; the sweep itself fails,
    re-raising the first error, only when no slice survives.
    """
    curves = []
    dropped: list[tuple[str, Exception]] = []
    r_on = np.fromiter(spec.r_on_grid, float, len(spec.r_on_grid))
    for toggles in spec.toggles:
        for v_read in spec.v_read_grid:
            for n in spec.n_grid:
                label = f"{toggles.describe()}, V={v_read:g}V, n={n}"
                try:
                    grid = sense_grid(
                        profile, r_on, spec.ratio_ideal, n, v_read, toggles, spec.engine
                    )
                except Exception as exc:
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
    point; cell.ratio_ideal is kept.  r_on_grid goes through Grid.
    """
    if setup.toggles != FactorToggles():
        raise ValueError("ablation baseline requires all factors enabled")
    r_on_grid = Grid(r_on_grid, "r_on_grid")
    r_on = np.fromiter(r_on_grid, float, len(r_on_grid))
    series = []
    for label, toggles in _ABLATION_VARIANTS:
        grid = sense_grid(profile, r_on, cell.ratio_ideal, setup.n_cells, setup.v_read, toggles)
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
    rounding keeps an end below threshold.  r_on_grid goes through
    Grid; only its ends are used.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    r_on_grid = Grid(r_on_grid, "r_on_grid")
    setup = ReadSetup(v_read=v_read, n_cells=n_cells)
    n_cells = setup.n_cells
    _checked("r_on", r_on_grid[0])  # a Grid increases: its lower end bounds the rest
    _checked("ratio_ideal", ratio_ideal)
    r_line, r_t, i_leak = element_values(profile, setup.toggles, v_read)
    k, t = ratio_ideal, threshold
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
    r_on_grid goes through Grid.
    """
    r_on_grid = Grid(r_on_grid, "r_on_grid")
    r_on = np.fromiter(r_on_grid, float, len(r_on_grid))
    margins = sense_grid(profile, r_on, ratio_ideal, n_cells, v_read)[3]
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
    goes through Grid.
    """
    r_on_grid = Grid(r_on_grid, "r_on_grid")
    r_on = np.fromiter(r_on_grid, float, len(r_on_grid))
    base = sense_grid(profile, r_on, ratio_ideal, n_cells, v_base)
    alt = sense_grid(profile, r_on, ratio_ideal, n_cells, v_alt)
    meta = {"n_cells": n_cells, "v_base": v_base, "v_alt": v_alt, "ratio_ideal": ratio_ideal}
    return MarginCurve(f"margin gain {v_base:g}V->{v_alt:g}V", r_on_grid,
                       alt[3] - base[3], alt, meta, "delta")


def read_power_ratio(v_alt: float, v_base: float) -> float:
    """Read-power ratio of two read voltages under an ohmic cell, (v_alt/v_base)^2."""
    return (_checked("v_read", v_alt) / _checked("v_read", v_base)) ** 2
