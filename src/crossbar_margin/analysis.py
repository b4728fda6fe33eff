"""Design-space studies built on the column model and the network oracle.

Everything here is orchestration over model.sense_grid: each curve or
pre-sweep is one array evaluation instead of one model call per point,
and a MarginCurve carries that call's arrays as they are, one entry per
x, already checked by sense_grid.  Only the optimal-range bisection,
which needs one point at a time, calls the scalar view read_currents.
Both evaluate the same kernel, so curve values are bit-identical to
point evaluations.  Results are always assembled in grid order.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .model import (
    ENGINES,
    CellSpec,
    FactorToggles,
    ReadSetup,
    TechnologyProfile,
    read_currents,
    sense_grid,
)

# Default grids mirror the usual presentation of this design space:
# on-resistance swept over four decades, column length in powers of two.
DEFAULT_R_ON_GRID: tuple[float, ...] = tuple(
    float(x) for x in np.logspace(4.0, 8.0, 200)
)
COARSE_R_ON_GRID: tuple[float, ...] = tuple(float(x) for x in np.logspace(4.0, 8.0, 20))
DEFAULT_N_GRID: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096)
VALIDATION_N_GRID: tuple[int, ...] = (256, 512, 1024, 2048, 4096)


class NonUnimodalError(ValueError):
    """Margin-versus-resistance curve is not quasi-concave."""


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


@dataclass(frozen=True)
class SweepSpec:
    """A margin sweep: resistance grid crossed with sizes, voltages, toggles."""

    r_on_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    v_read_grid: tuple[float, ...]
    ratio_ideal: float
    toggles: tuple[FactorToggles, ...] = (FactorToggles.all_on(),)
    engine: str = "lumped"

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_on_grid", tuple(float(r) for r in self.r_on_grid))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(
            self, "v_read_grid", tuple(float(v) for v in self.v_read_grid)
        )
        for name in ("r_on_grid", "n_grid", "v_read_grid"):
            _check_grid(name, getattr(self, name))
        if not self.toggles:
            raise ValueError("toggles must contain at least one combination")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


@dataclass(frozen=True)
class MarginCurve:
    """Ordered (x, y) samples with the sense_grid arrays behind them.

    sensed is the (i_on, i_off, ratio_effective, margin_normalized)
    arrays of the sense_grid call behind the curve, one entry per x.
    y_kind is "margin" for normalized-margin curves (values in (0, 1])
    and "delta" for margin-difference curves, which may touch zero.
    """

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    sensed: tuple[np.ndarray, ...]
    meta: dict[str, Any] = field(default_factory=dict)
    y_kind: str = "margin"

    def __post_init__(self) -> None:
        if len(self.y) != len(self.x) or any(len(a) != len(self.x) for a in self.sensed):
            raise ValueError("x, y and the sensed arrays must have equal length")
        _check_grid("x", self.x)
        if self.y_kind not in ("margin", "delta"):
            raise ValueError(f'y_kind must be "margin" or "delta", got {self.y_kind!r}')
        if self.y_kind == "margin":
            for v in self.y:
                if not (0.0 < v <= 1.0 + 1e-12):
                    raise ValueError(f"margin values must lie in (0, 1], got {v}")
        elif not all(map(math.isfinite, self.y)):
            v = next(v for v in self.y if not math.isfinite(v))
            raise ValueError(f"delta values must be finite, got {v}")


def margin_curve(
    label: str, x, grid: tuple[np.ndarray, ...], meta: dict[str, Any]
) -> MarginCurve:
    """Margin curve over x from the arrays of one sense_grid call."""
    return MarginCurve(label, tuple(x), tuple(grid[3].tolist()), grid, meta)


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
    for toggles in spec.toggles:
        for v_read in spec.v_read_grid:
            for n in spec.n_grid:
                label = f"{toggles.describe()}, V={v_read:g}V, n={n}"
                try:
                    grid = sense_grid(
                        profile, spec.r_on_grid, spec.ratio_ideal, n, v_read,
                        toggles, spec.engine,
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
                curves.append(margin_curve(label, spec.r_on_grid, grid, meta))
    if not curves:
        raise dropped[0][1]
    for label, exc in dropped:
        warnings.warn(f"sweep slice {label} dropped: {exc}", stacklevel=2)
    return curves


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
    point; cell.ratio_ideal is kept.
    """
    if setup.toggles != FactorToggles.all_on():
        raise ValueError("ablation baseline requires all factors enabled")
    variants = [
        ("baseline", setup.toggles),
        ("-R_T", FactorToggles(transistor_resistance=False)),
        ("-r", FactorToggles(line_resistance=False)),
        ("-I_Tleak", FactorToggles(leakage=False)),
    ]
    series = []
    for label, toggles in variants:
        grid = sense_grid(
            profile, r_on_grid, cell.ratio_ideal, setup.n_cells, setup.v_read, toggles
        )
        meta = {
            "n_cells": setup.n_cells,
            "v_read": setup.v_read,
            "toggles": toggles,
            "ratio_ideal": cell.ratio_ideal,
            "removed": label if label != "baseline" else "",
        }
        series.append((label, margin_curve(label, r_on_grid, grid, meta)))
    return series


def _check_quasi_concave(
    grid: tuple[float, ...], margins: list[float]
) -> None:
    # Classify each step with a small relative tolerance so float noise on
    # a plateau is not mistaken for a second mode.
    tol = 1e-12
    seen_drop = False
    for a, b in zip(margins, margins[1:]):
        if b > a * (1.0 + tol):
            if seen_drop:
                maxima = [
                    grid[i]
                    for i in range(1, len(margins) - 1)
                    if margins[i] > margins[i - 1] and margins[i] >= margins[i + 1]
                ]
                raise NonUnimodalError(
                    "margin vs r_on is not quasi-concave; local maxima near "
                    + ", ".join(f"{r:.4g} ohm" for r in maxima)
                )
        elif b < a * (1.0 - tol):
            seen_drop = True


def find_optimal_range(
    profile: TechnologyProfile,
    ratio_ideal: float,
    n_cells: int,
    v_read: float,
    threshold: float,
    r_on_grid: tuple[float, ...] = DEFAULT_R_ON_GRID,
) -> tuple[float, float] | None:
    """Maximal contiguous r_on interval whose margin stays at or above threshold.

    A dense pre-sweep over r_on_grid verifies the curve is quasi-concave
    (single peak); each flank crossing is then located by bisection in
    log space to 1 % relative resolution.  The returned endpoints lie on
    the inside of their brackets, so the margin at both endpoints is at
    or above the threshold.  Returns None when even the peak falls short.
    An interval clipped by the grid edge is returned as-is.  r_on_grid
    must be non-empty, strictly increasing and finite.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    _check_grid("r_on_grid", r_on_grid)

    margins = sense_grid(profile, r_on_grid, ratio_ideal, n_cells, v_read)[3].tolist()
    _check_quasi_concave(r_on_grid, margins)
    if max(margins) < threshold:
        return None

    above = [m >= threshold for m in margins]
    first = above.index(True)
    last = len(above) - 1 - above[::-1].index(True)

    setup = ReadSetup(v_read=v_read, n_cells=n_cells)

    def margin(r_on: float) -> float:
        return read_currents(profile, CellSpec(r_on, ratio_ideal), setup).margin_normalized

    def bisect_flank(lo: float, hi: float, rising: bool) -> float:
        # Invariant: the threshold crossing stays inside (lo, hi); on a
        # rising flank hi is above threshold, on a falling flank lo is.
        while hi / lo > 1.01:
            mid = math.sqrt(lo * hi)
            if (margin(mid) >= threshold) == rising:
                hi = mid
            else:
                lo = mid
        return hi if rising else lo

    if first == 0:
        r_low = r_on_grid[0]
    else:
        r_low = bisect_flank(r_on_grid[first - 1], r_on_grid[first], rising=True)
    if last == len(r_on_grid) - 1:
        r_high = r_on_grid[-1]
    else:
        r_high = bisect_flank(r_on_grid[last], r_on_grid[last + 1], rising=False)
    return r_low, r_high


def argmax_resistance(
    profile: TechnologyProfile,
    ratio_ideal: float,
    n_cells: int,
    v_read: float,
    r_on_grid: tuple[float, ...],
) -> float:
    """Grid resistance with the highest margin; ties go to the lower value.

    The tie rule favors read speed and is fixed so results are reproducible.
    r_on_grid must be non-empty, strictly increasing and finite.
    """
    _check_grid("r_on_grid", r_on_grid)
    margins = sense_grid(profile, r_on_grid, ratio_ideal, n_cells, v_read)[3]
    return r_on_grid[int(np.argmax(margins))]


def compensation_curve(
    profile: TechnologyProfile,
    ratio_ideal: float,
    n_cells: int,
    v_base: float,
    v_alt: float,
    r_on_grid: tuple[float, ...] = DEFAULT_R_ON_GRID,
    toggles: FactorToggles = FactorToggles.all_on(),
) -> MarginCurve:
    """Margin improvement from raising the read voltage, per r_on point.

    Leakage is re-evaluated at each voltage from the profile table, so the
    gain reflects both the stronger read current and the higher leakage.
    Without the leakage factor the margin is voltage-independent and the
    gain is identically zero.  The attached sensed arrays are those at
    the raised voltage.
    """
    base = sense_grid(profile, r_on_grid, ratio_ideal, n_cells, v_base, toggles)
    alt = sense_grid(profile, r_on_grid, ratio_ideal, n_cells, v_alt, toggles)
    return MarginCurve(
        label=f"margin gain {v_base:g}V->{v_alt:g}V",
        x=tuple(r_on_grid),
        y=tuple((alt[3] - base[3]).tolist()),
        sensed=alt,
        meta={
            "n_cells": n_cells,
            "v_base": v_base,
            "v_alt": v_alt,
            "ratio_ideal": ratio_ideal,
        },
        y_kind="delta",
    )


def read_power_ratio(v_alt: float, v_base: float) -> float:
    """Read-power ratio of two read voltages under an ohmic cell, (v_alt/v_base)^2."""
    if v_alt <= 0 or v_base <= 0:
        raise ValueError("read voltages must be > 0")
    return (v_alt / v_base) ** 2
