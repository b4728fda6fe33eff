"""Closed-form sensing model for one column of a 1T1R crossbar array.

A column of n cells is read one cell at a time: the selected cell's access
transistor is on, contributing its read resistance in series with the
memristor, while the n-1 unselected transistors each leak a small
subthreshold current into the sense path.  The bit/source lines add one
unit of metal resistance per cell along the worst-case drive-to-sense
path.  The sensed on/off current ratio therefore degrades from the
fabricated ratio k = R_off / R_on to an effective ratio

    k' = I_on / I_off,
    I_state = V_read / (R_state + R_T + n*r) + (n-1) * I_Tleak,

and k'/k is the normalized sensing margin (1.0 means no degradation).

The model always evaluates the worst-case cell: the one whose read path
crosses the full n*r line resistance while all other cells leak.  Each
non-ideality (line resistance r, transistor resistance R_T, transistor
leakage I_Tleak) can be switched off individually for ablation studies.

sense_grid checks its inputs and evaluates this over arrays of R_on and n,
for this model and for the oracle module's distributed ladder, which for
the worst-case cell differs only in its drive term.  The studies check
their inputs once and call its unchecked part, _sensed; read_currents and
oracle.oracle_margin are its scalar views on a CellSpec and a ReadSetup.

Leakage is a measured function of read voltage, carried as a table on the
technology profile; lookups interpolate linearly between measured points
and refuse to extrapolate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

ENGINES = ("lumped", "oracle")


class LeakageRangeError(ValueError):
    """Requested read voltage lies outside the measured leakage table."""


class SolverError(RuntimeError):
    """The network has no finite solution for the given element values."""


# The input domain of the model, its profile and the oracle's ladder: per input its type
# rule (scalar types, array dtype kinds, words, the conversion used; a bool is never a
# number, an integer is below 2**64 as numpy's) and its bound, an interval to +inf.
_NUMBER = (frozenset((int, float)), "iuf", "a number", float)
_INTEGER = (frozenset((int,)), "iu", "integers", int)
_DOMAIN = {
    **dict.fromkeys(("r_on", "v_read", "r_cell_on_path"),
                    (*_NUMBER, "finite and > 0", lambda x: (x > 0) & (x < math.inf))),
    **dict.fromkeys(("r_unit", "r_transistor", "leakage_table current", "r_segment",
                     "i_leak_per_cell"),
                    (*_NUMBER, "finite and >= 0", lambda x: (x >= 0) & (x < math.inf))),
    **dict.fromkeys(("leakage_table voltage", "v_drive"),
                    (*_NUMBER, "finite", lambda x: abs(x) < math.inf)),
    "ratio_ideal": (*_NUMBER, "finite and >= 1", lambda x: (x >= 1) & (x < math.inf)),
    "n_cells": (*_INTEGER, ">= 1", lambda x: x >= 1),
}


def _checked(name: str, value):
    """A scalar input as the model computes with it, or a ValueError naming its Python value."""
    types, _, words, convert, bound, ok = _DOMAIN[name]
    if type(value) not in types:  # a numpy scalar, or not a number
        value = value.item() if isinstance(value, np.generic) else value
    if type(value) not in types or convert is int and value >= 2**64:
        raise ValueError(f"{name} must be {words}, got {value!r}")
    try:
        x = convert(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not ok(x):
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return x


def _require(name: str, values: np.ndarray) -> None:
    """An array's _checked: by its least and greatest values (NaN fails both), and
    element-wise where they fail, to name the first value of a wrong dtype or out of bounds."""
    _, kinds, words, _, bound, ok = _DOMAIN[name]
    typed = values.dtype.kind in kinds
    if typed and values.size:
        lo = values.item() if values.ndim == 0 else values.min()
        if ok(lo) and (values.ndim == 0 or values.dtype.kind != "f" or ok(values.max())):
            return  # an integer array has no NaN or inf past its least value
    bad = values[~ok(values)] if typed else values
    if bad.size:  # tolist: the Python value, not a numpy scalar's repr
        raise ValueError(f"{name} must be {bound if typed else words}, "
                         f"got {bad.ravel()[:1].tolist()[0]!r}")
    if not typed:  # an empty array has no value to name
        raise ValueError(f"{name} must be {words}, got an empty {values.dtype} array")


def _array(name: str, values) -> np.ndarray:
    """An input's values as the array the kernel computes with: an array or scalar checked by
    _require; a list or tuple (or nested list) by _checked's rule for each value."""
    if not isinstance(values, (list, tuple)):  # an array or scalar, checked as given
        _require(name, values := np.asarray(values))
        return values
    types, kinds = _DOMAIN[name][:2]
    dtype = float if "f" in kinds else np.uint64  # an n >= 1 below 2**64
    if types.issuperset(map(type, values)):  # numbers, checked as one array
        try:
            _require(name, array := np.fromiter(values, dtype, len(values)))
            return array
        except (OverflowError, ValueError):  # an int past the dtype, or a value out of bounds
            pass
    cells = np.array(values, dtype=object)  # numpy scalars, rows, not numbers, or an offender
    return np.array([_checked(name, v) for v in cells.flat], dtype).reshape(cells.shape)


@dataclass(frozen=True)
class TechnologyProfile:
    """Electrical constants of one fabrication node.

    r_unit is the metal line resistance between two adjacent cells (ohm),
    r_transistor the access transistor resistance with its gate on (ohm),
    and leakage_table the measured off-transistor leakage current versus
    read voltage as (volt, ampere) pairs sorted by voltage.
    """

    node_label: str
    r_unit: float
    r_transistor: float
    leakage_table: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _checked("r_unit", self.r_unit)
        _checked("r_transistor", self.r_transistor)
        table = tuple((_checked("leakage_table voltage", v), _checked("leakage_table current", i))
                      for v, i in self.leakage_table)
        object.__setattr__(self, "leakage_table", table)
        if not table:
            raise ValueError("leakage_table must contain at least one (v, i) point")
        voltages, currents = zip(*table)
        if any(b <= a for a, b in zip(voltages, voltages[1:])):
            raise ValueError("leakage_table voltages must be strictly increasing")
        if any(b < a for a, b in zip(currents, currents[1:])):
            raise ValueError("leakage_table currents must be non-decreasing in voltage")

    @property
    def v_read_min(self) -> float:
        return self.leakage_table[0][0]

    @property
    def v_read_max(self) -> float:
        return self.leakage_table[-1][0]


@dataclass(frozen=True)
class CellSpec:
    """One memristor state pair: on-state resistance and fabricated on/off ratio.

    The off-state resistance is derived, r_off = ratio_ideal * r_on; there
    is deliberately no independent r_off input.
    """

    r_on: float
    ratio_ideal: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_on", _checked("r_on", self.r_on))  # the model's number
        object.__setattr__(self, "ratio_ideal", _checked("ratio_ideal", self.ratio_ideal))

    @property
    def r_off(self) -> float:
        return self.ratio_ideal * self.r_on


@dataclass(frozen=True)
class FactorToggles:
    """Which non-idealities participate in a margin evaluation."""

    line_resistance: bool = True
    transistor_resistance: bool = True
    leakage: bool = True

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # 'x' is truthy, yet != True
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")

    def describe(self) -> str:
        """Short deterministic label, e.g. ``r+R_T+I_Tleak`` or ``ideal``."""
        parts = []
        if self.line_resistance:
            parts.append("r")
        if self.transistor_resistance:
            parts.append("R_T")
        if self.leakage:
            parts.append("I_Tleak")
        return "+".join(parts) if parts else "ideal"


@dataclass(frozen=True)
class ReadSetup:
    """Read condition: voltage, column length, and non-ideality switches."""

    v_read: float
    n_cells: int
    toggles: FactorToggles = FactorToggles()

    def __post_init__(self) -> None:
        object.__setattr__(self, "v_read", _checked("v_read", self.v_read))  # the model's number
        object.__setattr__(self, "n_cells", _checked("n_cells", self.n_cells))
        if not isinstance(self.toggles, FactorToggles):
            raise ValueError(f"toggles must be a FactorToggles, got {self.toggles!r}")


@dataclass(frozen=True)
class SenseResult:
    """Currents and ratios seen by the sense circuit for one read condition."""

    i_on: float
    i_off: float
    ratio_effective: float
    margin_normalized: float

    def __post_init__(self) -> None:
        if not (self.i_off > 0):
            raise ValueError(f"i_off must be > 0, got {self.i_off}")
        if self.i_on < self.i_off:
            raise ValueError(
                f"i_on must be >= i_off, got i_on={self.i_on}, i_off={self.i_off}"
            )
        if self.ratio_effective < 1.0:
            raise ValueError(
                f"ratio_effective must be >= 1, got {self.ratio_effective}"
            )
        # 1e-9 slack guards against spurious rejections from float rounding;
        # physically the margin never exceeds 1.
        if not (0.0 < self.margin_normalized <= 1.0 + 1e-9):
            raise ValueError(
                f"margin_normalized must lie in (0, 1], got {self.margin_normalized}"
            )


def leakage_at(profile: TechnologyProfile, v_read: float) -> float:
    """Off-transistor leakage current at the given read voltage.

    Exact table value on a measured point, linear interpolation between
    adjacent points otherwise.  Voltages outside the measured interval
    raise LeakageRangeError; extrapolated leakage would not be defensible.
    """
    table = profile.leakage_table
    lo, hi = profile.v_read_min, profile.v_read_max
    if not (lo <= v_read <= hi):
        raise LeakageRangeError(
            f"read voltage {v_read:g} V outside leakage table range "
            f"[{lo:g} V, {hi:g} V] of profile {profile.node_label!r}"
        )
    pos = bisect_left(table, (v_read,))
    if table[pos][0] == v_read:
        return table[pos][1]
    v0, i0 = table[pos - 1]
    v1, i1 = table[pos]
    frac = (v_read - v0) / (v1 - v0)
    return i0 + frac * (i1 - i0)


def element_values(
    profile: TechnologyProfile, toggles: FactorToggles, v_read: float
) -> tuple[float, float, float]:
    """(r_line, r_t, i_leak) with toggled-off factors as exact zeros, so
    that both engines degenerate the same way."""
    return (
        profile.r_unit if toggles.line_resistance else 0.0,
        profile.r_transistor if toggles.transistor_resistance else 0.0,
        leakage_at(profile, v_read) if toggles.leakage else 0.0,
    )


def _worst_case_drive(v_read: float, i_leak: float, r_line: float, n):
    # Segment j of the worst-case path carries the leakage of the n-j cells
    # beyond it: n(n-1)/2 in all, correctly rounded and free of overflow.
    return v_read - i_leak * r_line * (n * (n - 1.0) / 2)


def _largest_readable_n(v_read: float, i_leak: float, r_line: float) -> int:
    n = int((1 + math.sqrt(1 + 8 * v_read / (i_leak * r_line))) / 2)
    while _worst_case_drive(v_read, i_leak, r_line, n) <= 0:
        n -= 1
    while _worst_case_drive(v_read, i_leak, r_line, n + 1) > 0:
        n += 1
    return n


# np.where and ndarray.all that also take the Python scalars of sense_point.
def _where(cond, a, b):
    return (a if cond else b) if isinstance(cond, bool) else np.where(cond, a, b)


def _all(ok) -> bool:
    return bool(ok.all() if isinstance(ok, np.ndarray) else ok)


def _sense(profile, r_on, ratio_ideal, n, v_read, toggles, engine):
    """sense_grid's kernel, on valid inputs: r_on and n are float arrays
    that broadcast against each other, or Python scalars as sense_point
    passes them."""
    r_line, r_t, i_leak = element_values(profile, toggles, v_read)
    r_off = ratio_ideal * r_on
    leak_total = (n - 1.0) * i_leak
    if engine == "lumped":
        series = r_t + n * r_line
        drive, path_on, path_off = v_read, r_on + series, r_off + series
    elif engine == "oracle":
        drive = _worst_case_drive(v_read, i_leak, r_line, n)
        if not _all(drive > 0):
            bound = _largest_readable_n(v_read, i_leak, r_line)
            raise SolverError(
                f"column of n={int(np.asarray(n)[np.asarray(drive <= 0)].min())}"
                f" cells cannot be read at V_read={v_read:g} V: leakage IR drop"
                f" on the worst-case path reaches the read voltage; the largest"
                f" readable column has n={bound}"
            )
        line = n * r_line
        path_on, path_off = (r_on + r_t) + line, (r_off + r_t) + line
    else:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    i_on = drive / path_on + leak_total
    i_off = drive / path_off + leak_total
    if not _all(i_off > 0):
        raise SolverError(
            f"off-state current underflows to 0 (r_off up to {np.max(r_off):g} ohm)"
        )
    ratio = i_on / i_off
    if engine == "lumped" and not _all(leak_total > 0.0):
        # Without leakage, the better-conditioned quotient of the paths,
        # exactly ideal when no non-ideality is on.
        resistive = _where(series == 0.0, ratio_ideal, path_off / path_on)
        ratio = _where(leak_total == 0.0, resistive, ratio)
    margin = ratio / ratio_ideal
    if not _all(abs(margin) < math.inf):  # isfinite, also for Python floats
        raise SolverError(
            f"sensing margin is not finite (r_on down to {np.min(r_on):g} ohm)"
        )
    return i_on, i_off, ratio, margin


def sense_grid(
    profile: TechnologyProfile,
    r_on,
    ratio_ideal: float,
    n_cells,
    v_read: float,
    toggles: FactorToggles = FactorToggles(),
    engine: str = "lumped",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Worst-case (i_on, i_off, ratio, margin) over a grid of R_on and n.

    r_on and n_cells (an R_on row against an n column gives the whole grid)
    and an array or sequence ratio_ideal (element-wise path) broadcast
    together; v_read is one number.  The four results are float64 ndarrays
    of the broadcast shape, 0-d for scalars.
    engine="lumped" is the model of the module docstring; without leakage
    its ratio is the better-conditioned quotient of series resistances,
    exactly ideal when no non-ideality is on.  engine="oracle" is the
    oracle module's ladder in closed form for the worst-case cell, in the
    operation order of oracle.solve_column (the two agree bit for bit):

        I_state = (V - I_leak*r*n(n-1)/2) / ((R_state + R_T) + n*r) + (n-1)*I_leak

    Raises SolverError where that drive term is not positive (leakage IR
    drop eats the read voltage), the off-state current underflows to 0 or
    the margin is not finite, ValueError for invalid inputs or a point
    outside the SenseResult invariants.
    """
    v_read = _checked("v_read", v_read)
    k_array = isinstance(ratio_ideal, (list, tuple, np.ndarray))  # one k per R_on
    ratio_ideal = (_array if k_array else _checked)("ratio_ideal", ratio_ideal)
    # R_on, then n, is checked as given.  The kernel broadcasts the two, so a shape
    # mismatch raises first, and a grid without points has only dtypes to check.
    n = n_cells if isinstance(n_cells, (list, tuple)) else np.asarray(n_cells)
    if np.ndim(n) and 0 in (shape := np.broadcast_shapes(np.shape(r_on), np.shape(n))):
        r_on = np.empty(shape)
    r_on = _array("r_on", r_on)
    n = _array("n_cells", n if r_on.size else np.broadcast_to(n, r_on.shape))
    if k_array:  # its kernel errors name the grid shape
        r_on, n = np.broadcast_arrays(r_on, n)
    return _sensed(profile, r_on, ratio_ideal, n, v_read, toggles, engine)


def _sensed(profile, r_on, ratio_ideal, n, v_read, toggles=FactorToggles(), engine="lumped"):
    """sense_grid on inputs it would accept, already checked: r_on and n arrays or numbers
    (converted to float64 here), ratio_ideal a float or float array, v_read a float."""
    # Overflow and underflow are reported as SolverError, not as warnings; n is
    # converted as Python's int * float does, exactly below 2**53.
    r_on, n = np.asarray(r_on, dtype=float), np.asarray(n, dtype=float)
    with np.errstate(all="ignore"):
        grid = _sense(profile, r_on, ratio_ideal, n, v_read, toggles, engine)
    if r_on.ndim == n.ndim == 0:  # numpy arithmetic on 0-d arrays returns scalars
        grid = tuple(np.asarray(a, dtype=float) for a in grid)
    i_on, i_off, ratio, margin = grid
    if not (margin.size and i_off.min() > 0 and ratio.min() >= 1.0 and margin.min() > 0.0
            and margin.max() <= 1.0 + 1e-9 and (i_on >= i_off).all()):
        ok = (i_off > 0) & (i_on >= i_off) & (ratio >= 1.0)
        ok &= (margin > 0.0) & (margin <= 1.0 + 1e-9)
        if not ok.all():
            # Rebuilding the first offending point raises the message of the
            # invariant it breaks.
            at = int(np.argmin(ok))
            SenseResult(*(float(a.flat[at]) for a in grid))
    return grid


def sense_point(
    profile: TechnologyProfile, cell: CellSpec, setup: ReadSetup, engine: str = "lumped"
) -> SenseResult:
    """sense_grid for one cell and read condition, already validated by
    CellSpec and ReadSetup; SenseResult checks the result."""
    return SenseResult(*_sense(
        profile, cell.r_on, cell.ratio_ideal, setup.n_cells, setup.v_read, setup.toggles,
        engine,
    ))


def read_currents(
    profile: TechnologyProfile, cell: CellSpec, setup: ReadSetup
) -> SenseResult:
    """Worst-case sensed currents and effective ratio for one read condition.

    I_on and I_off share the series term R_T + n*r and the accumulated
    leakage (n-1)*I_Tleak; toggled-off factors contribute zero.
    """
    return sense_point(profile, cell, setup)
