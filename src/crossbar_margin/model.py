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

sense_grid evaluates this over arrays of R_on and n, for this model and
for the oracle module's distributed ladder, which for the worst-case cell
differs only in its drive term; read_currents and oracle.oracle_margin
are its scalar views.

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


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


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
        _require_finite("r_unit", self.r_unit)
        _require_finite("r_transistor", self.r_transistor)
        if self.r_unit < 0:
            raise ValueError(f"r_unit must be >= 0, got {self.r_unit}")
        if self.r_transistor < 0:
            raise ValueError(f"r_transistor must be >= 0, got {self.r_transistor}")
        table = tuple((float(v), float(i)) for v, i in self.leakage_table)
        object.__setattr__(self, "leakage_table", table)
        if not table:
            raise ValueError("leakage_table must contain at least one (v, i) point")
        for v, i in table:
            _require_finite("leakage_table voltage", v)
            _require_finite("leakage_table current", i)
            if i < 0:
                raise ValueError(f"leakage current must be >= 0, got {i}")
        voltages = [v for v, _ in table]
        if any(b <= a for a, b in zip(voltages, voltages[1:])):
            raise ValueError("leakage_table voltages must be strictly increasing")
        currents = [i for _, i in table]
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
        _require_finite("r_on", self.r_on)
        _require_finite("ratio_ideal", self.ratio_ideal)
        if self.r_on <= 0:
            raise ValueError(f"r_on must be > 0, got {self.r_on}")
        if self.ratio_ideal < 1:
            raise ValueError(f"ratio_ideal must be >= 1, got {self.ratio_ideal}")

    @property
    def r_off(self) -> float:
        return self.ratio_ideal * self.r_on


@dataclass(frozen=True)
class FactorToggles:
    """Which non-idealities participate in a margin evaluation."""

    line_resistance: bool = True
    transistor_resistance: bool = True
    leakage: bool = True

    @classmethod
    def all_on(cls) -> "FactorToggles":
        return cls(True, True, True)

    @classmethod
    def all_off(cls) -> "FactorToggles":
        return cls(False, False, False)

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
        _require_finite("v_read", self.v_read)
        if self.v_read <= 0:
            raise ValueError(f"v_read must be > 0, got {self.v_read}")
        if not isinstance(self.n_cells, int) or isinstance(self.n_cells, bool):
            raise ValueError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")
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


def _require(name: str, values, ok, bound: str) -> None:
    if not ok.all():
        bad = np.asarray(values)[~np.asarray(ok)]
        raise ValueError(f"{name} must be {bound}, got {bad.flat[0]!r}")


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

    r_on and n_cells broadcast against each other (an R_on row against an
    n column gives the whole grid); the four results are float64 ndarrays
    of the broadcast shape, 0-d when both inputs are scalars.
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
    # A few reductions on whole arrays imply the element-wise checks (NaN
    # fails every comparison); those run only where a reduction fails, to
    # raise the error that names the first offending value.
    # An int a float holds exactly counts as that float (bools and ints of
    # 2**64 and above keep the element-wise path).
    v, k = (float(x) if type(x) is int and 0 < x < 2**64 and float(x) == x else x
            for x in (v_read, ratio_ideal))
    fast = (isinstance(v, float) and isinstance(k, float)
            and 0 < v < math.inf and 1 <= k < math.inf)
    if fast:
        v_read, ratio_ideal = v, k
        r_on, n = np.asarray(r_on, dtype=float), np.asarray(n_cells)
        # The kernel broadcasts as it computes; a mismatch raises here, as it
        # does in np.broadcast_arrays below.
        shape = np.broadcast_shapes(r_on.shape, n.shape) if n.ndim else r_on.shape
        fast = (math.prod(shape) > 0 and n.dtype.kind in "iu" and n.min() >= 1
                and 0 < r_on.min() and r_on.max() < math.inf)
    if not fast:
        _require("v_read", v_read, np.isfinite(v_read) & (v_read > 0), "finite and > 0")
        _require("ratio_ideal", ratio_ideal, np.isfinite(ratio_ideal) & (ratio_ideal >= 1),
                 "finite and >= 1")
        r_on, n = np.broadcast_arrays(np.asarray(r_on, dtype=float), np.asarray(n_cells))
        _require("r_on", r_on, np.isfinite(r_on) & (r_on > 0), "finite and > 0")
        _require("n_cells", n, np.array(n.dtype.kind in "iu"), "integers")
        _require("n_cells", n, n >= 1, ">= 1")
    # Overflow and underflow are reported as SolverError, not as warnings; n is
    # converted as Python's int * float does, exactly below 2**53.
    with np.errstate(all="ignore"):
        grid = _sense(profile, r_on, ratio_ideal, n.astype(float), v_read, toggles, engine)
    if r_on.ndim == n.ndim == 0:  # numpy arithmetic on 0-d arrays returns scalars
        grid = tuple(np.asarray(a, dtype=float) for a in grid)
    i_on, i_off, ratio, margin = grid
    if not (fast and i_off.min() > 0 and ratio.min() >= 1.0 and margin.min() > 0.0
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
