"""Exact resistive-network solver for one 1T1R column.

Where the closed-form model lumps the whole line into a single n*r series
term, this module solves the actual distributed ladder, playing the role
a transistor-level circuit simulator plays during technology
characterization.  Comparing the two quantifies the lumping error.

oracle_margin and compare_lumped_distributed evaluate the ladder's closed
form for the worst-case cell (model._sensed, engine "oracle"); solve_column,
the Kirchhoff residuals and the test suite's dense reference check it.

Geometry
--------
The bit line is driven by an ideal source at one end and the source line
is sensed by an ideal virtual ground (0 V) at the opposite end:

    V --r-- b1 --r-- b2 --r-- ... --r-- bn        (bit line)
            |        |                 |
          cell 1   cell 2    ...     cell n
            |        |                 |
            s1 --r-- s2 --r-- ... --r-- sn = sense (0 V)

Each drive-to-sense path crosses exactly n line segments regardless of
the selected position (i on the bit line, n-i on the source line), which
is the distributed counterpart of the lumped n*r series term.  The
selected cell is a resistor (memristor state plus transistor read
resistance); every unselected cell draws a constant leakage current from
its bit-line node into its source-line node.  Word lines carry only gate
voltages and are omitted.

Solver
------
The ladder is a chain, so Kirchhoff's current law determines every
segment current as (known leakage sums) plus the one unknown cell
current, and the loop equation through the selected cell closes the
system; direct elimination in branch-current space solves it exactly.
Solving for currents rather than node voltages matters: node voltages
sit near the drive voltage, and their last-place rounding would swamp
nanoampere-scale flows, while branch currents keep full relative
precision at any flow magnitude.  Node voltages are reconstructed from
the segment drops afterwards.  A dense nodal-analysis formulation of the
same network lives in the test suite as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CellSpec,
    ReadSetup,
    SenseResult,
    SolverError,
    TechnologyProfile,
    _checked,
    _sensed,
    element_values,
    sense_point,
)


@dataclass(frozen=True)
class ColumnNetwork:
    """Distributed description of one column read.

    selected_index counts cells from the drive end, 1-based; the cell at
    n_cells is the worst case (its path crosses every segment the others
    share).
    """

    n_cells: int
    r_segment: float
    r_cell_on_path: float
    i_leak_per_cell: float
    selected_index: int
    v_drive: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_cells", _checked("n_cells", self.n_cells))
        if not (1 <= self.selected_index <= self.n_cells):
            raise ValueError(
                f"selected_index must lie in [1, {self.n_cells}], "
                f"got {self.selected_index}"
            )
        for name in ("r_segment", "r_cell_on_path", "i_leak_per_cell", "v_drive"):
            _checked(name, getattr(self, name))


@dataclass(frozen=True)
class NetworkSolution:
    """Solved state of one ColumnNetwork.

    bl_voltages[i-1] / sl_voltages[i-1] are the bit/source line voltages
    at cell i; the last source-line entry is the sense node and is 0 by
    definition.  bl_segment_currents[j-1] is the current through the
    bit-line segment entering node j (n entries, the first carries the
    drive current); sl_segment_currents[j-1] flows from source-line node
    j toward the sense (n-1 entries).  i_sensed is the total current into
    the sense node, which by current conservation equals i_selected_cell
    plus the summed leakage of the unselected cells.
    """

    bl_voltages: np.ndarray
    sl_voltages: np.ndarray
    bl_segment_currents: np.ndarray
    sl_segment_currents: np.ndarray
    i_sensed: float
    i_selected_cell: float


def build_column(
    profile: TechnologyProfile,
    cell: CellSpec,
    setup: ReadSetup,
    state: str,
    selected_index: int | None = None,
) -> ColumnNetwork:
    """Materialize the distributed network for one read of one cell state.

    state is "on" or "off"; toggled-off factors enter as exact zeros so
    the network degenerates the same way the lumped model does.  The
    selected position defaults to the far (worst-case) end.
    """
    if state not in ("on", "off"):
        raise ValueError(f'state must be "on" or "off", got {state!r}')
    r_memristor = cell.r_on if state == "on" else cell.r_off
    r_segment, r_t, i_leak = element_values(profile, setup.toggles, setup.v_read)
    return ColumnNetwork(
        n_cells=setup.n_cells,
        r_segment=r_segment,
        r_cell_on_path=r_memristor + r_t,
        i_leak_per_cell=i_leak,
        selected_index=setup.n_cells if selected_index is None else selected_index,
        v_drive=setup.v_read,
    )


def solve_column(net: ColumnNetwork) -> NetworkSolution:
    """Solve the column exactly by direct elimination on the chain.

    Every bit-line segment j carries the cell current (if the selected
    cell lies at or beyond j) plus the leakage of the unselected cells at
    or beyond j; source-line segments mirror this toward the sense.  The
    loop through the selected cell then fixes the cell current:

        i_cell = (V - I_leak * r * W) / (r_cell + n * r)

    with W counting, over the n segments of the selected path, how many
    leakage extractions each one carries.  Raises SolverError if the
    element values admit no finite solution.
    """
    n = net.n_cells
    sel = net.selected_index
    r = net.r_segment
    i_leak = net.i_leak_per_cell
    v = net.v_drive

    unselected = np.ones(n, dtype=np.int64)
    unselected[sel - 1] = 0
    # leak_at_or_beyond[j-1] = unselected cells in [j, n]; leak_up_to[j-1] in [1, j]
    leak_at_or_beyond = np.cumsum(unselected[::-1])[::-1]
    leak_up_to = np.cumsum(unselected)

    # Leakage extractions crossed by the selected path: bit-line segments
    # 1..sel plus source-line segments sel..n-1.  Integer arithmetic, exact.
    w = int(leak_at_or_beyond[:sel].sum())
    if sel <= n - 1:
        w += int(leak_up_to[sel - 1 : n - 1].sum())

    denominator = net.r_cell_on_path + n * r
    i_cell = (v - i_leak * r * float(w)) / denominator
    if not math.isfinite(i_cell):
        raise SolverError(
            f"cell-current equation has no finite solution "
            f"(r_cell_on_path={net.r_cell_on_path:g}, n*r={n * r:g})"
        )

    idx = np.arange(1, n + 1)
    f_bl = i_cell * (idx <= sel) + i_leak * leak_at_or_beyond
    f_sl = i_cell * (idx[: n - 1] >= sel) + i_leak * leak_up_to[: n - 1]

    bl = v - r * np.cumsum(f_bl)
    sl = np.zeros(n)
    if n >= 2:
        sl[: n - 1] = r * np.cumsum(f_sl[::-1])[::-1]

    # Current into the sense node: last source-line segment plus the end
    # cell's own contribution (the selected resistor or its leakage).
    i_sensed = float(f_sl[n - 2]) if n >= 2 else 0.0
    i_sensed += i_cell if sel == n else i_leak
    return NetworkSolution(
        bl_voltages=bl,
        sl_voltages=sl,
        bl_segment_currents=f_bl,
        sl_segment_currents=f_sl,
        i_sensed=i_sensed,
        i_selected_cell=i_cell,
    )


def kcl_residuals(net: ColumnNetwork, sol: NetworkSolution) -> np.ndarray:
    """Relative Kirchhoff current-law residual at every internal node.

    Branch currents come from the solution's segment-current state (node
    voltages near the drive voltage cannot represent nanoampere flows to
    this precision); each node's net current is normalized by its largest
    single branch current.  Entries cover the n bit-line nodes followed
    by the n-1 source-line nodes.
    """
    n, sel = net.n_cells, net.selected_index
    f_bl, f_sl = sol.bl_segment_currents, sol.sl_segment_currents
    # Cell j carries its current from bit-line node j to source-line node j;
    # a line current past either end of a line is 0.
    cell = np.full(n, net.i_leak_per_cell)
    cell[sel - 1] = sol.i_selected_cell
    bl_out = np.concatenate((f_bl[1:], [0.0]))
    sl_in = np.concatenate(([0.0], f_sl))[: n - 1]
    residuals = np.concatenate((f_bl - bl_out - cell, sl_in + cell[: n - 1] - f_sl))
    scales = np.concatenate((
        np.maximum(np.maximum(abs(f_bl), abs(bl_out)), abs(cell)),
        np.maximum(np.maximum(abs(sl_in), abs(cell[: n - 1])), abs(f_sl)),
    ))
    scales = np.maximum(scales, np.finfo(float).tiny)
    return np.abs(residuals) / scales


def kvl_loop_residual(net: ColumnNetwork, sol: NetworkSolution) -> float:
    """Relative closure error of the drive-to-sense loop through the selected cell.

    Sums every segment drop on the selected path plus the cell drop and
    compares against the drive voltage; exact summation keeps the check
    sensitive to single-ulp defects.
    """
    n, sel, r = net.n_cells, net.selected_index, net.r_segment
    drops = (r * sol.bl_segment_currents[:sel]).tolist()
    drops += (r * sol.sl_segment_currents[sel - 1 : n - 1]).tolist()
    drops.append(sol.i_selected_cell * net.r_cell_on_path)
    return abs(math.fsum(drops) - net.v_drive) / abs(net.v_drive)


def oracle_margin(
    profile: TechnologyProfile, cell: CellSpec, setup: ReadSetup
) -> SenseResult:
    """Sensing margin of the distributed network, worst-case cell: the
    closed form of two solve_column calls (on, off state), bit for bit.
    Raises SolverError past the longest column that can still be read."""
    return sense_point(profile, cell, setup, "oracle")


@dataclass(frozen=True)
class ComparisonRow:
    """One lumped-versus-distributed comparison point.

    relative_gap = |margin_lumped - margin_oracle| / margin_oracle.
    Solver failures are flagged through ``error`` (a margin that could
    not be computed is NaN) rather than dropping the row.
    """

    r_on: float
    ratio_ideal: float
    n_cells: int
    v_read: float
    margin_lumped: float
    margin_oracle: float
    relative_gap: float
    error: str | None = None


def compare_lumped_distributed(
    profile: TechnologyProfile,
    cell_grid: list[CellSpec] | tuple[CellSpec, ...],
    setup_grid: list[ReadSetup] | tuple[ReadSetup, ...],
) -> list[ComparisonRow]:
    """Cross product of cells and read setups, one comparison row each."""
    if not cell_grid or not setup_grid:
        return []
    r_on, k = np.array([(cell.r_on, cell.ratio_ideal) for cell in cell_grid], dtype=float).T
    k = float(k[0]) if (k == k[0]).all() else k  # one k keeps the kernel's fast path
    columns = [_margins(profile, r_on, k, setup) for setup in setup_grid]
    return [ComparisonRow(cell.r_on, cell.ratio_ideal, setup.n_cells, setup.v_read, lumped,
                          oracle, abs(lumped - oracle) / oracle, error)
            for cell, points in zip(cell_grid, zip(*columns))
            for setup, (lumped, oracle, error) in zip(setup_grid, points)]


def _margins(profile, r_on, k, setup):
    """(lumped margin, oracle margin, error) per r_on for one setup; after a
    SolverError cell by cell, with no oracle margin where lumped fails."""
    args, size = (setup.n_cells, setup.v_read, setup.toggles), len(r_on)
    lumped, oracle, error = [math.nan] * size, [math.nan] * size, None
    try:
        lumped = _sensed(profile, r_on, k, *args, "lumped")[3].tolist()
        oracle = _sensed(profile, r_on, k, *args, "oracle")[3].tolist()
    except SolverError as exc:
        if size > 1:
            cells = zip(r_on[:, None], np.broadcast_to(k, size)[:, None])
            return [m for r, ki in cells for m in _margins(profile, r, ki, setup)]
        error = str(exc)
    return list(zip(lumped, oracle, [error] * size))
