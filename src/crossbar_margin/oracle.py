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
precision at any flow magnitude.  Node voltages are rebuilt from the
segment drops on their first read, since neither Kirchhoff residual needs
them.  A dense nodal-analysis formulation of the same network lives in
the test suite as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

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
    n_cells is the far end, whose path crosses every bit-line segment.  It
    is not the cell with the most leakage on its path (ROADMAP item 3).
    """

    n_cells: int
    r_segment: float
    r_cell_on_path: float
    i_leak_per_cell: float
    selected_index: int
    v_drive: float

    def __post_init__(self) -> None:
        n = _checked("n_cells", self.n_cells)
        index = _checked("selected_index", self.selected_index)
        if index > n:
            raise ValueError(f"selected_index must lie in [1, {n}], got {index}")
        object.__setattr__(self, "n_cells", n)
        object.__setattr__(self, "selected_index", index)
        for name in ("r_segment", "r_cell_on_path", "i_leak_per_cell", "v_drive"):
            _checked(name, getattr(self, name))


@dataclass(frozen=True)
class NetworkSolution:
    """Solved state of one ColumnNetwork, the network it solves included.

    bl_segment_currents[j-1] is the current through the bit-line segment
    entering node j (n entries, the first carries the drive current);
    sl_segment_currents[j-1] flows from source-line node j toward the sense
    (n-1 entries).  i_sensed is the total current into the sense node, which
    by current conservation equals i_selected_cell plus the summed leakage
    of the unselected cells.

    bl_voltages[i-1] / sl_voltages[i-1] are the bit/source line voltages at
    cell i; the last source-line entry is the sense node and is 0 by
    definition.  They are cached properties, not fields: each line is summed
    from its segment drops on its first read and kept, and concurrent first
    reads return the same array.
    """

    network: ColumnNetwork
    bl_segment_currents: np.ndarray
    sl_segment_currents: np.ndarray
    i_sensed: float
    i_selected_cell: float

    @cached_property
    def bl_voltages(self) -> np.ndarray:
        bl = np.cumsum(self.bl_segment_currents)
        bl *= self.network.r_segment
        np.subtract(self.network.v_drive, bl, out=bl)
        return vars(self).setdefault("bl_voltages", bl)  # one array for concurrent first reads

    @cached_property
    def sl_voltages(self) -> np.ndarray:
        n, r = self.network.n_cells, self.network.r_segment
        sl = np.empty(n)
        sl[n - 1] = 0.0
        np.cumsum(self.sl_segment_currents[::-1], out=sl[: n - 1][::-1])
        sl[: n - 1] *= r
        return vars(self).setdefault("sl_voltages", sl)


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
    selected position defaults to the far end, n_cells (ROADMAP item 3).
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
    loop through the selected cell s then fixes the cell current:

        i_cell = (V - I_leak * r * W) / (r_cell + n * r)

    with W = s(n+1-s) - n + n(n-1)/2 counting, over the n segments of the
    selected path, how many leakage extractions each one carries.  W is
    n(n-1)/2 at s = 1 and s = n and largest at s = (n+1)//2.  Only these
    branch currents are computed here; the node voltages are summed from
    them on their first read (NetworkSolution).  Raises SolverError if the
    element values admit no finite solution.
    """
    n = net.n_cells
    sel = net.selected_index
    r = net.r_segment
    i_leak = net.i_leak_per_cell
    v = net.v_drive

    # Bit-line segment j <= sel carries the n-j unselected cells in [j, n];
    # source-line segment j >= sel carries the j-1 in [1, j].  Integer, exact.
    w = sel * (n + 1 - sel) - n + n * (n - 1) // 2

    denominator = net.r_cell_on_path + n * r
    i_cell = (v - i_leak * r * float(w)) / denominator
    if not math.isfinite(i_cell):
        raise SolverError(
            f"cell-current equation has no finite solution "
            f"(r_cell_on_path={net.r_cell_on_path:g}, n*r={n * r:g})"
        )

    # leak[k] is the leakage of k cells (k < n).  Bit-line segment j carries
    # n-j unselected cells up to sel and n-j+1 past it; source-line segment
    # j carries j below sel and j-1 from sel on.  Where the cell current
    # does not flow, i_cell * 0.0 is still added: every entry is the sum
    # i_cell * [flows] + leakage, signed zeros included.
    leak = np.arange(n, dtype=float)
    leak *= i_leak
    down = leak[::-1]  # down[k] = leak[n - 1 - k]
    no_cell = i_cell * 0.0
    f_bl = np.empty(n)
    np.add(down[:sel], i_cell, out=f_bl[:sel])
    np.add(down[sel - 1 : n - 1], no_cell, out=f_bl[sel:])
    f_sl = np.empty(n - 1)
    np.add(leak[1:sel], no_cell, out=f_sl[: sel - 1])
    np.add(leak[sel - 1 : n - 1], i_cell, out=f_sl[sel - 1 :])

    # Current into the sense node: last source-line segment plus the end
    # cell's own contribution (the selected resistor or its leakage).
    i_sensed = float(f_sl[n - 2]) if n >= 2 else 0.0
    i_sensed += i_cell if sel == n else i_leak
    return NetworkSolution(net, f_bl, f_sl, i_sensed, i_cell)


def kcl_residuals(net: ColumnNetwork, sol: NetworkSolution) -> np.ndarray:
    """Relative Kirchhoff current-law residual at every internal node.

    Branch currents come from the solution's segment-current state (node
    voltages near the drive voltage cannot represent nanoampere flows to
    this precision); each node's net current is normalized by its largest
    single branch current.  Entries cover the n bit-line nodes followed
    by the n-1 source-line nodes.
    """
    n, sel = net.n_cells, net.selected_index
    i_leak, i_cell = net.i_leak_per_cell, sol.i_selected_cell
    f_bl, f_sl = sol.bl_segment_currents, sol.sl_segment_currents
    # tiny floors every scale: it joins each node's maxima, and all take the finite |i_leak|.
    tiny = np.finfo(float).tiny
    floor = max(abs(i_leak), tiny)
    residuals, scale = np.empty(2 * n - 1), np.empty(n)
    # Cell j carries its current from bit-line node j to source-line node j;
    # a line current past either end of a line is 0.  Each line's nodes are
    # filled as an unselected cell's, node sel is patched, and the line's
    # |f| is staged in its residuals before they are computed.
    res = residuals[:n]
    np.abs(f_bl, out=res)
    np.maximum(res[:-1], res[1:], out=scale[:-1])
    scale[-1] = res[-1]  # max(|f|, 0.0) is |f|
    line_scale = scale[sel - 1]
    np.maximum(scale, floor, out=scale)
    scale[sel - 1] = np.maximum(line_scale, max(abs(i_cell), tiny))  # max keeps a NaN first
    np.subtract(f_bl[:-1], f_bl[1:], out=res[:-1])
    res[-1] = f_bl[-1]  # f - 0.0 is f
    res -= i_leak
    outflow = f_bl[sel] if sel < n else 0.0
    res[sel - 1] = f_bl[sel - 1] - outflow - i_cell
    np.abs(res, out=res)
    res /= scale

    res, scale = residuals[n:], scale[: n - 1]
    np.abs(f_sl, out=res)
    scale[:1] = floor  # max(0.0, |i_leak|, tiny); [:1] is empty when n = 1
    np.maximum(res[:-1], floor, out=scale[1:])
    if sel < n:
        inflow = f_sl[sel - 2] if sel > 1 else 0.0
        scale[sel - 1] = np.maximum(abs(inflow), max(abs(i_cell), tiny))
    np.maximum(scale, res, out=scale)
    res[:1] = 0.0 + i_leak
    np.add(f_sl[:-1], i_leak, out=res[1:])
    if sel < n:
        res[sel - 1] = inflow + i_cell
    res -= f_sl
    np.abs(res, out=res)
    res /= scale
    return residuals


def kvl_loop_residual(net: ColumnNetwork, sol: NetworkSolution) -> float:
    """Relative closure error of the drive-to-sense loop through the selected cell.

    Sums every segment drop on the selected path plus the cell drop and
    compares against the drive voltage; exact summation keeps the check
    sensitive to single-ulp defects.
    """
    n, sel, r = net.n_cells, net.selected_index, net.r_segment
    drops = np.empty(n + 1)
    np.multiply(sol.bl_segment_currents[:sel], r, out=drops[:sel])
    np.multiply(sol.sl_segment_currents[sel - 1 : n - 1], r, out=drops[sel:n])
    drops[n] = sol.i_selected_cell * net.r_cell_on_path
    return abs(_exact_sum(drops) - net.v_drive) / abs(net.v_drive)


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), the correctly rounded sum, bit for bit, in array passes.

    Each pass splits x error-free into q + (x - q), with q = (x + sigma) - sigma
    for sigma = 2**(e + b), max|x| < 2**e and len(x) < 2**b: every q is a
    multiple of 2**(e + b - 53) and their sum stays below sigma, so q.sum() is
    exact in any order, and the remainder is at most 2**(e + b - 53) (Rump,
    Ogita & Oishi, SIAM J. Sci. Comput. 2008, ExtractVector).  After at most
    three passes fsum rounds the exact partial sums and what is left.  All
    zeros, inf, NaN or |x| >= 2**900 go to fsum whole, and so do fewer than
    1024 values (the list is cheaper than the passes) and 2**26 or more (the
    partial sums would no longer be exact).
    """
    bits = len(x).bit_length()
    if not (10 < bits <= 26 and 0.0 < (top := max(x.max(), -x.min())) < 2.0**900):
        return math.fsum(x.tolist())
    partials, q, rest = [], np.empty_like(x), None
    for _ in range(3):
        sigma = math.ldexp(1.0, math.frexp(top)[1] + bits)
        np.add(x, sigma, out=q)
        q -= sigma
        partials.append(float(q.sum()))
        x = rest = np.subtract(x, q, out=rest)  # a new array on the first pass only
        top = max(x.max(), -x.min())
        if top == 0.0:  # nothing left to add
            return math.fsum(partials)
    return math.fsum(partials + x[x != 0.0].tolist())


def oracle_margin(
    profile: TechnologyProfile, cell: CellSpec, setup: ReadSetup
) -> SenseResult:
    """Sensing margin of the distributed network, worst-case cell: the
    closed form of two solve_column calls (on, off state), bit for bit.
    Raises SolverError past the longest column that can still be read."""
    return sense_point(profile, cell, setup, "oracle")


class ComparisonRow(NamedTuple):
    """One lumped-versus-distributed comparison point: a named tuple, its
    fields in validate.csv's column order (copy with _replace).

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
    """Cross product of cells and read setups, one comparison row each, cell-major."""
    if not cell_grid or not setup_grid:
        return []
    r_list, k_list = [c.r_on for c in cell_grid], [c.ratio_ideal for c in cell_grid]
    r_on = np.array(r_list)
    # One k keeps the kernel's fast path.
    k = k_list[0] if k_list.count(k_list[0]) == len(k_list) else np.array(k_list)
    per_setup = [map(ComparisonRow, r_list, k_list, repeat(setup.n_cells), repeat(setup.v_read),
                     *_margins(profile, r_on, k, setup))
                 for setup in setup_grid]
    return list(chain.from_iterable(zip(*per_setup)))


def _margins(profile, r_on, k, setup):
    """The columns lumped margin, oracle margin, relative gap and error over r_on for
    one setup; after a SolverError cell by cell, with no oracle margin where lumped fails."""
    args, lumped = (setup.n_cells, setup.v_read, setup.toggles), None
    try:
        lumped = _sensed(profile, r_on, k, *args, "lumped")[3]
        oracle = _sensed(profile, r_on, k, *args, "oracle")[3]
    except SolverError as exc:
        if len(r_on) > 1:
            cells = zip(r_on[:, None], np.broadcast_to(k, len(r_on))[:, None])
            per_cell = [_margins(profile, r, ki, setup) for r, ki in cells]
            return [list(chain.from_iterable(column)) for column in zip(*per_cell)]
        lumped = [math.nan] if lumped is None else lumped.tolist()
        return lumped, [math.nan], [math.nan], [str(exc)]
    gap = np.abs(lumped - oracle) / oracle
    return lumped.tolist(), oracle.tolist(), gap.tolist(), repeat(None, len(r_on))
