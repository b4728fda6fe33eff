"""Reference forms of the column solve and of its Kirchhoff checks.

solve_column_cumsum is oracle.solve_column with its leakage counts built
by cumulative sums over a mask of the unselected cells.  It returns its own
node voltages, v - r*cumsum, next to the solution: the solution's voltage
properties are the package's.  kcl_residuals_loop and
kvl_loop_residual_loop are oracle.kcl_residuals and
oracle.kvl_loop_residual: the same balances in the same operation order,
written one node and one segment at a time.  The package's array
expressions are checked against all three bit for bit.
"""

import math

import numpy as np

from crossbar_margin.model import SolverError
from crossbar_margin.oracle import NetworkSolution


def solve_column_cumsum(net):
    """Chain elimination with the leakage counts and the path count from cumsums:
    (solution, bit-line voltages, source-line voltages)."""
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
    # 1..sel plus source-line segments sel..n-1.
    w = int(leak_at_or_beyond[:sel].sum())
    if sel <= n - 1:
        w += int(leak_up_to[sel - 1 : n - 1].sum())

    denominator = net.r_cell_on_path + n * r
    i_cell = (v - i_leak * r * float(w)) / denominator
    if not math.isfinite(i_cell):
        raise SolverError("cell-current equation has no finite solution")

    idx = np.arange(1, n + 1)
    f_bl = i_cell * (idx <= sel) + i_leak * leak_at_or_beyond
    f_sl = i_cell * (idx[: n - 1] >= sel) + i_leak * leak_up_to[: n - 1]

    bl = v - r * np.cumsum(f_bl)
    sl = np.zeros(n)
    if n >= 2:
        sl[: n - 1] = r * np.cumsum(f_sl[::-1])[::-1]

    i_sensed = float(f_sl[n - 2]) if n >= 2 else 0.0
    i_sensed += i_cell if sel == n else i_leak
    return NetworkSolution(net, f_bl, f_sl, i_sensed, i_cell), bl, sl


def kcl_residuals_loop(net, sol):
    """Relative KCL residual at the n bit-line then n-1 source-line nodes."""
    n = net.n_cells
    sel = net.selected_index
    i_leak = net.i_leak_per_cell
    f_bl, f_sl = sol.bl_segment_currents, sol.sl_segment_currents

    residuals = np.zeros(2 * n - 1)
    scales = np.zeros(2 * n - 1)
    for j in range(1, n + 1):
        inflow = f_bl[j - 1]
        outflow_line = f_bl[j] if j < n else 0.0
        extraction = sol.i_selected_cell if j == sel else i_leak
        residuals[j - 1] = inflow - outflow_line - extraction
        scales[j - 1] = max(abs(inflow), abs(outflow_line), abs(extraction))
    for j in range(1, n):
        inflow_line = f_sl[j - 2] if j > 1 else 0.0
        injection = sol.i_selected_cell if j == sel else i_leak
        outflow = f_sl[j - 1]
        residuals[n + j - 1] = inflow_line + injection - outflow
        scales[n + j - 1] = max(abs(inflow_line), abs(injection), abs(outflow))
    scales = np.maximum(scales, np.finfo(float).tiny)
    return np.abs(residuals) / scales


def kvl_loop_residual_loop(net, sol):
    """Relative closure error of the loop through the selected cell."""
    n, sel, r = net.n_cells, net.selected_index, net.r_segment
    drops = [r * f for f in sol.bl_segment_currents[:sel]]
    drops += [r * f for f in sol.sl_segment_currents[sel - 1 : n - 1]]
    drops.append(sol.i_selected_cell * net.r_cell_on_path)
    return abs(math.fsum(drops) - net.v_drive) / abs(net.v_drive)
