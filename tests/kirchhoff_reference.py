"""Node-by-node Kirchhoff checks of a solved column, one Python loop each.

The reference forms of oracle.kcl_residuals and oracle.kvl_loop_residual:
the same balances in the same operation order, written one node and one
segment at a time, so that the package's array expressions can be
checked against them bit for bit.
"""

import math

import numpy as np


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
