"""Pre-sweep and bisection search for the optimal R_on band.

The reference form of analysis.find_optimal_range, which computes the
band in closed form.  This one sweeps the margin over the grid, then
bisects each flank crossing in log space to 1 % relative resolution,
returning the inside of each final bracket.  The tests check that both
agree within that resolution.
"""

import math

from crossbar_margin.model import CellSpec, ReadSetup, read_currents, sense_grid


def find_optimal_range_reference(profile, ratio_ideal, n_cells, v_read, threshold, r_on_grid):
    margins = sense_grid(profile, r_on_grid, ratio_ideal, n_cells, v_read)[3].tolist()
    if max(margins) < threshold:
        return None

    above = [m >= threshold for m in margins]
    first = above.index(True)
    last = len(above) - 1 - above[::-1].index(True)

    setup = ReadSetup(v_read=v_read, n_cells=n_cells)

    def margin(r_on):
        return read_currents(profile, CellSpec(r_on, ratio_ideal), setup).margin_normalized

    def bisect_flank(lo, hi, rising):
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
