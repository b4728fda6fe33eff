#!/usr/bin/env python3
"""Print a column-scaling report for one technology profile.

For each column size: the sensing margin at a few representative cell
resistances, the resistance with the best margin, and the resistance
band that keeps the margin above a threshold.
"""

import argparse

from crossbar_margin import argmax_resistance, find_optimal_range, sense_grid
from crossbar_margin.analysis import DEFAULT_N_GRID, DEFAULT_R_ON_GRID
from crossbar_margin.profile_io import load_bundled_profile, load_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default=None, help="profile JSON (default: bundled 22nm)")
    parser.add_argument("--k", type=float, default=10.0, help="fabricated on/off ratio")
    parser.add_argument("--vread", type=float, default=0.2, help="read voltage (V)")
    parser.add_argument("--threshold", type=float, default=0.8, help="margin floor for the band")
    args = parser.parse_args()

    profile = load_bundled_profile() if args.profile is None else load_profile(args.profile)
    print(f"profile {profile.node_label}: r={profile.r_unit:g} ohm, "
          f"R_T={profile.r_transistor:g} ohm, k={args.k:g}, V_read={args.vread:g} V")
    print(f"{'n':>6} {'m(10k)':>8} {'m(50k)':>8} {'m(100k)':>8} "
          f"{'best R_on':>10} {'band >= ' + format(args.threshold, 'g'):>22}")
    for n in DEFAULT_N_GRID:
        margins = sense_grid(profile, (1e4, 5e4, 1e5), args.k, n, args.vread)[3]
        best = argmax_resistance(profile, args.k, n, args.vread, DEFAULT_R_ON_GRID)
        span = find_optimal_range(profile, args.k, n, args.vread, args.threshold)
        band = "none" if span is None else f"{span[0]:.3g} .. {span[1]:.3g} ohm"
        print(f"{n:>6} {margins[0]:>8.4f} {margins[1]:>8.4f} {margins[2]:>8.4f} "
              f"{best:>10.3g} {band:>22}")


if __name__ == "__main__":
    main()
