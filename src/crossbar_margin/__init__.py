"""Sensing-margin analysis for 1T1R memristor crossbar columns.

Three layers: a closed-form column model (model), an exact distributed
resistive-network solver used to validate it (oracle), and design-space
studies built on both (analysis).  Profile files, CSV/SVG output and the
CLI live in profile_io, results, svg and cli.
"""

from .analysis import (
    COARSE_R_ON_GRID,
    DEFAULT_N_GRID,
    DEFAULT_R_ON_GRID,
    VALIDATION_N_GRID,
    MarginCurve,
    SweepSpec,
    ablation_series,
    argmax_resistance,
    compensation_curve,
    find_optimal_range,
    read_power_ratio,
    sweep_grid,
)
from .model import (
    CellSpec,
    FactorToggles,
    LeakageRangeError,
    ReadSetup,
    SenseResult,
    TechnologyProfile,
    leakage_at,
    read_currents,
    sense_grid,
)
from .oracle import (
    ColumnNetwork,
    ComparisonRow,
    NetworkSolution,
    SolverError,
    build_column,
    compare_lumped_distributed,
    kcl_residuals,
    kvl_loop_residual,
    oracle_margin,
    solve_column,
)
from .profile_io import (
    ProfileError,
    dump_profile,
    load_bundled_profile,
    load_profile,
    profile_from_dict,
    profile_to_dict,
)
from .results import ResultTable, write_csv
from .svg import render_plot

__version__ = "0.1.0"

__all__ = [
    "CellSpec",
    "ColumnNetwork",
    "ComparisonRow",
    "COARSE_R_ON_GRID",
    "DEFAULT_N_GRID",
    "DEFAULT_R_ON_GRID",
    "FactorToggles",
    "LeakageRangeError",
    "MarginCurve",
    "NetworkSolution",
    "ProfileError",
    "ReadSetup",
    "ResultTable",
    "SenseResult",
    "SolverError",
    "SweepSpec",
    "TechnologyProfile",
    "VALIDATION_N_GRID",
    "ablation_series",
    "argmax_resistance",
    "build_column",
    "compare_lumped_distributed",
    "compensation_curve",
    "dump_profile",
    "find_optimal_range",
    "kcl_residuals",
    "kvl_loop_residual",
    "leakage_at",
    "load_bundled_profile",
    "load_profile",
    "oracle_margin",
    "profile_from_dict",
    "profile_to_dict",
    "read_currents",
    "read_power_ratio",
    "render_plot",
    "sense_grid",
    "solve_column",
    "sweep_grid",
    "write_csv",
]
