"""Point-by-point lumped-versus-distributed comparison.

The reference form of oracle.compare_lumped_distributed, which evaluates
each read setup with one sense_grid call per engine.  This one runs the
scalar views read_currents and oracle_margin once per (cell, setup)
point; the tests check that both give the same rows, or raise the same
error.
"""

from crossbar_margin.model import CellSpec, ReadSetup, SolverError, TechnologyProfile, read_currents
from crossbar_margin.oracle import ComparisonRow, oracle_margin


def compare_lumped_distributed(
    profile: TechnologyProfile,
    cell_grid: list[CellSpec] | tuple[CellSpec, ...],
    setup_grid: list[ReadSetup] | tuple[ReadSetup, ...],
) -> list[ComparisonRow]:
    """Cross product of cells and read setups, one comparison row each."""
    rows = []
    for cell in cell_grid:
        for setup in setup_grid:
            lumped = oracle = float("nan")
            error = None
            try:
                lumped = read_currents(profile, cell, setup).margin_normalized
                oracle = oracle_margin(profile, cell, setup).margin_normalized
            except SolverError as exc:
                error = str(exc)
            rows.append(
                ComparisonRow(
                    r_on=cell.r_on,
                    ratio_ideal=cell.ratio_ideal,
                    n_cells=setup.n_cells,
                    v_read=setup.v_read,
                    margin_lumped=lumped,
                    margin_oracle=oracle,
                    relative_gap=abs(lumped - oracle) / oracle,
                    error=error,
                )
            )
    return rows
