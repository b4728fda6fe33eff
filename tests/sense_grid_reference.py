"""Check-then-compute sense_grid: every input and invariant checked element-wise.

The reference form of model.sense_grid, which checks whole arrays with a
few reductions and falls back to these element-wise checks only when one
fails.  The tests check that both return the same arrays, bit for bit,
and raise the same exception with the same message.
"""

import math

import numpy as np

from crossbar_margin.model import (
    ENGINES,
    FactorToggles,
    SenseResult,
    SolverError,
    TechnologyProfile,
    _largest_readable_n,
    _worst_case_drive,
    element_values,
)


def _require(name: str, values, ok, bound: str) -> None:
    if not ok.all():
        bad = np.asarray(values)[~np.asarray(ok)]
        if not bad.size:  # a wrong dtype on an empty array: no value to name
            raise ValueError(
                f"{name} must be {bound}, got an empty {np.asarray(values).dtype} array")
        # tolist: the Python value, not the repr of a numpy scalar
        raise ValueError(f"{name} must be {bound}, got {bad.ravel()[:1].tolist()[0]!r}")


# np.where and ndarray.all that also take the Python scalars of sense_point.
def _where(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _all(ok) -> bool:
    return bool(ok.all() if isinstance(ok, np.ndarray) else ok)


def _sense(profile, r_on, ratio_ideal, n, v_read, toggles, engine):
    """sense_grid's kernel, on valid inputs: r_on and n are float arrays
    of one shape, or Python scalars as sense_point passes them."""
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
    if engine == "lumped":
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


def sense_grid_reference(
    profile: TechnologyProfile,
    r_on,
    ratio_ideal: float,
    n_cells,
    v_read: float,
    toggles: FactorToggles = FactorToggles(),
    engine: str = "lumped",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """model.sense_grid as it was before its reduction checks: the same
    arrays and errors, except that 0-d inputs give numpy or Python scalars
    in place of 0-d float64 arrays."""
    if np.ndim(v_read):  # one read voltage per call; ratio_ideal may be a sequence
        raise ValueError(f"v_read must be a number, got {v_read!r}")
    if isinstance(ratio_ideal, (list, tuple)):
        ratio_ideal = np.asarray(ratio_ideal, dtype=float)
    _require("v_read", v_read, np.isfinite(v_read) & (v_read > 0), "finite and > 0")
    _require("ratio_ideal", ratio_ideal, np.isfinite(ratio_ideal) & (ratio_ideal >= 1),
             "finite and >= 1")
    r_on, n = np.broadcast_arrays(np.asarray(r_on, dtype=float), np.asarray(n_cells))
    _require("r_on", r_on, np.isfinite(r_on) & (r_on > 0), "finite and > 0")
    _require("n_cells", n, np.array(n.dtype.kind in "iu"), "integers")
    _require("n_cells", n, n >= 1, ">= 1")
    if isinstance(ratio_ideal, np.ndarray):  # all four results take the broadcast shape
        r_on, n, _ = np.broadcast_arrays(r_on, n, ratio_ideal)
    # Overflow and underflow are reported as SolverError, not as warnings; n is
    # converted as Python's int * float does, exactly below 2**53.
    with np.errstate(all="ignore"):
        grid = _sense(profile, r_on, ratio_ideal, n.astype(float), v_read, toggles, engine)
    i_on, i_off, ratio, margin = grid
    ok = (i_off > 0) & (i_on >= i_off) & (ratio >= 1.0)
    ok &= (margin > 0.0) & (margin <= 1.0 + 1e-9)
    if not ok.all():
        # Rebuilding the first offending point raises the message of the
        # invariant it breaks.
        at = int(np.argmin(ok))
        SenseResult(*(float(a.flat[at]) for a in grid))
    return grid

