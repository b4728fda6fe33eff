"""Independent closed-form reference for the correctness gate.

Reads the bundled profile file as plain JSON (not through profile_io) and
evaluates two closed forms with numpy over whole R_on arrays:

* the lumped worst-case column model,
      I_state = V / (R_state + R_T + n*r) + (n-1) * I_leak,
      margin  = (I_on / I_off) / k;
* the distributed ladder with the selected cell at the far end, which
  reduces exactly to
      I_state = (V - I_leak*r*n(n-1)/2) / (R_state + R_T + n*r) + (n-1) * I_leak.

Package outputs must agree with these to REL_TOL (relative); margin
differences (compensation gains, lumped-vs-distributed gaps) are compared
with ABS_TOL because they are differences of O(1) margins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-9
# Kirchhoff residual bounds the oracle documents for its own solutions.
KCL_TOL = 1e-12
KVL_TOL = 1e-12


@dataclass(frozen=True)
class Constants:
    r_unit: float
    r_transistor: float
    leakage: tuple[tuple[float, float], ...]

    def leak(self, v_read: float) -> float:
        """Leakage at v_read: exact table value or linear interpolation."""
        table = self.leakage
        for (v0, i0), (v1, i1) in zip(table, table[1:]):
            if v_read == v0:
                return i0
            if v0 < v_read < v1:
                return i0 + (v_read - v0) / (v1 - v0) * (i1 - i0)
        if v_read == table[-1][0]:
            return table[-1][1]
        raise ValueError(f"v_read {v_read} outside the reference leakage table")


def load_constants(profile_json: Path) -> Constants:
    data = json.loads(Path(profile_json).read_text(encoding="utf-8"))
    table = sorted((e["v_read_v"], e["i_leak_a"]) for e in data["leakage"])
    return Constants(
        r_unit=float(data["r_unit_ohm"]),
        r_transistor=float(data["r_transistor_ohm"]),
        leakage=tuple((float(v), float(i)) for v, i in table),
    )


def lumped_margin(c: Constants, r_on, k: float, n: int, v: float,
                  line: bool = True, transistor: bool = True,
                  leakage: bool = True) -> np.ndarray:
    """Normalized margin of the lumped model over an array of R_on values."""
    r_on = np.asarray(r_on, dtype=float)
    r_off = k * r_on
    series = (c.r_transistor if transistor else 0.0) + n * (c.r_unit if line else 0.0)
    leak_total = (n - 1) * (c.leak(v) if leakage else 0.0)
    if leak_total == 0.0:
        # Without leakage the current ratio is a ratio of series resistances.
        return (r_off + series) / (r_on + series) / k
    i_on = v / (r_on + series) + leak_total
    i_off = v / (r_off + series) + leak_total
    return i_on / i_off / k


def distributed_current(c: Constants, r_state, n: int, v: float) -> np.ndarray:
    """Sensed current of the distributed ladder, worst-case cell, all factors on."""
    i_leak = c.leak(v)
    r = c.r_unit
    drop = i_leak * r * float(n * (n - 1) // 2)
    return (v - drop) / (np.asarray(r_state, dtype=float) + c.r_transistor + n * r) + (n - 1) * i_leak


def distributed_margin(c: Constants, r_on, k: float, n: int, v: float) -> np.ndarray:
    r_on = np.asarray(r_on, dtype=float)
    return distributed_current(c, r_on, n, v) / distributed_current(c, k * r_on, n, v) / k


def mismatch(name: str, got, want, rel: float = REL_TOL, abs_: float = 0.0) -> str | None:
    """Describe the worst element outside tolerance, or None if all agree."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != reference {want.shape}"
    err = np.abs(got - want)
    limit = rel * np.abs(want) + abs_
    bad = ~(err <= limit)
    if not bad.any():
        return None
    i = int(np.argmax(np.where(bad, err, -1.0)))
    return f"{name}: {got.flat[i]!r} vs reference {want.flat[i]!r} at index {i}"
