"""The model's input domain, one outcome per input class on every entry point.

Each entry point that takes R_on, k, n or V_read, or a sequence of them, is
fed the same classes of input, a sequence as a one-value list and as a
one-value tuple.  An invalid one raises the same ValueError, with the same
message, on every route; a valid one acts as its plain Python equivalent.
"""

import math

import numpy as np
import pytest

from crossbar_margin import (
    CellSpec,
    ReadSetup,
    SweepSpec,
    ablation_series,
    argmax_resistance,
    compensation_curve,
    find_optimal_range,
    read_power_ratio,
    sense_grid,
)
from crossbar_margin.oracle import ColumnNetwork

GRID = (1e4, 3e4, 1e5, 3e5)


def _arrays(grid):
    return [a.tolist() for a in grid]


def _curve(curve):
    return curve.label, curve.x, curve.y


def _curves(series):
    return [(label, *_curve(curve)) for label, curve in series]


def routes(p):
    """Per input, each entry point as a function of that input's value, all other
    inputs valid, returning a comparable view of its result."""
    table = {
        "r_on": {
            "CellSpec": lambda r: CellSpec(r, 10.0),
            "sense_grid": lambda r: _arrays(sense_grid(p, r, 10.0, 64, 0.2)),
            "ablation_series": lambda r: _curves(ablation_series(
                p, CellSpec(r, 10.0), ReadSetup(0.2, 64), GRID)),
        },
        "ratio_ideal": {
            "CellSpec": lambda k: CellSpec(1e4, k),
            "sense_grid": lambda k: _arrays(sense_grid(p, 1e4, k, 64, 0.2)),
            "SweepSpec": lambda k: SweepSpec((1e4,), (64,), (0.2,), k),
            "find_optimal_range": lambda k: find_optimal_range(p, k, 64, 0.2, 0.8, GRID),
            "argmax_resistance": lambda k: argmax_resistance(p, k, 64, 0.2, GRID),
            "compensation_curve": lambda k: _curve(compensation_curve(p, k, 64, 0.2, 0.4, GRID)),
            "ablation_series": lambda k: _curves(ablation_series(
                p, CellSpec(1e4, k), ReadSetup(0.2, 64), GRID)),
        },
        "n_cells": {
            "ReadSetup": lambda n: ReadSetup(0.2, n),
            "sense_grid": lambda n: _arrays(sense_grid(p, 1e4, 10.0, n, 0.2)),
            "find_optimal_range": lambda n: find_optimal_range(p, 10.0, n, 0.2, 0.8, GRID),
            "argmax_resistance": lambda n: argmax_resistance(p, 10.0, n, 0.2, GRID),
            "compensation_curve": lambda n: _curve(compensation_curve(p, 10.0, n, 0.2, 0.4, GRID)),
            "ablation_series": lambda n: _curves(ablation_series(
                p, CellSpec(1e4, 10.0), ReadSetup(0.2, n), GRID)),
            "ColumnNetwork": lambda n: ColumnNetwork(n, 2.5, 2e4, 4e-11, 1, 0.2),
        },
        "selected_index": {
            "ColumnNetwork": lambda s: ColumnNetwork(64, 2.5, 2e4, 4e-11, s, 0.2),
        },
        "v_read": {
            "ReadSetup": lambda v: ReadSetup(v, 64),
            "sense_grid": lambda v: _arrays(sense_grid(p, 1e4, 10.0, 64, v)),
            "find_optimal_range": lambda v: find_optimal_range(p, 10.0, 64, v, 0.8, GRID),
            "argmax_resistance": lambda v: argmax_resistance(p, 10.0, 64, v, GRID),
            "compensation_curve.v_base": lambda v: _curve(
                compensation_curve(p, 10.0, 64, v, 0.4, GRID)),
            "compensation_curve.v_alt": lambda v: _curve(
                compensation_curve(p, 10.0, 64, 0.2, v, GRID)),
            "ablation_series": lambda v: _curves(ablation_series(
                p, CellSpec(1e4, 10.0), ReadSetup(v, 64), GRID)),
            "read_power_ratio.v_alt": lambda v: read_power_ratio(v, 0.2),
            "read_power_ratio.v_base": lambda v: read_power_ratio(0.4, v),
        },
    }
    # The entry points that take a sequence, as functions of that sequence.
    sequences = {
        "r_on": {
            "sense_grid": lambda rs: _arrays(sense_grid(p, rs, 10.0, 64, 0.2)),
            "SweepSpec": lambda rs: SweepSpec(rs, (64,), (0.2,), 10.0),
            "find_optimal_range": lambda rs: find_optimal_range(p, 10.0, 64, 0.2, 0.8, rs),
            "argmax_resistance": lambda rs: argmax_resistance(p, 10.0, 64, 0.2, rs),
            "compensation_curve": lambda rs: _curve(compensation_curve(p, 10.0, 64, 0.2, 0.4, rs)),
            "ablation_series": lambda rs: _curves(ablation_series(
                p, CellSpec(1e4, 10.0), ReadSetup(0.2, 64), rs)),
        },
        "ratio_ideal": {
            "sense_grid": lambda ks: _arrays(sense_grid(p, 1e4, ks, 64, 0.2)),
        },
        "n_cells": {
            "sense_grid": lambda ns: _arrays(sense_grid(p, 1e4, 10.0, ns, 0.2)),
            "SweepSpec": lambda ns: SweepSpec((1e4,), ns, (0.2,), 10.0),
        },
        "v_read": {
            "SweepSpec": lambda vs: SweepSpec((1e4,), (64,), vs, 10.0),
        },
    }
    for name, calls in sequences.items():
        for route, call in calls.items():
            for kind in (list, tuple):
                table[name][f"{route}[{kind.__name__}]"] = (
                    lambda value, call=call, kind=kind: call(kind([value])))
    return table


class Same:
    """The outcome of a valid input: that of `value` on the same route."""

    def __init__(self, value):
        self.value = value


TYPE_RULE = {"r_on": "a number", "ratio_ideal": "a number", "n_cells": "integers",
             "v_read": "a number", "selected_index": "integers"}
BOUND = {"r_on": "finite and > 0", "ratio_ideal": "finite and >= 1", "n_cells": ">= 1",
         "v_read": "finite and > 0", "selected_index": ">= 1"}
# (id, value, the Python value an error names, whether it breaks the type rule
# of a number and of an integer)
COMMON = [
    ("bool", True, True, True, True),
    ("numpy-bool", np.True_, True, True, True),
    ("str", "64", "64", True, True),
    ("None", None, None, True, True),
    ("nan", math.nan, math.nan, False, True),
    ("inf", math.inf, math.inf, False, True),
    ("-inf", -math.inf, -math.inf, False, True),
    ("zero", 0, 0, False, False),
    ("negative", -3, -3, False, False),
]


def _message(name, named, breaks_type):
    rule = TYPE_RULE[name] if breaks_type else BOUND[name]
    return f"{name} must be {rule}, got {named!r}"


CASES = [
    (name, cid, value, _message(name, named, by_type[TYPE_RULE[name] == "integers"]))
    for name in TYPE_RULE
    for cid, value, named, *by_type in COMMON
] + [
    ("ratio_ideal", "half", 0.5, "ratio_ideal must be finite and >= 1, got 0.5"),
    ("ratio_ideal", "2**64", 2**64, Same(float(2**64))),
    ("n_cells", "2.5", 2.5, "n_cells must be integers, got 2.5"),
    ("n_cells", "64.0", 64.0, "n_cells must be integers, got 64.0"),
    ("n_cells", "np.int64", np.int64(64), Same(64)),
    ("n_cells", "2**64", 2**64, "n_cells must be integers, got 18446744073709551616"),
    ("selected_index", "2.0", 2.0, "selected_index must be integers, got 2.0"),
    ("selected_index", "np.int64", np.int64(64), Same(64)),
    ("selected_index", "past-n", 65, "selected_index must lie in [1, 64], got 65"),
    ("selected_index", "2**64", 2**64,
     "selected_index must be integers, got 18446744073709551616"),
]
# (input, case id, route) -> the outcome where a route may differ from the rest: none.
EXCEPTIONS = {}


@pytest.mark.parametrize("name, cid, value, want", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_one_outcome_on_every_route(profile22, name, cid, value, want):
    for route, call in routes(profile22)[name].items():
        outcome = EXCEPTIONS.get((name, cid, route), want)
        if isinstance(outcome, Same):
            assert call(value) == call(outcome.value), route
            continue
        with pytest.raises(ValueError) as info:
            call(value)
        assert (type(info.value), str(info.value)) == (ValueError, outcome), route


def test_setup_keeps_a_numpy_integer_n_as_int():
    for n in (np.int64(64), np.uint16(64)):
        assert type(ReadSetup(0.2, n).n_cells) is int
        net = ColumnNetwork(n, 2.5, 2e4, 4e-11, n, 0.2)
        assert (type(net.n_cells), type(net.selected_index)) == (int, int)
