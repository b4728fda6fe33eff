"""In-memory span tracer wrapped around the package's public functions.

The tracer records one span per call at each layer boundary: name,
start, end, parent span and the task (request) it belongs to.  Spans go
into flat typed arrays so a run of a few million spans stays small; they
are written out once, when the run ends.  Self time of a span is its
duration minus the durations of its direct children.

Wrapping works from outside the package: every module attribute under
``crossbar_margin`` that is the original function object is replaced by
the wrapper, so calls between modules (analysis -> model, figures ->
svg, ...) are traced too, and uninstall() puts the originals back.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, function) -> span name.  The span name is "<layer>.<function>".
SPANNED = (
    ("model", "read_currents"),
    ("analysis", "sweep_grid"),
    ("analysis", "find_optimal_range"),
    ("analysis", "argmax_resistance"),
    ("analysis", "ablation_series"),
    ("analysis", "compensation_curve"),
    ("oracle", "oracle_margin"),
    ("oracle", "build_column"),
    ("oracle", "solve_column"),
    ("oracle", "kcl_residuals"),
    ("oracle", "kvl_loop_residual"),
    ("oracle", "compare_lumped_distributed"),
    ("figures", "write_fig3"),
    ("figures", "write_fig4"),
    ("figures", "write_fig5"),
    ("figures", "write_fig6"),
    ("svg", "render_plot"),
    ("results", "write_csv"),
)
# Called once per model point; a span each would double the trace, so
# these boundaries record a call count only.
COUNTED = (("model", "leakage_at"),)

PACKAGE = "crossbar_margin"


def _file_bytes(args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


def _solution_bytes(args, kwargs, sol):
    # Computed from the solution's array sizes, not measured traffic.
    return (sol.bl_voltages.nbytes + sol.sl_voltages.nbytes
            + sol.bl_segment_currents.nbytes + sol.sl_segment_currents.nbytes)


# span name -> (counter name, function of (args, kwargs, result) giving bytes)
BYTE_COUNTERS = {
    "svg.render_plot": ("svg.render_plot.bytes", lambda a, k, r: _file_bytes(a, k)),
    "results.write_csv": ("results.write_csv.bytes", lambda a, k, r: _file_bytes(a, k)),
    "oracle.solve_column": ("oracle.solve_column.bytes_computed", _solution_bytes),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.task_id = -1
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        """Append a span, child of the innermost open span, and open it."""
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.task.append(self.task_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def run_task(self, name: str, fn):
        """Run fn() as the root span of a new task."""
        self.task_id += 1
        idx = self._open(self._id(name))
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _spanned(self, name: str, fn):
        nid = self._id(name)
        counter = BYTE_COUNTERS.get(name)
        stack, start, end = self.stack, self.start, self.end
        counters = self.counters

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                key, measure = counter
                counters[key] = counters.get(key, 0) + measure(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counters = self.counters
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every reference to a traced function inside the package."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        targets = [(layer, fn, self._spanned) for layer, fn in SPANNED]
        targets += [(layer, fn, self._counted) for layer, fn in COUNTED]
        for layer, fn_name, make in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn_name)
            wrapper = make(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self time in seconds)."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span: name table plus one row per span."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
