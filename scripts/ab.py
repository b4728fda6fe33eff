#!/usr/bin/env python3
"""In-process A/B timing of scripts/bench.py's cases: a parent revision against this checkout.

    python3 scripts/ab.py --parent REV [--rounds N] [--case PATTERN]

Extracts REV's src/crossbar_margin with `git archive` (no network) into a
temporary directory, and imports it and this checkout's src/crossbar_margin
in one interpreter under two distinct package names (the package's own
imports are relative).  bench.py is loaded once per tree, with its
crossbar_margin imports bound to that tree, and its in-process case list
(in_process_cases) is built for each.  PATTERN is an fnmatch pattern on the
case names (default: every case).

Every round times each case on both sides, the parent first in odd rounds
and the change first in even ones.  A side's time in a round is the best of
LOOPS timeit loops, each of one loop count per case (calibrated once, to
about LOOP_SECONDS on the change).  The JSON printed on stdout has, per
case, the in_process schema of the BENCH_*.json files: parent_min_us and
change_min_us (each side's least per-call time over the rounds),
min_change_pct (the change between those), median_round_change_pct (the
median of the rounds' changes), rounds_slower (rounds in which the change
was slower) and rounds.

What it cannot see: import time, and cache effects across processes (the
first calls in a fresh interpreter, the allocator and cache state that a
workload leaves behind).  The two trees also share one interpreter, so each
runs in the other's wake.  perfbench/run.py's alternated end-to-end pairs
stay the gate for a claim.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import timeit
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "scripts" / "bench.py"
PACKAGE = "crossbar_margin"
LOOP_SECONDS = 0.01
LOOPS = 3


def extract(rev: str, into: Path) -> Path:
    """REV's src/crossbar_margin, extracted under into; returns the src directory."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, f"src/{PACKAGE}"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def import_tree(src: Path, name: str) -> ModuleType:
    """src/crossbar_margin imported as the package `name`, every module of it included."""
    root = src / PACKAGE
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]  # a tree imported earlier under this name
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(root.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{name}.{path.stem}")
    return package


def load_bench(package: str, side: str) -> ModuleType:
    """bench.py as the module bench_<side>, its crossbar_margin imports bound to `package`."""
    aliases = {PACKAGE + key[len(package):]: module for key, module in list(sys.modules.items())
               if key == package or key.startswith(package + ".")}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{side}", BENCH)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
    return bench


def best_per_call(fn, number: int) -> float:
    return min(timeit.Timer(fn).repeat(repeat=LOOPS, number=number)) / number


def compare(parent_src: Path, change_src: Path, rounds: int, pattern: str = "*",
            log=None) -> dict[str, dict]:
    """The in_process record of every case whose name matches pattern, the tree at
    parent_src against the tree at change_src."""
    sides = {}
    with contextlib.ExitStack() as stack:
        for side, src in (("parent", parent_src), ("change", change_src)):
            import_tree(src, f"_ab_{side}_{PACKAGE}")
            bench = load_bench(f"_ab_{side}_{PACKAGE}", side)
            outdir = stack.enter_context(tempfile.TemporaryDirectory())
            sides[side] = {name: fn for name, fn in bench.in_process_cases(outdir)
                           if fnmatch.fnmatchcase(name, pattern)}
        names = [name for name in sides["change"] if name in sides["parent"]]
        numbers = {}
        for name in names:
            once = max(timeit.Timer(sides["change"][name]).timeit(1), 1e-9)
            numbers[name] = max(1, int(LOOP_SECONDS / once))
        times = {name: {"parent": [], "change": []} for name in names}
        for round_ in range(1, rounds + 1):
            order = ("parent", "change") if round_ % 2 else ("change", "parent")
            for name in names:
                for side in order:
                    times[name][side].append(best_per_call(sides[side][name], numbers[name]))
            if log:
                log(f"round {round_}/{rounds} done")
    return {name: summarize(times[name]["parent"], times[name]["change"]) for name in names}


def summarize(parent: list[float], change: list[float]) -> dict:
    """The in_process schema from the two sides' per-round per-call times (seconds)."""
    changes = [100.0 * (c / p - 1.0) for p, c in zip(parent, change)]
    return {
        "parent_min_us": round(1e6 * min(parent), 2),
        "change_min_us": round(1e6 * min(change), 2),
        "min_change_pct": round(100.0 * (min(change) / min(parent) - 1.0), 1),
        "median_round_change_pct": round(statistics.median(changes), 1),
        "rounds_slower": sum(c > p for p, c in zip(parent, change)),
        "rounds": len(changes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--rounds", type=int, default=20, help="alternated rounds")
    parser.add_argument("--case", default="*", help="fnmatch pattern on bench.py case names")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tree:
        parent_src = extract(args.parent, Path(tree))
        record = compare(parent_src, ROOT / "src", args.rounds, args.case,
                         log=lambda line: print(line, file=sys.stderr))
    if not record:
        parser.error(f"no bench.py case matches {args.case!r}")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
