"""Benchmark runner for crossbar-margin.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a closed loop with a single client (one process, one
thread) for S seconds and prints every metric by name and unit.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes that record spans around the package's public
functions, and reports the per-layer metrics (per pass of the workload)
plus the tracing overhead between the two kinds of pass.

The package is imported from src/ of the checkout this file lives in;
the run exits with status 2, printing no result, when that tree is
missing.  Result files, span dumps and scratch outputs go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("design-space", "oracle-validation", "paper-figures")
# Fresh interpreters per run for setup_s, spread evenly over the timed
# passes; the median is reported.
SETUP_RUNS = 9
# Rounds of in-process CLI calls behind cli.compute_ms.
COMPUTE_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

CALLS = ("model.read_currents", "oracle.oracle_margin", "oracle.build_column",
         "oracle.solve_column", "oracle.kcl_residuals", "oracle.kvl_loop_residual",
         "oracle.compare_lumped_distributed", "svg.render_plot", "results.write_csv")
SELF_MS = ("model.read_currents", "analysis.sweep_grid", "analysis.find_optimal_range",
           "analysis.argmax_resistance", "analysis.ablation_series",
           "analysis.compensation_curve", "oracle.oracle_margin", "oracle.build_column",
           "oracle.solve_column", "oracle.kcl_residuals", "oracle.kvl_loop_residual",
           "oracle.compare_lumped_distributed", "figures.write_fig3", "figures.write_fig4",
           "figures.write_fig5", "figures.write_fig6", "svg.render_plot", "results.write_csv")
COUNTERS = {
    "model.leakage_at.calls": "count",
    "oracle.solve_column.bytes_computed": "B",
    "svg.render_plot.bytes": "B",
    "results.write_csv.bytes": "B",
}
CLI_SPLIT = ("cli.interp_start_ms", "cli.import_numpy_ms", "cli.import_ms",
             "cli.interp_exit_ms")


def per_layer_units(gap_ns) -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_ms": "ms" for name in SELF_MS})
    units.update(COUNTERS)
    units["analysis.evals_per_point"] = "ratio"
    units["analysis.sweep_grid.dropped_slices"] = "count"
    units["profile_io.load_bundled_profile.self_ms"] = "ms"
    units.update({name: "ms" for name in CLI_SPLIT})
    units["cli.compute_ms"] = "ms"
    units.update({f"oracle.gap_max_n{n}": "%" for n in gap_ns})
    units["trace.overhead_pct"] = "%"
    return units


@dataclass
class Phase:
    """Outcome of one timed phase of the closed loop (whole passes)."""

    latencies: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    points: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    dropped_slices: int = 0
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def per_task(self, n_tasks: int) -> list[float | None]:
        """Latency of each task position: its fastest successful repetition.

        None where a position never succeeded.
        """
        times = []
        for j in range(n_tasks):
            good = [x for x, ok in zip(self.latencies[j::n_tasks], self.ok[j::n_tasks]) if ok]
            times.append(min(good) if good else None)
        return times

    def add(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.ok += other.ok
        self.points += other.points
        self.failed += other.failed
        self.failures += other.failures[: max(0, 20 - len(self.failures))]
        self.dropped_slices += other.dropped_slices
        self.passes += other.passes


def run_phase(next_pass, seconds: float, tracer=None) -> Phase:
    """Run passes, one task at a time, for `seconds`; end on a pass boundary.

    next_pass() gives the tasks of the next pass.  Each task's latency
    is the process CPU time of its call alone (see end_to_end_metrics);
    its output check runs afterwards, inside the phase but outside the
    latency.  The phase length is wall time.
    """
    phase = Phase()
    gc.collect()
    start = perf_counter()
    while True:
        for task in next_pass():
            error = out = None
            t0 = process_time()
            try:
                if tracer is None:
                    out = task.run()
                else:
                    out = tracer.run_task("task." + task.kind, task.run)
            except Exception as exc:  # a failed task is counted, the loop goes on
                error = f"{task.kind}: {type(exc).__name__}: {exc}"
            t1 = process_time()
            if error is None:
                try:
                    error = task.check(out)
                except Exception as exc:
                    error = f"{task.kind} check: {type(exc).__name__}: {exc}"
                if task.dropped is not None and out is not None:
                    phase.dropped_slices += task.dropped(out)
            phase.latencies.append(t1 - t0)
            phase.ok.append(error is None)
            if error is None:
                phase.points += task.points
            else:
                phase.failed += 1
                if len(phase.failures) < 20:
                    phase.failures.append(error)
        phase.passes += 1
        if perf_counter() - start >= seconds:
            return phase


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_once(ctx, workload: str, seed: int) -> tuple[float, dict | None, str | None]:
    """Start one fresh interpreter for set-up; its CPU time, clock marks, error."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    proc = subprocess.run(
        [ctx.python, str(HERE / "setup_child.py"), workload, str(seed), str(ctx.tmp / "setup")],
        env=ctx.env, cwd=ctx.root, capture_output=True, text=True, timeout=120)
    t1 = perf_counter()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    try:
        mark = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return cpu, None, f"setup child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    error = None
    if proc.returncode != 0 or mark["error"]:
        error = f"setup warm-up failed: {mark['error']}"
    return cpu, dict(mark, spawn=t0, end=t1), error


def cli_split(marks: list[dict]) -> dict[str, float]:
    """Median interpreter start, numpy import, package import and exit (ms)."""
    def med(a, b):
        return 1e3 * statistics.median(m[b] - m[a] for m in marks)
    return {
        "cli.interp_start_ms": med("spawn", "start"),
        "cli.import_numpy_ms": med("start", "numpy"),
        "cli.import_ms": med("start", "package"),
        "cli.interp_exit_ms": med("done", "end"),
    }


def cli_compute_ms(ctx, seed: int) -> tuple[float, list[str]]:
    """Median in-process run_cli CPU time over the seed's queries, import warm.

    Round 0 warms up; every round draws its own queries.
    """
    import workloads

    for argv in workloads.cli_argvs(seed, 0):
        workloads.run_cli_inprocess(argv)
    times, errors = [], []
    for round_index in range(1, COMPUTE_ROUNDS + 1):
        for argv in workloads.cli_argvs(seed, round_index):
            t0 = process_time()
            rc, text = workloads.run_cli_inprocess(argv)
            times.append(process_time() - t0)
            problem = f"exit {rc}" if rc else workloads.check_cli_output(ctx, argv, text)
            if problem:
                errors.append(f"cli {argv[0]}: {problem}")
    return 1e3 * statistics.median(times), errors


def provenance(seed: int, profile_dict: dict, numpy_version: str) -> dict:
    canonical = json.dumps(profile_dict, sort_keys=True, separators=(",", ":"))
    source = hashlib.sha256()
    for path in sorted((SRC / "crossbar_margin").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "profile_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end_metrics(setup_times, phase: Phase, tasks, peak_rss_kb: float) -> dict[str, float]:
    """Timings use each task position's fastest repetition in the run.

    Every pass runs the same task kinds in the same order on newly drawn
    inputs, so a position's repetitions sample one kind of work and no
    repetition can reuse an earlier one's result.  On a shared host the
    same call runs up to about 1.8x slower, for seconds at a time, while
    neighbours load the machine; the share of each run so slowed varies,
    so any middle statistic (median, 10th percentile) moves with the
    neighbours.  The fastest repetition is the call at full host speed:
    a slowdown of the program that hits every call moves it, one that
    hits only some calls does not.

    Times are CPU time (the process's for a task, the child's for a
    set-up interpreter): for these single-threaded, CPU-bound calls it
    stays close to wall time, and it leaves out time the guest runs
    other processes or the hypervisor runs other guests (steal).
    """
    done = [(m, t.points) for m, t in zip(phase.per_task(len(tasks)), tasks) if m is not None]
    times = [m for m, _ in done] or [math.inf]
    return {
        "setup_s": statistics.median(setup_times),
        "points_per_s": sum(p for _, p in done) / sum(times),
        "task_p50_ms": 1e3 * percentile(times, 0.5),
        "task_p90_ms": 1e3 * percentile(times, 0.9),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "success_ratio": (phase.attempted - phase.failed) / phase.attempted,
    }


def layer_metrics(tracer, passes: int, points: float) -> dict[str, float]:
    """Per-pass call counts, self times and counters from the tracer's spans."""
    totals = tracer.layer_totals()
    values = {}
    for name in CALLS:
        values[f"{name}.calls"] = totals.get(name, (0, 0.0))[0] / passes
    for name in SELF_MS:
        values[f"{name}.self_ms"] = 1e3 * totals.get(name, (0, 0.0))[1] / passes
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0) / passes
    evals = totals.get("model.read_currents", (0, 0))[0] + totals.get("oracle.oracle_margin", (0, 0))[0]
    values["analysis.evals_per_point"] = evals / passes / points
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "crossbar_margin" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'crossbar_margin'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: one thread

    import numpy as np
    from crossbar_margin import profile_io

    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        profile = profile_io.load_bundled_profile()
        ctx = workloads.make_context(tmp, profile)
        passes = itertools.count()

        def next_pass():
            return workloads.build(args.workload, ctx, args.seed, next(passes))

        tasks = next_pass()
        for task in tasks:  # pass 0, untimed: lazy set-up done
            task.check(task.run())
        errors: list[str] = []

        record: dict = {"workload": args.workload, "seconds": args.seconds,
                        "trace": args.trace}
        gaps: dict[int, float] = {}
        if args.workload == "oracle-validation" or args.trace:
            gaps, problem = workloads.gap_column(ctx)
            errors += [f"accuracy column: {problem}"] if problem else []
            record["accuracy_column_pct"] = {str(n): g for n, g in gaps.items()}

        # Set-up interpreters take turns with slices of the timed passes,
        # so that both see the same drift of the host's speed.
        phase, setup_times, setup_marks = Phase(), [], []
        for _ in range(SETUP_RUNS):
            cpu, mark, error = setup_once(ctx, args.workload, args.seed)
            errors += [error] if error else []
            if mark is not None:
                setup_times.append(cpu)
                setup_marks.append(mark)
            if not args.trace:
                phase.add(run_phase(next_pass, args.seconds / SETUP_RUNS))
        if not setup_times:
            raise SystemExit("\n".join(["error: no set-up run succeeded", *errors]))

        if not args.trace:
            values = end_to_end_metrics(setup_times, phase, tasks,
                                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            units = END_TO_END
            phases = [phase]
            record["passes"] = phase.passes
            record["task_fastest_ms"] = {
                f"{j}.{t.kind}": None if m is None else 1e3 * m
                for j, (t, m) in enumerate(zip(tasks, phase.per_task(len(tasks))))}
        else:
            values, phases = trace_run(args, ctx, next_pass, len(tasks), setup_marks, errors)
            values.update({f"oracle.gap_max_n{n}": g for n, g in gaps.items()})
            units = per_layer_units(gaps)

        attempted = sum(p.attempted for p in phases) + len(errors)
        failed = sum(p.failed for p in phases) + len(errors)
        failures = errors + [f for p in phases for f in p.failures]
        record.update({
            "provenance": provenance(args.seed, profile_io.profile_to_dict(profile),
                                     np.__version__),
            "setup_cpu_s": setup_times,
            "attempted": attempted,
            "failed": failed,
            "failures": failures[:20],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        })
        out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for n, g in gaps.items():
        print(f"accuracy oracle.gap_max_n{n} = {g:.6g} %")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def trace_run(args, ctx, next_pass, n_tasks: int, setup_marks, errors):
    """Per-layer metrics per traced pass, and the tracing overhead.

    Untraced and traced passes take turns, so slow drift of the host
    speed reaches both alike.
    """
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = Phase(), Phase()
    start = perf_counter()
    while perf_counter() - start < args.seconds or not traced.passes:
        untraced.add(run_phase(next_pass, 0.0))
        tracer.install()
        try:
            traced.add(run_phase(next_pass, 0.0, tracer=tracer))
        finally:
            tracer.uninstall()
    values = layer_metrics(tracer, traced.passes, traced.points / traced.passes)
    values.update(cli_split(setup_marks))
    values["analysis.sweep_grid.dropped_slices"] = traced.dropped_slices / traced.passes
    values["profile_io.load_bundled_profile.self_ms"] = 1e3 * statistics.median(
        m["profile"] - m["package"] for m in setup_marks)
    values["cli.compute_ms"], compute_errors = cli_compute_ms(ctx, args.seed)
    errors += compute_errors
    pairs = [(a, b) for a, b in zip(untraced.per_task(n_tasks), traced.per_task(n_tasks))
             if a is not None and b is not None]
    values["trace.overhead_pct"] = 100.0 * (sum(b for _, b in pairs) / sum(a for a, _ in pairs) - 1.0)
    tracer.write(OUT / f"{args.workload}.spans.npz")
    return values, [untraced, traced]


if __name__ == "__main__":
    sys.exit(main())
