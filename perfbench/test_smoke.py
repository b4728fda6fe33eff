"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that corrupted package outputs are counted as failed tasks, that a
clean pass has none, that BENCHMARK.json names exactly the metrics the
runner prints, and that the runner refuses to run without the package
source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from crossbar_margin import analysis, figures, oracle, profile_io  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    return workloads.make_context(tmp_path, profile_io.load_bundled_profile())


def one_pass(tasks):
    return run.run_phase(lambda: tasks, seconds=0.0)


def test_clean_passes_have_no_failures(ctx):
    for name in ("design-space", "oracle-validation", "paper-figures"):
        phase = one_pass(workloads.build(name, ctx, seed=3, index=1))
        assert phase.failed == 0, phase.failures
        assert phase.points > 0 and phase.passes == 1


def test_each_pass_draws_its_own_inputs(ctx):
    def first_sweep(seed, index):
        return workloads.build("design-space", ctx, seed, index)[0].run()[0].y

    assert first_sweep(3, 1) == first_sweep(3, 1)
    assert first_sweep(3, 1) != first_sweep(3, 2)
    assert first_sweep(3, 1) != first_sweep(4, 1)


def test_perturbed_margin_counts_in_failed_ratio(ctx, monkeypatch):
    original = analysis.read_currents

    def perturbed(profile, cell, setup):
        result = original(profile, cell, setup)
        return replace(result, margin_normalized=result.margin_normalized * (1 - 1e-6))

    monkeypatch.setattr(analysis, "read_currents", perturbed)
    tasks = workloads.build("design-space", ctx, seed=3, index=1)
    phase = one_pass(tasks)
    # Tasks returning margin curves fail; a uniform 1e-6 shrink leaves the
    # argmax and the 1 %-resolution range answers unchanged, so those pass.
    curves = [t for t in tasks
              if t.kind in ("sweep_grid", "ablation_series", "compensation_curve")]
    assert phase.failed == len(curves) > 0
    metrics = run.end_to_end_metrics([1.0], phase, tasks, 1024.0)
    assert metrics["success_ratio"] == 1 - len(curves) / len(tasks)


def test_corrupted_figure_file_counts_in_failed_ratio(ctx, monkeypatch):
    original = figures.write_csv

    def corrupting(table, path):
        original(table, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")

    monkeypatch.setattr(figures, "write_csv", corrupting)
    tasks = workloads.build("paper-figures", ctx, seed=0, index=1)
    phase = one_pass(tasks)
    # The four figure tasks write through figures.write_csv; validate does not.
    assert phase.failed == 4
    assert all("golden digest" in message for message in phase.failures)
    metrics = run.end_to_end_metrics([1.0], phase, tasks, 1024.0)
    assert metrics["success_ratio"] == 1 / 5
    # Only the validate task completed, so only its points count.
    assert metrics["points_per_s"] == 200 / phase.latencies[-1]


def test_silently_dropped_slice_is_counted(ctx, monkeypatch):
    original = analysis.sweep_grid
    monkeypatch.setattr(analysis, "sweep_grid", lambda spec, profile: original(spec, profile)[:-1])
    tasks = workloads.build("design-space", ctx, seed=3, index=1)
    phase = one_pass(tasks)
    sweeps = [t for t in tasks if t.kind == "sweep_grid"]
    assert phase.dropped_slices == len(sweeps) > 0
    assert phase.failed == len(sweeps)


def test_wrong_kirchhoff_residual_counts_in_failed_ratio(ctx, monkeypatch):
    original = oracle.kcl_residuals
    monkeypatch.setattr(oracle, "kcl_residuals", lambda net, sol: original(net, sol) + 1e-9)
    tasks = workloads.build("oracle-validation", ctx, seed=3, index=1)
    phase = one_pass(tasks)
    networks = [t for t in tasks if t.kind == "network_residuals"]
    assert phase.failed == len(networks) > 0
    assert all("KCL residual" in message for message in phase.failures)


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = run.per_layer_units(workloads.ORACLE_N_GRID)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_trace_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle-validation", "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_units(workloads.ORACLE_N_GRID))


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-space", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
