"""Smoke test of scripts/bench.py: one repetition, every layer reported; and its cases
for a tree without model._sensed and for fig5's table on fresh grids."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from crossbar_margin import results
from crossbar_margin.analysis import DEFAULT_R_ON_GRID, Grid

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_script_reports_every_layer(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeat", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {"facts", "repeat", "cases", "accuracy"}
    assert set(record["facts"]) == {"python", "numpy", "cpu_model", "nproc", "platform"}
    cases = record["cases"]
    assert {case["layer"] for case in cases.values()} == {
        "model", "oracle", "analysis", "figures", "cli"
    }
    for case in cases.values():
        assert {"median_s", "iqr_s", "number", "runs", "layer"} <= set(case)
        assert case["median_s"] > 0 and case["runs"] == 1
    for fig in ("fig3", "fig4", "fig5", "fig6"):
        for part in ("", ".write_csv", ".render_plot"):
            assert f"figures.{fig}{part}" in cases
        assert "compute_median_s" in cases[f"figures.{fig}"]
    assert cases["figures.fig5.write_csv.fresh_grid"]["layer"] == "figures"
    for name in ("build_parser", "interp_start", "import_numpy", "import_package", "margin_wall"):
        assert f"cli.{name}" in cases
    for engine in ("lumped", "oracle"):
        assert f"model.sense_grid.row.{engine}" in cases
    for name in ("row", "plane4"):
        assert cases[f"model._sensed.{name}"]["layer"] == "model"
    for name in ("find_optimal_range", "argmax_resistance", "sweep_grid", "sweep_grid.toggles4",
                 "ablation_series", "compensation_curve", "MarginCurve", "SweepSpec"):
        assert cases[f"analysis.{name}"]["layer"] == "analysis"
    for name in ("find_optimal_range", "argmax_resistance", "ablation_series",
                 "compensation_curve", "MarginCurve", "SweepSpec"):
        assert cases[f"analysis.{name}.tuple_grid"]["layer"] == "analysis"
    for name in ("find_optimal_range", "argmax_resistance"):
        assert cases[f"analysis.{name}.list_grid"]["layer"] == "analysis"
    for n in (64, 1024, 16384):
        assert cases[f"oracle.compare_lumped_distributed.n{n}"]["layer"] == "oracle"
    for n in (256, 1024, 4096, 16384):
        for stage in ("oracle_margin", "build_column", "solve_column", "node_voltages",
                      "kcl_residuals", "kvl_loop_residual"):
            assert cases[f"oracle.{stage}.n{n}"]["layer"] == "oracle"
    gaps = record["accuracy"]["gap_max_pct"]
    assert list(gaps) == ["64", "128", "256", "512", "1024", "2048", "4096", "8192", "16384"]
    assert 0.0 <= gaps["1024"] < gaps["16384"] < 5.0


def test_a_tree_without_sensed_leaves_out_its_two_cases(monkeypatch):
    bench = load_bench()
    monkeypatch.delattr(bench.model, "_sensed")
    names = [name for name, _ in bench.model_cases(bench.load_bundled_profile())]
    assert names == ["model.read_currents", "model.sense_grid", "model.sense_grid.row.lumped",
                     "model.sense_grid.row.oracle"]


def test_the_fresh_grid_case_writes_fig5s_table_through_a_new_grid_per_call(tmp_path,
                                                                           monkeypatch):
    bench = load_bench()
    cases = dict(bench.figure_cases(bench.load_bundled_profile(), tmp_path))
    golden = json.loads((ROOT / "perfbench" / "golden_digests.json").read_text(encoding="utf-8"))
    tables, write_csv = [], results.write_csv
    monkeypatch.setattr(results, "write_csv", lambda t, path: tables.append(t) or write_csv(t, path))
    for _ in range(2):
        cases["figures.fig5.write_csv.fresh_grid"]()
        digest = hashlib.sha256((tmp_path / "fig5.csv").read_bytes()).hexdigest()
        assert digest == golden["fig5.csv"]
    # each call's blocks share one grid, equal to the package's and new on each call
    grids = [{id(e): e for block in t.blocks for e in block if isinstance(e, Grid)} for t in tables]
    assert [len(g) for g in grids] == [1, 1]
    (first,), (second,) = (g.values() for g in grids)
    assert first == second == DEFAULT_R_ON_GRID
    assert len({id(first), id(second), id(DEFAULT_R_ON_GRID)}) == 3
