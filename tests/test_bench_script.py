"""Smoke test of scripts/bench.py: one repetition, every layer reported."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


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
    for name in ("build_parser", "interp_start", "import_numpy", "import_package", "margin_wall"):
        assert f"cli.{name}" in cases
    for engine in ("lumped", "oracle"):
        assert f"model.sense_grid.row.{engine}" in cases
    for name in ("find_optimal_range", "argmax_resistance", "sweep_grid", "ablation_series",
                 "compensation_curve", "MarginCurve"):
        assert cases[f"analysis.{name}"]["layer"] == "analysis"
    for name in ("find_optimal_range", "argmax_resistance", "ablation_series",
                 "compensation_curve", "MarginCurve"):
        assert cases[f"analysis.{name}.tuple_grid"]["layer"] == "analysis"
    for n in (64, 1024, 16384):
        assert cases[f"oracle.compare_lumped_distributed.n{n}"]["layer"] == "oracle"
    gaps = record["accuracy"]["gap_max_pct"]
    assert list(gaps) == ["64", "128", "256", "512", "1024", "2048", "4096", "8192", "16384"]
    assert 0.0 <= gaps["1024"] < gaps["16384"] < 5.0
