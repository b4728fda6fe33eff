"""Tests of scripts/ab.py, the in-process A/B timing of scripts/bench.py's cases."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab.py"
SCHEMA = {"parent_min_us": float, "change_min_us": float, "min_change_pct": float,
          "median_round_change_pct": float, "rounds_slower": int, "rounds": int}
# Two copies of one tree, timed alternately, read within this band of each other.
SAME_CODE_BAND_PCT = 25.0


def load_ab():
    spec = importlib.util.spec_from_file_location("ab_script", SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def assert_schema(record, rounds):
    assert record
    for case in record.values():
        assert set(case) == set(SCHEMA)
        assert all(isinstance(case[key], kind) for key, kind in SCHEMA.items())
        assert case["rounds"] == rounds and 0 <= case["rounds_slower"] <= rounds
        assert case["parent_min_us"] > 0 and case["change_min_us"] > 0


def test_head_against_head_prints_the_in_process_schema():
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--rounds", "2",
         "--case", "model.sense_grid.row.*"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert list(record) == ["model.sense_grid.row.lumped", "model.sense_grid.row.oracle"]
    assert_schema(record, 2)


def test_a_case_matched_by_nothing_is_a_usage_error():
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    proc = subprocess.run([sys.executable, str(SCRIPT), "--parent", "HEAD", "--rounds", "1",
                           "--case", "no.such.case"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "no bench.py case matches 'no.such.case'" in proc.stderr


def test_the_same_tree_reads_within_the_band():
    record = load_ab().compare(ROOT / "src", ROOT / "src", 5, "model.*")
    assert "model._sensed.row" in record and "model._sensed.plane4" in record
    assert_schema(record, 5)
    for name, case in record.items():
        assert abs(case["median_round_change_pct"]) < SAME_CODE_BAND_PCT, (name, case)


def test_a_case_slowed_on_purpose_reads_slower(tmp_path):
    # A copy of the tree whose sense_point does its work twice.
    shutil.copytree(ROOT / "src" / "crossbar_margin", tmp_path / "crossbar_margin",
                    ignore=shutil.ignore_patterns("__pycache__"))
    model = tmp_path / "crossbar_margin" / "model.py"
    source = model.read_text(encoding="utf-8")
    slowed = source.replace("    return SenseResult(*_sense(",
                            "    _sense(profile, cell.r_on, cell.ratio_ideal, setup.n_cells,"
                            " setup.v_read, setup.toggles, engine)\n"
                            "    return SenseResult(*_sense(")
    assert slowed != source
    model.write_text(slowed, encoding="utf-8")
    record = load_ab().compare(ROOT / "src", tmp_path, 5, "model.read_currents")
    case = record["model.read_currents"]
    assert case["rounds_slower"] >= 4 and case["median_round_change_pct"] > 20.0, case
