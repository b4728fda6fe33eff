"""Smoke test of scripts/scaling_report.py: it runs and prints one row per size."""

import os
import subprocess
import sys
from pathlib import Path

import crossbar_margin
from crossbar_margin.analysis import DEFAULT_N_GRID

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scaling_report.py"


def test_scaling_report_prints_one_row_per_column_size():
    env = dict(os.environ, PYTHONPATH=str(Path(crossbar_margin.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == list(DEFAULT_N_GRID)
    assert all(row[-1] in ("none", "ohm") for row in rows)  # the band column ends each row
