"""Tests of scripts/scaling_report.py: one row and one R_on sweep per size."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

import crossbar_margin
from crossbar_margin import analysis
from crossbar_margin.analysis import DEFAULT_N_GRID
from crossbar_margin.model import _sensed

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


def test_scaling_report_sweeps_the_grid_once_per_size(monkeypatch, capsys):
    sizes = []

    def counting(profile, r_on, *args, **kwargs):
        sizes.append(np.size(r_on))
        return _sensed(profile, r_on, *args, **kwargs)

    monkeypatch.setattr(analysis, "_sensed", counting)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert sizes == [200] * len(DEFAULT_N_GRID)
