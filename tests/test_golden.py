"""Golden outputs: the preset studies and the validation table, byte for byte.

The expected sha256 digests live in perfbench/golden_digests.json, which
the benchmark checks too; this test reads them and never rewrites them.
A refactor that changes any number in fig3..fig6 or in
``validate --grid full --csv`` fails here, with the Grid text memo of
crossbar_margin.results emptied first or filled by an earlier run.
"""

import hashlib
import json
from pathlib import Path

import pytest

from crossbar_margin import analysis, results
from crossbar_margin.cli import run_cli

GOLDEN_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "golden_digests.json"
FIGURES = ("fig3", "fig4", "fig5", "fig6")


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_figures_and_validation_match_golden_digests(tmp_path, capsys, memo):
    """cold: the memo emptied; warm: every figure written once before, into another directory."""
    golden = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
    results._GRID_TEXTS.clear()
    outdir = tmp_path / "out"
    if memo == "warm":
        for command in FIGURES:
            assert run_cli([command, "--outdir", str(tmp_path / "warm")]) == 0
    for command in FIGURES:
        assert run_cli([command, "--outdir", str(outdir)]) == 0
    csv_path = outdir / "validate.csv"
    assert run_cli(["validate", "--grid", "full", "--csv", str(csv_path)]) == 0
    capsys.readouterr()

    written = sorted(p.name for p in outdir.iterdir())
    assert written == sorted(golden)
    for name in written:
        digest = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        assert digest == golden[name], f"{name} differs from its golden digest"


def test_figures_check_no_grid_again(tmp_path, capsys, monkeypatch):
    """The figures run on the package's Grids, which were checked when built."""
    def unexpected_check(name, grid):
        raise AssertionError(f"{name} checked again")

    monkeypatch.setattr(analysis, "_check_grid", unexpected_check)
    golden = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
    for command in FIGURES:
        assert run_cli([command, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    for path in tmp_path.iterdir():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == golden[path.name], path.name
