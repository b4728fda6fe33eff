"""End-to-end tests of the command-line interface."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_golden import GOLDEN_DIGESTS

import crossbar_margin
from crossbar_margin import CellSpec, ReadSetup, analysis, cli, oracle_margin, profile_io, read_currents
from crossbar_margin.model import _sensed, sense_grid
from crossbar_margin.cli import run_cli
from crossbar_margin.profile_io import dump_profile, load_bundled_profile


@pytest.fixture()
def profile_path(tmp_path):
    path = tmp_path / "22nm.json"
    dump_profile(load_bundled_profile(), path)
    return str(path)


class TestMarginCommand:
    ARGS = ["margin", "--ron", "20e3", "--k", "10", "--n", "512", "--vread", "0.2"]

    def test_reference_point(self, capsys):
        assert run_cli(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "8.67371" in out
        assert "0.867371" in out
        assert "I_on" in out and "I_off" in out

    def test_json_output(self, capsys):
        assert run_cli(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio_effective"] == pytest.approx(8.6737, abs=1e-4)
        assert payload["margin_normalized"] == pytest.approx(0.86737, abs=1e-5)
        assert payload["i_on_a"] == pytest.approx(8.7237e-06, rel=1e-4)

    def test_explicit_profile_file(self, capsys, profile_path):
        assert run_cli(self.ARGS + ["--profile", profile_path]) == 0
        assert "0.867371" in capsys.readouterr().out

    def test_oracle_engine(self, capsys):
        assert run_cli(self.ARGS + ["--engine", "oracle"]) == 0
        assert "0.8673" in capsys.readouterr().out

    def test_toggles_reach_ideal(self, capsys):
        args = self.ARGS + [
            "--no-line-resistance",
            "--no-transistor-resistance",
            "--no-leakage",
            "--json",
        ]
        assert run_cli(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["margin_normalized"] == 1.0

    def test_oracle_past_breakdown_names_the_bound(self, capsys):
        args = ["margin", "--ron", "20e3", "--k", "10", "--n", "65536", "--vread", "0.2"]
        assert run_cli(args + ["--engine", "oracle"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "n=63246" in err

    def test_out_of_range_voltage_fails_cleanly(self, capsys):
        args = ["margin", "--ron", "20e3", "--k", "10", "--n", "512", "--vread", "0.9"]
        assert run_cli(args) == 1
        assert "error:" in capsys.readouterr().err


class TestOptimalRangeCommand:
    def test_human_output(self, capsys):
        args = ["optimal-range", "--k", "10", "--n", "1024", "--threshold", "0.8"]
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        assert "optimal R_on range" in out

    def test_json_band(self, capsys):
        args = [
            "optimal-range", "--k", "10", "--n", "1024", "--threshold", "0.8", "--json",
        ]
        assert run_cli(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 10e3 <= payload["r_low_ohm"] <= 30e3
        assert 80e3 <= payload["r_high_ohm"] <= 200e3

    def test_empty_band_reported(self, capsys):
        args = [
            "optimal-range", "--k", "10", "--n", "4096", "--threshold", "0.99", "--json",
        ]
        assert run_cli(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r_low_ohm"] is None and payload["r_high_ohm"] is None

    def test_sweeps_the_grid_once(self, capsys, monkeypatch):
        sizes = []

        def counting(entry):
            def count(profile, r_on, *args, **kwargs):
                sizes.append(np.size(r_on))
                return entry(profile, r_on, *args, **kwargs)
            return count

        # The studies run the kernel through model._sensed, the CLI through sense_grid.
        monkeypatch.setattr(analysis, "_sensed", counting(_sensed))
        monkeypatch.setattr(cli, "sense_grid", counting(sense_grid))
        assert run_cli(["optimal-range", "--k", "10", "--n", "1024", "--json"]) == 0
        assert sizes == [200, 1]  # the argmax sweep, then the margin at the peak


class TestCompensateCommand:
    def test_max_gain_printed(self, capsys, tmp_path):
        csv_path = tmp_path / "gain.csv"
        args = [
            "compensate", "--k", "10", "--n", "1024", "--valt", "0.4",
            "--csv", str(csv_path),
        ]
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        assert "0.083" in out
        assert "x4" in out  # quadratic read-power cost
        assert csv_path.exists()

    def test_svg_has_fig6_gain_axes(self, capsys, tmp_path):
        svg_path = tmp_path / "gain.svg"
        args = ["compensate", "--k", "10", "--n", "1024", "--valt", "0.4", "--svg", str(svg_path)]
        assert run_cli(args) == 0
        assert run_cli(["fig6", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()

        def axis_labels(path):  # the x and y axis titles are the font-size 12 lines
            return [line for line in path.read_text(encoding="utf-8").splitlines()
                    if 'font-size="12"' in line]

        assert axis_labels(svg_path) == axis_labels(tmp_path / "fig6.svg")
        assert [label.split(">")[1] for label in axis_labels(svg_path)] == [
            "R_on (ohm)</text", "margin gain</text"]


class TestValidateCommand:
    def test_quick_grid_passes(self, capsys, tmp_path):
        csv_path = tmp_path / "val.csv"
        args = ["validate", "--grid", "quick", "--csv", str(csv_path)]
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("r_on_ohm,")

    def test_impossible_tolerance_fails(self, capsys):
        args = ["validate", "--grid", "quick", "--tolerance", "1e-9"]
        assert run_cli(args) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_bad_tolerance_is_rejected_before_computing(self, capsys, monkeypatch, tolerance):
        def unreachable(*args):
            raise AssertionError("compared before checking --tolerance")

        monkeypatch.setattr(cli, "compare_lumped_distributed", unreachable)
        assert run_cli(["validate", "--grid", "quick", "--tolerance", tolerance]) == 1
        message = f"error: --tolerance must be >= 0, got {float(tolerance)}\n"
        assert capsys.readouterr() == ("", message)


class TestSweepCommand:
    def test_csv_and_svg_outputs(self, tmp_path, capsys):
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        args = [
            "sweep", "--k", "10", "--n", "256", "1024", "--ron-points", "10",
            "--csv", str(csv_path), "--svg", str(svg_path),
        ]
        assert run_cli(args) == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 10
        assert svg_path.read_text(encoding="utf-8").count("<polyline") == 2

    @pytest.mark.parametrize(
        "engine, direct", [("lumped", read_currents), ("oracle", oracle_margin)]
    )
    def test_csv_currents_equal_point_calls(self, tmp_path, capsys, engine, direct):
        csv_path = tmp_path / "s.csv"
        args = [
            "sweep", "--k", "10", "--n", "64", "1024", "--vread", "0.2", "0.4",
            "--ron-points", "10", "--engine", engine, "--csv", str(csv_path),
        ]
        assert run_cli(args) == 0
        with csv_path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 2 * 10
        profile = load_bundled_profile()
        for row in rows:
            setup = ReadSetup(float(row["v_read_v"]), int(row["n_cells"]))
            res = direct(profile, CellSpec(float(row["r_on_ohm"]), 10.0), setup)
            # The CSV writes floats with repr, so equal text is equal bits.
            assert row["i_on_a"] == repr(res.i_on)
            assert row["i_off_a"] == repr(res.i_off)
            assert row["ratio_effective"] == repr(res.ratio_effective)
            assert row["margin_normalized"] == repr(res.margin_normalized)

    def test_dropped_slice_reported_on_stderr(self, capsys):
        args = ["sweep", "--k", "10", "--n", "256", "--vread", "0.1", "0.2"]
        assert run_cli(args) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "warning: sweep slice r+R_T+I_Tleak, V=0.1V, n=256 dropped: "
            "read voltage 0.1 V outside leakage table range"
        )
        assert captured.err.count("\n") == 1
        assert "V=0.2V, n=256: margin" in captured.out
        assert "V=0.1V" not in captured.out

    def test_bad_n_names_the_python_value(self, capsys):
        assert run_cli(["sweep", "--k", "10", "--n", "0"]) == 1
        assert capsys.readouterr() == ("", "error: n_cells must be >= 1, got 0\n")

    def test_summary_without_files(self, capsys):
        args = ["sweep", "--k", "10", "--n", "64", "--ron-points", "5"]
        assert run_cli(args) == 0
        assert "margin" in capsys.readouterr().out

    def test_bad_grid_bounds(self, capsys):
        args = ["sweep", "--k", "10", "--ron-min", "1e8", "--ron-max", "1e4"]
        assert run_cli(args) == 1
        assert "error:" in capsys.readouterr().err


class TestAblateCommand:
    def test_outputs(self, tmp_path):
        csv_path, svg_path = tmp_path / "a.csv", tmp_path / "a.svg"
        args = [
            "ablate", "--k", "10", "--n", "1024", "--ron-points", "12",
            "--csv", str(csv_path), "--svg", str(svg_path),
        ]
        assert run_cli(args) == 0
        text = csv_path.read_text(encoding="utf-8")
        for label in ("baseline", "-R_T", "-r", "-I_Tleak"):
            assert label in text
        assert svg_path.read_text(encoding="utf-8").count("<polyline") == 4

    def test_fig5_arguments_reproduce_fig5_bytes(self, tmp_path, capsys):
        golden = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
        csv_path, svg_path = tmp_path / "fig5.csv", tmp_path / "fig5.svg"
        args = [
            "ablate", "--k", "10", "--n", "1024", "--csv", str(csv_path), "--svg", str(svg_path),
        ]
        assert run_cli(args) == 0
        assert capsys.readouterr().out == f"wrote {csv_path} (800 rows)\nwrote {svg_path}\n"
        for path in (csv_path, svg_path):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == golden[path.name]

    def test_ron_grid_is_a_grid(self):
        args = cli.build_parser().parse_args(["ablate", "--k", "10", "--n", "64"])
        grid = cli._ron_grid(args)
        assert type(grid) is analysis.Grid and grid == analysis.DEFAULT_R_ON_GRID

    def test_bad_grid_names_the_flag(self, capsys):
        assert run_cli(["ablate", "--k", "10", "--n", "64", "--ron-min", "-5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need 0 < --ron-min < --ron-max")


class TestFigureCommands:
    def test_fig5_writes_expected_files(self, tmp_path, capsys):
        assert run_cli(["fig5", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "fig5.csv").exists()
        assert (tmp_path / "fig5.svg").exists()
        svg = (tmp_path / "fig5.svg").read_text(encoding="utf-8")
        for label in ("baseline", "-R_T", "-r", "-I_Tleak"):
            assert label in svg

    def test_fig3_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert run_cli(["fig3", "--outdir", str(d1)]) == 0
        assert run_cli(["fig3", "--outdir", str(d2)]) == 0
        for name in ("fig3.csv", "fig3a.svg", "fig3b.svg", "fig3c.svg"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["transmogrify"]) == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(["margin", "--frequency", "1e9"]) == 2

    def test_missing_required(self, capsys):
        assert run_cli(["margin", "--ron", "20e3"]) == 2

    def test_missing_profile_file(self, capsys, tmp_path):
        args = [
            "margin", "--ron", "20e3", "--k", "10", "--n", "4", "--vread", "0.2",
            "--profile", str(tmp_path / "nope.json"),
        ]
        assert run_cli(args) == 1
        assert "not found" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "crossbar-margin" in capsys.readouterr().out


class TestOneParserPerProcess:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_two_calls_build_one_parser(self, capsys):
        assert run_cli(TestMarginCommand.ARGS) == 0
        assert run_cli(TestMarginCommand.ARGS + ["--json"]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        assert run_cli(["margin", "--ron", "20e3", "--frequency", "1e9"]) == 2
        capsys.readouterr()
        assert run_cli(TestMarginCommand.ARGS + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["margin_normalized"] == pytest.approx(
            0.86737, abs=1e-5)

    def test_a_parse_does_not_change_the_next_ones_defaults(self, capsys):
        assert run_cli(["sweep", "--k", "10", "--n", "64", "--ron-points", "4"]) == 0
        capsys.readouterr()
        assert run_cli(["sweep", "--k", "10", "--ron-points", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": margin")[0].rsplit("n=", 1)[1] for line in lines] == [
            str(n) for n in analysis.DEFAULT_N_GRID]


# Minimal arguments for every subcommand; the fig commands also get --outdir.
MINIMAL_ARGS = {
    "margin": ["--ron", "20e3", "--k", "10", "--n", "64", "--vread", "0.2"],
    "sweep": ["--k", "10", "--n", "64", "--ron-points", "4"],
    "ablate": ["--k", "10", "--n", "64", "--ron-points", "4"],
    "optimal-range": ["--k", "10", "--n", "64"],
    "compensate": ["--k", "10", "--n", "64", "--valt", "0.4", "--ron-points", "4"],
    "validate": ["--grid", "quick"],
    **{name: [] for name in ("fig3", "fig4", "fig5", "fig6")},
}


class TestProfileLoading:
    @pytest.fixture()
    def loads(self, monkeypatch):
        """Where each profile came from, one entry per profile built."""
        built, real = [], profile_io.profile_from_dict

        def counting(data, where="profile"):
            built.append(where)
            return real(data, where)

        monkeypatch.setattr(profile_io, "profile_from_dict", counting)
        return built

    def test_every_subcommand_is_covered(self):
        (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(MINIMAL_ARGS)

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGS))
    def test_one_load_per_run(self, command, tmp_path, profile_path, loads, capsys):
        argv = [command, *MINIMAL_ARGS[command]]
        if command.startswith("fig"):
            argv += ["--outdir", str(tmp_path / "out")]
        assert run_cli(argv) == 0
        bundled = capsys.readouterr()
        assert run_cli(argv + ["--profile", profile_path]) == 0
        assert capsys.readouterr() == bundled  # the dumped copy is the same profile
        assert loads == ["bundled profile '22nm'", profile_path]
        missing = str(tmp_path / "nope.json")
        assert run_cli(argv + ["--profile", missing]) == 1
        assert capsys.readouterr() == ("", f"error: profile file not found: {missing}\n")
        assert len(loads) == 2


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(crossbar_margin.__file__).parents[1]))
    for module in ("crossbar_margin", "crossbar_margin.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "margin", "--ron", "20e3",
             "--k", "10", "--n", "512", "--vread", "0.2", "--json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        margin = json.loads(proc.stdout)["margin_normalized"]
        assert margin == pytest.approx(0.86737, abs=1e-5)
