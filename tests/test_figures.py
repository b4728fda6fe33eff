"""Content checks for the preset fig3..fig6 studies and the CLI commands' tables."""

import csv
import dataclasses
import re

import numpy as np
import pytest

from crossbar_margin import ComparisonRow, SolverError, analysis, figures
from crossbar_margin.figures import (
    write_fig3,
    write_fig4,
    write_fig5,
    write_fig6,
    write_validation_csv,
)
from crossbar_margin.model import _sensed


def read_rows(path):
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestFig3:
    def test_panel_structure(self, tmp_path, profile22):
        paths = write_fig3(profile22, tmp_path)
        assert sorted(p.name for p in paths) == [
            "fig3.csv", "fig3a.svg", "fig3b.svg", "fig3c.svg",
        ]
        rows = read_rows(tmp_path / "fig3.csv")
        panels = {row["panel"] for row in rows}
        assert panels == {"a", "b", "c"}
        # 7 column sizes per curve; two resistances for a/b, three for c
        assert len([r for r in rows if r["panel"] == "a"]) == 2 * 7
        assert len([r for r in rows if r["panel"] == "c"]) == 3 * 7

    def test_panel_a_margin_falls_with_size(self, tmp_path, profile22):
        write_fig3(profile22, tmp_path)
        rows = read_rows(tmp_path / "fig3.csv")
        for r_on in ("10000.0", "100000.0"):
            margins = [
                float(r["margin_normalized"])
                for r in rows
                if r["panel"] == "a" and r["r_on_ohm"] == r_on
            ]
            assert margins == sorted(margins, reverse=True)


# Per figure, the module and R_on x n shape of each kernel call: fig3 one per panel (its
# R_on values against the n grid) and fig4 one per layer (the n grid against the layer's
# R_on grid), each through analysis._sensed_rows; fig6 one per read voltage, its own, so
# that its gains come from its margins' calls, not compensation_curve's.
KERNEL_CALLS = {
    write_fig3: [("analysis", (2, 7)), ("analysis", (2, 7)), ("analysis", (3, 7))],
    write_fig4: [("analysis", (5, 200)), ("analysis", (5, 20)), ("analysis", (5, 200))],
    write_fig6: [("figures", (200,))] * 3,
}


@pytest.mark.parametrize("writer", KERNEL_CALLS, ids=lambda writer: writer.__name__)
def test_one_kernel_call_per_panel_layer_or_read_voltage(tmp_path, profile22, monkeypatch,
                                                          writer):
    calls = []

    def counting(module):
        def count(profile, r_on, ratio_ideal, n, *args, **kwargs):
            calls.append((module.__name__.rsplit(".", 1)[1],
                          np.broadcast_shapes(np.shape(r_on), np.shape(n))))
            return _sensed(profile, r_on, ratio_ideal, n, *args, **kwargs)
        return count

    for module in (figures, analysis):
        monkeypatch.setattr(module, "_sensed", counting(module))
    writer(profile22, tmp_path)
    assert calls == KERNEL_CALLS[writer]


@pytest.mark.parametrize("writer, plotted", [(write_fig3, 7), (write_fig4, 15),
                                             (write_fig6, 5)],
                         ids=["fig3", "fig4", "fig6"])
def test_each_margin_curve_holds_its_kernel_row(tmp_path, profile22, monkeypatch, writer, plotted):
    curves = []
    monkeypatch.setattr(figures, "render_plot", lambda plot, *args, **kwargs: curves.extend(plot))
    writer(profile22, tmp_path)
    assert len(curves) == plotted
    for curve in curves:  # fig6's gains are differences of two rows, checked as built
        assert (curve.y == tuple(curve.sensed[3].tolist())) == (curve.y_kind == "margin")
    assert sum(curve.y_kind == "delta" for curve in curves) == (2 if writer is write_fig6 else 0)


def test_a_failing_panel_raises_its_first_curves_error(tmp_path, profile22):
    # Lines this resistive make the path infinite from n = 256 on, so with leakage off
    # (fig3's first panel) every curve's off-state current underflows to 0.  The error
    # names the first curve's R_off, k * 1e4 ohm, not the panel's largest.
    profile = dataclasses.replace(profile22, r_unit=1e306)
    with pytest.raises(SolverError, match=re.escape("(r_off up to 100000 ohm)")):
        write_fig3(profile, tmp_path)


class TestFig4:
    def test_model_curves_and_network_points(self, tmp_path, profile22):
        write_fig4(profile22, tmp_path)
        rows = read_rows(tmp_path / "fig4a.csv")
        lumped = [r for r in rows if r["engine"] == "lumped"]
        oracle = [r for r in rows if r["engine"] == "oracle"]
        assert len(lumped) == 5 * 200
        assert len(oracle) == 5 * 20
        svg = (tmp_path / "fig4a.svg").read_text(encoding="utf-8")
        assert svg.count("<polyline") == 5  # model lines
        assert svg.count("<circle") >= 5 * 20  # network solver markers

    def test_margins_agree_between_engines(self, tmp_path, profile22):
        write_fig4(profile22, tmp_path)
        rows = read_rows(tmp_path / "fig4a.csv")
        by_key = {}
        for row in rows:
            key = (row["n_cells"], row["r_on_ohm"])
            by_key.setdefault(key, {})[row["engine"]] = float(row["margin_normalized"])
        both = [v for v in by_key.values() if len(v) == 2]
        assert both, "no shared grid points between engines"
        for pair in both:
            assert pair["lumped"] == pytest.approx(pair["oracle"], rel=1e-2)


class TestFig5:
    def test_four_variants(self, tmp_path, profile22):
        write_fig5(profile22, tmp_path)
        rows = read_rows(tmp_path / "fig5.csv")
        assert {r["variant"] for r in rows} == {"baseline", "-R_T", "-r", "-I_Tleak"}
        svg = (tmp_path / "fig5.svg").read_text(encoding="utf-8")
        assert svg.count("<polyline") == 4


class TestFig6:
    def test_gain_curves_peak_near_expected_values(self, tmp_path, profile22):
        write_fig6(profile22, tmp_path)
        rows = read_rows(tmp_path / "fig6.csv")
        peak4 = max(float(r["gain_0.4v"]) for r in rows)
        peak6 = max(float(r["gain_0.6v"]) for r in rows)
        assert peak4 == pytest.approx(0.08, abs=0.015)
        assert peak6 == pytest.approx(0.11, abs=0.015)
        svg = (tmp_path / "fig6.svg").read_text(encoding="utf-8")
        assert svg.count("<polyline") == 2

    def test_margin_panel_has_three_voltages(self, tmp_path, profile22):
        write_fig6(profile22, tmp_path)
        svg = (tmp_path / "fig6_margins.svg").read_text(encoding="utf-8")
        for label in ("V_read=0.2V", "V_read=0.4V", "V_read=0.6V"):
            assert label in svg


class TestValidationTable:
    def test_one_row_per_comparison_in_field_order(self, tmp_path):
        nan = float("nan")
        rows = [
            ComparisonRow(1e4, 10.0, 64, 0.2, 0.9, 0.91, 0.011),
            ComparisonRow(2e4, 10.0, 4096, 0.2, nan, nan, nan, "column, of n=4096"),
        ]
        path = tmp_path / "validate.csv"
        assert write_validation_csv(rows, path) == 2
        assert path.read_text(encoding="utf-8") == (
            "r_on_ohm,ratio_ideal,n_cells,v_read_v,margin_lumped,margin_oracle,"
            "relative_gap,error\n"
            "10000.0,10.0,64,0.2,0.9,0.91,0.011,\n"
            '20000.0,10.0,4096,0.2,nan,nan,nan,"column, of n=4096"\n'
        )
