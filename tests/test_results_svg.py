"""Tests for CSV emission and the SVG renderer."""

import csv

import pytest

from crossbar_margin import (
    MarginCurve,
    ResultTable,
    render_plot,
    sense_grid,
    write_csv,
)
from crossbar_margin.svg import TOP


def make_curve(profile, label, xs, ys, y_kind="margin"):
    sensed = sense_grid(profile, (1e4,) * len(xs), 10, 4, 0.2)
    return MarginCurve(label, tuple(xs), tuple(ys), sensed, y_kind=y_kind)


class TestResultTable:
    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            ResultTable(header=("a", "b"), rows=((1,),))
        with pytest.raises(ValueError):
            ResultTable(header=(), rows=())

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(ResultTable(header=("x", "y", "z"), rows=()), path)
        assert path.read_bytes() == b"x,y,z\n"

    def test_floats_round_trip(self, tmp_path):
        values = (0.1 + 0.2, 4e-11, 8.673710456040641, -1.5e308)
        path = tmp_path / "vals.csv"
        write_csv(ResultTable(header=("v",), rows=tuple((v,) for v in values)), path)
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [float(r[0]) for r in rows[1:]] == list(values)

    def test_cells_with_commas_are_quoted(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(ResultTable(header=("label",), rows=(("a,b",),)), path)
        assert path.read_bytes() == b'label\n"a,b"\n'

    def test_deterministic_bytes(self, tmp_path):
        table = ResultTable(
            header=("n", "margin"), rows=((64, 0.9173), (128, 0.8651))
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(table, p1)
        write_csv(table, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()


class TestRenderPlot:
    def test_basic_chart_structure(self, tmp_path, profile22):
        curves = [
            make_curve(profile22, "alpha", (1e4, 1e5, 1e6), (0.3, 0.8, 0.5)),
            make_curve(profile22, "beta", (1e4, 1e5, 1e6), (0.2, 0.4, 0.6)),
        ]
        path = tmp_path / "chart.svg"
        render_plot(curves, path, title="demo", x_label="R", y_label="m")
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2
        assert "alpha" in text and "beta" in text
        assert "1e4" in text and "1e6" in text  # decade ticks
        assert "demo" in text

    def test_labels_escaped(self, tmp_path, profile22):
        curves = [make_curve(profile22, "a & <b>", (1.0, 2.0), (0.5, 0.6))]
        path = tmp_path / "esc.svg"
        render_plot(curves, path, x_log=False)
        text = path.read_text(encoding="utf-8")
        assert "a &amp; &lt;b&gt;" in text
        assert "<b>" not in text

    def test_marker_curves_use_circles(self, tmp_path, profile22):
        curves = [make_curve(profile22, "points", (1e4, 1e5, 1e6), (0.3, 0.5, 0.4))]
        path = tmp_path / "m.svg"
        render_plot(curves, path, marker_labels=["points"])
        text = path.read_text(encoding="utf-8")
        assert text.count("<circle") >= 3
        assert "<polyline" not in text

    def test_flat_unity_margin_sits_on_top_axis(self, tmp_path, profile22):
        curves = [make_curve(profile22, "ideal", (1e4, 1e8), (1.0, 1.0))]
        path = tmp_path / "flat.svg"
        render_plot(curves, path, y_min=0.0, y_max=1.0)
        text = path.read_text(encoding="utf-8")
        assert f",{TOP:.2f} " in text or f",{TOP:.2f}\"" in text

    def test_deterministic_bytes(self, tmp_path, profile22):
        curves = [make_curve(profile22, "c", (1e4, 1e5), (0.4, 0.7))]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_plot(curves, p1)
        render_plot(curves, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_requires_a_curve(self, tmp_path):
        with pytest.raises(ValueError):
            render_plot([], tmp_path / "none.svg")

    def test_log_axis_rejects_nonpositive_x(self, tmp_path, profile22):
        curves = [
            MarginCurve(
                "bad",
                (0.0, 1.0),
                (0.1, 0.2),
                sense_grid(profile22, (1e4, 1e4), 10, 4, 0.2),
            )
        ]
        with pytest.raises(ValueError):
            render_plot(curves, tmp_path / "bad.svg", x_log=True)

    def test_delta_curves_autoscale(self, tmp_path, profile22):
        curves = [
            make_curve(profile22, "gain", (1e4, 1e5, 1e6), (0.0, 0.08, 0.02), "delta")
        ]
        path = tmp_path / "d.svg"
        render_plot(curves, path)
        assert path.exists()
