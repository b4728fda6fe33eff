"""Tests for CSV emission and the SVG renderer."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from csv_reference import write_csv_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from svg_reference import render_plot_reference

import crossbar_margin
from crossbar_margin import (
    MarginCurve,
    ResultTable,
    render_plot,
    sense_grid,
    write_csv,
)
from crossbar_margin.analysis import COARSE_R_ON_GRID, DEFAULT_R_ON_GRID, Grid
from crossbar_margin.results import format_cell
from crossbar_margin.svg import BOTTOM, TOP, escape


def make_curve(profile, label, xs, ys, y_kind="margin"):
    sensed = sense_grid(profile, (1e4,) * len(xs), 10, 4, 0.2)
    return MarginCurve(label, tuple(xs), tuple(ys), sensed, y_kind=y_kind)


class TestResultTable:
    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            ResultTable(header=("a", "b"), blocks=((1,),))
        with pytest.raises(ValueError):
            ResultTable(header=(), blocks=())

    def test_block_sequences_share_one_length(self):
        grid = (1e4, 1e5, 1e6)
        with pytest.raises(ValueError, match=re.escape(
                "block 1 needs 1-d sequences of one length, got shapes [(3,), (2,)]")):
            ResultTable(("label", "x", "y"), (("a", grid, [1, 2, 3]), ("b", grid, np.zeros(2))))
        with pytest.raises(ValueError, match=re.escape("block 0 needs 1-d sequences of one "
                                                       "length, got shapes [(3, 1)]")):
            ResultTable(("label", "y"), (("a", np.zeros((3, 1))),))

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(ResultTable(header=("x", "y", "z"), blocks=()), path)
        assert path.read_bytes() == b"x,y,z\n"

    def test_floats_round_trip(self, tmp_path):
        values = (0.1 + 0.2, 4e-11, 8.673710456040641, -1.5e308)
        path = tmp_path / "vals.csv"
        write_csv(ResultTable(header=("v",), blocks=tuple((v,) for v in values)), path)
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [float(r[0]) for r in rows[1:]] == list(values)

    def test_cells_with_commas_are_quoted(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(ResultTable(header=("label",), blocks=(("a,b",),)), path)
        assert path.read_bytes() == b'label\n"a,b"\n'

    def test_deterministic_bytes(self, tmp_path):
        table = ResultTable(
            header=("n", "margin"), blocks=((64, 0.9173), (128, 0.8651))
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(table, p1)
        write_csv(table, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_header_cells_must_be_strings(self):
        with pytest.raises(ValueError, match="header cells must be strings"):
            ResultTable(header=("a", 1.5), blocks=())


class TestFormatCell:
    def test_numpy_bools_read_like_python_bools(self):
        assert format_cell(np.bool_(True)) == format_cell(True) == "true"
        assert format_cell(np.bool_(False)) == format_cell(False) == "false"


TEXT = st.text(st.sampled_from('ab ,"\r\n\t&é'), max_size=5)
CELL_KINDS = {
    "none": st.none(),
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "int": st.integers(),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "float": st.floats(),  # nan, +-inf and -0.0 included
    "np.float64": st.floats().map(np.float64),
    "str": TEXT,
}
COLUMN_KINDS = [
    *CELL_KINDS.values(),
    st.one_of(CELL_KINDS["float"], CELL_KINDS["np.float64"]),
    st.one_of(*CELL_KINDS.values()),
]


def sequences(length):
    """One block entry of `length` cells: a tuple or list of any column kind, or a
    float64, float32 or int64 array."""
    def cells(kind):
        return st.lists(kind, min_size=length, max_size=length)
    kinds = st.sampled_from(COLUMN_KINDS)
    return st.one_of(
        kinds.flatmap(cells).map(tuple),
        kinds.flatmap(cells),
        cells(st.floats()).map(lambda v: np.array(v, dtype=np.float64)),
        cells(st.floats(width=32)).map(lambda v: np.array(v, dtype=np.float32)),
        cells(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
    )


@st.composite
def tables(draw):
    """Blocks of 0..5 rows whose entries are scalars (str included) or sequences,
    some of scalars only, and at times one sequence object in two blocks."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    lengths = draw(st.lists(st.integers(0, 5), max_size=4))
    shared = len(lengths) >= 2 and draw(st.booleans())
    if shared:
        first, second = draw(st.permutations(range(len(lengths))))[:2]
        lengths[second] = lengths[first]
    scalars = st.one_of(*CELL_KINDS.values())
    blocks = [
        [draw(st.one_of(scalars, sequences(length))) for _ in range(width)]
        for length in lengths
    ]
    if shared:
        sequence = draw(sequences(lengths[first]))
        for block in (blocks[first], blocks[second]):
            block[draw(st.integers(0, width - 1))] = sequence
    return ResultTable(header=tuple(header), blocks=tuple(map(tuple, blocks)))


SHARED = (1e4, 2e4)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reference")


@settings(max_examples=300, deadline=None)
@given(table=tables())
@example(table=ResultTable(header=("",), blocks=(("",), (None,), ("a\rb",))))
@example(table=ResultTable(header=("x", "y"), blocks=()))
@example(table=ResultTable(header=("x", "y"), blocks=(("", None), (-0.0, np.nan))))
@example(table=ResultTable(header=("n", "x", "y"), blocks=(
    (64, SHARED, (0.5, 0.25)), ("a,b", SHARED, np.array([1, 2])), (None, (), []))))
@example(table=ResultTable(header=("f64", "f32", "f16", "long"), blocks=(tuple(
    np.array([0.1, -0.0, np.nan, -np.inf, 1e-310], dtype=t)
    for t in (np.float64, np.float32, np.float16, np.longdouble)),)))
def test_write_csv_matches_cell_by_cell_reference(out_dir, table):
    write_csv(table, out_dir / "columns.csv")
    write_csv_reference(table, out_dir / "cells.csv")
    assert (out_dir / "columns.csv").read_bytes() == (out_dir / "cells.csv").read_bytes()


@settings(deadline=None)
@given(st.lists(st.tuples(st.builds("{}\r{}".format, TEXT, TEXT), st.floats()), max_size=4))
@example([("a\rb", 1.0)])
def test_text_cells_holding_cr_round_trip_through_csv_reader(out_dir, rows):
    path = out_dir / "cr.csv"
    write_csv(ResultTable(header=("label", "v"), blocks=tuple(rows)), path)
    with path.open(newline="", encoding="utf-8") as handle:
        read_back = list(csv.reader(handle))
    assert read_back == [["label", "v"], *([text, repr(v)] for text, v in rows)]


@given(st.text())
@example("a & <b> >> &amp;")
def test_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)


def test_cli_import_loads_no_xml_or_network_modules():
    unwanted = ("xml.sax", "urllib.request", "http.client", "email")
    code = (
        "import sys, json, crossbar_margin.cli; "
        f"print(json.dumps([m for m in {unwanted!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(crossbar_margin.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


class TestRenderPlot:
    def test_basic_chart_structure(self, tmp_path, profile22):
        curves = [
            make_curve(profile22, "alpha", (1e4, 1e5, 1e6), (0.3, 0.8, 0.5)),
            make_curve(profile22, "beta", (1e4, 1e5, 1e6), (0.2, 0.4, 0.6)),
        ]
        path = tmp_path / "chart.svg"
        render_plot(curves, path, title="demo", x_label="R")
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2
        assert "alpha" in text and "beta" in text
        assert "1e4" in text and "1e6" in text  # decade ticks
        assert "demo" in text

    def test_rewrite_leaves_no_stale_bytes(self, tmp_path, profile22):
        # Both writers overwrite a file in place and cut it to the new length.
        xs, ys = (1e4, 1e5, 1e6), (0.3, 0.8, 0.5)
        long_curves = [make_curve(profile22, f"c{i}", xs, ys) for i in range(3)]
        path, fresh = tmp_path / "chart.svg", tmp_path / "fresh.svg"
        render_plot(long_curves, path)
        render_plot(long_curves[:1], path)
        render_plot(long_curves[:1], fresh)
        assert path.read_bytes() == fresh.read_bytes()
        csv_path = tmp_path / "t.csv"
        write_csv(ResultTable(("v",), tuple((float(i),) for i in range(50))), csv_path)
        write_csv(ResultTable(("v",), ((1.0,),)), csv_path)
        assert csv_path.read_bytes() == b"v\n1.0\n"

    def test_labels_escaped(self, tmp_path, profile22):
        curves = [make_curve(profile22, "a & <b>", (1.0, 2.0), (0.5, 0.6))]
        path = tmp_path / "esc.svg"
        render_plot(curves, path)
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
        render_plot(curves, path)
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
            render_plot(curves, tmp_path / "bad.svg")

    def test_delta_curves_autoscale(self, tmp_path, profile22):
        curves = [
            make_curve(profile22, "gain", (1e4, 1e5, 1e6), (0.0, 0.08, 0.02), "delta")
        ]
        path = tmp_path / "d.svg"
        render_plot(curves, path)
        text = path.read_text(encoding="utf-8")
        assert ">margin gain</text>" in text and "normalized margin" not in text
        # 5 % padding puts the data's ends 5/110 of the frame inside it.
        assert f",{TOP + (BOTTOM - TOP) * 5 / 110:.2f}" in text

    def test_margin_curves_get_the_unit_axis(self, tmp_path, profile22):
        curves = [make_curve(profile22, "m", (1e4, 1e5), (0.25, 0.5))]
        path = tmp_path / "m.svg"
        render_plot(curves, path)
        text = path.read_text(encoding="utf-8")
        assert ">normalized margin</text>" in text and "margin gain" not in text
        assert f",{(TOP + BOTTOM) / 2:.2f}" in text  # 0.5 halfway up the 0..1 axis

    def test_shared_grid_writes_the_bytes_of_distinct_copies(self, tmp_path, profile22):
        # Curves on one x object share its formatted pixel x; curves on value-equal
        # copies format their own.  Two grids, each shared, with marker and dash curves.
        layers = (("line", DEFAULT_R_ON_GRID), ("network", COARSE_R_ON_GRID),
                  ("dashed", DEFAULT_R_ON_GRID), ("network 2", COARSE_R_ON_GRID))

        def curves(copy):
            out = []
            for n, (label, grid) in zip((256, 1024, 2048, 4096), layers):
                x = Grid(list(grid)) if copy else grid
                sensed = sense_grid(profile22, x, 10.0, n, 0.2)
                out.append(MarginCurve(label, x, sensed[3], sensed))
            return out

        shared, copies = curves(copy=False), curves(copy=True)
        assert len({id(c.x) for c in shared}) == 2 and len({id(c.x) for c in copies}) == 4
        styles = dict(marker_labels=["network", "network 2"], dash_labels=["dashed"])
        render_plot(shared, tmp_path / "shared.svg", **styles)
        render_plot(copies, tmp_path / "copies.svg", **styles)
        assert (tmp_path / "shared.svg").read_bytes() == (tmp_path / "copies.svg").read_bytes()

    def test_mixed_y_kinds_raise(self, tmp_path, profile22):
        curves = [
            make_curve(profile22, "m", (1e4, 1e5), (0.4, 0.7)),
            make_curve(profile22, "d", (1e4, 1e5), (0.0, 0.1), "delta"),
        ]
        path = tmp_path / "mixed.svg"
        with pytest.raises(ValueError, match=r"cannot mix y kinds, got \['delta', 'margin'\]"):
            render_plot(curves, path)
        assert not path.exists()


LABEL = st.text(st.sampled_from("ab&<> "), min_size=1, max_size=4)


# Per y_kind: the y values a curve may hold, and the y axis render_plot
# derives for it, in render_plot_reference's keyword options.
Y_KINDS = {
    "margin": (
        st.floats(0.0, 1.0 + 1e-12, exclude_min=True) | st.sampled_from((1.0 + 1e-12, 5e-324)),
        dict(y_label="normalized margin", y_min=0.0, y_max=1.0),
    ),
    "delta": (st.floats(-5.0, 5.0), dict(y_label="margin gain")),
}


@st.composite
def plots(draw):
    x_values = st.floats(1e-3, 1e9)
    y_kind = draw(st.sampled_from(sorted(Y_KINDS)))
    y_values, y_axis = Y_KINDS[y_kind]
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        if curves and draw(st.booleans()):  # the previous curve's x object, shared
            xs = curves[-1].x
        else:
            xs = tuple(sorted(draw(st.lists(x_values, min_size=1, max_size=12, unique=True))))
        ys = draw(st.lists(y_values, min_size=len(xs), max_size=len(xs)))
        sensed = (np.zeros(len(xs)),) * 4
        curves.append(MarginCurve(draw(LABEL), xs, tuple(ys), sensed, y_kind=y_kind))
    labels = [c.label for c in curves]
    kwargs = dict(
        title=draw(LABEL),
        x_label=draw(LABEL),
        marker_labels=draw(st.lists(st.sampled_from(labels), max_size=2)),
        dash_labels=draw(st.lists(st.sampled_from(labels), max_size=2)),
    )
    return curves, kwargs, y_axis


@settings(max_examples=200, deadline=None)
@given(plot=plots())
def test_render_plot_matches_point_by_point_reference(out_dir, plot):
    curves, kwargs, y_axis = plot
    render_plot(curves, out_dir / "columns.svg", **kwargs)
    render_plot_reference(curves, out_dir / "points.svg", **kwargs, **y_axis)
    assert (out_dir / "columns.svg").read_bytes() == (out_dir / "points.svg").read_bytes()
