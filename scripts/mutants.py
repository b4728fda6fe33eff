#!/usr/bin/env python3
"""Run the mutation catalogue: every mutant of the package must fail its tests.

    python3 scripts/mutants.py

Each entry of MUTANTS names a file of the checkout, an exact old text (found
there exactly once), the new text that replaces it, and the pytest node ids
expected to fail with it.  The checkout's src/ and tests/, its
pyproject.toml and the golden digests tests/test_golden.py reads are
copied to a temporary directory.  The node ids are run
there once unmutated (they must pass); then each mutant in turn is applied,
its node ids run in one pytest subprocess, and the file restored.  Mutants
run one after another, never in parallel.  A mutant is killed when pytest
reports a failed test (exit status 1).  The script exits 1 if a mutant
survives or a run goes wrong (any other status, say a node id that no
longer exists), else 0.

tests/test_mutants_script.py checks, without running a mutant, that each
old text occurs exactly once, so a change that moves mutated code updates
its entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "perfbench/golden_digests.json")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


MODEL, ANALYSIS, ORACLE, RESULTS, SVG = (
    f"src/crossbar_margin/{name}.py" for name in ("model", "analysis", "oracle", "results", "svg"))

MUTANTS = (
    Mutant(
        "underflow and non-finite checks swapped", MODEL,
        "                if not i_off_min > 0:\n"
        "                    raise SolverError(_UNDERFLOW.format(np.max(ratio_ideal * r_on)))\n"
        "                if not -math.inf < lo <= hi < math.inf:\n"
        "                    raise SolverError(_NOT_FINITE.format(np.min(r_on)))\n",
        "                if not -math.inf < lo <= hi < math.inf:\n"
        "                    raise SolverError(_NOT_FINITE.format(np.min(r_on)))\n"
        "                if not i_off_min > 0:\n"
        "                    raise SolverError(_UNDERFLOW.format(np.max(ratio_ideal * r_on)))\n",
        ("tests/test_model.py::TestSenseGrid::test_several_faults_meet_the_reference_order",
         "tests/test_analysis.py::test_sensed_rows_are_each_rows_own_call"),
    ),
    Mutant(
        "the i_on >= i_off reduction dropped", MODEL,
        "\n                    and _ALL(i_on >= i_off, None)):",
        "):",
        ("tests/test_model.py::TestSenseGrid::test_invariant_breach_raises_the_reference_error",),
    ),
    Mutant(
        "_exact_sum's sigma one bit too small", ORACLE,
        "sigma = math.ldexp(1.0, math.frexp(top)[1] + bits)",
        "sigma = math.ldexp(1.0, math.frexp(top)[1] + bits - 1)",
        ("tests/test_oracle.py::TestExactSum::test_equal_magnitudes_fill_the_extraction_range",),
    ),
    Mutant(
        "no k broadcast", MODEL,
        "        r_on, n, _ = np.broadcast_arrays(*np.broadcast_arrays(r_on, n), ratio_ideal)\n",
        "        pass\n",
        ("tests/test_model.py::TestSenseGrid::test_a_longer_k_array_sets_the_shape_of_all_four",),
    ),
    Mutant(
        "_grid's memo keyed without its quantity", ANALYSIS,
        "    if (last := _LAST.get(quantity)) and last[0] is values:\n"
        "        return last[1], last[2]\n"
        "    row = _array(quantity, values)\n"
        "    grid = values\n"
        "    if not isinstance(values, Grid):\n"
        "        _check_grid(name, row)\n"
        "        grid = tuple.__new__(Grid, row.tolist())  # it passed every check Grid makes\n"
        "    if type(values) is tuple or isinstance(values, Grid):\n"
        "        row.flags.writeable = False\n"
        "        _LAST[quantity] = values, grid, row\n",
        "    if (last := _LAST.get(\"grid\")) and last[0] is values:\n"
        "        return last[1], last[2]\n"
        "    row = _array(quantity, values)\n"
        "    grid = values\n"
        "    if not isinstance(values, Grid):\n"
        "        _check_grid(name, row)\n"
        "        grid = tuple.__new__(Grid, row.tolist())  # it passed every check Grid makes\n"
        "    if type(values) is tuple or isinstance(values, Grid):\n"
        "        row.flags.writeable = False\n"
        "        _LAST[\"grid\"] = values, grid, row\n",
        ("tests/test_analysis.py::TestGrid::test_the_memo_is_kept_per_quantity",),
    ),
    Mutant(
        "_grid remembers a list like a tuple", ANALYSIS,
        "if type(values) is tuple or isinstance(values, Grid):",
        "if type(values) in (tuple, list) or isinstance(values, Grid):",
        ("tests/test_analysis.py::TestGrid::test_a_list_is_checked_on_every_call",),
    ),
    Mutant(
        "_sensed_rows' fallback walks the rows in reverse", ANALYSIS,
        "zip(r_rows, n_rows)  # each row a plane",
        "zip(r_rows[::-1], n_rows[::-1])  # each row a plane",
        ("tests/test_analysis.py::test_sensed_rows_are_each_rows_own_call",
         "tests/test_analysis.py::TestSweepGrid::test_failing_plane_falls_back_slice_by_slice",
         "tests/test_figures.py::test_a_failing_panel_raises_its_first_curves_error"),
    ),
    Mutant(
        "the margin bound back at 1e-12", MODEL,
        "_MARGIN_MAX = 1.0 + 1e-9\n",
        "_MARGIN_MAX = 1.0 + 1e-12\n",
        ("tests/test_analysis.py::TestMarginCurve::test_margin_bound_is_the_models",
         "tests/test_model.py::TestValidation::test_sense_result_margin_bound_is_the_models"),
    ),
    Mutant(
        "_sensed without its margin upper bound", MODEL,
        "lo > 0.0 and hi <= _MARGIN_MAX and ",
        "lo > 0.0 and ",
        ("tests/test_analysis.py::TestMarginCurve::"
         "test_the_models_margin_check_guards_study_curves",),
    ),
    Mutant(
        "i_leak one ulp off", MODEL,
        "        return table[pos][1]\n",
        "        return math.nextafter(table[pos][1], math.inf)\n",
        ("tests/test_model.py::TestLeakageAt::test_table_points",),
    ),
    Mutant(
        "the breakdown naming set 0", MODEL,
        "at = int(np.argwhere(unread)[0, 0])",
        "at = 0",
        ("tests/test_model.py::TestSenseGrid::"
         "test_toggle_sets_past_breakdown_name_the_first_failing_set",),
    ),
    Mutant(
        "v_alt checked before computing", ANALYSIS,
        "    base = _sensed(profile, r_on, k, n, v)\n",
        "    _checked(\"v_read\", v_alt)\n"
        "    base = _sensed(profile, r_on, k, n, v)\n",
        ("tests/test_analysis.py::TestCompensationCurve::"
         "test_v_alt_is_checked_after_v_bases_errors",),
    ),
    Mutant(
        "relative gap over the lumped margin", ORACLE,
        "np.abs(lumped - oracle) / oracle",
        "np.abs(lumped - oracle) / lumped",
        ("tests/test_oracle.py::test_compare_rows_equal_the_reference",),
    ),
    Mutant(
        "kcl floor without tiny", ORACLE,
        "    floor = max(abs(i_leak), tiny)\n",
        "    floor = abs(i_leak)\n",
        ("tests/test_oracle.py::TestSolveColumnEqualsCumsumReference::"
         "test_negative_drive_and_signed_zero_leakage",),
    ),
    Mutant(
        "the sl_voltages getter without the source line's r", ORACLE,
        "        sl[: n - 1] *= r\n",
        "",
        ("tests/test_oracle.py::TestSolveColumnEqualsCumsumReference::"
         "test_every_position_toggle_set_and_state",),
    ),
    Mutant(
        "the bl_voltages getter without the bit line's r", ORACLE,
        "        bl *= self.network.r_segment\n",
        "",
        ("tests/test_oracle.py::TestSolveColumnEqualsCumsumReference::"
         "test_every_position_toggle_set_and_state",),
    ),
    Mutant(
        "cached_property as property", ORACLE,
        "    @cached_property\n    def bl_voltages",
        "    @property\n    def bl_voltages",
        ("tests/test_oracle.py::TestVoltagesReadOnDemand::test_a_second_read_returns_the_same_array",),
    ),
    Mutant(
        "a getter without its setdefault", ORACLE,
        '        return vars(self).setdefault("sl_voltages", sl)\n',
        "        return sl\n",
        ("tests/test_oracle.py::TestVoltagesReadOnDemand::"
         "test_the_getter_returns_the_array_already_kept",),
    ),
    Mutant(
        "v_drive may be zero", MODEL,
        "lambda x: (x != 0) & (abs(x) < math.inf)",
        "lambda x: abs(x) < math.inf",
        ("tests/test_oracle.py::TestBuildColumn::test_a_zero_drive_is_rejected",),
    ),
    Mutant(
        "write_text without its truncate", RESULTS,
        "        handle.truncate()\n",
        "",
        ("tests/test_results_svg.py::TestRenderPlot::test_rewrite_leaves_no_stale_bytes",),
    ),
    Mutant(
        "the polyline template at %.1f", SVG,
        'x + ",%.2f"',
        'x + ",%.1f"',
        ("tests/test_golden.py::test_figures_and_validation_match_golden_digests",
         "tests/test_results_svg.py::TestRenderPlot::test_flat_unity_margin_sits_on_top_axis"),
    ),
    Mutant(
        "a memo entry without its Grid", RESULTS,
        "entry = _GRID_TEXTS[id(grid), key] = grid, make(grid)",
        "entry = _GRID_TEXTS[id(grid), key] = None, make(grid)",
        ("tests/test_results_svg.py::TestGridTextMemo::"
         "test_a_freed_grids_id_never_brings_back_its_text",),
    ),
    Mutant(
        "the memo keyed on value", RESULTS,
        "    if (entry := _GRID_TEXTS.get((id(grid), key))) is None:\n"
        "        if len(_GRID_TEXTS) >= _GRID_TEXTS_MAX:\n"
        "            _GRID_TEXTS.clear()  # atomic: another thread at worst builds an entry again\n"
        "        entry = _GRID_TEXTS[id(grid), key] = grid, make(grid)\n",
        "    if (entry := _GRID_TEXTS.get((grid, key))) is None:\n"
        "        if len(_GRID_TEXTS) >= _GRID_TEXTS_MAX:\n"
        "            _GRID_TEXTS.clear()  # atomic: another thread at worst builds an entry again\n"
        "        entry = _GRID_TEXTS[grid, key] = grid, make(grid)\n",
        ("tests/test_results_svg.py::TestGridTextMemo::"
         "test_equal_grids_of_other_types_write_their_own_cells",),
    ),
    Mutant(
        "the memo without its bound", RESULTS,
        "if len(_GRID_TEXTS) >= _GRID_TEXTS_MAX:",
        "if False:",
        ("tests/test_results_svg.py::TestGridTextMemo::test_the_memo_holds_at_most_its_bound",),
    ),
    Mutant(
        "the SVG memo key without the axis range", SVG,
        "_grid_text(curve.x, (tx_lo, tx_hi), x_text)",
        '_grid_text(curve.x, "svg", x_text)',
        ("tests/test_results_svg.py::TestGridTextMemo::"
         "test_a_grid_on_two_x_axes_gets_each_axis_pixels",),
    ),
    Mutant(
        "no table gets the '\"\"' fix-up", RESULTS,
        "if len(table.header) == 1:",
        "if False:",
        ("tests/test_results_svg.py::test_write_csv_matches_cell_by_cell_reference",),
    ),
)


def pytest_status(tree: Path, node_ids: tuple[str, ...]) -> int:
    """pytest's exit status for node_ids, run in tree on tree's own src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def run_mutant(tree: Path, mutant: Mutant) -> str:
    """'killed', 'survived' or what went wrong, for one mutant applied in tree."""
    path = tree / mutant.file
    source = path.read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        return f"error: old text found {source.count(mutant.old)} times in {mutant.file}"
    path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        status = pytest_status(tree, mutant.tests)
    finally:
        path.write_text(source, encoding="utf-8")
    return {0: "survived", 1: "killed"}.get(status, f"error: pytest exited {status}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                (tree / name).parent.mkdir(exist_ok=True)
                shutil.copy2(source, tree / name)
        node_ids = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        if (status := pytest_status(tree, node_ids)) != 0:
            print(f"error: the catalogue's tests exit {status} without a mutant")
            return 1
        outcomes = [(mutant, run_mutant(tree, mutant)) for mutant in MUTANTS]
    for mutant, outcome in outcomes:
        print(f"{outcome:<9} {mutant.name}")
    failed = sum(outcome != "killed" for _, outcome in outcomes)
    print(f"{len(outcomes) - failed} of {len(outcomes)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
