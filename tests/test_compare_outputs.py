"""The file comparison of ``tools/compare_outputs.py`` on small hand-written files."""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

PARENT = "t,w1,w2\n0.0,1.0,\n0.5,2.0,\n1.0,3.0,\n"


def test_column_deltas_give_the_largest_difference_per_differing_column():
    change = "t,w1,w2\n0.0,1.25,\n0.5,1.5,\n1.0,3.0,\n"
    assert compare_outputs.column_deltas(PARENT, change) == {"w1": 0.5}
    assert compare_outputs.column_deltas(PARENT, PARENT) == {}


def test_same_value_in_another_spelling_counts_zero():
    change = PARENT.replace("2.0", "2.000e+00")
    assert compare_outputs.column_deltas(PARENT, change) == {}


@pytest.mark.parametrize("row,column", [("0.5,nan,", "w1"), ("0.5,x,", "w1"),
                                        ("0.5,2.0,4.0", "w2")])
def test_a_cell_that_is_a_number_on_one_side_only_counts_inf(row, column):
    change = PARENT.replace("0.5,2.0,", row)
    assert compare_outputs.column_deltas(PARENT, change) == {column: math.inf}


def test_nan_on_both_sides_is_equal():
    nan = PARENT.replace("2.0", "nan")
    assert compare_outputs.column_deltas(nan, nan) == {}


@pytest.mark.parametrize("change,reason", [
    ("t,w1\n0.0,1.0\n", "headers differ"),
    ("t,w1,w2\n0.0,1.0,\n", "row counts differ: 3 != 1"),
    ("t,w1,w2\n0.0,1.0,\n0.5,2.0\n1.0,3.0,\n", "line 3 does not have 3 cells"),
])
def test_files_that_cannot_be_compared_cell_by_cell(change, reason):
    assert compare_outputs.column_deltas(PARENT, change).startswith(reason)


def test_compare_file_report_lines(tmp_path):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text(PARENT)
    change.write_text(PARENT)
    assert compare_outputs.compare_file(parent, change) == "identical"
    change.write_text(PARENT.replace("3.0,", "3.0001,"))
    assert compare_outputs.compare_file(parent, change) == \
        "differs: max |delta| w1 0.0001"
    change.write_text(PARENT.replace("2.0", "2.000e+00"))
    assert compare_outputs.compare_file(parent, change) == \
        "differs: same numbers, other spelling"
    assert compare_outputs.compare_file(parent, tmp_path / "none.csv") == \
        "missing on change"
    manifest_a, manifest_b = tmp_path / "a.txt", tmp_path / "b.txt"
    manifest_a.write_text("model=two_spin\n")
    manifest_b.write_text("model=three_spin_kagome\n")
    assert compare_outputs.compare_file(manifest_a, manifest_b) == "differs"
