"""The CSV table writer: its byte contract and its column-shape guard.

``format_table_csv`` formats each distinct value of a column once.  The
bytes must equal a per-cell ``repr(float(v))`` written row by row, which
is kept here as the reference.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenokit.io import FORMAT_TAG, format_table_csv

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e22, 0.1, 1.0 / 3.0, -2.5, 1e300]


def reference_csv(header, columns, tag=FORMAT_TAG):
    """Row by row, one ``repr`` per cell: the writer's byte contract."""

    def cell(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        return repr(float(value))

    lines = [f"# {tag}"] if tag else []
    lines.append(header)
    for row in zip(*columns):
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


# columns drawn from a small pool of values, so most values repeat
pools = st.lists(
    st.floats(width=64) | st.sampled_from(SPECIAL), min_size=1, max_size=6
)


@st.composite
def repeated_columns(draw):
    n_rows = draw(st.integers(0, 60))
    return [
        np.array(draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)))
        for pool in (draw(pools) for _ in range(3))
    ]


@settings(max_examples=200, deadline=None)
@given(repeated_columns())
def test_matches_per_cell_repr(columns):
    assert format_table_csv("a,b,c", columns) == reference_csv("a,b,c", columns)


def test_special_values_keep_their_bytes():
    values = np.array(SPECIAL)
    column = np.concatenate([values, values[::-1]])
    text = format_table_csv("x,y", (column, -column))
    assert text == reference_csv("x,y", (column, -column))
    cells = [line.split(",") for line in text.splitlines()[2:]]
    assert cells[0] == ["-0.0", "0.0"]
    assert cells[1] == ["0.0", "-0.0"]
    assert [row[0] for row in cells[2:7]] == ["5e-324", "-5e-324", "1e+16", "1e-05", "1e+22"]


def test_float32_column_is_written_as_its_float64_value():
    column = np.array([0.1, 1e-5, 3.0, 0.1], dtype=np.float32)
    text = format_table_csv("x", [column], tag=None)
    assert text == reference_csv("x", [column], tag=None)
    assert text.splitlines()[1] == repr(float(np.float32(0.1)))


def test_bool_column_is_written_as_1_and_0():
    flags = [True, False, np.True_, False]
    text = format_table_csv("x,flag", ([0.5, 0.5, 1.0, 1.0], flags), tag=None)
    assert text == "x,flag\n0.5,1\n0.5,0\n1.0,1\n1.0,0\n"


def test_zero_rows_give_tag_and_header_only():
    assert format_table_csv("x,flag", ([], [])) == f"# {FORMAT_TAG}\nx,flag\n"
    assert format_table_csv("x,flag", ([], []), tag=None) == "x,flag\n"


def test_tag_none_omits_the_comment_line():
    assert format_table_csv("x,y", ([1.0], [2.0]), tag=None) == "x,y\n1.0,2.0\n"


class TestShapeGuard:
    def test_rows_in_place_of_columns_are_refused(self):
        rows = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]
        with pytest.raises(ValueError, match="names 3 columns, got 2"):
            format_table_csv("a,b,c", rows)

    def test_two_dimensional_column_is_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            format_table_csv("a,b", (np.zeros((2, 2)), np.zeros(2)))

    def test_zip_object_as_a_column_is_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            format_table_csv("a,b", (zip([1.0, 2.0], [3.0, 4.0]), [1.0, 2.0]))

    def test_unequal_lengths_are_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            format_table_csv("a,b", ([1.0, 2.0, 3.0], [1.0, 2.0]))
