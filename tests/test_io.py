"""The CSV table and grid writers and the reader: their byte and bit
contracts, the writers' shape guards, the reader's grammar and messages,
and the atomic file write under them.

``format_table_csv`` formats each cell with one ``repr``;
``format_grid_csv`` formats each coordinate of a map once and each grid
value once, a large map's values by a vectorized formatter.  The bytes
of both must equal a per-cell ``repr(float(v))`` written row by row,
which is kept here as the reference.
``read_columns_csv`` parses with numpy's C reader; its bits must equal a
per-cell ``float()``, kept here as the reference, and its refusals must
name the line the file's own newline rule numbers.
"""
import itertools
import os
import stat
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenokit import io
from zenokit._shortest import WORDS, repr_lines
from zenokit.errors import ParseError
from zenokit.io import FORMAT_TAG, format_grid_csv, format_table_csv, read_columns_csv

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


def bit_pattern(value):
    return np.float64(value).tobytes()


def distinct_column(n_rows):
    """``n_rows`` values, no two with the same bit pattern."""
    values = st.floats(width=64) | st.sampled_from(SPECIAL)
    return st.lists(values, min_size=n_rows, max_size=n_rows, unique_by=bit_pattern).map(np.array)


@st.composite
def distinct_columns(draw):
    n_rows = draw(st.integers(0, 60))
    return [draw(distinct_column(n_rows)) for _ in range(3)]


@st.composite
def mixed_columns(draw):
    """One all-distinct column between two drawn from small pools, which
    repeat once there are more rows than pool values."""
    repeated = draw(repeated_columns())
    distinct = draw(distinct_column(repeated[0].size))
    return [repeated[0], distinct, repeated[1]]


@settings(max_examples=100, deadline=None)
@given(distinct_columns())
def test_distinct_columns_match_per_cell_repr(columns):
    for column in columns:
        assert np.unique(column.view(np.int64)).size == column.size
    assert format_table_csv("a,b,c", columns) == reference_csv("a,b,c", columns)


@settings(max_examples=100, deadline=None)
@given(mixed_columns())
def test_mixed_columns_match_per_cell_repr(columns):
    assert format_table_csv("a,b,c", columns) == reference_csv("a,b,c", columns)


# --- the grid writer -----------------------------------------------------


def grid_reference(header, rows, columns, values, tag=FORMAT_TAG):
    """The per-cell reference on the map's ``repeat``/``tile``/``ravel``
    columns: the grid writer's byte contract."""
    rows, columns = np.asarray(rows, dtype=float), np.asarray(columns, dtype=float)
    flat = (np.repeat(rows, columns.size), np.tile(columns, rows.size), np.ravel(values))
    return reference_csv(header, flat, tag)


@st.composite
def special_grids(draw):
    """Coordinates and values from ``SPECIAL``, so they repeat, ``-0.0``
    meets ``0.0`` and ``5e-324`` and ``1e16`` turn up; grids may have zero
    rows or zero columns."""
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))

    def axis(n):
        return draw(st.lists(st.sampled_from(SPECIAL), min_size=n, max_size=n))

    values = np.array(axis(n_rows * n_cols), dtype=float).reshape(n_rows, n_cols)
    return axis(n_rows), axis(n_cols), values


@settings(max_examples=200, deadline=None)
@given(special_grids())
@example(([], [1.0, -0.0], np.zeros((0, 2))))
@example(([0.0, -0.0], [], np.zeros((2, 0))))
def test_grid_matches_per_cell_repr(grid):
    rows, columns, values = grid
    text = format_grid_csv("a,b,c", rows, columns, values)
    assert text == grid_reference("a,b,c", rows, columns, values)


def test_grid_special_values_keep_their_bytes():
    rows, columns = [-0.0, 0.0, 5e-324], [1e16, -0.0]
    values = np.array([[0.0, -0.0], [5e-324, 1e16], [1e-5, 0.1]])
    text = format_grid_csv("a,b,c", rows, columns, values, tag=None)
    assert text == (
        "a,b,c\n"
        "-0.0,1e+16,0.0\n-0.0,-0.0,-0.0\n"
        "0.0,1e+16,5e-324\n0.0,-0.0,1e+16\n"
        "5e-324,1e+16,1e-05\n5e-324,-0.0,0.1\n"
    )


class TestGridShapeGuard:
    @pytest.mark.parametrize(
        "shape",
        [(3, 2), (6,), (2, 3, 1), (2, 2), ()],
        ids=["transposed", "flat", "three-d", "short-row", "scalar"],
    )
    def test_values_that_do_not_span_the_grid_are_refused(self, shape):
        with pytest.raises(ValueError, match="do not span"):
            format_grid_csv("a,b,c", [1.0, 2.0], [1.0, 2.0, 3.0], np.zeros(shape))

    def test_two_dimensional_coordinates_are_refused(self):
        with pytest.raises(ValueError, match="do not span"):
            format_grid_csv("a,b,c", np.zeros((2, 1)), [1.0], np.zeros((2, 1)))


def test_map_shaped_table_matches_per_cell_repr():
    # the rate map's size: 400 x 200 coordinates, each written 200 or 400
    # times, and 80 000 rates that are all distinct
    detunings = np.linspace(-20.0, 20.0, 400)
    dephasings = np.linspace(0.0, 5.0, 200)
    rates = np.random.default_rng(3).uniform(1e-3, 1.0, (400, 200))
    assert np.unique(rates).size == rates.size
    text = format_grid_csv(io.ZENO_MAP_CSV_HEADER, detunings, dephasings, rates)
    # lines, not one string: a failure then names the first bad row
    # instead of diffing 2.7 MB of text
    reference = grid_reference(io.ZENO_MAP_CSV_HEADER, detunings, dephasings, rates)
    assert text.splitlines() == reference.splitlines()
    assert text.endswith("\n")


# --- the vectorized formatter of the large maps ----------------------------


def kernel_lines(values):
    """The text ``repr_lines`` writes for ``values``, one line each."""
    out = np.zeros((values.size, WORDS), np.uint64)
    repr_lines(values, out)
    return out.tobytes().translate(None, b"\0").decode("ascii").splitlines()


def shortest_digit_sample(rng):
    """About 2e5 values that probe Schubfach's digit selection and repr's
    layout: each binade, each notation, and the ties."""
    size = 30_000
    # every biased exponent the kernel serves, 1 .. 2046, with a random
    # significand and sign
    binades = np.repeat(np.arange(1, 2047, dtype=np.uint64), 10)
    signs = rng.integers(0, 2, binades.size).astype(np.uint64) << np.uint64(63)
    significands = rng.integers(0, 1 << 52, binades.size, dtype=np.uint64)
    every_binade = (signs | (binades << np.uint64(52)) | significands).view(np.float64)
    random_bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    # decimals rounded to 0..16 places, of magnitudes from 1e-6 to 1e17
    mantissas = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-6, 18, size)
    places = rng.integers(0, 17, size)
    decimals = np.array([float(f"{m:.{p}e}") for m, p in zip(mantissas.tolist(), places.tolist())])
    # the neighbours of short decimals, where the nearest pick decides
    short = np.round(rng.uniform(0.0, 100.0, size), 3)
    neighbours = np.concatenate([np.nextafter(short, np.inf), np.nextafter(short, -np.inf)])
    integers = rng.integers(0, 2**53, size).astype(np.float64)
    powers = np.concatenate(
        [np.ldexp(1.0, np.arange(-1022, 1024)), [float(f"1e{e}") for e in range(-307, 309)]]
    )
    return np.concatenate(
        [every_binade, random_bits, decimals, -decimals, neighbours, integers, powers, -powers]
    )


def test_kernel_writes_repr_of_each_value():
    values = shortest_digit_sample(np.random.default_rng(37))
    assert values.size > 200_000
    assert kernel_lines(values) == [*map(repr, values.tolist())]


@pytest.mark.parametrize("cells", [io.KERNEL_MIN_CELLS - 1, io.KERNEL_MIN_CELLS], ids=["below", "at"])
def test_grid_matches_per_cell_repr_at_the_kernel_threshold(cells):
    # the repr path below the threshold, the kernel at it: the same bytes
    rng = np.random.default_rng(cells)
    rows = rng.uniform(-20.0, 20.0, cells)
    values = rng.uniform(1e-6, 2.0, (cells, 1)) * 10.0 ** rng.integers(-6, 6, (cells, 1))
    text = format_grid_csv(io.ZENO_MAP_CSV_HEADER, rows, [0.25], values)
    reference = grid_reference(io.ZENO_MAP_CSV_HEADER, rows, [0.25], values)
    assert text.splitlines() == reference.splitlines()


def test_large_map_special_values_keep_their_bytes():
    # repr writes these cells in place among the kernel's
    rng = np.random.default_rng(5)
    detunings, dephasings = np.linspace(-2.0, 2.0, 160), rng.uniform(0.0, 1.0, 120)
    rates = rng.uniform(1e-3, 1.0, (160, 120))
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e-5, 1e17, np.inf, -np.inf, np.nan]
    rates.flat[rng.choice(rates.size, len(special), replace=False)] = special
    text = format_grid_csv(io.ZENO_MAP_CSV_HEADER, detunings, dephasings, rates)
    reference = grid_reference(io.ZENO_MAP_CSV_HEADER, detunings, dephasings, rates)
    assert rates.size >= io.KERNEL_MIN_CELLS
    assert text.splitlines() == reference.splitlines()


# --- the reader -----------------------------------------------------------

TESTS = Path(__file__).parent
FIXTURE_CSVS = sorted([*TESTS.glob("data/**/*.csv"), *TESTS.glob("golden/**/*.csv")])

# the edges of float64 and of its shortest repr
EDGES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7e308, -1.7e308, 1.7976931348623157e308, 0.30000000000000004, 1.0 / 3.0,
    2.718281828459045, 1.2345678901234567e-200, 9007199254740993.0, 1e22, 1e23,
]


def float_reference(path):
    """The header and a per-cell ``float()`` of every data row, read line
    by line from a text-mode handle: the reader's bit contract."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    lines = [line for line in lines if not line.startswith("#")]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].strip(), [np.array(column) for column in zip(*rows)]


def assert_same_bits(columns, expected):
    assert len(columns) == len(expected)
    for column, reference in zip(columns, expected):
        assert column.dtype == np.float64
        assert column.flags.c_contiguous and column.base is None
        assert column.view(np.int64).tolist() == np.asarray(reference).view(np.int64).tolist()


def read_text(tmp_path, text, header="a,b"):
    """``read_columns_csv`` on a file holding exactly ``text``'s bytes."""
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    return read_columns_csv(path, header)


finite_float64 = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(EDGES)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(st.lists(finite_float64, min_size=n, max_size=n), min_size=3, max_size=3)
))
def test_written_table_reads_back_bit_equal(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("round_trip") / "table.csv"
    path.write_text(format_table_csv("a,b,c", [np.array(c) for c in columns]), encoding="utf-8")
    assert_same_bits(read_columns_csv(path, "a,b,c"), columns)


@pytest.mark.parametrize("path", FIXTURE_CSVS, ids=lambda p: str(p.relative_to(TESTS)))
def test_fixture_reads_bit_equal_to_float(path):
    header, expected = float_reference(path)
    assert_same_bits(read_columns_csv(path, header), expected)


def test_large_table_reads_bit_equal_without_the_line_pass(tmp_path, monkeypatch):
    # 20 000 rows, ~1.2 MB of text and 480 kB of float64: the C reader
    # grows its row buffer many times over; the line-by-line pass must
    # not run
    bits = np.random.default_rng(7).integers(0, 2**63, size=(3, 20_000), dtype=np.int64)
    columns = [c.view(np.float64) for c in bits]
    columns = [np.where(np.isfinite(c), c, 1.5) for c in columns]
    path = tmp_path / "large.csv"
    path.write_text(format_table_csv("a,b,c", columns), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("the line-by-line pass ran")

    monkeypatch.setattr(io, "_parse_lines", refuse)
    assert_same_bits(read_columns_csv(path, "a,b,c"), columns)


class TestReaderGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1,2\n\n3,4\n",  # blank: the C reader skips it
            "a,b\n1,2\n   \n\t\n\n3,4\n",  # whitespace-only: only float() does
            "a,b\r\n1,2\r\n\r\n3,4\r\n",  # CRLF
            "a,b\r1,2\r3,4\r",  # CR
            "a,b\n1,2\n3,4",  # no newline after the last row
            "# zenokit-v1\n\na,b\n1 , 2\n3,\t4\n",  # comment and blank before the header
        ],
        ids=["blank", "whitespace-only", "crlf", "cr", "no-final-newline", "preamble"],
    )
    def test_accepted_layouts(self, text, tmp_path):
        assert_same_bits(read_text(tmp_path, text), [[1.0, 3.0], [2.0, 4.0]])

    @pytest.mark.parametrize(
        "cell,value",
        [("1_000", 1000.0), ("\u0661\u0662", 12.0), ("\u00a02.5\u00a0", 2.5), ("-0.0", -0.0)],
        ids=["underscore", "arabic-indic-digits", "nbsp", "negative-zero"],
    )
    def test_cells_float_takes(self, cell, value, tmp_path):
        assert_same_bits(read_text(tmp_path, f"a,b\n{cell},1\n"), [[value], [1.0]])

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a,b\n1,2\n# note\n3,4\n", ":3: expected 2 columns, got 1"),
            ("a,b\n1,2\n3,4,\n", ":3: expected 2 columns, got 3"),
            ("a,b\n1,2,5\n", ":2: expected 2 columns, got 3"),
            ("a,b\n1,2,5\n3,4,6\n", ":2: expected 2 columns, got 3"),
            ("a,b\n1,2\n3,4\u20285,6\n", ":3: expected 2 columns, got 3"),
            ("a,b\r1,2\rx,4\r", ":3: could not convert string to float: 'x'"),
            ("a,b\n1,2\n3, abc \n", ":3: could not convert string to float: 'abc'"),
            ("a,b\nx,1\n1,2,3\n", ":3: expected 2 columns, got 3"),
            ("a,b\n1,2\n\n   \n3,nan\n", ":5: non-finite value"),
            ("a,b\n1,inf\n2,nan\n", ":2: non-finite value"),
            ("a,b\n\n1,2\n-1e999,3\n", ":4: non-finite value"),
        ],
        ids=[
            "comment-after-header", "trailing-comma", "extra-column", "extra-column-every-row",
            "line-separator-is-not-a-newline", "cr-lineno", "non-numeric",
            "column-count-before-cells", "nan-after-blank-lines", "first-non-finite-row",
            "overflow",
        ],
    )
    def test_refusal_names_its_line(self, text, message, tmp_path):
        with pytest.raises(ParseError) as info:
            read_text(tmp_path, text)
        assert str(info.value) == f"{tmp_path / 'table.csv'}{message}"

    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "# tag\na,b\n\n  \n"])
    def test_header_only_is_no_data_rows_without_a_warning(self, text, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError) as info:
                read_text(tmp_path, text)
        assert str(info.value) == f"{tmp_path / 'table.csv'}: no data rows"
        assert caught == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_read(tmp_path):
    # the rows are read once, never seeked back to
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)

    def write():
        path.write_text("# zenokit-v1\na,b\n1,2\n3,x\n")

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        with pytest.raises(ParseError, match=r"pipe\.csv:4: could not convert string to float: 'x'"):
            read_columns_csv(path, "a,b")
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


# --- JSON number lists ----------------------------------------------------


def test_json_numbers_gives_floats():
    numbers = io.json_numbers({"k": [1, -0.0, 2.5, 10**300]}, "k", "config")
    assert [type(x) for x in numbers] == [float] * 4
    assert [repr(x) for x in numbers] == ["1.0", "-0.0", "2.5", "1e+300"]


@pytest.mark.parametrize(
    "bad", [True, "1.0", float("nan"), float("inf"), -float("inf"), 10**400, None, [1.0]],
    ids=["bool", "string", "nan", "inf", "-inf", "huge-int", "null", "list"],
)
def test_json_numbers_refuses_what_json_number_refuses(bad):
    message = f"config: key 'k' holds {bad!r}, not a finite number"
    with pytest.raises(ParseError) as listed:
        io.json_numbers({"k": [0.5, bad, 1.0]}, "k", "config")
    with pytest.raises(ParseError) as single:
        io.json_number({"k": bad}, "k", "config")
    assert str(listed.value) == str(single.value) == message


# --- the atomic write -----------------------------------------------------


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_written_file_has_the_umask_mode(umask, tmp_path):
    path = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        io.atomic_write_text(path, "first\n")
        first = stat.S_IMODE(path.stat().st_mode)
        io.atomic_write_text(path, "second\n")
        second = stat.S_IMODE(path.stat().st_mode)
    finally:
        os.umask(old)
    assert first == second == 0o666 & ~umask
    assert path.read_text(encoding="utf-8") == "second\n"


def test_failed_encode_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    io.atomic_write_text(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        io.atomic_write_text(path, "new\ud800\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_rename_removes_the_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    io.atomic_write_text(path, "old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(io.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        io.atomic_write_text(path, "new\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_missing_parents_are_created(tmp_path):
    path = tmp_path / "a" / "b" / "out.csv"
    io.atomic_write_text(path, "x,y\n1.0,2.0\n")
    assert path.read_text(encoding="utf-8") == "x,y\n1.0,2.0\n"


def test_existing_temp_name_is_skipped(tmp_path, monkeypatch):
    # a temp left by a killed process with this pid is neither reused nor
    # touched
    monkeypatch.setattr(io, "_TEMP_NUMBERS", itertools.count(5))
    stale = tmp_path / f"out.csv.{os.getpid()}.5.tmp"
    stale.write_text("stale", encoding="utf-8")
    io.atomic_write_text(tmp_path / "out.csv", "fresh\n")
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == "fresh\n"
    assert stale.read_text(encoding="utf-8") == "stale"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", stale.name]
