"""File formats: the one module that reads and writes zenokit's files.

Every input is opened here.  CSV inputs go through one strict table
reader, :func:`read_columns_csv`, and JSON inputs through one object
reader, :func:`read_json_object`, whose numbers go through one number
reader, :func:`json_number` (a list: :func:`json_numbers`).  A spectrum
file is held to the spectrum's own invariants, by :func:`spectrum_from_mhz`.
The other modules hold models and numerics and open no file.

The table reader parses data rows with numpy's C reader, whose
conversion is ``float()``'s own ``PyOS_string_to_double``, so the bits
are those of a per-cell ``float()``; a line-by-line ``float()`` pass
runs only on the tables that reader refuses or cannot vouch for.

Every output file embeds the format tag so downstream tooling can check
what produced it; CSV files carry it as a leading ``#`` comment, JSON
files as a ``"format"`` key.  Floats are serialized with ``repr``, which
round-trips exactly, and writes go through a temp file + rename so a
failing run never leaves a half-written output; outputs get the umask's
permissions.  CSV tables are written by column: :func:`format_table_csv`
takes equal-length 1-D columns and formats each cell with one ``repr``.
A map over a grid is written as the outer product it is, by
:func:`format_grid_csv`: each coordinate is formatted once, with its
comma, and each grid value once, so the coordinates cost one ``repr`` per
grid line, not per point.  Either writer puts the cells, separators and
newlines of all rows into one list and one join, except on a map of at
least :data:`KERNEL_MIN_CELLS` cells.  There the values are written by a
vectorized formatter, :func:`zenokit._shortest.repr_lines`, which gives
``repr``'s bytes from Schubfach's shortest digits in uint64 arithmetic:
each line is laid out in fixed NUL-padded slots, and one
``bytes.translate`` per block of map rows deletes the NULs.  Its zeros,
subnormals and non-finite values are written by ``repr`` in place.
"""
from __future__ import annotations

import itertools
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .kk import ReadoutCalibration
from .spectrum import TabulatedSpectrum
from .units import angular_to_mhz, mhz_to_angular

FORMAT_TAG = "zenokit-v1"

SPECTRUM_CSV_HEADER = "freq_mhz,gamma_per_us"
TRACE_CSV_HEADER = "time_us,signal"
POPULATION_CSV_HEADER = "time_us,p1"
T1_CSV_HEADER = "freq_mhz,p1"
COMPARISON_CSV_HEADER = (
    "gamma_phi_mhz,detuning_mhz,kk_per_us,eq2_per_us,oracle_per_us,dev_kk,dev_eq2,flag"
)
ZENO_MAP_CSV_HEADER = "detuning_mhz,gamma_phi_mhz,Gamma_per_us"
SWEEP_CSV_HEADER = "nbar,gamma_per_us"
CALIBRATION_JSON_KEYS = ("S_mhz", "K_mhz", "R_mhz", "chi_mhz")

# Environment variables that override numpy's and OpenBLAS's choice of
# compute kernel at run time.
KERNEL_ENV_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

# format_grid_csv writes the values of a map of at least this many cells
# with repr_lines.  The CLI writes one map per process, so the threshold is
# where a fresh process's first map breaks even with the import of
# _shortest (about 4 ms) included.  On a 2-core Xeon (numpy 2.4), medians
# of 7-9 fresh processes: 12288 cells (96 x 128) took 9.4 ms against
# repr's 8.7 ms, 16384 cells (1024 x 16, 512 x 32, 256 x 64, 128 x 128)
# 11.5-12.0 ms against 11.6-12.1 ms, and 20480 cells 13.1 against 14.6 ms.
# Warm, in one process, the kernel is faster from about 1024 cells on.
KERNEL_MIN_CELLS = 16384
# It writes them in blocks of whole map rows of about this many cells.  A
# 400 x 200 map took 24 ms in blocks of 6400 cells (32 rows), 27.8 ms in
# blocks of 2048 and 33.5 ms in one 80 000-cell pass, on the same host.
KERNEL_BLOCK_CELLS = 6400

# numbers the temp files of atomic_write_text, which are named from the
# pid and this count
_TEMP_NUMBERS = itertools.count()


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 via a sibling temp file and rename, so
    readers never see a partially written file.

    The missing parent directories are created.  The file gets mode
    ``0o666`` less the umask, as ``open(path, "w")`` gives a new file.
    On any failure the temp file is removed and ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # O_EXCL refuses a name that exists, such as a temp left behind by a
    # killed process that had this pid; the next number is tried then
    while True:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TEMP_NUMBERS)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        try:
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_json(payload: dict) -> str:
    """Deterministic JSON text: insertion order, exact float repr."""
    return json.dumps(payload, indent=2) + "\n"


def environment_fingerprint() -> dict:
    """What the last digits of a fitted output can depend on.

    Python and numpy versions, the BLAS/LAPACK build numpy links, numpy's
    SIMD baseline and the dispatch targets active in this process, and
    the kernel-override variables in :data:`KERNEL_ENV_VARS`.  It holds
    no time and no host name, so it is the same on every run in one
    environment.
    """
    config = np.show_config(mode="dicts")
    libs = config["Build Dependencies"]
    fingerprint = {"python": platform.python_version(), "numpy": np.__version__}
    for lib in ("blas", "lapack"):
        fingerprint[lib] = {
            key: libs[lib].get(key) for key in ("name", "version", "openblas configuration")
        }
    fingerprint["simd"] = config["SIMD Extensions"]
    fingerprint["kernel_env"] = {var: os.environ.get(var) for var in KERNEL_ENV_VARS}
    return fingerprint


def read_columns_csv(path, header: str) -> tuple[np.ndarray, ...]:
    """Strictly parse a numeric CSV whose header matches exactly.

    ``path`` is a file path, not an open stream.  Leading ``#``
    comment lines and blank lines are skipped, and so are blank lines
    among the data rows.  A header mismatch, no data rows, or a row with
    the wrong column count, a non-numeric or a non-finite value raises
    :class:`ParseError`, naming the file and, for a bad row, its line.
    Returns one contiguous array per column.

    The data rows are parsed by numpy's C reader, ``np.loadtxt``.  It
    converts each cell with ``PyOS_string_to_double``, the routine
    ``float()`` calls, so the bits are those of ``float()`` on each
    cell.  Where that reader raises, or returns a table of the wrong
    width or with a non-finite value, the rows are parsed again line by
    line with ``float()``, which either raises the error naming the line
    or returns the table: ``float()`` alone takes ``1_000``, non-ASCII
    digits and whitespace-only lines among the rows.  Lines are numbered
    by the file's own newline rule (LF, CRLF or CR), and the file is
    read once, so a pipe can be read too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_columns(fh, os.fspath(path), header)


def _parse_columns(fh, name: str, header: str) -> tuple[np.ndarray, ...]:
    seen_header = None
    lineno = 0
    for line in fh:
        lineno += 1
        if line.strip() and not line.startswith("#"):
            seen_header = line.strip()
            break
    if seen_header != header:
        raise ParseError(f"{name}: expected header {header!r}, got {seen_header!r}")
    n_cols = header.count(",") + 1
    # the text layer has already turned every newline into "\n", so this
    # split gives the file's own lines; read once, never seeked back, so
    # that a pipe reads too
    rest = fh.read()
    if not rest.strip():
        raise ParseError(f"{name}: no data rows")
    lines = rest.split("\n")
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[1] != n_cols or not np.isfinite(table).all():
        table = _parse_lines(lines, name, n_cols, lineno)
    return tuple(table[:, j].copy() for j in range(n_cols))


def _parse_lines(lines, name: str, n_cols: int, lineno: int) -> np.ndarray:
    """The rows of ``lines``, which follow line ``lineno``, by ``float()``
    line by line, or the :class:`ParseError` of the first bad line."""
    kept = []
    for lineno, line in enumerate(lines, lineno + 1):
        if not line.strip():
            continue
        if line.count(",") != n_cols - 1:
            raise ParseError(
                f"{name}:{lineno}: expected {n_cols} columns, got {line.count(',') + 1}"
            )
        kept.append((lineno, line))
    # every row's width is checked before any cell is parsed
    rows = []
    for lineno, line in kept:
        try:
            rows.append([float(part.strip()) for part in line.split(",")])
        except ValueError as exc:
            raise ParseError(f"{name}:{lineno}: {exc}") from None
    table = np.array(rows)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError(f"{name}:{kept[int(np.argmin(finite))][0]}: non-finite value")
    return table


def read_spectrum_csv(path) -> TabulatedSpectrum:
    """Parse a ``freq_mhz,gamma_per_us`` CSV into a tabulated spectrum.

    The format is strict: the table rules of :func:`read_columns_csv`,
    then the spectrum's own (see :func:`spectrum_from_mhz`).
    """
    return spectrum_from_mhz(*read_columns_csv(path, SPECTRUM_CSV_HEADER), path)


def spectrum_from_mhz(freqs_mhz, rates, path) -> TabulatedSpectrum:
    """The :class:`TabulatedSpectrum` of columns read from ``path``; its
    ``DomainError`` is raised as a :class:`ParseError` naming the file."""
    try:
        return TabulatedSpectrum(mhz_to_angular(freqs_mhz), rates)
    except DomainError as exc:
        raise ParseError(f"{os.fspath(path)}: {exc}") from None


def format_spectrum_csv(spectrum: TabulatedSpectrum, tag: str | None = None) -> str:
    """Render a tabulated spectrum back to the CSV format, MHz boundary units."""
    columns = (angular_to_mhz(spectrum.omegas), spectrum.rates)
    return format_table_csv(SPECTRUM_CSV_HEADER, columns, tag)


def format_table_csv(header: str, columns, tag: str | None = FORMAT_TAG) -> str:
    """Render equal-length 1-D columns under a fixed header.

    ``header`` names one column per entry of ``columns``.  A bool column
    is written as ``1``/``0``.  Any other column is converted to float64
    and each cell is written as ``repr(float(v))``, which round-trips
    exactly and keeps ``-0.0`` apart from ``0.0``.  A column that is not
    1-D, a column count that differs from the header's, or columns of
    unequal length raise ``ValueError``, so rows passed in place of
    columns are refused rather than transposed.
    """
    arrays = [np.asarray(column) for column in columns]
    n_cols = header.count(",") + 1
    if len(arrays) != n_cols:
        raise ValueError(f"header {header!r} names {n_cols} columns, got {len(arrays)}")
    if any(a.ndim != 1 for a in arrays):
        raise ValueError(f"columns must be 1-D, got shapes {[a.shape for a in arrays]}")
    if len({a.size for a in arrays}) > 1:
        raise ValueError(f"columns differ in length: {[a.size for a in arrays]}")
    # one flat list: cell, ",", cell, ..., cell, "\n" per row, so the
    # join reads the cells and no row string is built
    k, n = len(arrays), arrays[0].size
    parts = [","] * (2 * k * n)
    for j, array in enumerate(arrays):
        parts[2 * j :: 2 * k] = _column_cells(array)
    parts[2 * k - 1 :: 2 * k] = ["\n"] * n
    return _csv_head(header, tag) + "".join(parts)


def _column_cells(column: np.ndarray) -> list[str]:
    if column.dtype == np.bool_:
        return ["1" if v else "0" for v in column.tolist()]
    return [*map(repr, column.astype(np.float64).tolist())]


def format_grid_csv(header: str, rows, columns, values, tag: str | None = FORMAT_TAG) -> str:
    """Render a map as ``rows[i],columns[j],values[i, j]`` lines in
    row-major order under a three-column header.

    The bytes are those of :func:`format_table_csv` on the
    ``repeat``/``tile``/``ravel`` columns, but each coordinate is
    formatted once, with its comma.  The values of a map of at least
    :data:`KERNEL_MIN_CELLS` cells are formatted by
    :func:`zenokit._shortest.repr_lines`: the same bytes as ``repr``, from
    integer arithmetic only, in blocks of whole rows of about
    :data:`KERNEL_BLOCK_CELLS` cells; a smaller map is formatted by
    ``repr``.  Coordinates that are not 1-D, or
    ``values`` whose shape is not ``(len(rows), len(columns))``, raise
    ``ValueError``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    columns = np.asarray(columns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rows.ndim != 1 or columns.ndim != 1 or values.shape != (rows.size, columns.size):
        raise ValueError(
            f"values of shape {values.shape} do not span rows of shape {rows.shape}"
            f" and columns of shape {columns.shape}"
        )
    row_cells = [f"{v!r}," for v in rows.tolist()]
    column_cells = [f"{v!r}," for v in columns.tolist()]
    if values.size >= KERNEL_MIN_CELLS:
        return _csv_head(header, tag) + _grid_lines(row_cells, column_cells, values)
    # one flat list: row cell, column cell, value, "\n" per line
    parts = ["\n"] * (4 * values.size)
    parts[0::4] = [cell for cell in row_cells for _ in column_cells]
    parts[1::4] = column_cells * len(row_cells)
    parts[2::4] = [*map(repr, values.ravel().tolist())]
    return _csv_head(header, tag) + "".join(parts)


def _grid_lines(row_cells, column_cells, values) -> str:
    """The map's lines, the values written by :func:`repr_lines`.  Each
    line is laid out in fixed NUL-padded slots, and the NULs of each block
    of whole map rows, about :data:`KERNEL_BLOCK_CELLS` cells, are deleted
    in one pass."""
    # imported on first use: its compile and tables cost about 5 ms and
    # 1 MB of peak memory, which commands that write no large map skip
    from ._shortest import WORDS, repr_lines

    row_slots = _cell_slots(row_cells)
    column_slots = _cell_slots(column_cells)
    row_width = row_slots.shape[1]
    head = row_width + column_slots.shape[1]
    # the value's words start at a word boundary
    head_words = -(-head // 8)
    block_rows = max(1, KERNEL_BLOCK_CELLS // len(column_cells))
    lines = np.zeros((block_rows, len(column_cells), head_words + WORDS), np.uint64)
    line_bytes = lines.view(np.uint8)
    line_bytes[:, :, row_width:head] = column_slots
    blocks = []
    for start in range(0, len(row_cells), block_rows):
        block = values[start : start + block_rows]
        line_bytes[: len(block), :, :row_width] = row_slots[start : start + len(block), None]
        used = lines[: len(block)]
        repr_lines(block.ravel(), used.reshape(block.size, -1)[:, head_words:])
        blocks.append(used.tobytes().translate(None, b"\0"))
    return b"".join(blocks).decode("ascii")


def _cell_slots(cells: list[str]) -> np.ndarray:
    """The ASCII ``cells`` as rows of one width, padded with NUL."""
    width = max(map(len, cells))
    return np.array(cells, f"S{width}").view(np.uint8).reshape(len(cells), width)


def _csv_head(header: str, tag: str | None) -> str:
    return f"# {tag}\n{header}\n" if tag else f"{header}\n"


def read_json_object(path) -> dict:
    """Load a JSON file whose top level is an object.

    Malformed JSON or another top-level value raises :class:`ParseError`
    naming the file; a missing file raises ``open``'s ``OSError``.
    """
    name = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{name}: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{name}: expected a JSON object")
    return payload


def json_value(payload, key, name, default=None):
    """``payload[key]`` of the JSON input ``name``, or ``default`` if given.

    A missing key, or a ``payload`` that is not an object, raises
    :class:`ParseError` naming ``name`` and ``key``.
    """
    if not isinstance(payload, dict):
        raise ParseError(f"{name}: expected an object holding key {key!r}, got {payload!r}")
    if default is None and key not in payload:
        raise ParseError(f"{name}: missing key {key!r}")
    return payload.get(key, default)


def json_number(payload, key, name, default=None) -> float:
    """:func:`json_value` as a float; it must be a finite JSON number.

    A boolean, a string, NaN, an infinity or an int beyond float range
    raises :class:`ParseError` naming ``name`` and ``key``.
    """
    return _finite_number(json_value(payload, key, name, default), key, name)


def json_numbers(payload, key, name, default=None) -> list[float]:
    """:func:`json_number`'s rule and message on each element of the list
    under ``key``."""
    values = json_value(payload, key, name, default)
    if not isinstance(values, list):
        raise ParseError(f"{name}: key {key!r} must hold a list of numbers, got {values!r}")
    return [_finite_number(value, key, name) for value in values]


def _finite_number(value, key, name) -> float:
    # type(), not isinstance(): a bool is an int.  The exact comparison
    # refuses NaN, infinities and the ints that float() overflows on.
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ParseError(f"{name}: key {key!r} holds {value!r}, not a finite number")


def read_sidecar_json(trace_path, keys) -> dict[str, float]:
    """A trace's metadata sidecar, ``foo.csv`` -> ``foo.json`` next to it.

    Each of ``keys`` must hold a :func:`json_number`; returns those
    values by key.
    """
    sidecar = Path(trace_path).with_suffix(".json")
    try:
        payload = read_json_object(sidecar)
    except FileNotFoundError:
        raise ParseError(f"missing sidecar {sidecar} for trace {trace_path}") from None
    return {key: json_number(payload, key, sidecar) for key in keys}


def calibration_to_json(calibration: ReadoutCalibration) -> str:
    """The calibration in MHz; its amplitude range, when it has one, as
    the plain amplitude ``max_epsilon``."""
    payload = {
        "format": FORMAT_TAG,
        "S_mhz": angular_to_mhz(calibration.stark_quad),
        "K_mhz": angular_to_mhz(calibration.stark_quartic),
        "R_mhz": angular_to_mhz(calibration.dephasing_quad),
        "chi_mhz": angular_to_mhz(calibration.chi),
    }
    if calibration.max_epsilon is not None:
        payload["max_epsilon"] = calibration.max_epsilon
    return dump_json(payload)


def read_calibration_json(path) -> ReadoutCalibration:
    """Calibration JSON with the :func:`json_number` fields
    :data:`CALIBRATION_JSON_KEYS` and the optional ``max_epsilon``.

    A calibration that violates :class:`ReadoutCalibration`'s invariants
    is a malformed file here, so it raises :class:`ParseError` too.
    """
    name = os.fspath(path)
    payload = read_json_object(path)
    fields = [json_number(payload, key, name) for key in CALIBRATION_JSON_KEYS]
    max_epsilon = None
    if "max_epsilon" in payload:
        max_epsilon = json_number(payload, "max_epsilon", name)
    try:
        # the keys come in ReadoutCalibration's field order
        return ReadoutCalibration(*map(mhz_to_angular, fields), max_epsilon=max_epsilon)
    except DomainError as exc:
        raise ParseError(f"{name}: {exc}") from None

