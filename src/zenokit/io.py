"""File formats: the one module that reads and writes zenokit's files.

Every input is opened here.  CSV inputs go through one strict table
reader, :func:`read_columns_csv`, and JSON inputs through one object
reader, :func:`read_json_object`, whose numbers go through one number
reader, :func:`json_number` (a list: :func:`json_numbers`).  A spectrum
file is held to the spectrum's own invariants, by :func:`spectrum_from_mhz`.
The other modules hold models and numerics and open no file.

Every output file embeds the format tag so downstream tooling can check
what produced it; CSV files carry it as a leading ``#`` comment, JSON
files as a ``"format"`` key.  Floats are serialized with ``repr``, which
round-trips exactly, and writes go through a temp file + rename so a
failing run never leaves a half-written output.  CSV tables are written
by column: :func:`format_table_csv` takes equal-length 1-D columns and
formats each distinct value of a column once, so a map's coordinate
columns cost one ``repr`` per grid line, not per point.
"""
from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
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


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partially written file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    comment lines and blank lines are skipped.  A header mismatch, no
    data rows, or a row with the wrong column count, a non-numeric or a
    non-finite value raises :class:`ParseError`, naming the file and,
    for a bad row, its line.  Returns one contiguous array per column.
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
    lines, linenos = [], []
    for lineno, line in enumerate(fh, lineno + 1):
        if line.count(",") == n_cols - 1:
            lines.append(line)
            linenos.append(lineno)
        elif line.strip():
            raise ParseError(
                f"{name}:{lineno}: expected {n_cols} columns, got {line.count(',') + 1}"
            )
    if not lines:
        raise ParseError(f"{name}: no data rows")
    # float() every cell of one joined string and check finiteness once
    # over the table, keeping per-row objects out of the hot loop; a
    # failure is then traced back to its line
    try:
        table = np.array([*map(float, ",".join(lines).split(","))]).reshape(-1, n_cols)
    except ValueError:
        for lineno, line in zip(linenos, lines):
            try:
                [float(part.strip()) for part in line.split(",")]
            except ValueError as exc:
                raise ParseError(f"{name}:{lineno}: {exc}") from None
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError(f"{name}:{linenos[int(np.argmin(finite))]}: non-finite value")
    return tuple(table[:, j].copy() for j in range(n_cols))


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
    and written with ``repr``, which round-trips exactly; ``repr`` runs
    once per distinct bit pattern in the column, so ``-0.0`` and ``0.0``
    stay apart.  The bytes are those of ``repr(float(v))`` per cell.  A
    column that is not 1-D, a column count that differs from the
    header's, or columns of unequal length raise ``ValueError``, so rows
    passed in place of columns are refused rather than transposed.
    """
    arrays = [np.asarray(column) for column in columns]
    n_cols = header.count(",") + 1
    if len(arrays) != n_cols:
        raise ValueError(f"header {header!r} names {n_cols} columns, got {len(arrays)}")
    if any(a.ndim != 1 for a in arrays):
        raise ValueError(f"columns must be 1-D, got shapes {[a.shape for a in arrays]}")
    if len({a.size for a in arrays}) > 1:
        raise ValueError(f"columns differ in length: {[a.size for a in arrays]}")
    lines = [f"# {tag}", header] if tag else [header]
    lines += map(",".join, zip(*map(_column_cells, arrays), strict=True))
    return "\n".join(lines) + "\n"


def _column_cells(column: np.ndarray) -> list[str]:
    if column.dtype == np.bool_:
        return ["1" if v else "0" for v in column.tolist()]
    values = np.ascontiguousarray(column, dtype=np.float64)
    # one repr per distinct bit pattern: the int64 view keeps -0.0 apart
    # from 0.0, which compare equal as floats
    patterns, inverse = np.unique(values.view(np.int64), return_inverse=True)
    cells = np.array([*map(repr, patterns.view(np.float64).tolist())], dtype=object)
    return cells[inverse].tolist()


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
    value = json_value(payload, key, name, default)
    # type(), not isinstance(): a bool is an int.  The exact comparison
    # refuses NaN, infinities and the ints that float() overflows on.
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ParseError(f"{name}: key {key!r} holds {value!r}, not a finite number")


def json_numbers(payload, key, name, default=None, length=None) -> list[float]:
    """:func:`json_number` on each element of the list under ``key``,
    which must hold ``length`` elements if that is given."""
    values = json_value(payload, key, name, default)
    if not isinstance(values, list) or length not in (None, len(values)):
        size = f"{length} " if length else ""
        raise ParseError(f"{name}: key {key!r} must hold a list of {size}numbers, got {values!r}")
    return [json_number({key: value}, key, name) for value in values]


def read_sidecar_json(trace_path, keys) -> dict[str, float]:
    """A trace's metadata sidecar, ``foo.csv`` -> ``foo.json`` next to it.

    Each of ``keys`` must hold a :func:`json_number`; returns those
    values by key.
    """
    sidecar = Path(trace_path).with_suffix(".json")
    if not sidecar.exists():
        raise ParseError(f"missing sidecar {sidecar} for trace {trace_path}")
    payload = read_json_object(sidecar)
    return {key: json_number(payload, key, sidecar) for key in keys}


def calibration_to_json(calibration: ReadoutCalibration) -> str:
    return dump_json(
        {
            "format": FORMAT_TAG,
            "S_mhz": angular_to_mhz(calibration.stark_quad),
            "K_mhz": angular_to_mhz(calibration.stark_quartic),
            "R_mhz": angular_to_mhz(calibration.dephasing_quad),
            "chi_mhz": angular_to_mhz(calibration.chi),
        }
    )


def read_calibration_json(path) -> ReadoutCalibration:
    """Calibration JSON with the :func:`json_number` fields
    :data:`CALIBRATION_JSON_KEYS`.

    A calibration that violates :class:`ReadoutCalibration`'s invariants
    is a malformed file here, so it raises :class:`ParseError` too.
    """
    name = os.fspath(path)
    payload = read_json_object(path)
    fields = [json_number(payload, key, name) for key in CALIBRATION_JSON_KEYS]
    try:
        # the keys come in ReadoutCalibration's field order
        return ReadoutCalibration(*map(mhz_to_angular, fields))
    except DomainError as exc:
        raise ParseError(f"{name}: {exc}") from None

