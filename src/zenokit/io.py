"""File formats: the one module that reads and writes zenokit's files.

Every input is opened here.  CSV inputs go through one strict table
reader, :func:`read_columns_csv`, and JSON inputs through one object
reader, :func:`read_json_object`; the format readers built on them
(loss spectrum, trace sidecar, calibration) add only their own checks.
The other modules hold models and numerics and open no file.

Every output file embeds the format tag so downstream tooling can check
what produced it; CSV files carry it as a leading ``#`` comment, JSON
files as a ``"format"`` key.  Floats are serialized with ``repr``, which
round-trips exactly, and writes go through a temp file + rename so a
failing run never leaves a half-written output.
"""
from __future__ import annotations

import io as _io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .fits import FitReport
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

    ``path`` is a file path or an open text stream.  Leading ``#``
    comment lines and blank lines are skipped.  A header mismatch, no
    data rows, or a row with the wrong column count, a non-numeric or a
    non-finite value raises :class:`ParseError`, naming the file and,
    for a bad row, its line.  Returns one contiguous array per column.
    """
    if hasattr(path, "read"):
        return _parse_columns(path, "<stream>", header)
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_columns(fh, os.fspath(path), header)


def _parse_columns(fh, name: str, header: str) -> tuple[np.ndarray, ...]:
    seen_header = None
    lineno = 0
    for line in fh:
        lineno += 1
        if not line.startswith("#"):
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


def read_spectrum_csv(path_or_file) -> TabulatedSpectrum:
    """Parse a ``freq_mhz,gamma_per_us`` CSV into a tabulated spectrum.

    The format is strict: the table rules of :func:`read_columns_csv`,
    at least 2 rows, absolute ordinary frequencies in MHz sorted
    strictly ascending, and non-negative rates.
    """
    freqs, rates = read_columns_csv(path_or_file, SPECTRUM_CSV_HEADER)
    name = "<stream>" if hasattr(path_or_file, "read") else os.fspath(path_or_file)
    if freqs.size < 2:
        raise ParseError(f"{name}: need at least 2 data rows, got {freqs.size}")
    steps = np.diff(freqs)
    if np.any(steps == 0):
        raise ParseError(f"{name}: duplicate frequencies")
    if np.any(steps < 0):
        raise ParseError(f"{name}: frequencies not sorted ascending")
    if np.any(rates < 0):
        raise ParseError(f"{name}: negative decay rate")
    return TabulatedSpectrum(mhz_to_angular(freqs), rates)


def format_spectrum_csv(spectrum: TabulatedSpectrum, tag: str | None = None) -> str:
    """Render a tabulated spectrum back to the CSV format, MHz boundary units."""
    rows = zip(angular_to_mhz(spectrum.omegas), spectrum.rates)
    return format_table_csv(SPECTRUM_CSV_HEADER, rows, tag)


def format_table_csv(header: str, rows, tag: str | None = FORMAT_TAG) -> str:
    """Render rows of floats (or bools) under a fixed header."""
    buf = _io.StringIO()
    if tag:
        buf.write(f"# {tag}\n")
    buf.write(header + "\n")
    for row in rows:
        buf.write(",".join(_cell(v) for v in row) + "\n")
    return buf.getvalue()


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(float(value))


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


def _float_fields(payload: dict, keys, name) -> dict[str, float]:
    fields = {}
    for key in keys:
        if key not in payload:
            raise ParseError(f"{name}: missing key {key!r}")
        try:
            fields[key] = float(payload[key])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{name}: key {key!r}: {exc}") from None
    return fields


def read_sidecar_json(trace_path, keys) -> dict[str, float]:
    """A trace's metadata sidecar, ``foo.csv`` -> ``foo.json`` next to it.

    Each of ``keys`` must be present and convert to a float; returns
    those values by key.
    """
    sidecar = Path(trace_path).with_suffix(".json")
    if not sidecar.exists():
        raise ParseError(f"missing sidecar {sidecar} for trace {trace_path}")
    return _float_fields(read_json_object(sidecar), keys, sidecar)


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
    """Calibration JSON with the float fields :data:`CALIBRATION_JSON_KEYS`.

    A calibration that violates :class:`ReadoutCalibration`'s invariants
    is a malformed file here, so it raises :class:`ParseError` too.
    """
    name = os.fspath(path)
    fields = _float_fields(read_json_object(path), CALIBRATION_JSON_KEYS, name)
    try:
        # the keys come in ReadoutCalibration's field order
        return ReadoutCalibration(*(mhz_to_angular(v) for v in fields.values()))
    except DomainError as exc:
        raise ParseError(f"{name}: {exc}") from None


def report_to_dict(report: FitReport) -> dict:
    return {
        "parameters": dict(report.parameters),
        "uncertainties": dict(report.uncertainties),
        "residual_norm": report.residual_norm,
        "converged": report.converged,
        "iterations": report.iterations,
        "gradient_norm": report.gradient_norm,
        "warnings": list(report.warnings),
    }
