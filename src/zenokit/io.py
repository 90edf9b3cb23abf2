"""File formats: strict CSV/JSON readers and atomic, tagged writers.

Every output file embeds the format tag so downstream tooling can check
what produced it; CSV files carry it as a leading ``#`` comment, JSON
files as a ``"format"`` key.  Floats are serialized with ``repr``, which
round-trips exactly, and writes go through a temp file + rename so a
failing run never leaves a half-written output.
"""
from __future__ import annotations

import io as _io
import json
import math
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from .errors import ParseError
from .fits import FitReport, ReadoutCalibration
from .units import angular_to_mhz, mhz_to_angular

FORMAT_TAG = "zenokit-v1"

TRACE_CSV_HEADER = "time_us,signal"
POPULATION_CSV_HEADER = "time_us,p1"
T1_CSV_HEADER = "freq_mhz,p1"
COMPARISON_CSV_HEADER = (
    "gamma_phi_mhz,detuning_mhz,kk_per_us,eq2_per_us,oracle_per_us,dev_kk,dev_eq2,flag"
)
ZENO_MAP_CSV_HEADER = "detuning_mhz,gamma_phi_mhz,Gamma_per_us"
SWEEP_CSV_HEADER = "nbar,gamma_per_us"

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

    Leading ``#`` comment lines are skipped; non-finite values, wrong
    column counts, and header mismatches raise :class:`ParseError`.
    """
    name = os.fspath(path)
    n_cols = len(header.split(","))
    with open(path, "r", encoding="utf-8") as fh:
        seen_header = None
        lineno = 0
        for line in fh:
            lineno += 1
            if line.startswith("#"):
                continue
            seen_header = line.strip()
            break
        if seen_header != header:
            raise ParseError(f"{name}: expected header {header!r}, got {seen_header!r}")
        columns = [[] for _ in range(n_cols)]
        for line in fh:
            lineno += 1
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_cols:
                raise ParseError(f"{name}:{lineno}: expected {n_cols} columns")
            for col, part in zip(columns, parts):
                try:
                    value = float(part)
                except ValueError as exc:
                    raise ParseError(f"{name}:{lineno}: {exc}") from None
                if not math.isfinite(value):
                    raise ParseError(f"{name}:{lineno}: non-finite value")
                col.append(value)
    if not columns[0]:
        raise ParseError(f"{name}: no data rows")
    return tuple(np.asarray(c) for c in columns)


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


def read_sidecar_json(trace_path) -> dict:
    """Metadata sidecar: ``foo.csv`` -> ``foo.json`` next to it."""
    sidecar = Path(trace_path).with_suffix(".json")
    if not sidecar.exists():
        raise ParseError(f"missing sidecar {sidecar} for trace {trace_path}")
    with open(sidecar, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{sidecar}: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError(f"{sidecar}: expected a JSON object")
    return meta


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
    name = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{name}: {exc}") from None
    try:
        return ReadoutCalibration(
            stark_quad=mhz_to_angular(float(payload["S_mhz"])),
            stark_quartic=mhz_to_angular(float(payload["K_mhz"])),
            dephasing_quad=mhz_to_angular(float(payload["R_mhz"])),
            chi=mhz_to_angular(float(payload["chi_mhz"])),
        )
    except KeyError as exc:
        raise ParseError(f"{name}: missing calibration field {exc}") from None
    except (TypeError, ValueError) as exc:
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
