"""Command-line front end: calibrate, predict, and cross-check decay rates.

Subcommands
-----------
predict         spectrum CSV + calibration JSON -> decay-rate sweep
calibrate       Ramsey trace CSVs -> Stark/dephasing calibration JSON
oracle          defect parameters -> prediction-vs-density-matrix table
convert-t1      fixed-delay survival CSV -> decay-rate spectrum CSV
fit-swap        vacuum-Rabi linecut -> defect coupling and decay
fit-flux-noise  echo traces -> quadratic dephasing-vs-amplitude fit

Global flags ``--config`` and ``--out`` may appear before or after the
subcommand.  Structured parameters live in the JSON config file, which
all but ``convert-t1`` and ``fit-swap`` require; paths inside it resolve
relative to the config file's directory.  All referenced inputs are
loaded and validated before any computation runs, outputs are written
atomically at the end, and identical inputs produce byte-identical
outputs.  Below the CLI, frequencies are offsets, not GHz carriers:
``predict`` works in the qubit's frame and ``oracle`` in the defect's,
with the defect at 0.  ``calibrate`` and ``fit-flux-noise`` fit the
traces that share a time grid in one batch, each with the result it
would have alone; they report every failed trace fit in one ``trace
fits failed for:`` error, and prefix an invalid trace's DomainError with
its file name.  A non-finite ``--t-delay`` or ``--f-guess``, or one
<= 0, is a parse error, as in JSON.  Exit codes:
0 success, 2 parse error, 3 domain/fit error, 4 integrator stability
error; failures emit a machine-readable JSON object on stderr.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import kk
from .defect import DefectParams, decay_rate_map
from .errors import DomainError, FitError, ParseError, StabilityError
from .fits import (  # noqa: F401  (perfbench/tracer.py wraps fit_damped_sine and fit_exponential)
    RamseyTrace,
    Trace,
    fit_damped_sine,
    fit_damped_sines,
    fit_dephasing_quadratic,
    fit_exponential,
    fit_exponentials,
    fit_flux_noise_quadratic,
    fit_stark_poly,
    fit_swap_chevron,
    rate_from_fixed_delay,
)
from .io import (
    COMPARISON_CSV_HEADER,
    FORMAT_TAG,
    POPULATION_CSV_HEADER,
    SPECTRUM_CSV_HEADER,
    SWEEP_CSV_HEADER,
    T1_CSV_HEADER,
    TRACE_CSV_HEADER,
    ZENO_MAP_CSV_HEADER,
    atomic_write_text,
    calibration_to_json,
    dump_json,
    format_grid_csv,
    format_spectrum_csv,  # noqa: F401  (perfbench/tracer.py wraps this name)
    format_table_csv,
    read_calibration_json,
    json_number,
    json_numbers,
    json_value,
    read_columns_csv,
    read_json_object,
    read_sidecar_json,
    read_spectrum_csv,  # noqa: F401  (perfbench/tracer.py wraps this name)
    spectrum_from_mhz,
)
from .lindblad import validate_kk
from .spectrum import ParametricSpectrum
from .units import angular_to_mhz, mhz_to_angular

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_STABILITY = 4


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(getattr(args, "out", "."))
    config_path = getattr(args, "config", None)
    try:
        config, config_dir = _load_config(config_path, args.command)
        outputs = args.handler(args, config, config_dir, out_dir)
        for path, text in outputs.items():
            atomic_write_text(path, text)
    except (ParseError, OSError) as exc:
        return _fail(EXIT_PARSE, exc)
    except (DomainError, FitError) as exc:
        return _fail(EXIT_DOMAIN, exc)
    except StabilityError as exc:
        return _fail(EXIT_STABILITY, exc)
    return EXIT_OK


def _fail(code: int, exc: Exception) -> int:
    sys.stderr.write(
        dump_json({"error": type(exc).__name__, "message": str(exc), "exit_code": code})
    )
    return code


# built once per process: argparse keeps no state between parse_args calls,
# and the handlers look up the names they call at call time
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", type=Path, default=argparse.SUPPRESS, help="JSON config file"
    )
    common.add_argument(
        "--out", type=Path, default=argparse.SUPPRESS, help="output directory (default .)"
    )
    parser = argparse.ArgumentParser(prog="zenokit", parents=[common], description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", parents=[common], help="decay-rate sweep vs drive amplitude")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("calibrate", parents=[common], help="fit Ramsey traces to a calibration")
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("oracle", parents=[common], help="density-matrix cross-check table")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("convert-t1", parents=[common], help="survival CSV -> spectrum CSV")
    p.add_argument("--input", type=Path, required=True, help="CSV with header freq_mhz,p1")
    p.add_argument("--t-delay", type=float, required=True, help="fixed delay in us")
    p.set_defaults(handler=cmd_convert_t1)

    p = sub.add_parser("fit-swap", parents=[common], help="fit a vacuum-Rabi linecut")
    p.add_argument("--input", type=Path, required=True, help="CSV with header time_us,p1")
    p.add_argument("--f-guess", type=float, required=True, help="expected oscillation freq, MHz")
    p.set_defaults(handler=cmd_fit_swap)

    p = sub.add_parser("fit-flux-noise", parents=[common], help="echo traces -> quadratic fit")
    p.set_defaults(handler=cmd_fit_flux_noise)

    return parser


def _load_config(config_path, command):
    if config_path is not None:
        return read_json_object(config_path), Path(config_path).parent
    if command not in ("convert-t1", "fit-swap"):
        raise ParseError("this subcommand requires --config")
    return None, None


def _resolve(config_dir, path, key) -> Path:
    if not isinstance(path, str):
        raise ParseError(f"config: key {key!r} must hold a path string, got {path!r}")
    path = Path(path)
    if not path.is_absolute() and config_dir is not None:
        path = config_dir / path
    return path


def _trace_paths(config, config_dir) -> list[Path]:
    """The ``*.csv`` files of the config's ``trace_dir``, sorted by name.

    ``traces``, a retired list of paths, is refused whatever it holds,
    so a config written for it cannot quietly read other files.
    """
    if "traces" in config:
        raise ParseError("config: key 'traces' is retired; give the trace set as 'trace_dir'")
    directory = _resolve(config_dir, json_value(config, "trace_dir", "config"), "trace_dir")
    if not directory.is_dir():
        raise ParseError(f"trace directory {directory} does not exist")
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise ParseError("no trace files found")
    return paths


def _fit_traces(config, config_dir, sidecar_keys, prepare, fit_all) -> list[tuple]:
    """``fit_all`` on the configured traces, each read into
    ``prepare(meta, times, signal)``.

    Every sidecar and CSV is read, and every ``prepare`` built (which
    validates the fit's input), before the fit; a DomainError from
    ``prepare`` is raised with the file's name in front.  ``fit_all``
    fits the traces that share a time grid in one batch and returns
    each trace's result or FitError; the FitErrors are raised as one
    naming each failed file.  Returns ``(path, meta, result)`` per trace.
    """
    inputs = []
    for path in _trace_paths(config, config_dir):
        meta = read_sidecar_json(path, sidecar_keys)
        times, signal = read_columns_csv(path, TRACE_CSV_HEADER)
        try:
            inputs.append((path, meta, prepare(meta, times, signal)))
        except DomainError as exc:
            raise DomainError(f"{path.name}: {exc}") from None
    results = fit_all([trace for _, _, trace in inputs])
    failures = [
        f"{path.name}: {result}"
        for (path, _, _), result in zip(inputs, results)
        if isinstance(result, FitError)
    ]
    if failures:
        raise FitError("trace fits failed for: " + "; ".join(failures))
    return [(path, meta, result) for (path, meta, _), result in zip(inputs, results)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_predict(args, config, config_dir, out_dir) -> dict[Path, str]:
    spectrum_path = _resolve(
        config_dir, json_value(config, "spectrum_csv", "config"), "spectrum_csv"
    )
    freqs_mhz, rates = read_columns_csv(spectrum_path, SPECTRUM_CSV_HEADER)
    calibration = read_calibration_json(
        _resolve(config_dir, json_value(config, "calibration_json", "config"), "calibration_json")
    )
    qubit_mhz = json_number(config, "qubit_freq_mhz", "config")
    amplitudes = json_numbers(config, "amplitudes", "config")
    # the table is integrated over its own range, so norm is the filter's
    # weight on measured data; a wider window would hide the extrapolation
    if config.get("window_mhz") is not None:
        raise ParseError("config: key 'window_mhz' is retired; the table's own range is used")
    # the spectrum's rates already carry the qubit's rest linewidth, so a
    # dephasing floor added to the filter would count it twice
    residual = json_number(config, "residual_dephasing_mhz", "config", 0.0)
    if residual != 0.0:
        raise ParseError(
            f"config: key 'residual_dephasing_mhz' holds {residual!r}, but only 0 is accepted: "
            "the spectrum's rates already include the qubit's dephasing at rest"
        )

    # The sweep runs in the qubit's frame: frequencies enter kk as MHz
    # offsets from the qubit, converted to rad/us.  A 5 GHz carrier in
    # rad/us has an ulp of 3.6e-12, which a steep hot spot turns into
    # ~1e-12 of relative error in the rates; a 15 MHz offset has 1.4e-14.
    results = kk.sweep(
        spectrum_from_mhz(freqs_mhz - qubit_mhz, rates, spectrum_path),
        calibration,
        0.0,
        amplitudes,
    )
    records = [
        {
            "epsilon": eps,
            "nbar": r.context.nbar,
            "stark_mhz": angular_to_mhz(calibration.stark_shift(eps)),
            "gamma_phi_mhz": angular_to_mhz(r.context.dephasing),
            "gamma_raw_per_us": r.raw_rate,
            "norm": r.norm,
            "gamma_per_us": r.rate,
        }
        for eps, r in zip(amplitudes, results)
    ]
    return {
        out_dir / "predict.json": dump_json({"format": FORMAT_TAG, "results": records}),
        out_dir / "predict.csv": format_table_csv(
            SWEEP_CSV_HEADER, ([r.context.nbar for r in results], [r.rate for r in results])
        ),
    }


def cmd_calibrate(args, config, config_dir, out_dir) -> dict[Path, str]:
    chi = mhz_to_angular(json_number(config, "chi_mhz", "config"))
    fitted = _fit_traces(
        config,
        config_dir,
        ("epsilon", "offset_mhz"),
        lambda meta, times, signal: RamseyTrace(times, signal, offset_freq=meta["offset_mhz"]),
        fit_damped_sines,
    )
    entries = [(path, meta["epsilon"], *result) for path, meta, result in fitted]

    stark_points = [(eps, mhz_to_angular(shift)) for _, eps, shift, _, _ in entries]
    dephasing_points = [(eps, rate) for _, eps, _, rate, _ in entries]
    stark_quad, stark_quartic, stark_report = fit_stark_poly(stark_points)
    dephasing_quad, dephasing_report = fit_dephasing_quadratic(dephasing_points)
    calibration = kk.ReadoutCalibration(
        stark_quad=stark_quad,
        stark_quartic=stark_quartic,
        dephasing_quad=dephasing_quad,
        chi=chi,
        max_epsilon=max(eps for _, eps, *_ in entries),
    )

    reports = {
        "format": FORMAT_TAG,
        "traces": [
            {
                "file": path.name,
                "epsilon": eps,
                "stark_mhz": shift,
                "gamma_phi_mhz": angular_to_mhz(rate),
                "report": vars(report),
            }
            for path, eps, shift, rate, report in entries
        ],
        "stark_fit": vars(stark_report),
        "dephasing_fit": vars(dephasing_report),
    }
    return {
        out_dir / "calibration.json": calibration_to_json(calibration),
        out_dir / "fit_reports.json": dump_json(reports),
    }


def cmd_oracle(args, config, config_dir, out_dir) -> dict[Path, str]:
    # the defect's frame: the defect at 0 and each context at its MHz
    # detuning, so no carrier's round-off reaches the rates; freq_mhz is unread
    defect_cfg = json_value(config, "defect", "config")
    defect = DefectParams(
        freq=0.0,
        coupling=mhz_to_angular(json_number(defect_cfg, "coupling_mhz", "config")),
        decay=json_number(defect_cfg, "decay_per_us", "config"),
    )
    qubit_decay = json_number(config, "qubit_decay_per_us", "config", 0.0)
    map_detunings = json_numbers(config, "map_detunings_mhz", "config")
    map_dephasings = json_numbers(config, "map_dephasings_mhz", "config")
    oracle_detunings = json_numbers(config, "oracle_detunings_mhz", "config", map_detunings)
    oracle_dephasings = json_numbers(config, "oracle_dephasings_mhz", "config", map_dephasings)

    # the MHz columns echo the configured values, not a 2 pi round trip
    grid = decay_rate_map(
        [mhz_to_angular(x) for x in map_detunings],
        [mhz_to_angular(x) for x in map_dephasings],
        defect,
        qubit_decay,
    )

    coordinates = [(det, gphi) for det in oracle_detunings for gphi in oracle_dephasings]
    contexts = [
        kk.MeasurementContext(freq=mhz_to_angular(det), dephasing=mhz_to_angular(gphi))
        for det, gphi in coordinates
    ]
    spectrum = ParametricSpectrum(background=qubit_decay, peaks=(defect.spectral_peak(),))
    rows = validate_kk(spectrum, defect, contexts, qubit_decay=qubit_decay)
    comparison_columns = (
        [gphi for _, gphi in coordinates],
        [det for det, _ in coordinates],
        [r.kk_rate for r in rows],
        [r.purcell_rate for r in rows],
        [r.oracle_rate for r in rows],
        [r.dev_kk for r in rows],
        [r.dev_purcell for r in rows],
        [r.flagged for r in rows],
    )
    return {
        out_dir / "comparison.csv": format_table_csv(COMPARISON_CSV_HEADER, comparison_columns),
        out_dir / "zeno_map.csv": format_grid_csv(
            ZENO_MAP_CSV_HEADER, map_detunings, map_dephasings, grid
        ),
    }


def _check_finite(value: float, flag: str) -> None:
    # argparse's float() also takes nan, inf and 1e400
    if not math.isfinite(value):
        raise ParseError(f"{flag} holds {value!r}, not a finite number")


def cmd_convert_t1(args, config, config_dir, out_dir) -> dict[Path, str]:
    _check_finite(args.t_delay, "--t-delay")
    if not args.t_delay > 0:
        raise ParseError(f"--t-delay must be > 0 us, got {args.t_delay!r}")
    freqs, populations = read_columns_csv(args.input, T1_CSV_HEADER)
    rates = []
    for i, p1 in enumerate(populations):
        try:
            rates.append(rate_from_fixed_delay(float(p1), args.t_delay))
        except DomainError as exc:
            raise DomainError(f"{args.input}: row {i + 1} (freq {freqs[i]} MHz): {exc}") from None
    # checked as a spectrum, then written with the frequencies as read: a
    # round trip through rad/us moves some of them in their last digit
    spectrum = spectrum_from_mhz(freqs, rates, args.input)
    columns = (freqs, spectrum.rates)
    return {out_dir / "spectrum.csv": format_table_csv(SPECTRUM_CSV_HEADER, columns)}


def cmd_fit_swap(args, config, config_dir, out_dir) -> dict[Path, str]:
    _check_finite(args.f_guess, "--f-guess")
    if not args.f_guess > 0:
        raise ParseError(f"--f-guess must be > 0 MHz, got {args.f_guess!r}")
    times, populations = read_columns_csv(args.input, POPULATION_CSV_HEADER)
    coupling, defect_decay, report = fit_swap_chevron(times, populations, args.f_guess)
    payload = {
        "format": FORMAT_TAG,
        "coupling_mhz": angular_to_mhz(coupling),
        "defect_decay_per_us": defect_decay,
        "report": vars(report),
    }
    return {out_dir / "swap_fit.json": dump_json(payload)}


def cmd_fit_flux_noise(args, config, config_dir, out_dir) -> dict[Path, str]:
    fitted = _fit_traces(
        config, config_dir, ("flux_amp",), lambda meta, times, signal: Trace(times, signal),
        fit_exponentials,
    )
    points = [(meta["flux_amp"], rate) for _, meta, (rate, _) in fitted]
    per_trace = [
        {
            "file": path.name,
            "flux_amp": meta["flux_amp"],
            "gamma_phi_mhz": angular_to_mhz(rate),
            "report": vars(report),
        }
        for path, meta, (rate, report) in fitted
    ]
    coefficient, fit_report = fit_flux_noise_quadratic(points)
    payload = {
        "format": FORMAT_TAG,
        "quadratic_coef_mhz": angular_to_mhz(coefficient),
        "traces": per_trace,
        "report": vars(fit_report),
    }
    return {out_dir / "flux_noise_fit.json": dump_json(payload)}


if __name__ == "__main__":
    sys.exit(main())
