#!/usr/bin/env python3
"""Regenerate the committed CLI fixtures and golden outputs.

Everything here is deterministic (fixed grids, no noise), so reruns are
byte-identical in one environment.  The fit-derived goldens (calibrate,
fit_swap, flux_noise and the oracle_per_us column) carry round-off from
the BLAS kernel and numpy's SIMD dispatch in their last digits, so the
environment that wrote them is recorded in tests/golden/environment.json.

A program change should move only the goldens it is about.  The script
rewrites everything, so after a run restore from git whatever the change
did not mean to move: tests/data/swap_linecut.csv comes from the RK4
integrator and moves in its last digits whenever the integrator's
arithmetic does, and tests/golden/fit_swap/ is rewritten with this host's
BLAS round-off.  Run from the repository root:

    python3 tools/make_goldens.py
"""
import shutil
import sys
from pathlib import Path

import numpy as np

import zenokit as zk
from zenokit.cli import main as cli_main
from zenokit.io import (
    POPULATION_CSV_HEADER,
    SPECTRUM_CSV_HEADER,
    T1_CSV_HEADER,
    TRACE_CSV_HEADER,
    dump_json,
    environment_fingerprint,
    format_spectrum_csv,
    format_table_csv,
)
from zenokit.units import TWO_PI, mhz_to_angular

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden"

QUBIT_FREQ_MHZ = 4884.0
CHI_MHZ = 0.98
S_MHZ, K_MHZ, R_MHZ = 825.0, 5619.0, 429.0


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def make_spectra() -> None:
    center = mhz_to_angular(QUBIT_FREQ_MHZ)
    peak = zk.TlsPeak(
        center=center + mhz_to_angular(3.0),
        width=TWO_PI * 1.5,
        coupling_sq=0.25 * TWO_PI * 1.5 * 0.1,
    )
    parametric = zk.ParametricSpectrum(background=0.01, peaks=(peak,))
    grid = np.linspace(center - mhz_to_angular(15.0), center + mhz_to_angular(15.0), 601)
    hotspot = parametric.tabulate(grid)
    write(DATA / "spectrum_hotspot.csv", format_spectrum_csv(hotspot, tag=None))

    flat_freqs = np.linspace(QUBIT_FREQ_MHZ - 15.0, QUBIT_FREQ_MHZ + 15.0, 11)
    write(
        DATA / "spectrum_flat.csv",
        format_table_csv(SPECTRUM_CSV_HEADER, [(f, 0.02) for f in flat_freqs], tag=None),
    )


def make_calibration_input() -> None:
    write(
        DATA / "calibration.json",
        dump_json({"S_mhz": S_MHZ, "K_mhz": K_MHZ, "R_mhz": R_MHZ, "chi_mhz": CHI_MHZ}),
    )


def make_predict_configs() -> None:
    amplitudes = [round(0.005 * k, 10) for k in range(11)]
    base = {
        "calibration_json": "calibration.json",
        "qubit_freq_mhz": QUBIT_FREQ_MHZ,
        "amplitudes": amplitudes,
        "resolution": 40001,
        "residual_dephasing_mhz": 0.0,
    }
    write(
        DATA / "predict_config.json",
        dump_json({"spectrum_csv": "spectrum_hotspot.csv", **base}),
    )
    write(
        DATA / "predict_flat_config.json",
        dump_json({"spectrum_csv": "spectrum_flat.csv", **base}),
    )


def make_ramsey_traces() -> None:
    times = np.arange(0.0, 3.0, 0.004)
    for eps in (0.01, 0.018, 0.025, 0.032, 0.04, 0.05):
        stark_mhz = S_MHZ * eps**2 + K_MHZ * eps**4
        dephasing = TWO_PI * R_MHZ * eps**2
        signal = (
            0.45 * np.exp(-dephasing * times) * np.cos(TWO_PI * (10.0 + stark_mhz) * times + 0.3)
            + 0.5
        )
        stem = DATA / "traces" / f"ramsey_{round(eps * 1000):03d}"
        trace = format_table_csv(TRACE_CSV_HEADER, zip(times, signal), tag=None)
        write(stem.with_suffix(".csv"), trace)
        write(stem.with_suffix(".json"), dump_json({"epsilon": eps, "offset_mhz": 10.0}))
    write(
        DATA / "calibrate_config.json",
        dump_json({"chi_mhz": CHI_MHZ, "trace_dir": "traces"}),
    )


def make_oracle_config() -> None:
    write(
        DATA / "oracle_config.json",
        dump_json(
            {
                "defect": {"freq_mhz": 4300.0, "coupling_mhz": 0.1, "decay_per_us": 10.0},
                "qubit_decay_per_us": 0.01,
                "map_detunings_mhz": [-2.0, -1.0, 0.0, 1.0, 2.0],
                "map_dephasings_mhz": [0.1, 0.3, 0.5],
                "oracle_detunings_mhz": [0.0, 1.0],
                "oracle_dephasings_mhz": [0.0, 0.5],
            }
        ),
    )


def make_convert_t1_input() -> None:
    center = mhz_to_angular(QUBIT_FREQ_MHZ)
    peak = zk.TlsPeak(
        center=center + mhz_to_angular(3.0),
        width=TWO_PI * 1.5,
        coupling_sq=0.25 * TWO_PI * 1.5 * 0.1,
    )
    parametric = zk.ParametricSpectrum(background=0.01, peaks=(peak,))
    freqs = np.linspace(QUBIT_FREQ_MHZ - 15.0, QUBIT_FREQ_MHZ + 15.0, 121)
    rates = parametric.rate_at(mhz_to_angular(freqs))
    p1 = np.exp(-rates * 30.0)
    write(DATA / "convert_t1_input.csv", format_table_csv(T1_CSV_HEADER, zip(freqs, p1), tag=None))


def make_swap_linecut() -> None:
    defect = zk.DefectParams(freq=mhz_to_angular(4300.0), coupling=TWO_PI * 1.6, decay=1 / 0.103)
    model = zk.LindbladModel(qubit_freq=defect.freq, defect=defect)
    trajectory = zk.evolve(model, t_final=1.2, sample_stride=4)
    write(
        DATA / "swap_linecut.csv",
        format_table_csv(
            POPULATION_CSV_HEADER, zip(trajectory.times, trajectory.populations()), tag=None
        ),
    )


def make_echo_traces() -> None:
    times = np.linspace(0.1, 2.0, 40)
    coefficient = TWO_PI * 0.3  # rate per squared flux amplitude
    for amp in (0.25, 0.5, 0.75, 1.0):
        signal = np.exp(-coefficient * amp**2 * times)
        stem = DATA / "echo" / f"echo_{round(amp * 100):03d}"
        trace = format_table_csv(TRACE_CSV_HEADER, zip(times, signal), tag=None)
        write(stem.with_suffix(".csv"), trace)
        write(stem.with_suffix(".json"), dump_json({"flux_amp": amp}))
    write(DATA / "flux_config.json", dump_json({"trace_dir": "echo"}))


def run_cli(golden_name: str, argv: list[str]) -> None:
    out = GOLDEN / golden_name
    if out.exists():
        shutil.rmtree(out)
    code = cli_main(argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"golden command {golden_name} failed with exit code {code}")


def main() -> None:
    if DATA.exists():
        shutil.rmtree(DATA)
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    make_spectra()
    make_calibration_input()
    make_predict_configs()
    make_ramsey_traces()
    make_oracle_config()
    make_convert_t1_input()
    make_swap_linecut()
    make_echo_traces()

    run_cli("predict", ["predict", "--config", str(DATA / "predict_config.json")])
    run_cli("predict_flat", ["predict", "--config", str(DATA / "predict_flat_config.json")])
    run_cli("calibrate", ["calibrate", "--config", str(DATA / "calibrate_config.json")])
    run_cli("oracle", ["oracle", "--config", str(DATA / "oracle_config.json")])
    run_cli(
        "convert_t1",
        ["convert-t1", "--input", str(DATA / "convert_t1_input.csv"), "--t-delay", "30.0"],
    )
    run_cli(
        "fit_swap",
        ["fit-swap", "--input", str(DATA / "swap_linecut.csv"), "--f-guess", "3.2"],
    )
    run_cli("flux_noise", ["fit-flux-noise", "--config", str(DATA / "flux_config.json")])
    # Top level, beside the per-command directories, so their file lists
    # stay as the CLI writes them.
    write(GOLDEN / "environment.json", dump_json(environment_fingerprint()))
    print("fixtures written to", DATA)
    print("goldens written to", GOLDEN)


if __name__ == "__main__":
    sys.exit(main())
