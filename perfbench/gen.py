"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and writes plain CSV
and JSON with this module's own writers, never with zenokit, so a change
to the program cannot change the inputs it is measured on.  The
vacuum-Rabi linecut comes from the closed-form single-excitation
solution, not from the package's density-matrix integrator, for the same
reason.

Sizes (rows, amplitudes, contexts, map shape) follow a fixed ladder that
does not depend on the seed; the seed only moves the values.  That keeps
the work per pool pass the same on every seed, so run-to-run spread
measures the program and the machine, not the draw.

The calibration traces are noiseless.  With measurement noise at any
level from 1e-4 to 2%, 2-7% of damped-sine fits (and ~1% of echo fits)
stop with a gradient just above the LM convergence tolerance and the
CLI exits 3; a benchmark must not fail on its baseline, so noise waits
for that to be fixed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# device readout calibration (published transmon values); predict-sweep
# uses it unchanged so the Stark shift stays <= 2.1 MHz at eps = 0.05
DEVICE_CALIBRATION = {"S_mhz": 825.0, "K_mhz": 5619.0, "R_mhz": 429.0, "chi_mhz": 0.98}
SPECTRUM_HALF_SPAN_MHZ = 15.0
RAMSEY_OFFSET_MHZ = 10.0
T1_DELAY_US = 30.0


def write_csv(path: Path, header: str, columns) -> None:
    lines = [header]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def hotspot_rates(rng, freqs_mhz, center_mhz, max_peaks=3, max_height=0.2):
    """Flat background plus 1..max_peaks Lorentzian hot spots (1/us)."""
    rates = np.full(freqs_mhz.size, rng.uniform(0.005, 0.02))
    for _ in range(int(rng.integers(1, max_peaks + 1))):
        peak = center_mhz + rng.uniform(-12.0, 12.0)
        half_width = 0.5 * rng.uniform(0.5, 3.0)
        height = rng.uniform(0.02, max_height)
        rates = rates + height * half_width**2 / (half_width**2 + (freqs_mhz - peak) ** 2)
    return rates


# ---------------------------------------------------------------------------
# predict-sweep


@dataclass(frozen=True)
class PredictCase:
    config: Path
    spectrum_csv: Path
    qubit_freq_mhz: float
    amplitudes: tuple[float, ...]
    resolution: int


PREDICT_CONFIGS = 60
PREDICT_ROWS = (300, 600, 1200, 2400, 3600)
# Weak-measurement tails.  At 40001 points eps = 5e-4 leaves the filter
# ~7x narrower than the grid step (35% error); the default 4001-point
# grid gets its tail from 1e-3, since below that its error passes 100%
# and accuracy_digits would fall through zero.
TAIL_FINE = (5e-4, 1e-3, 2e-3)
TAIL_DEFAULT = (1e-3, 2e-3)


def predict_cases(rng, root: Path) -> list[PredictCase]:
    """Configs cycle through (default | 40001 points) x the row ladder."""
    write_json(root / "calibration.json", DEVICE_CALIBRATION)
    cases = []
    for i in range(PREDICT_CONFIGS):
        fine = i % 3 == 2
        rows = int(round(PREDICT_ROWS[i % len(PREDICT_ROWS)] * rng.uniform(0.95, 1.05)))
        qubit_freq = round(float(rng.uniform(4000.0, 6000.0)), 3)
        freqs = qubit_freq + np.linspace(-SPECTRUM_HALF_SPAN_MHZ, SPECTRUM_HALF_SPAN_MHZ, rows)
        spectrum = root / f"spectrum_{i:02d}.csv"
        write_csv(spectrum, "freq_mhz,gamma_per_us", (freqs, hotspot_rates(rng, freqs, qubit_freq)))
        tail = TAIL_FINE if fine else TAIL_DEFAULT
        body = np.sort(rng.uniform(0.005, 0.05, 12 - 1 - len(tail) - 1)).round(6)
        amplitudes = (0.0, *tail, *(float(a) for a in body), 0.05)
        config = {
            "spectrum_csv": spectrum.name,
            "calibration_json": "calibration.json",
            "qubit_freq_mhz": qubit_freq,
            "amplitudes": list(amplitudes),
        }
        if fine:
            config["resolution"] = 40001
        path = root / f"predict_{i:02d}.json"
        write_json(path, config)
        cases.append(PredictCase(path, spectrum, qubit_freq, amplitudes, 40001 if fine else 4001))
    return cases


# ---------------------------------------------------------------------------
# oracle-crosscheck and zeno-map


@dataclass(frozen=True)
class OracleCase:
    config: Path
    defect_freq_mhz: float
    coupling_mhz: float
    decay_per_us: float
    qubit_decay_per_us: float
    map_detunings_mhz: tuple[float, ...]
    map_dephasings_mhz: tuple[float, ...]
    oracle_detunings_mhz: tuple[float, ...]
    oracle_dephasings_mhz: tuple[float, ...]
    strong: bool


# 4 single-context fast defects, 2 two-context fast defects and 2
# strongly coupled defects with two contexts each: the single-context
# cost sits in the middle of every pass, so it sets the median, and the
# strong share exercises the oscillation path.
ORACLE_PATTERN = ("fast1", "strong", "fast2", "fast1", "fast1", "strong", "fast2", "fast1")


def _fast_defect(rng):
    """A defect in the fast-defect regime (g/kappa <= 0.12).

    The coupling is solved from a target Purcell rate kappa/40, which
    pins the oracle's integration length (and so its cost) to the same
    number of RK4 steps on every seed.  Over 600 such contexts the
    three-way deviation stayed below 2.1%, inside the 5% contract.
    """
    kappa = rng.uniform(9.0, 11.0)
    qubit_decay = rng.uniform(0.005, 0.02)
    detuning = rng.uniform(-0.5, 0.5) * kappa
    # >= 0.5/us keeps kk's 20001-point trapezoid exact to round-off; a
    # narrower filter makes its error (1e-13..1e-6) the draw's worst row
    dephasing = rng.uniform(0.5, 3.0)
    width = dephasing + kappa / 2.0 - qubit_decay / 2.0
    target = kappa / 40.0 * rng.uniform(0.98, 1.02)
    coupling = math.sqrt(target * (width**2 + detuning**2) / (2.0 * width))
    return kappa, qubit_decay, detuning, dephasing, coupling


def oracle_cases(rng, root: Path) -> list[OracleCase]:
    cases = []
    for i, kind in enumerate(ORACLE_PATTERN):
        defect_freq = round(float(rng.uniform(4000.0, 6000.0)), 3)
        if kind == "strong":
            # detuned by 1-3 rad/us: exactly on resonance the oracle's fit
            # window can close before a 1/e drop for some (g, kappa)
            kappa = 1.0 / rng.uniform(0.095, 0.11)
            qubit_decay = 0.01
            coupling = TWO_PI * rng.uniform(1.4, 1.8)
            detunings = (float(rng.uniform(1.0, 3.0)) / TWO_PI,)
            dephasings = (0.0, float(rng.uniform(0.5, 0.9)) / TWO_PI)
        else:
            kappa, qubit_decay, detuning, dephasing, coupling = _fast_defect(rng)
            detunings = (detuning / TWO_PI,)
            dephasings = (dephasing / TWO_PI,)
            if kind == "fast2":
                # second context mirrors the detuning: same Purcell rate, same cost
                detunings = (detuning / TWO_PI, -detuning / TWO_PI)
        map_det = tuple(float(x) for x in np.linspace(-2.0, 2.0, 3) * rng.uniform(0.5, 1.5))
        map_deph = tuple(float(x) for x in np.array([0.1, 0.5]) * rng.uniform(0.5, 1.5))
        cases.append(
            _oracle_case(
                root / f"oracle_{i:02d}.json",
                defect_freq,
                coupling / TWO_PI,
                kappa,
                qubit_decay,
                map_det,
                map_deph,
                detunings,
                dephasings,
                kind == "strong",
            )
        )
    return cases


ZENO_MAPS = 4
MAP_SHAPE = (400, 200)


def zeno_map_cases(rng, root: Path) -> list[OracleCase]:
    """Large (detuning x dephasing) maps with no oracle contexts."""
    cases = []
    for i in range(ZENO_MAPS):
        kappa = 1.0 / rng.uniform(0.09, 0.12)
        coupling = TWO_PI * rng.uniform(0.5, 2.0)
        span = rng.uniform(10.0, 20.0)
        detunings = np.linspace(-span, span, MAP_SHAPE[0]) + rng.uniform(-0.5, 0.5)
        dephasings = np.linspace(0.0, rng.uniform(4.0, 10.0), MAP_SHAPE[1])
        cases.append(
            _oracle_case(
                root / f"zeno_map_{i:02d}.json",
                round(float(rng.uniform(4000.0, 6000.0)), 3),
                coupling / TWO_PI,
                kappa,
                float(rng.uniform(0.005, 0.02)),
                tuple(float(x) for x in detunings),
                tuple(float(x) for x in dephasings),
                (),
                (),
                False,
            )
        )
    return cases


def _oracle_case(path, defect_freq, coupling_mhz, kappa, qubit_decay, map_det, map_deph,
                 oracle_det, oracle_deph, strong) -> OracleCase:
    write_json(
        path,
        {
            "defect": {"freq_mhz": defect_freq, "coupling_mhz": coupling_mhz,
                       "decay_per_us": kappa},
            "qubit_decay_per_us": qubit_decay,
            "map_detunings_mhz": list(map_det),
            "map_dephasings_mhz": list(map_deph),
            "oracle_detunings_mhz": list(oracle_det),
            "oracle_dephasings_mhz": list(oracle_deph),
        },
    )
    return OracleCase(path, defect_freq, coupling_mhz, kappa, qubit_decay, map_det, map_deph,
                      oracle_det, oracle_deph, strong)


# ---------------------------------------------------------------------------
# calibrate-session


@dataclass(frozen=True)
class RamseyTruth:
    epsilon: float
    stark_mhz: float
    dephasing: float  # 1/us
    amplitude: float
    phase: float
    baseline: float


@dataclass(frozen=True)
class SessionCase:
    calibrate_config: Path
    flux_config: Path
    linecut_csv: Path
    survival_csv: Path
    f_guess_mhz: float
    out: Path
    stark_quad_mhz: float
    stark_quartic_mhz: float
    dephasing_quad_mhz: float
    ramsey: tuple[RamseyTruth, ...]
    echo_amps: tuple[float, ...]
    echo_coefficient: float  # 1/us per squared flux amplitude
    coupling: float  # rad/us
    defect_decay: float  # 1/us


# Up to 0.04: at 0.05 with R 10% above the device value (dephasing
# ~8/us) the Ramsey fit's envelope seed raises IndexError.
SESSIONS = 24
RAMSEY_EPSILONS = (0.01, 0.016, 0.022, 0.028, 0.034, 0.04)
ECHO_AMPS = (0.25, 0.5, 0.75, 1.0)


def ramsey_signal(times, truth: RamseyTruth):
    return (
        truth.amplitude
        * np.exp(-truth.dephasing * times)
        * np.cos(TWO_PI * (RAMSEY_OFFSET_MHZ + truth.stark_mhz) * times + truth.phase)
        + truth.baseline
    )


def vacuum_rabi_population(times, coupling, defect_decay):
    """Closed-form resonant single-excitation decay into a lossy mode.

    With ``c_q' = -i g c_d`` and ``c_d' = -i g c_q - (kappa/2) c_d`` the
    qubit amplitude is ``exp(-kappa t/4) (cos W t + kappa/(4W) sin W t)``
    with ``W = sqrt(g^2 - kappa^2/16)``; the population is its square.
    """
    omega = math.sqrt(coupling**2 - defect_decay**2 / 16.0)
    amp = np.exp(-defect_decay * times / 4.0) * (
        np.cos(omega * times) + defect_decay / (4.0 * omega) * np.sin(omega * times)
    )
    return amp * amp


def session_cases(rng, root: Path) -> list[SessionCase]:
    cases = []
    for i in range(SESSIONS):
        base = root / f"session_{i:02d}"
        S = DEVICE_CALIBRATION["S_mhz"] * rng.uniform(0.9, 1.1)
        K = DEVICE_CALIBRATION["K_mhz"] * rng.uniform(0.8, 1.2)
        R = DEVICE_CALIBRATION["R_mhz"] * rng.uniform(0.9, 1.1)
        times = np.arange(0.0, 3.0, 0.004)
        ramsey = []
        for k, eps in enumerate(RAMSEY_EPSILONS):
            eps = round(eps * rng.uniform(0.97, 1.03), 6)
            truth = RamseyTruth(
                epsilon=eps,
                stark_mhz=S * eps**2 + K * eps**4,
                dephasing=TWO_PI * R * eps**2,
                amplitude=rng.uniform(0.4, 0.5),
                phase=rng.uniform(-math.pi, math.pi),
                baseline=rng.uniform(0.45, 0.55),
            )
            stem = base / "traces" / f"ramsey_{k}"
            write_csv(stem.with_suffix(".csv"), "time_us,signal", (times, ramsey_signal(times, truth)))
            write_json(stem.with_suffix(".json"), {"epsilon": eps, "offset_mhz": RAMSEY_OFFSET_MHZ})
            ramsey.append(truth)
        calibrate_config = base / "calibrate.json"
        write_json(calibrate_config, {"chi_mhz": DEVICE_CALIBRATION["chi_mhz"], "trace_dir": "traces"})

        coefficient = TWO_PI * 0.3 * rng.uniform(0.8, 1.2)
        echo_amplitude = rng.uniform(0.95, 1.0)
        echo_times = np.linspace(0.1, 2.0, 40)
        for amp in ECHO_AMPS:
            signal = echo_amplitude * np.exp(-coefficient * amp**2 * echo_times)
            stem = base / "echo" / f"echo_{round(amp * 100):03d}"
            write_csv(stem.with_suffix(".csv"), "time_us,signal", (echo_times, signal))
            write_json(stem.with_suffix(".json"), {"flux_amp": amp})
        flux_config = base / "flux.json"
        write_json(flux_config, {"trace_dir": "echo"})

        coupling = TWO_PI * rng.uniform(1.4, 1.8)
        defect_decay = rng.uniform(8.0, 11.0)
        line_times = np.linspace(0.0, 1.2, 601)
        population = vacuum_rabi_population(line_times, coupling, defect_decay)
        linecut = base / "linecut.csv"
        write_csv(linecut, "time_us,p1", (line_times, population))
        omega = math.sqrt(coupling**2 - defect_decay**2 / 16.0)
        f_guess = round(omega / math.pi * rng.uniform(0.9, 1.1), 4)

        center = rng.uniform(4000.0, 6000.0)
        freqs = center + np.linspace(-SPECTRUM_HALF_SPAN_MHZ, SPECTRUM_HALF_SPAN_MHZ, 121)
        rates = hotspot_rates(rng, freqs, center, max_peaks=2, max_height=0.08)
        survival = np.exp(-rates * T1_DELAY_US) * (1.0 + rng.normal(0.0, 0.002, freqs.size))
        survival_csv = base / "survival.csv"
        write_csv(survival_csv, "freq_mhz,p1", (freqs, survival))

        cases.append(
            SessionCase(
                calibrate_config=calibrate_config,
                flux_config=flux_config,
                linecut_csv=linecut,
                survival_csv=survival_csv,
                f_guess_mhz=f_guess,
                out=base / "out",
                stark_quad_mhz=S,
                stark_quartic_mhz=K,
                dephasing_quad_mhz=R,
                ramsey=tuple(ramsey),
                echo_amps=ECHO_AMPS,
                echo_coefficient=coefficient,
                coupling=coupling,
                defect_decay=defect_decay,
            )
        )
    return cases
