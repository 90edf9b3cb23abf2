"""The four benchmark workloads: seeded pools of CLI invocations.

Each workload builds a pool of invocations from the seed (inputs on disk,
references in memory).  An invocation is one or more ``zenokit.cli.main``
argument lists run back to back; its gate reads the files it wrote and
returns the gate failures plus the worst relative error of any numeric
output against the references.  Gates run outside the timed interval.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import gen, refs

FORMAT_TAG = "zenokit-v1"
TWO_PI = refs.TWO_PI
FAST_DEFECT_CONTRACT = 0.05
# noiseless fits recover their generating parameters to this (README: 1e-6)
RECOVERY_TOL = 1e-6
FLAG_THRESHOLD = 0.1
# a resolved predict row may miss its reference by this many times the
# trapezoid's error bound (the worst row seen reached 0.995 of it)
TRAPEZOID_MARGIN = 4.0
# round-off floor for predict rows, e.g. the golden-rule row at eps = 0
ROUNDOFF_TOL = 1e-12


@dataclass
class Gate:
    """Collects gate failures and the worst relative error of one invocation."""

    errors: list[str] = field(default_factory=list)
    worst: float = 0.0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def compare(self, what: str, value: float, reference: float, tol: float | None = None,
                atol: float = 0.0, record: bool = True) -> None:
        """Record ``|value - reference| / |reference|``; fail beyond ``tol``."""
        diff = abs(value - reference)
        if record and reference != 0.0:
            self.worst = max(self.worst, diff / abs(reference))
        if tol is not None and not diff <= tol * abs(reference) + atol:
            self.errors.append(f"{what}: {value!r} vs reference {reference!r}")


@dataclass
class Invocation:
    argvs: list[list[str]]
    items: int
    check: Callable[[], Gate]


def _guarded(check: Callable[[Gate], None]) -> Callable[[], Gate]:
    """Turn a missing or malformed output into a gate failure, not a crash."""
    def run() -> Gate:
        gate = Gate()
        try:
            check(gate)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            gate.errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return gate
    return run


def read_tagged_csv(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or lines[0] != f"# {FORMAT_TAG}" or lines[1] != header:
        raise ValueError(f"{path.name}: bad format tag or header {lines[:2]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return np.asarray(rows, dtype=float).reshape(len(rows), len(header.split(",")))


def read_tagged_json(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("format") != FORMAT_TAG:
        raise ValueError(f"{path.name}: format tag {payload.get('format')!r}")
    return payload


# ---------------------------------------------------------------------------
# predict-sweep: kk + spectrum

PREDICT_KEYS = ["epsilon", "nbar", "stark_mhz", "gamma_phi_mhz", "gamma_raw_per_us", "norm",
                "gamma_per_us"]


def predict_sweep(rng, root: Path, zk) -> list[Invocation]:
    cal = gen.DEVICE_CALIBRATION
    invocations = []
    for i, case in enumerate(gen.predict_cases(rng, root)):
        table = np.loadtxt(case.spectrum_csv, delimiter=",", skiprows=1)
        freqs, rates = table[:, 0], table[:, 1]
        step = (freqs[-1] - freqs[0]) / (case.resolution - 1)
        expected = []
        for eps in case.amplitudes:
            stark = cal["S_mhz"] * eps**2 + cal["K_mhz"] * eps**4
            half_width = cal["R_mhz"] * eps**2
            # below kk's threshold the predictor takes the golden-rule limit
            if TWO_PI * half_width < zk.kk.DELTA_LIMIT:
                half_width = 0.0
            center = case.qubit_freq_mhz + stark
            rate, norm = refs.pwl_lorentzian_rate(freqs, rates, center, half_width)
            # the trapezoid resolves the filter only when its step is below the
            # half-width; kk documents coarser grids as the caller's problem
            resolved = half_width == 0.0 or step <= half_width
            tol = ROUNDOFF_TOL
            if half_width > 0.0 and resolved:
                tol = max(tol, TRAPEZOID_MARGIN * refs.trapezoid_error_bound(
                    freqs, rates, center, half_width, case.resolution))
            expected.append((eps, stark, half_width, rate, norm, resolved, tol))
        out = root / "out" / f"predict_{i:02d}"
        invocations.append(Invocation(
            argvs=[["predict", "--config", str(case.config), "--out", str(out)]],
            items=len(case.amplitudes),
            check=_guarded(lambda gate, out=out, expected=expected, lo=rates.min(),
                           hi=rates.max(): _check_predict(gate, out, expected, lo, hi)),
        ))
    return invocations


def _check_predict(gate: Gate, out: Path, expected, spec_min: float, spec_max: float) -> None:
    chi = gen.DEVICE_CALIBRATION["chi_mhz"]
    records = read_tagged_json(out / "predict.json")["results"]
    table = read_tagged_csv(out / "predict.csv", "nbar,gamma_per_us")
    gate.require(len(records) == len(expected) == len(table), "row count")
    for rec, row, (eps, stark, half_width, rate, norm, resolved, tol) in zip(records, table,
                                                                              expected):
        gate.require(list(rec) == PREDICT_KEYS, f"keys {list(rec)}")
        gate.require(rec["epsilon"] == eps, f"epsilon {rec['epsilon']} != {eps}")
        gate.require((row[0], row[1]) == (rec["nbar"], rec["gamma_per_us"]), "csv != json")
        # stark_mhz is a difference of GHz-scale carriers: absolute round-off
        gate.compare("stark_mhz", rec["stark_mhz"], stark, 1e-12, 1e-11)
        gate.compare("gamma_phi_mhz", rec["gamma_phi_mhz"], half_width, 1e-12, 1e-15)
        gate.compare("nbar", rec["nbar"], stark / (2.0 * chi), 1e-12, 1e-15)
        gate.require(0.0 < rec["norm"] <= 1.0, f"norm {rec['norm']} outside (0, 1]")
        gate.compare("norm", rec["norm"], norm, 1e-9)
        gate.compare("gamma_raw/norm", rec["gamma_raw_per_us"] / rec["norm"],
                     rec["gamma_per_us"], 1e-12)
        if resolved:
            gate.compare(f"gamma_per_us eps={eps}", rec["gamma_per_us"], rate, tol)
            slack = 1e-9 * spec_max
            gate.require(spec_min - slack <= rec["gamma_per_us"] <= spec_max + slack,
                         f"rate {rec['gamma_per_us']} outside window range")
        else:
            gate.compare(f"gamma_per_us eps={eps}", rec["gamma_per_us"], rate)


# ---------------------------------------------------------------------------
# oracle-crosscheck (lindblad) and zeno-map (defect + io writes)

COMPARISON_HEADER = (
    "gamma_phi_mhz,detuning_mhz,kk_per_us,eq2_per_us,oracle_per_us,dev_kk,dev_eq2,flag"
)
MAP_HEADER = "detuning_mhz,gamma_phi_mhz,Gamma_per_us"


def _oracle_invocations(zk, root: Path, cases) -> list[Invocation]:
    invocations = []
    for case in cases:
        coupling = TWO_PI * case.coupling_mhz
        defect_freq = TWO_PI * case.defect_freq_mhz
        defect = zk.DefectParams(freq=defect_freq, coupling=coupling, decay=case.decay_per_us)
        rows = []
        for det_mhz in case.oracle_detunings_mhz:
            for gphi_mhz in case.oracle_dephasings_mhz:
                det, gphi = TWO_PI * det_mhz, TWO_PI * gphi_mhz
                model = zk.LindbladModel(qubit_freq=defect_freq + det, dephasing=gphi,
                                         qubit_decay=case.qubit_decay_per_us, defect=defect)
                oracle, _ = refs.exact_oracle_rate(zk, model)
                half_window = 50.0 * (gphi + case.decay_per_us)
                rows.append((gphi_mhz, det_mhz,
                             refs.lorentzian_pair_rate(coupling, case.decay_per_us,
                                                       case.qubit_decay_per_us, det, gphi,
                                                       half_window),
                             float(refs.purcell_rate(det, gphi, coupling, case.decay_per_us,
                                                     case.qubit_decay_per_us)),
                             oracle))
        grid = refs.purcell_rate(
            TWO_PI * np.asarray(case.map_detunings_mhz)[:, None],
            TWO_PI * np.asarray(case.map_dephasings_mhz)[None, :],
            coupling, case.decay_per_us, case.qubit_decay_per_us,
        )
        out = root / "out" / case.config.stem
        invocations.append(Invocation(
            argvs=[["oracle", "--config", str(case.config), "--out", str(out)]],
            items=len(rows) if rows else grid.size,
            check=_guarded(lambda gate, out=out, case=case, rows=rows, grid=grid:
                           _check_oracle(gate, out, case, rows, grid)),
        ))
    return invocations


def _check_oracle(gate: Gate, out: Path, case, expected, grid) -> None:
    table = read_tagged_csv(out / "comparison.csv", COMPARISON_HEADER)
    gate.require(len(table) == len(expected), f"{len(table)} comparison rows")
    for row, (gphi, det, kk_rate, eq2_rate, oracle_rate) in zip(table, expected):
        # coordinates echo the config through a carrier subtraction: gated only
        gate.compare("gamma_phi_mhz", row[0], gphi, 1e-12, 1e-9, record=False)
        gate.compare("detuning_mhz", row[1], det, 1e-12, 1e-9, record=False)
        gate.compare("kk_per_us", row[2], kk_rate, 1e-6)
        gate.compare("eq2_per_us", row[3], eq2_rate, 1e-9)
        # a strongly coupled row's oracle rate is a single-exponential fit to
        # an oscillating trace, which the package itself calls meaningless;
        # it is gated but kept out of the accuracy figure
        gate.compare("oracle_per_us", row[4], oracle_rate, 1e-6, record=not case.strong)
        dev_kk = abs(row[2] - row[4]) / abs(row[4])
        dev_eq2 = abs(row[3] - row[4]) / abs(row[4])
        gate.compare("dev_kk", row[5], dev_kk, 1e-9, 1e-15)
        gate.compare("dev_eq2", row[6], dev_eq2, 1e-9, 1e-15)
        gate.require(row[7] == float(dev_kk > FLAG_THRESHOLD), "flag != (dev_kk > 0.1)")
        if case.strong:
            gate.require(row[7] == 1.0, "strong-coupling row not flagged")
        else:
            cross = abs(row[2] - row[3]) / row[3]
            gate.require(max(dev_kk, dev_eq2, cross) < FAST_DEFECT_CONTRACT,
                         f"fast-defect row misses the 5% three-way contract: "
                         f"{dev_kk:.3g} {dev_eq2:.3g} {cross:.3g}")
    zeno = read_tagged_csv(out / "zeno_map.csv", MAP_HEADER)
    gate.require(len(zeno) == grid.size, f"{len(zeno)} map rows for {grid.size} points")
    dets = np.repeat(case.map_detunings_mhz, len(case.map_dephasings_mhz))
    gphis = np.tile(case.map_dephasings_mhz, len(case.map_detunings_mhz))
    gate.require(bool(np.all(np.abs(zeno[:, 0] - dets) <= 1e-12 * np.abs(dets) + 1e-9)),
                 "map detunings out of row-major order")
    gate.require(bool(np.all(np.abs(zeno[:, 1] - gphis) <= 1e-12 * np.abs(gphis) + 1e-12)),
                 "map dephasings out of row-major order")
    ref = grid.reshape(-1)
    rel = np.abs(zeno[:, 2] - ref) / np.abs(ref)
    gate.worst = max(gate.worst, float(rel.max()))
    gate.require(float(rel.max()) <= 1e-9, f"map rate off by {float(rel.max()):.3g}")


def oracle_crosscheck(rng, root: Path, zk) -> list[Invocation]:
    return _oracle_invocations(zk, root, gen.oracle_cases(rng, root))


def zeno_map(rng, root: Path, zk) -> list[Invocation]:
    return _oracle_invocations(zk, root, gen.zeno_map_cases(rng, root))


# ---------------------------------------------------------------------------
# calibrate-session: fits + io reads


def calibrate_session(rng, root: Path) -> list[Invocation]:
    invocations = []
    for case in gen.session_cases(rng, root):
        table = np.loadtxt(case.survival_csv, delimiter=",", skiprows=1)
        t1_rates = [-math.log(p) / gen.T1_DELAY_US for p in table[:, 1]]
        out = str(case.out)
        invocations.append(Invocation(
            argvs=[
                ["calibrate", "--config", str(case.calibrate_config), "--out", out],
                ["fit-flux-noise", "--config", str(case.flux_config), "--out", out],
                ["fit-swap", "--input", str(case.linecut_csv), "--f-guess",
                 repr(case.f_guess_mhz), "--out", out],
                ["convert-t1", "--input", str(case.survival_csv), "--t-delay",
                 repr(gen.T1_DELAY_US), "--out", out],
            ],
            items=len(case.ramsey) + len(case.echo_amps) + 1,
            check=_guarded(lambda gate, case=case, freqs=table[:, 0], t1_rates=t1_rates:
                           _check_session(gate, case, freqs, t1_rates)),
        ))
    return invocations


def _check_session(gate: Gate, case, freqs, t1_rates) -> None:
    """Noiseless inputs from exact models: the generating truth is the fit optimum."""
    out = case.out
    calibration = read_tagged_json(out / "calibration.json")
    reports = read_tagged_json(out / "fit_reports.json")
    traces = sorted(reports["traces"], key=lambda t: t["epsilon"])
    gate.require(len(traces) == len(case.ramsey), f"{len(traces)} Ramsey fits")
    for t, truth in zip(traces, case.ramsey):
        gate.require(t["epsilon"] == truth.epsilon, f"{t['file']}: epsilon {t['epsilon']}")
        gate.require(t["report"]["converged"] is True, f"{t['file']}: not converged")
        gate.compare(f"{t['file']} stark_mhz", t["stark_mhz"], truth.stark_mhz, RECOVERY_TOL)
        gate.compare(f"{t['file']} gamma_phi_mhz", t["gamma_phi_mhz"],
                     truth.dephasing / TWO_PI, RECOVERY_TOL)
    eps = [t["epsilon"] for t in traces]
    S_ref, K_ref = refs.polynomial_lstsq(eps, [t["stark_mhz"] for t in traces], (2, 4))
    (R_ref,) = refs.polynomial_lstsq(eps, [t["gamma_phi_mhz"] for t in traces], (2,))
    gate.compare("S_mhz", calibration["S_mhz"], S_ref, 1e-9)
    gate.compare("K_mhz", calibration["K_mhz"], K_ref, 1e-6)
    gate.compare("R_mhz", calibration["R_mhz"], R_ref, 1e-9)
    gate.compare("S vs truth", calibration["S_mhz"], case.stark_quad_mhz, RECOVERY_TOL)
    gate.compare("K vs truth", calibration["K_mhz"], case.stark_quartic_mhz, 1e3 * RECOVERY_TOL)
    gate.compare("R vs truth", calibration["R_mhz"], case.dephasing_quad_mhz, RECOVERY_TOL)

    flux = read_tagged_json(out / "flux_noise_fit.json")
    echoes = sorted(flux["traces"], key=lambda t: t["flux_amp"])
    gate.require([t["flux_amp"] for t in echoes] == list(case.echo_amps), "echo trace list")
    for t in echoes:
        gate.require(t["report"]["converged"] is True, f"{t['file']}: not converged")
        gate.compare(f"{t['file']} gamma_phi_mhz", t["gamma_phi_mhz"],
                     case.echo_coefficient * t["flux_amp"] ** 2 / TWO_PI, RECOVERY_TOL)
    (coef_ref,) = refs.polynomial_lstsq(case.echo_amps, [t["gamma_phi_mhz"] for t in echoes], (2,))
    gate.compare("quadratic_coef_mhz", flux["quadratic_coef_mhz"], coef_ref, 1e-9)
    gate.compare("quadratic_coef vs truth", flux["quadratic_coef_mhz"],
                 case.echo_coefficient / TWO_PI, RECOVERY_TOL)

    swap = read_tagged_json(out / "swap_fit.json")
    gate.compare("coupling_mhz", swap["coupling_mhz"], case.coupling / TWO_PI, RECOVERY_TOL)
    gate.compare("defect_decay_per_us", swap["defect_decay_per_us"], case.defect_decay,
                 RECOVERY_TOL)

    spectrum = read_tagged_csv(out / "spectrum.csv", "freq_mhz,gamma_per_us")
    gate.require(len(spectrum) == len(t1_rates), "converted spectrum row count")
    for (freq, rate), ref_freq, ref_rate in zip(spectrum, freqs, t1_rates):
        gate.compare("freq_mhz", freq, ref_freq, 1e-12)
        gate.compare("t1 rate", rate, ref_rate, 1e-12)


WORKLOADS = {
    "predict-sweep": (predict_sweep, True),
    "oracle-crosscheck": (oracle_crosscheck, True),
    "calibrate-session": (calibrate_session, False),
    "zeno-map": (zeno_map, True),
}


def build(name: str, seed: int, root: Path, zk) -> list[Invocation]:
    """The workload's invocation pool for ``seed``; inputs go under ``root``."""
    make_pool, needs_zk = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return make_pool(rng, root, zk) if needs_zk else make_pool(rng, root)
