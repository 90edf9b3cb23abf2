"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass; tolerances are stated inline and pinned to the criterion.
"""
import time
from pathlib import Path

import numpy as np
import pytest

import zenokit as zk
from conftest import (
    GAMMA_1D,
    GAMMA_PHI_REF,
    GAMMA_Q,
    G_D,
    K_MHZ,
    NU_S_MHZ,
    OFFSET_MHZ,
    QUBIT_FREQ,
    R_MHZ,
    S_MHZ,
    make_hotspot_spectrum,
    make_ramsey_signal,
)
from test_cli import GOLDEN_CASES, environment_note
from test_kk import convolution_window, lorentzian_pair_rate
from zenokit.cli import main as cli_main
from zenokit.units import TWO_PI, mhz_to_angular

GOLDEN = Path(__file__).parent / "golden"

STRONG_DEFECT = zk.DefectParams(freq=mhz_to_angular(4300.0), coupling=G_D, decay=GAMMA_1D)
ADIABATIC_DEFECT = zk.DefectParams(freq=mhz_to_angular(4300.0), coupling=TWO_PI * 0.1, decay=10.0)


def report(number, text):
    print(f"\nacceptance criterion {number}: PASS - {text}")


def test_c01_fgr_limit():
    start = time.perf_counter()
    spectrum = make_hotspot_spectrum()
    probes = [QUBIT_FREQ, QUBIT_FREQ + mhz_to_angular(1.7), spectrum.omegas[137]]
    for probe in probes:
        for dephasing in (0.0, 1e-10):
            context = zk.MeasurementContext(freq=probe, dephasing=dephasing)
            result = zk.decay_rate(spectrum, context)
            expected = spectrum.rate_at(probe)
            assert abs(result.rate - expected) <= 1e-6 * expected
            assert result.norm == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"zero-dephasing limit equals the interpolated spectrum ({elapsed:.2f} s)")


def test_c02_lorentzian_convolution_matrix():
    start = time.perf_counter()
    worst = 0.0
    for dephasing_factor in (0.01, 0.1, 1.0, 10.0):
        for detuning_factor in (0.0, 1.0, 5.0, 20.0):
            dephasing = dephasing_factor * GAMMA_1D
            detuning = detuning_factor * GAMMA_1D
            qubit_freq = STRONG_DEFECT.freq + detuning
            spectrum = zk.ParametricSpectrum(
                background=0.0, peaks=(STRONG_DEFECT.spectral_peak(),)
            )
            window = convolution_window(GAMMA_1D, dephasing, detuning, qubit_freq)
            span = window[1] - window[0]
            assert span >= 2 * 50.0 * (dephasing + GAMMA_1D) * (1.0 - 1e-9)
            numeric = zk.decay_rate(
                spectrum,
                zk.MeasurementContext(freq=qubit_freq, dephasing=dephasing),
                window=window,
            ).rate
            exact = lorentzian_pair_rate(G_D**2, GAMMA_1D, dephasing, detuning)
            deviation = abs(numeric - exact) / exact
            worst = max(worst, deviation)
            assert deviation < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"16-point convolution matrix, worst rel error {worst:.1e} ({elapsed:.1f} s)")


def test_c03_limit_chain():
    general = zk.generalized_purcell(zk.QubitParams(freq=STRONG_DEFECT.freq), STRONG_DEFECT)
    plain = zk.resonant_purcell(G_D, GAMMA_1D)
    jump = zk.zeno_jump_rate(2.0 * G_D, GAMMA_1D)
    assert plain == jump  # bitwise: powers of two rescale exactly
    assert abs(general - plain) <= 1e-15 * plain
    report(3, f"generalized = resonant = jump rate = {plain:.6f}/us")


def test_c04_published_magnitude():
    start = time.perf_counter()
    qubit = zk.QubitParams(freq=STRONG_DEFECT.freq, decay=GAMMA_Q, dephasing=0.0)
    ratio = zk.generalized_purcell(qubit, STRONG_DEFECT) / GAMMA_Q
    assert 1e3 <= ratio <= 1e4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"resonant enhancement ratio {ratio:.0f} within [1e3, 1e4]")


def test_c05_zeno_sign_structure():
    start = time.perf_counter()
    detunings = mhz_to_angular(np.linspace(-15.0, 15.0, 31))
    dephasings = np.linspace(0.0, TWO_PI * 8.0, 41)
    step = dephasings[1] - dephasings[0]
    grid = zk.decay_rate_map(detunings, dephasings, STRONG_DEFECT, qubit_decay=GAMMA_Q)
    zeno_points = antizeno_points = 0
    for i, detuning in enumerate(detunings):
        for j in range(dephasings.size - 1):
            width = dephasings[j] + GAMMA_1D / 2.0 - GAMMA_Q / 2.0
            slope = grid[i, j + 1] - grid[i, j]
            if width > abs(detuning):
                assert slope < 0.0
                zeno_points += 1
            elif width < abs(detuning) - 3.0 * step:
                assert slope > 0.0
                antizeno_points += 1
    assert zeno_points > 0 and antizeno_points > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        5,
        f"dephasing slope negative at {zeno_points} resonant and positive at "
        f"{antizeno_points} detuned grid points ({elapsed:.1f} s)",
    )


def test_c06_three_way_equivalence():
    start = time.perf_counter()
    spectrum = zk.ParametricSpectrum(
        background=GAMMA_Q, peaks=(ADIABATIC_DEFECT.spectral_peak(),)
    )
    contexts = [
        zk.MeasurementContext(freq=ADIABATIC_DEFECT.freq + detuning, dephasing=dephasing)
        for detuning in (0.0, 4.0, 12.0)
        for dephasing in (0.0, 1.0, 3.0)
    ]
    rows = zk.validate_kk(spectrum, ADIABATIC_DEFECT, contexts, qubit_decay=GAMMA_Q)
    assert len(rows) == 9
    worst = 0.0
    for row in rows:
        cross = abs(row.kk_rate - row.purcell_rate) / row.purcell_rate
        worst = max(worst, row.dev_kk, row.dev_purcell, cross)
        assert row.dev_kk < 0.05
        assert row.dev_purcell < 0.05
        assert cross < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"9-point oracle/closed-form/convolution agreement, worst {worst:.1%} ({elapsed:.0f} s)")


def test_c07_breakdown_reproduction():
    start = time.perf_counter()
    model = zk.LindbladModel(
        qubit_freq=STRONG_DEFECT.freq,
        dephasing=0.0,
        qubit_decay=GAMMA_Q,
        defect=STRONG_DEFECT,
    )
    trajectory = zk.evolve(model, t_final=30.0)
    with pytest.warns(zk.OscillationWarning):
        oracle_rate, fit_report = zk.extract_decay_rate(trajectory, (0.0, 30.0))
    assert fit_report.warnings
    spectrum = zk.ParametricSpectrum(background=GAMMA_Q, peaks=(STRONG_DEFECT.spectral_peak(),))
    kk_rate = zk.decay_rate(
        spectrum, zk.MeasurementContext(freq=STRONG_DEFECT.freq, dephasing=0.0)
    ).rate
    deviation = abs(kk_rate - oracle_rate) / abs(oracle_rate)
    assert deviation > 0.10
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        7,
        f"strong coupling: oscillation warning raised, convolution off by "
        f"{deviation:.0%} ({elapsed:.1f} s)",
    )


def test_c08_oracle_integrity_and_order():
    start = time.perf_counter()
    scenarios = [
        zk.LindbladModel(
            qubit_freq=ADIABATIC_DEFECT.freq + 12.0,
            dephasing=1.0,
            qubit_decay=GAMMA_Q,
            defect=ADIABATIC_DEFECT,
        ),
        zk.LindbladModel(
            qubit_freq=STRONG_DEFECT.freq,
            dephasing=0.5,
            qubit_decay=GAMMA_Q,
            defect=STRONG_DEFECT,
        ),
        zk.LindbladModel(qubit_freq=0.0, dephasing=0.7, qubit_decay=0.1),
    ]
    for model in scenarios:
        trajectory = zk.evolve(model, t_final=10.0)
        assert trajectory.trace_errors().max() < 1e-9
        for rho in trajectory.states:
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    model = scenarios[1]
    base_dt = 0.04 / model.rate_scale()
    finals = [
        zk.evolve(model, t_final=1.0, dt=base_dt / 2**k, sample_stride=10**9).populations()[-1]
        for k in range(5)
    ]
    errors = [abs(p - finals[-1]) for p in finals[:-1]]
    order = np.polyfit(np.log([base_dt / 2**k for k in range(4)]), np.log(errors), 1)[0]
    assert order >= 3.7
    elapsed = time.perf_counter() - start
    report(8, f"trace/Hermiticity/positivity hold; step-halving order {order:.2f} ({elapsed:.0f} s)")


def test_c09_fit_recovery():
    times = np.arange(0.0, 3.0, 0.004)
    trace = zk.RamseyTrace(times, make_ramsey_signal(times), offset_freq=OFFSET_MHZ)
    shift, rate, _ = zk.fit_damped_sine(trace)
    assert abs(shift - NU_S_MHZ) <= 1e-6 * NU_S_MHZ
    assert abs(rate - GAMMA_PHI_REF) <= 1e-6 * GAMMA_PHI_REF

    shifts, rates = [], []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        noisy = trace.signal + rng.normal(0.0, 0.02 * 0.45, times.size)
        s, r, _ = zk.fit_damped_sine(zk.RamseyTrace(times, noisy, offset_freq=OFFSET_MHZ))
        shifts.append(s)
        rates.append(r)
    assert abs(np.mean(shifts) - NU_S_MHZ) <= 0.01 * NU_S_MHZ
    assert abs(np.mean(rates) - GAMMA_PHI_REF) <= 0.01 * GAMMA_PHI_REF

    eps = np.linspace(0.005, 0.05, 10)
    S, K, R = (mhz_to_angular(v) for v in (S_MHZ, K_MHZ, R_MHZ))
    S_fit, K_fit, _ = zk.fit_stark_poly([(e, S * e**2 + K * e**4) for e in eps])
    R_fit, _ = zk.fit_dephasing_quadratic([(e, R * e**2) for e in eps])
    assert S_fit == pytest.approx(S, rel=1e-9)
    assert K_fit == pytest.approx(K, rel=1e-9)
    assert R_fit == pytest.approx(R, rel=1e-9)
    report(
        9,
        "damped-sine recovery 1e-6 noiseless / <1% under noise; polynomial "
        "coefficients exact",
    )


def test_c10_swap_fit_closure():
    model = zk.LindbladModel(qubit_freq=STRONG_DEFECT.freq, defect=STRONG_DEFECT)
    trajectory = zk.evolve(model, t_final=1.2)
    coupling, decay, _ = zk.fit_swap_chevron(
        trajectory.times, trajectory.populations(), f_guess=2 * 1.6
    )
    coupling_err = abs(coupling - G_D) / G_D
    decay_err = abs(decay - GAMMA_1D) / GAMMA_1D
    assert coupling_err < 0.02
    assert decay_err < 0.10
    report(
        10,
        f"oracle linecut closes the loop: coupling err {coupling_err:.2%}, "
        f"decay err {decay_err:.2%}",
    )


def test_c11_cli_golden_files(tmp_path):
    start = time.perf_counter()
    for name, argv in GOLDEN_CASES:
        out = tmp_path / name
        assert cli_main([*argv, "--out", str(out)]) == 0
        for golden_file in sorted((GOLDEN / name).iterdir()):
            produced = out / golden_file.name
            assert produced.read_bytes() == golden_file.read_bytes(), (
                f"{name}/{golden_file.name} differs{environment_note()}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(11, f"all 7 subcommand goldens byte-identical ({elapsed:.0f} s)")
