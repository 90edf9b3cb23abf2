"""Checks of the benchmark's own references, generators, gates and speed probe.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import filecmp
import math

import numpy as np
import pytest

import zenokit as zk
from perfbench import gen, refs, workloads

TWO_PI = 2.0 * math.pi


def hotspot_table(rows=400, seed=3):
    rng = np.random.default_rng(seed)
    freqs = 5000.0 + np.linspace(-15.0, 15.0, rows)
    return freqs, gen.hotspot_rates(rng, freqs, 5000.0)


@pytest.mark.parametrize("center_offset, half_width", [(0.3, 0.05), (-4.0, 0.8), (14.9, 0.2)])
def test_pwl_convolution_matches_fine_fsum_trapezoid(center_offset, half_width):
    freqs, rates = hotspot_table()
    center = 5000.0 + center_offset
    exact, norm = refs.pwl_lorentzian_rate(freqs, rates, center, half_width)
    fine = refs.fsum_trapezoid_rate(freqs, rates, center, half_width, 2_000_001)
    assert exact == pytest.approx(fine, rel=1e-8)
    assert 0.0 < norm <= 1.0


def test_pwl_convolution_limits():
    freqs, rates = hotspot_table()
    flat = np.full_like(rates, 0.0123)
    rate, _ = refs.pwl_lorentzian_rate(freqs, flat, 5001.0, 0.7)
    assert rate == pytest.approx(0.0123, rel=1e-14)
    rate, norm = refs.pwl_lorentzian_rate(freqs, rates, 5001.234, 0.0)
    assert (rate, norm) == (np.interp(5001.234, freqs, rates), 1.0)


@pytest.mark.parametrize("half_width, points", [(0.01, 4001), (0.3, 4001), (0.002, 40001),
                                                (0.05, 40001), (0.001, 4001)])
def test_trapezoid_error_bound_holds_for_a_uniform_trapezoid(half_width, points):
    freqs, rates = hotspot_table()
    center = 5000.7
    exact, norm = refs.pwl_lorentzian_rate(freqs, rates, center, half_width)
    grid = np.linspace(freqs[0], freqs[-1], points)
    density = (half_width / math.pi) / (half_width**2 + (grid - center) ** 2)
    trapezoid = np.trapezoid(np.interp(grid, freqs, rates) * density, grid) / norm
    bound = refs.trapezoid_error_bound(freqs, rates, center, half_width, points)
    assert abs(trapezoid - exact) / exact <= bound
    if half_width > 2.0 * (freqs[-1] - freqs[0]) / (points - 1):
        assert bound < 1e-4


@pytest.mark.parametrize("detuning, dephasing", [(0.0, 0.5), (4.0, 1.0), (-3.0, 3.0), (2.0, 0.0)])
def test_lorentzian_pair_matches_quadrature(detuning, dephasing):
    coupling, decay, background = 0.8, 10.0, 0.01
    half_window = 50.0 * (dephasing + decay)
    exact = refs.lorentzian_pair_rate(coupling, decay, background, detuning, dephasing, half_window)
    if dephasing == 0.0:
        assert exact == pytest.approx(refs.purcell_rate(detuning, 0.0, coupling, decay, 0.0)
                                      + background, rel=1e-14)
        return
    fine = refs.lorentzian_pair_quadrature(coupling, decay, background, detuning, dephasing,
                                           half_window, 2_000_001)
    assert exact == pytest.approx(fine, rel=1e-9)


def test_lorentzian_pair_wide_window_is_purcell_with_summed_widths():
    # on the whole axis the two Lorentzians convolve to one of width a + h
    coupling, decay, detuning, dephasing = 0.8, 10.0, 3.0, 1.5
    wide = refs.lorentzian_pair_rate(coupling, decay, 0.0, detuning, dephasing, 1e9)
    summed = refs.purcell_rate(detuning, dephasing, coupling, decay, 0.0)
    assert wide == pytest.approx(float(summed), rel=1e-8)


def test_purcell_rate_broadcasts_like_the_scalar_formula():
    detunings = np.linspace(-10.0, 10.0, 7)[:, None]
    dephasings = np.linspace(0.0, 5.0, 4)[None, :]
    grid = refs.purcell_rate(detunings, dephasings, 2.0, 9.7, 0.01)
    assert grid.shape == (7, 4)
    width = 5.0 + 9.7 / 2 - 0.01 / 2
    assert grid[0, 3] == 0.01 + 2 * 2.0**2 * width / (width**2 + 10.0**2)


def oracle_model(detuning=1.0, dephasing=0.5):
    defect = zk.DefectParams(freq=TWO_PI * 5000.0, coupling=0.7, decay=10.0)
    return zk.LindbladModel(qubit_freq=defect.freq + detuning, dephasing=dephasing,
                            qubit_decay=0.01, defect=defect)


def test_sample_times_match_the_integrator():
    model = oracle_model()
    trajectory = zk.evolve(model, t_final=3.0)
    assert np.array_equal(refs.evolve_sample_times(model, 3.0), trajectory.times)


def test_exact_states_match_rk4():
    model = oracle_model()
    trajectory = zk.evolve(model, t_final=3.0)
    exact = refs.exact_states(model, trajectory.times)
    assert np.max(np.abs(exact - trajectory.states)) < 1e-10


def test_exact_oracle_rate_agrees_with_the_package_oracle():
    model = oracle_model(detuning=2.0, dephasing=1.0)
    context = zk.MeasurementContext(freq=model.qubit_freq, dephasing=model.dephasing)
    spectrum = zk.ParametricSpectrum(background=0.01, peaks=(model.defect.spectral_peak(),))
    (row,) = zk.validate_kk(spectrum, model.defect, [context], qubit_decay=0.01)
    rate, oscillating = refs.exact_oracle_rate(zk, model)
    assert rate == pytest.approx(row.oracle_rate, rel=1e-7)
    assert not oscillating


def test_vacuum_rabi_closed_form_matches_density_matrix():
    coupling, decay = TWO_PI * 1.6, 9.7
    defect = zk.DefectParams(freq=TWO_PI * 4300.0, coupling=coupling, decay=decay)
    model = zk.LindbladModel(qubit_freq=defect.freq, defect=defect)
    times = np.linspace(0.0, 1.2, 61)
    expected = np.einsum("tij,ji->t", refs.exact_states(model, times),
                         model.excited_projector()).real
    closed = gen.vacuum_rabi_population(times, coupling, decay)
    assert np.max(np.abs(closed - expected)) < 1e-12


def test_polynomial_lstsq_is_exact_on_polynomials():
    eps = np.linspace(0.01, 0.04, 6)
    S, K = refs.polynomial_lstsq(eps, 825.0 * eps**2 + 5619.0 * eps**4, (2, 4))
    assert (S, K) == (pytest.approx(825.0, rel=1e-10), pytest.approx(5619.0, rel=1e-6))


GENERATORS = {"predict-sweep": gen.predict_cases, "calibrate-session": gen.session_cases,
              "zeno-map": gen.zeno_map_cases, "oracle-crosscheck": gen.oracle_cases}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs(tmp_path, name):
    def generate(root, seed):
        root.mkdir()
        GENERATORS[name](np.random.default_rng(seed), root)
        return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    files = generate(first, 7)
    assert files and files == generate(second, 7) == generate(other, 8)
    _, mismatch, errors = filecmp.cmpfiles(first, second, files, shallow=False)
    assert not mismatch and not errors
    _, differ, _ = filecmp.cmpfiles(first, other, files, shallow=False)
    assert differ


def test_gate_compare_records_worst_and_fails_beyond_tolerance():
    gate = workloads.Gate()
    gate.compare("a", 1.0 + 1e-10, 1.0, 1e-9)
    assert not gate.errors and gate.worst == pytest.approx(1e-10)
    gate.compare("b", 1.1, 1.0, 1e-3)
    assert gate.errors and gate.worst == pytest.approx(0.1)


def test_speed_sampler_probes_while_active_and_restores_the_handler():
    import signal
    from time import perf_counter

    from perfbench.speed import SpeedSampler

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.2:
            sum(range(1000))
        end = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.durations) >= 5
    assert 0.0 < sampler.spent < end - start
    assert sampler.around(start, end) > 0.0
