import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenokit as zk
from conftest import (
    CHI_MHZ,
    EPSILON_REF,
    G_D,
    GAMMA_1D,
    GAMMA_PHI_REF,
    K_MHZ,
    NU_S_MHZ,
    OFFSET_MHZ,
    R_MHZ,
    S_MHZ,
    degenerate_ramsey_signal,
    exponential_optimum,
    make_ramsey_signal,
)
from zenokit import fits
from zenokit.fits import _CHEVRON_NAMES
from zenokit.io import (
    POPULATION_CSV_HEADER,
    TRACE_CSV_HEADER,
    calibration_to_json,
    read_calibration_json,
    read_columns_csv,
)
from zenokit.units import TWO_PI, mhz_to_angular

DATA = Path(__file__).parent / "data"


def swap_linecut():
    """The committed resonant vacuum-Rabi linecut: ``(times, populations)``."""
    return read_columns_csv(DATA / "swap_linecut.csv", POPULATION_CSV_HEADER)


def one_row(signal, basis):
    """The projected residual and Jacobian of one signal, ``fun(theta)``."""
    fun = fits._projected_residual_jacobian(signal[np.newaxis], basis)

    def single(theta):
        r, J = fun(np.asarray(theta)[np.newaxis])
        return r[0], J[0]

    return single


def check_gradient(fun, theta):
    """``fun``'s analytic gradient vanishes at the optimum ``theta`` and
    matches central finite differences there and away from it."""
    r, J = fun(theta)
    analytic = J.T @ r

    def cost(p):
        rr, _ = fun(p)
        return 0.5 * float(rr @ rr)

    fd = np.empty_like(theta)
    for i in range(theta.size):
        step = 1e-6 * max(abs(theta[i]), 1.0)
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        fd[i] = (cost(up) - cost(down)) / (2.0 * step)
    scale = np.linalg.norm(J, axis=0).max() * np.linalg.norm(r)
    assert np.linalg.norm(analytic) < 1e-8 * scale
    # the curvature term dominates FD of a near-stationary cost, so
    # compare against the gradient's own scale
    assert np.linalg.norm(fd - analytic) < 1e-4 * scale

    # away from the optimum the gradient is O(1) and the analytic
    # Jacobian must agree with finite differences pointwise
    perturbed = theta * 1.05 + 0.01
    r_p, J_p = fun(perturbed)
    analytic_p = J_p.T @ r_p
    fd_p = np.empty_like(perturbed)
    for i in range(perturbed.size):
        step = 1e-6 * max(abs(perturbed[i]), 1.0)
        up, down = perturbed.copy(), perturbed.copy()
        up[i] += step
        down[i] -= step
        fd_p[i] = (cost(up) - cost(down)) / (2.0 * step)
    assert np.linalg.norm(fd_p - analytic_p) < 1e-4 * np.linalg.norm(analytic_p)


class TestDampedSine:
    def test_recovers_published_single_trace_values(self, ramsey_trace):
        shift, rate, report = zk.fit_damped_sine(ramsey_trace)
        assert shift == pytest.approx(NU_S_MHZ, rel=1e-6)
        assert rate == pytest.approx(GAMMA_PHI_REF, rel=1e-6)
        assert report.converged
        assert report.residual_norm < 1e-10

    def test_zero_drive_trace_gives_zero_shift_and_decay(self):
        times = np.arange(0.0, 3.0, 0.004)
        signal = 0.45 * np.cos(TWO_PI * OFFSET_MHZ * times + 0.3) + 0.5
        shift, rate, _ = zk.fit_damped_sine(
            zk.RamseyTrace(times, signal, offset_freq=OFFSET_MHZ)
        )
        assert abs(shift) < 1e-9
        assert abs(rate) < 1e-9

    def test_monte_carlo_bias_under_noise(self, ramsey_trace):
        # 2% additive noise, 50 seeded repetitions: mean recovered
        # parameters stay within 1% of the truth
        shifts, rates = [], []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            noisy = ramsey_trace.signal + rng.normal(0.0, 0.02 * 0.45, ramsey_trace.times.size)
            shift, rate, report = zk.fit_damped_sine(
                zk.RamseyTrace(ramsey_trace.times, noisy, offset_freq=OFFSET_MHZ)
            )
            assert report.converged
            shifts.append(shift)
            rates.append(rate)
        assert abs(np.mean(shifts) - NU_S_MHZ) < 0.01 * NU_S_MHZ
        assert abs(np.mean(rates) - GAMMA_PHI_REF) < 0.01 * GAMMA_PHI_REF

    @pytest.mark.parametrize("noise", [1e-4, 1e-3])
    def test_noisy_traces_converge(self, noise):
        # a fit that can no longer lower the cost stops with a gradient set
        # by the cost's rounding error, which scales with the data, not the
        # residual; such stalls must count as converged
        rng = np.random.default_rng(20)
        times = np.linspace(0.0, 2.0, 101)
        for _ in range(300):
            rate = rng.uniform(0.5, 4.0)
            signal = (
                0.45 * np.exp(-rate * times) * np.cos(TWO_PI * 5.0 * times + rng.uniform(-3, 3))
                + 0.5
                + rng.normal(0.0, noise, times.size)
            )
            _, fitted, _ = zk.fit_damped_sine(zk.RamseyTrace(times, signal, offset_freq=5.0))
            assert fitted == pytest.approx(rate, rel=100 * noise)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fast_decays_converge(self):
        # noiseless traces at drive amplitude ~0.05 with the device
        # calibration varied by 10-20%: the dephasing reaches
        # ~8/us, the fringe peak can land on the lowest spectral bin, and
        # the envelope-smoothing window must still fit inside the trace
        rng = np.random.default_rng(5)
        times = np.arange(0.0, 3.0, 0.004)
        for _ in range(150):
            eps = 0.05 * rng.uniform(0.97, 1.03)
            S = S_MHZ * rng.uniform(0.9, 1.1)
            K = K_MHZ * rng.uniform(0.8, 1.2)
            R = R_MHZ * rng.uniform(0.9, 1.1)
            stark = S * eps**2 + K * eps**4
            dephasing = TWO_PI * R * eps**2
            signal = make_ramsey_signal(
                times,
                stark_mhz=stark,
                dephasing=dephasing,
                amplitude=rng.uniform(0.4, 0.5),
                phase=rng.uniform(-math.pi, math.pi),
                baseline=rng.uniform(0.45, 0.55),
            )
            trace = zk.RamseyTrace(times, signal, offset_freq=OFFSET_MHZ)
            shift, rate, report = zk.fit_damped_sine(trace)
            assert report.converged
            assert shift == pytest.approx(stark, rel=1e-9)
            assert rate == pytest.approx(dephasing, rel=1e-9)

    def test_deterministic_reports(self, ramsey_trace):
        rng = np.random.default_rng(4)
        noisy = ramsey_trace.signal + rng.normal(0.0, 0.01, ramsey_trace.times.size)
        trace = zk.RamseyTrace(ramsey_trace.times, noisy, offset_freq=OFFSET_MHZ)
        first = zk.fit_damped_sine(trace)
        second = zk.fit_damped_sine(trace)
        assert first == second  # bit-identical parameters and report

    def test_gradient_at_optimum_vs_finite_differences(self, ramsey_trace):
        # Kaufman's J.T @ r is the exact gradient of the projected cost, at
        # the optimum and away from it: on a noisy Ramsey fringe, a noisy
        # linecut, whose basis adds the decaying baseline, and a noisy echo
        rng = np.random.default_rng(11)
        times = ramsey_trace.times
        noisy = ramsey_trace.signal + rng.normal(0.0, 0.02 * 0.45, times.size)
        _, _, report = zk.fit_damped_sine(zk.RamseyTrace(times, noisy, offset_freq=OFFSET_MHZ))
        theta = np.array([report.parameters["decay_rate"], report.parameters["frequency"]])
        check_gradient(one_row(noisy, fits._damped_sine_basis(times)), theta)

        times, populations = swap_linecut()
        noisy = populations + rng.normal(0.0, 0.01, times.size)
        _, _, report = zk.fit_swap_chevron(times, noisy, f_guess=3.2)
        theta = np.array([report.parameters["decay_rate"], report.parameters["frequency"]])
        basis = fits._damped_sine_basis(times, decaying_baseline=True)
        check_gradient(one_row(noisy, basis), theta)

        times = np.linspace(0.1, 2.0, 40)
        noisy = np.exp(-0.7 * times) + rng.normal(0.0, 0.01, times.size)
        rate, _ = zk.fit_exponential(times, noisy)
        check_gradient(one_row(noisy, fits._exponential_basis(times)), np.array([rate]))

    def test_rejects_short_or_narrow_traces(self):
        with pytest.raises(zk.DomainError):
            zk.fit_damped_sine(
                zk.RamseyTrace([0.0, 0.1, 0.2], [1.0, 0.5, 0.2], offset_freq=10.0)
            )
        times = np.linspace(0.0, 0.1, 50)  # only one period of 10 MHz
        with pytest.raises(zk.DomainError):
            zk.fit_damped_sine(
                zk.RamseyTrace(times, np.cos(TWO_PI * 10 * times), offset_freq=10.0)
            )

    def test_negative_offset_is_refused(self):
        # the fitted fringe frequency is >= 0: a fringe at -10 + 2 MHz was
        # fit at 8 MHz and reported a shift of 18 MHz
        times = np.arange(0.0, 3.0, 0.004)
        signal = make_ramsey_signal(times, stark_mhz=2.0, offset_mhz=-10.0)
        with pytest.raises(zk.DomainError, match="offset_freq must be >= 0"):
            zk.RamseyTrace(times, signal, offset_freq=-10.0)

    def test_zero_offset_reports_the_shift_magnitude(self):
        times = np.arange(0.0, 3.0, 0.004)
        signal = make_ramsey_signal(times, stark_mhz=-2.0, offset_mhz=0.0)
        shift, _, _ = zk.fit_damped_sine(zk.RamseyTrace(times, signal, offset_freq=0.0))
        assert shift == pytest.approx(2.0, rel=1e-9)

    def test_constant_signal_is_fit_error(self):
        times = np.linspace(0.0, 3.0, 100)
        with pytest.raises(zk.FitError):
            zk.fit_damped_sine(zk.RamseyTrace(times, np.full(100, 0.7), offset_freq=10.0))

    def test_degenerate_fit_is_refused(self):
        # the descent converges on the 13.03 MHz fringe aliased through 250
        # samples/us, at 236.97 MHz
        times = np.arange(0.0, 3.0, 0.004)
        trace = zk.RamseyTrace(times, degenerate_ramsey_signal(times), offset_freq=OFFSET_MHZ)
        with pytest.raises(
            zk.FitError,
            match=r"^damped-sine fit is degenerate: its frequency 236\.968 MHz is above the "
            r"125 MHz Nyquist frequency of the sample step$",
        ):
            zk.fit_damped_sine(trace)

    def test_envelope_gone_within_one_sample_is_refused(self, monkeypatch, ramsey_trace):
        # the fringe would be seen by the first sample alone, so the rate
        # and frequency columns of J vanish and their sigma would read 0
        descend = fits._lm_descent

        def fast_decay(fun, theta0, data_norms):
            theta, *rest = descend(fun, theta0, data_norms)
            theta[:, 0] = 1e3
            return theta, *rest

        monkeypatch.setattr(fits, "_lm_descent", fast_decay)
        with pytest.raises(zk.FitError, match=r"^damped-sine fit is degenerate: its envelope falls"):
            zk.fit_damped_sine(ramsey_trace)

    def test_rank_deficient_fit_is_refused(self, monkeypatch, ramsey_trace):
        # a fit whose envelope is resolved but whose linear coefficients
        # are zero has vanishing rate and frequency columns
        solve = fits._solve_linear

        def zero_coefficients(phi, signals):
            coef, inverse, refused = solve(phi, signals)
            return np.zeros_like(coef), inverse, refused

        monkeypatch.setattr(fits, "_solve_linear", zero_coefficients)
        with pytest.raises(zk.FitError, match=r"^damped-sine fit is degenerate: its Jacobian has rank 3 of 5$"):
            zk.fit_damped_sine(ramsey_trace)


def test_trial_step_that_overflows_to_nan_is_rejected_quietly():
    # the decaying baseline adds C e^{-g t} to A e^{-g t} cos(...): past
    # exp's range a trial step gives inf - inf, a nan cost and no warning
    def fun(theta):
        big = np.exp(100.0 * theta)
        return big - big + theta - 10.0, np.ones((1, 1, 1))

    theta, r, *_ = fits._lm_minimize(fun, [0.0], data_norm=10.0)
    assert 0.0 < theta[0] < 7.1
    assert np.all(np.isfinite(r))


def test_a_finished_row_stays_frozen_while_the_others_descend():
    # row 0 starts 1e-10 off its optimum, inside the gradient test, so it
    # ends before the first round though a step would still lower its cost;
    # row 1 takes several steps with row 0 frozen in the stack
    times = np.linspace(0.0, 4.0, 41)
    signals = np.array(
        [np.exp(-2.0 * times), 0.7 * np.exp(-0.5 * times) + 0.01 * np.cos(7.0 * times)]
    )
    basis = fits._exponential_basis(times)
    fun = fits._projected_residual_jacobian(signals, basis)
    theta0 = np.array([[2.0 + 1e-10], [3.0]])
    data_norms = np.sqrt(np.vecdot(signals, signals)).tolist()
    theta, r, J, converged, iterations, gnorm = fits._lm_descent(fun, theta0, data_norms)

    r0, J0 = fun(theta0)
    assert converged[0] and iterations[0] == 1
    for got, start in ((theta, theta0), (r, r0), (J, J0)):
        assert np.array_equal(got[0], start[0])

    alone = fits._lm_minimize(
        fits._projected_residual_jacobian(signals[1:], basis), theta0[1], data_norms[1]
    )
    assert alone[4] > 3
    for got, expected in zip((theta, r, J), alone[:3]):
        assert np.array_equal(got[1], expected)
    assert (converged[1], iterations[1], gnorm[1]) == alone[3:]


def test_a_capped_row_stays_capped_while_the_others_descend(monkeypatch):
    # row 0 is accepted every round and capped at MAX_ITERATIONS with its
    # damping at the floor; row 1 alternates an accepted new low with a
    # rejected 10.0, so it descends for more than 25 rounds after that.
    # Were the capped row still damped, its damping would pass 1e12 and
    # its huge data norm would pass the stall test: a capped row converged
    monkeypatch.setattr(fits, "MAX_ITERATIONS", 30)
    calls = itertools.count()

    def fun(theta):
        k = next(calls)
        row1 = 1.001 if k == 0 else 1.0 - 1e-3 * k if k % 2 else 10.0
        return np.array([[1e6 - k], [row1]]), np.ones((2, 1, 1))

    _, _, _, converged, iterations, _ = fits._lm_descent(fun, np.zeros((2, 1)), [1e40, 1.0])
    assert converged[0] is False and iterations[0] == 30
    rounds = next(calls) - 1  # one call per round after the first
    assert rounds > 30 + 25


class TestPolynomialFits:
    def test_stark_poly_recovers_published_coefficients(self):
        eps = np.linspace(0.005, 0.05, 10)
        S, K = mhz_to_angular(S_MHZ), mhz_to_angular(K_MHZ)
        points = [(e, S * e**2 + K * e**4) for e in eps]
        S_fit, K_fit, report = zk.fit_stark_poly(points)
        assert S_fit == pytest.approx(S, rel=1e-9)
        assert K_fit == pytest.approx(K, rel=1e-9)
        assert report.residual_norm < 1e-10

    def test_published_stark_at_reference_amplitude(self):
        # global-fit coefficients evaluated at the reference amplitude give
        # 0.5178 MHz, not the 0.451 MHz single-trace value (both kept)
        value = S_MHZ * EPSILON_REF**2 + K_MHZ * EPSILON_REF**4
        assert value == pytest.approx(0.5178, abs=5e-5)

    def test_zero_response_gives_zero_coefficients(self):
        points = [(e, 0.0) for e in (0.01, 0.02, 0.03, 0.04)]
        S_fit, K_fit, _ = zk.fit_stark_poly(points)
        R_fit, _ = zk.fit_dephasing_quadratic(points)
        # +0.0, not -0.0, which the CLI would write as such
        assert all(math.copysign(1.0, c) == 1.0 and c == 0.0 for c in (S_fit, K_fit, R_fit))

    def test_dephasing_quadratic_recovers_published_value(self):
        eps = np.linspace(0.005, 0.05, 8)
        R = mhz_to_angular(R_MHZ)
        R_fit, report = zk.fit_dephasing_quadratic([(e, R * e**2) for e in eps])
        assert R_fit == pytest.approx(R, rel=1e-11)
        assert report.residual_norm < 1e-10
        assert R_MHZ * EPSILON_REF**2 == pytest.approx(0.268, abs=2e-4)

    def test_too_few_amplitudes(self):
        with pytest.raises(zk.DomainError):
            zk.fit_stark_poly([(0.01, 1.0), (0.02, 2.0)])
        with pytest.raises(zk.DomainError):
            zk.fit_dephasing_quadratic([(0.01, 1.0)])

    def test_rank_deficient_design(self):
        # +-a and 0 give identical quadratic and quartic columns
        with pytest.raises(zk.FitError):
            zk.fit_stark_poly([(-0.02, 1.0), (0.0, 0.0), (0.02, 1.0)])

    @pytest.mark.parametrize("lo,hi", [(1e-4, 3e-4), (5e-5, 2e-4), (2e-5, 1e-4), (0.01, 0.05)])
    def test_sigma_matches_the_exact_covariance(self, lo, hi):
        # at small amplitudes the eps^4 column is ~1e-8 of the eps^2 one, so
        # D^T D is too ill-conditioned for float64 while D itself is not
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        eps = np.sort(rng.uniform(lo, hi, 6))
        S, K = mhz_to_angular(S_MHZ), mhz_to_angular(K_MHZ)
        shift = S * eps**2 + K * eps**4 + rng.normal(0.0, 1e-9 * S * hi**2, eps.size)
        _, _, report = zk.fit_stark_poly(list(zip(eps, shift)))
        with mpmath.workdps(50):
            design = mpmath.matrix([[mpmath.mpf(e) ** 2, mpmath.mpf(e) ** 4] for e in eps])
            inverse = (design.T * design) ** -1
            variance = mpmath.mpf(report.residual_norm) ** 2 / (eps.size - 2)
            exact = [float(mpmath.sqrt(variance * inverse[j, j])) for j in range(2)]
        sigma = [report.uncertainties[name] for name in ("stark_quad", "stark_quartic")]
        assert sigma == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_rank_drops_where_a_singular_value_reaches_the_cutoff(self):
        # J = diag(2, 0.5, s) has exactly these singular values; a value at
        # max(n, p) eps s_max counts as zero, as it does for lstsq
        n, p = 10, 3
        cutoff = max(n, p) * np.finfo(float).eps * 2.0
        r = np.linspace(-1.0, 1.0, n)
        sigma_kept = math.sqrt(float(r @ r) / (n - p)) / np.array([2.0, 0.5])
        for s, rank in ((np.nextafter(cutoff, 0.0), 2), (cutoff, 2), (np.nextafter(cutoff, 1.0), 3)):
            J = np.zeros((n, p))
            J[0, 0], J[1, 1], J[2, 2] = 2.0, 0.5, s
            assert fits._rank_and_sigma(r, J)[0] == rank == np.linalg.lstsq(J, r, rcond=None)[2]
            sigma = fits._rank_and_sigma(r, J)[1]
            assert sigma[:2] == pytest.approx(sigma_kept, rel=1e-15)
            assert (sigma[2] == 0.0) == (rank == 2)

    @pytest.mark.parametrize(
        "fit",
        [zk.fit_stark_poly, zk.fit_dephasing_quadratic, zk.fit_flux_noise_quadratic],
        ids=["stark", "dephasing", "flux_noise"],
    )
    @pytest.mark.parametrize(
        "point",
        [(0.03, math.nan), (0.03, math.inf), (math.nan, 9.0)],
        ids=["nan_response", "inf_response", "nan_amplitude"],
    )
    def test_non_finite_points_are_refused(self, fit, point):
        # a NaN response came back as a NaN coefficient marked converged
        points = [(0.01, 1.0), (0.02, 4.0), point, (0.04, 16.0), (0.05, 25.0)]
        with pytest.raises(zk.DomainError, match="^amplitudes and responses must be finite$"):
            fit(points)

    def test_flux_noise_quadratic_exact(self):
        amps = np.linspace(0.2, 1.0, 6)
        coef, _ = zk.fit_flux_noise_quadratic([(a, 2.37 * a**2) for a in amps])
        assert coef == pytest.approx(2.37, rel=1e-12)
        zero, _ = zk.fit_flux_noise_quadratic([(a, 0.0) for a in amps])
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def test_flux_noise_monte_carlo_protocol(self):
        # per-amplitude echo decays, 50 seeded randomizations averaged,
        # exponential fit per curve, then the quadratic fit lands within
        # 5% of the true coefficient
        true_coef = 2.0
        times = np.linspace(0.1, 2.0, 40)
        rng = np.random.default_rng(321)
        points = []
        for amp in (0.2, 0.4, 0.6, 0.8, 1.0):
            clean = np.exp(-true_coef * amp**2 * times)
            averaged = np.mean(
                [clean + rng.normal(0.0, 0.02, times.size) for _ in range(50)], axis=0
            )
            rate, _ = zk.fit_exponential(times, averaged)
            points.append((amp, rate))
        coef, _ = zk.fit_flux_noise_quadratic(points)
        assert coef == pytest.approx(true_coef, rel=0.05)


class TestExponentialFit:
    def test_exact_recovery(self):
        times = np.linspace(0.0, 5.0, 60)
        rate, report = zk.fit_exponential(times, 0.8 * np.exp(-0.7 * times))
        assert rate == pytest.approx(0.7, rel=1e-10)
        assert report.parameters["amplitude"] == pytest.approx(0.8, rel=1e-10)

    def test_too_short(self):
        with pytest.raises(zk.DomainError):
            zk.fit_exponential([1.0], [0.5])

    def test_sign_flipped_decay_is_fit_error(self):
        # converges to amplitude -0.18 and rate 4e10/us without the sign check
        times = np.linspace(0.1, 2.0, 40)
        with pytest.raises(zk.FitError, match="amplitude"):
            zk.fit_exponential(times, -np.exp(-times))

    def test_times_must_increase(self):
        times = np.linspace(0.0, 5.0, 60)
        with pytest.raises(zk.DomainError, match="strictly increasing"):
            zk.fit_exponential(times[::-1], np.exp(-0.7 * times))

    def test_zero_signal_is_fit_error(self):
        # the least-squares amplitude of zeros is exactly 0: no decay
        times = np.linspace(0.1, 2.0, 40)
        with pytest.raises(zk.FitError, match=r"amplitude 0\.000e\+00, not a positive decay"):
            zk.fit_exponential(times, np.zeros(times.size))

    def test_flat_trace_has_rate_plus_zero(self):
        # the log-linear seed is minus a +0.0 slope, -0.0, which the fit used to return
        rate, report = zk.fit_exponential(np.linspace(0.1, 2.0, 40), np.ones(40))
        assert math.copysign(1.0, rate) == 1.0 and rate == 0.0
        assert math.copysign(1.0, report.parameters["decay_rate"]) == 1.0

    def test_seed_with_an_underflowed_envelope_is_fit_error(self):
        # 800 us in, the seeded envelope exp(-t) is 0 at every sample, so
        # the basis is singular; this raised numpy's LinAlgError
        times = np.linspace(0.1, 2.0, 40)
        with pytest.raises(zk.FitError, match="^fit has no least-squares solution: Singular matrix$"):
            zk.fit_exponential(times + 800.0, np.exp(-times))

    def test_non_finite_basis_gives_a_nan_residual(self):
        # LAPACK on an overflowed basis can run for seconds, so the trial is
        # refused before it
        times = np.linspace(0.1, 2.0, 40)
        fun = one_row(np.exp(-times), fits._exponential_basis(times))
        with np.errstate(over="ignore"):
            r, J = fun(np.array([-1e3]))
        assert np.all(np.isnan(r)) and not np.any(J)

    @pytest.mark.parametrize("sigma", [1e-4, 1e-3])
    def test_rate_is_the_least_squares_optimum(self, sigma):
        # noisy echo traces; a descent stopped by its gradient tolerance
        # alone missed the optimum by up to 1e-9 relative
        times = np.linspace(0.1, 2.0, 40)
        rng = np.random.default_rng([25, round(-math.log10(sigma))])
        for _ in range(100):
            signal = np.exp(-rng.uniform(0.1, 2.0) * times) + rng.normal(0.0, sigma, times.size)
            rate, report = zk.fit_exponential(times, signal)
            amplitude, optimum = exponential_optimum(times, signal)
            assert report.converged
            assert abs(rate - optimum) <= 1e-12 * optimum
            assert report.parameters["amplitude"] == pytest.approx(amplitude, rel=1e-12)


RAMSEY_EPSILONS = (0.01, 0.016, 0.022, 0.028, 0.034, 0.04)
ECHO_FLUX_AMPS = (0.25, 0.5, 0.75, 1.0)


def draw_ramsey(rng):
    """A noiseless Ramsey trace drawn as a calibration session draws one
    (device calibration varied by 10-20%, offset 10 MHz, 750 samples over
    3 us), and its true decay rate and fringe frequency."""
    times = np.arange(0.0, 3.0, 0.004)
    eps = rng.choice(RAMSEY_EPSILONS) * rng.uniform(0.97, 1.03)
    stark = S_MHZ * rng.uniform(0.9, 1.1) * eps**2 + K_MHZ * rng.uniform(0.8, 1.2) * eps**4
    dephasing = TWO_PI * R_MHZ * rng.uniform(0.9, 1.1) * eps**2
    signal = make_ramsey_signal(
        times,
        stark_mhz=stark,
        dephasing=dephasing,
        amplitude=rng.uniform(0.4, 0.5),
        phase=rng.uniform(-math.pi, math.pi),
        baseline=rng.uniform(0.45, 0.55),
    )
    return times, signal, {"decay_rate": dephasing, "frequency": OFFSET_MHZ + stark}


def draw_echo(rng):
    """A noiseless 40-sample echo decay drawn as a calibration session
    draws one, and its true decay rate."""
    times = np.linspace(0.1, 2.0, 40)
    rate = TWO_PI * 0.3 * rng.uniform(0.8, 1.2) * rng.choice(ECHO_FLUX_AMPS) ** 2
    return times, rng.uniform(0.95, 1.0) * np.exp(-rate * times), {"decay_rate": rate}


COVERAGE_CASES = {
    "ramsey": (
        draw_ramsey,
        lambda t, s: zk.fit_damped_sine(zk.RamseyTrace(t, s, offset_freq=OFFSET_MHZ))[2],
    ),
    "echo": (draw_echo, lambda t, s: zk.fit_exponential(t, s)[1]),
}


@pytest.mark.parametrize("sigma", [1e-4, 1e-3, 5e-3, 2e-2])
@pytest.mark.parametrize("kind", sorted(COVERAGE_CASES))
def test_reported_sigma_covers_the_truth(kind, sigma):
    # noisy session-shaped traces: every fit succeeds, and the reported
    # 1-sigma (2-sigma) interval holds the truth about 68% (95%) of the time
    draw, fit = COVERAGE_CASES[kind]
    seed = [26, sorted(COVERAGE_CASES).index(kind), round(-10 * math.log10(sigma))]
    rng = np.random.default_rng(seed)
    scores = {}
    for _ in range(200):
        times, signal, truth = draw(rng)
        report = fit(times, signal + rng.normal(0.0, sigma, times.size))
        for name, value in truth.items():
            error = abs(report.parameters[name] - value) / report.uncertainties[name]
            scores.setdefault(name, []).append(error)
    for name, errors in scores.items():
        errors = np.array(errors)
        assert 0.55 <= np.mean(errors <= 1.0) <= 0.78, name
        assert np.mean(errors <= 2.0) >= 0.90, name


def fixture_ramsey_traces():
    """The golden fixtures' Ramsey traces, 6 on one grid."""
    return [
        zk.RamseyTrace(
            *read_columns_csv(path, TRACE_CSV_HEADER),
            offset_freq=json.loads(path.with_suffix(".json").read_text())["offset_mhz"],
        )
        for path in sorted((DATA / "traces").glob("*.csv"))
    ]


def fixture_echo_traces():
    """The golden fixtures' echo traces, 4 on one grid."""
    return [
        zk.Trace(*read_columns_csv(path, TRACE_CSV_HEADER))
        for path in sorted((DATA / "echo").glob("*.csv"))
    ]


def noisy_session_traces(kind, count=12):
    """Session-shaped traces with noise, drawn as in
    test_reported_sigma_covers_the_truth, at 1e-4 to 2e-2."""
    rng = np.random.default_rng([31, sorted(COVERAGE_CASES).index(kind)])
    draw, _ = COVERAGE_CASES[kind]
    traces = []
    for i in range(count):
        times, signal, _ = draw(rng)
        noisy = signal + rng.normal(0.0, (1e-4, 1e-3, 5e-3, 2e-2)[i % 4], times.size)
        traces.append(
            zk.RamseyTrace(times, noisy, OFFSET_MHZ) if kind == "ramsey" else zk.Trace(times, noisy)
        )
    return traces


def fit_alone(trace):
    """``trace``'s fit on its own, or its FitError."""
    try:
        if isinstance(trace, zk.RamseyTrace):
            return zk.fit_damped_sine(trace)
        return zk.fit_exponential(trace.times, trace.signal)
    except zk.FitError as exc:
        return exc


@pytest.mark.parametrize(
    "traces,staggered",
    [
        (fixture_ramsey_traces, False),
        (fixture_echo_traces, False),
        (lambda: noisy_session_traces("ramsey"), True),
        (lambda: noisy_session_traces("echo"), True),
    ],
    ids=["fixture_ramsey", "fixture_echo", "noisy_ramsey", "noisy_echo"],
)
def test_a_batch_fits_each_trace_as_alone(traces, staggered):
    # a row's bits, iteration count included, do not depend on its batch
    traces = traces()
    assert len({trace.times.tobytes() for trace in traces}) == 1  # one batch
    batch = zk.fit_damped_sines if isinstance(traces[0], zk.RamseyTrace) else zk.fit_exponentials
    results = batch(traces)
    assert results == [fit_alone(trace) for trace in traces]
    assert all(report.converged for *_, report in results)
    if staggered:
        # rows that end in different rounds, so the early ones sit frozen
        # in the stack while the others descend
        assert len({report.iterations for *_, report in results}) > 1


def test_traces_on_other_grids_are_fitted_in_their_own_batches():
    times = np.linspace(0.0, 2.0, 101)
    other = [
        zk.RamseyTrace(times, make_ramsey_signal(times, stark_mhz=s, offset_mhz=5.0), 5.0)
        for s in (0.2, 0.4)
    ]
    traces = fixture_ramsey_traces()
    mixed = [other[0], *traces[:3], other[1], *traces[3:]]
    assert zk.fit_damped_sines(mixed) == [fit_alone(trace) for trace in mixed]


def test_a_failed_row_leaves_the_others_alone():
    # a constant and an aliased fringe among good ones: each fails with its
    # own FitError, and the other rows are their solo fits
    good = fixture_ramsey_traces()
    times = good[0].times
    constant = zk.RamseyTrace(times, np.full(times.size, 0.5), OFFSET_MHZ)
    aliased = zk.RamseyTrace(times, degenerate_ramsey_signal(times), OFFSET_MHZ)
    results = zk.fit_damped_sines([good[0], constant, *good[1:4], aliased, good[4]])
    assert str(results[1]) == "constant signal: nothing to fit"
    assert str(results[5]).startswith("damped-sine fit is degenerate: its frequency 236.968 MHz")
    kept = results[:1] + results[2:5] + results[6:]
    assert kept == [fit_alone(trace) for trace in good[:5]]

    echoes = fixture_echo_traces()
    zeros = zk.Trace(echoes[0].times, np.zeros(echoes[0].times.size))
    results = zk.fit_exponentials([echoes[0], zeros, *echoes[1:]])
    assert str(results[1]) == "exponential fit found amplitude 0.000e+00, not a positive decay"
    assert results[:1] + results[2:] == [fit_alone(trace) for trace in echoes]


def test_a_singular_or_overflowed_gram_row_leaves_the_others_alone():
    # numpy's stacked inverse raises for the whole stack on one singular row
    rng = np.random.default_rng(7)
    phi = rng.normal(size=(4, 40, 2))
    phi[1] = 0.0
    phi[2, 5, 0] = np.inf
    signals = rng.normal(size=(4, 40))
    coef, inverse, refused = fits._solve_linear(phi.copy(), signals)
    assert refused == {1: "Singular matrix", 2: "the basis is not finite"}
    assert not np.any(coef[1:3]) and not np.any(inverse[1:3])
    for b in (0, 3):
        alone, alone_inverse, _ = fits._solve_linear(phi[b : b + 1].copy(), signals[b : b + 1])
        assert np.array_equal(coef[b], alone[0]) and np.array_equal(inverse[b], alone_inverse[0])


NON_FINITE_ENTRY_POINTS = {
    "fit_exponential": zk.fit_exponential,
    "fit_damped_sine": lambda t, s: zk.fit_damped_sine(zk.RamseyTrace(t, s, OFFSET_MHZ)),
    "fit_swap_chevron": lambda t, s: zk.fit_swap_chevron(t, s, f_guess=3.2),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
@pytest.mark.parametrize("column, value", [("times", math.nan), ("signal", math.inf)])
def test_non_finite_samples_are_refused(entry, column, value):
    # they used to fail inside the fit, as a non-convergence with a nan norm
    samples = {"times": np.arange(0.0, 3.0, 0.004)}
    samples["signal"] = make_ramsey_signal(samples["times"])
    samples[column][100] = value
    with pytest.raises(zk.DomainError, match=f"^{column} must be finite$"):
        NON_FINITE_ENTRY_POINTS[entry](samples["times"], samples["signal"])


def test_traces_store_copies_and_leave_the_callers_arrays_writeable():
    # a trace used to freeze the caller's own arrays and keep them as its samples
    times = np.arange(0.0, 3.0, 0.004)
    signal = make_ramsey_signal(times)
    trace = zk.RamseyTrace(times, signal, OFFSET_MHZ)
    before = zk.fit_damped_sine(trace)
    zk.fit_exponential(times, signal + 2.0)
    assert times.flags.writeable and signal.flags.writeable
    assert not (trace.times.flags.writeable or trace.signal.flags.writeable)
    times[:], signal[:] = 0.0, 1.0
    assert zk.fit_damped_sine(trace) == before


def chevron_model(times, a, b, c, d, rate, freq):
    """``exp(-rate t) (a cos 2 pi f t + b sin 2 pi f t + c) + d`` and its
    Jacobian, written out in the cartesian parameters of the report."""
    envelope = np.exp(-rate * times)
    cos_t, sin_t = np.cos(TWO_PI * freq * times), np.sin(TWO_PI * freq * times)
    osc = a * cos_t + b * sin_t + c
    jacobian = np.column_stack(
        [
            envelope * cos_t,
            envelope * sin_t,
            envelope,
            np.ones_like(times),
            -times * envelope * osc,
            TWO_PI * times * envelope * (b * cos_t - a * sin_t),
        ]
    )
    return envelope * osc + d, jacobian


def assert_cartesian_report(times, report, a, b):
    """The report's (a, b) are ``(a, b)``, and its uncertainties come from
    the cartesian Jacobian with the report's residual variance."""
    params = report.parameters
    assert params["osc_cos"] == pytest.approx(a, abs=1e-9)
    assert params["osc_sin"] == pytest.approx(b, abs=1e-9)
    _, J = chevron_model(times, *(params[k] for k in _CHEVRON_NAMES))
    variance = report.residual_norm**2 / (times.size - J.shape[1])
    sigma = np.sqrt(variance * np.diag(np.linalg.inv(J.T @ J)))
    assert [report.uncertainties[k] for k in _CHEVRON_NAMES] == pytest.approx(sigma, rel=1e-9)


class TestSwapChevron:
    def test_recovers_defect_parameters_from_oracle_trace(self, strong_defect):
        model = zk.LindbladModel(qubit_freq=strong_defect.freq, defect=strong_defect)
        trajectory = zk.evolve(model, t_final=1.2)
        coupling, decay, report = zk.fit_swap_chevron(
            trajectory.times, trajectory.populations(), f_guess=2 * 1.6
        )
        assert coupling == pytest.approx(strong_defect.coupling, rel=0.02)
        assert decay == pytest.approx(strong_defect.decay, rel=0.10)
        assert report.converged

    def test_doubled_coupling_doubles_recovered_value(self, strong_defect):
        doubled = zk.DefectParams(
            freq=strong_defect.freq, coupling=2 * strong_defect.coupling, decay=strong_defect.decay
        )
        single = zk.evolve(
            zk.LindbladModel(qubit_freq=strong_defect.freq, defect=strong_defect), t_final=1.2
        )
        double = zk.evolve(
            zk.LindbladModel(qubit_freq=strong_defect.freq, defect=doubled), t_final=1.2
        )
        c1, _, _ = zk.fit_swap_chevron(single.times, single.populations(), f_guess=3.2)
        c2, _, _ = zk.fit_swap_chevron(double.times, double.populations(), f_guess=6.4)
        assert c2 / c1 == pytest.approx(2.0, rel=0.01)

    def test_no_oscillation_is_fit_error(self, strong_defect):
        uncoupled = zk.DefectParams(freq=strong_defect.freq, coupling=0.0, decay=strong_defect.decay)
        model = zk.LindbladModel(
            qubit_freq=strong_defect.freq, qubit_decay=0.05, defect=uncoupled
        )
        trajectory = zk.evolve(model, t_final=20.0)
        with pytest.raises(zk.FitError):
            zk.fit_swap_chevron(trajectory.times, trajectory.populations(), f_guess=3.2)

    def test_cartesian_report_on_the_fixture_linecut(self):
        # the resonant linecut is exp(-k t / 2) (cos W t + x sin W t)^2 with
        # W = sqrt(g^2 - k^2 / 16) and x = k / (4 W), so a = (1 - x^2) / 2
        # and b = x at f = W / pi
        times, populations = swap_linecut()
        _, _, report = zk.fit_swap_chevron(times, populations, f_guess=3.2)
        x = GAMMA_1D / (4.0 * math.sqrt(G_D**2 - GAMMA_1D**2 / 16.0))
        assert_cartesian_report(times, report, 0.5 * (1.0 - x**2), x)

    @settings(max_examples=60, deadline=None)
    @given(
        amplitude=st.floats(0.2, 0.5),
        phase=st.floats(-math.pi, math.pi),
        offset=st.floats(0.0, 0.5),
        baseline=st.floats(-0.05, 0.05),
        rate=st.floats(0.5, 4.0),
        freq=st.floats(2.5, 5.0),
        flip_frequency=st.booleans(),
    )
    def test_cartesian_report_on_drawn_linecuts(
        self, amplitude, phase, offset, baseline, rate, freq, flip_frequency
    ):
        # the model is unchanged under (b, f) -> (-b, -f); a descent started
        # at -f ends there, and the report must still give the generating (a, b)
        a, b = amplitude * math.cos(phase), -amplitude * math.sin(phase)
        times = np.linspace(0.0, 1.2, 301)
        signal, _ = chevron_model(times, a, b, offset, baseline, rate, freq)
        descend, ends = fits._lm_descent, []

        def flipped_start(fun, theta0, data_norms):
            theta0 = np.array(theta0)
            if flip_frequency:
                theta0[:, 1] = -theta0[:, 1]
            result = descend(fun, theta0, data_norms)
            ends.append(result[0][0].copy())
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fits, "_lm_descent", flipped_start)
            _, _, report = zk.fit_swap_chevron(times, signal, f_guess=freq)
        (end,) = ends
        assert (end[1] < 0) == flip_frequency
        assert_cartesian_report(times, report, a, b)

    @pytest.mark.parametrize("f_guess", [0.0, -3.2, math.nan])
    def test_f_guess_must_be_positive(self, f_guess):
        # checked before the samples, so even an empty linecut names it; a
        # guess <= 0 or NaN used to drop the peak window and the span check
        with pytest.raises(zk.DomainError, match=r"^f_guess must be > 0 MHz, got "):
            zk.fit_swap_chevron([], [], f_guess=f_guess)

    def test_span_precondition(self):
        times = np.linspace(0.0, 0.4, 30)
        with pytest.raises(zk.DomainError):
            zk.fit_swap_chevron(times, np.cos(times), f_guess=3.2)


class TestScalarConversions:
    def test_photons_from_published_values(self):
        nbar = zk.photons_from_stark(mhz_to_angular(NU_S_MHZ), mhz_to_angular(CHI_MHZ))
        assert nbar == pytest.approx(0.2301, abs=1e-4)

    def test_photons_trivial_points(self):
        chi = mhz_to_angular(CHI_MHZ)
        assert zk.photons_from_stark(0.0, chi) == 0.0
        assert zk.photons_from_stark(2.0 * chi, chi) == 1.0

    def test_photons_errors(self):
        with pytest.raises(zk.DomainError):
            zk.photons_from_stark(1.0, 0.0)
        with pytest.raises(zk.SignError):
            zk.photons_from_stark(-1.0, 2.0)

    def test_rate_from_fixed_delay_examples(self):
        assert zk.rate_from_fixed_delay(math.exp(-1.0), 30.0) == pytest.approx(
            1.0 / 30.0, rel=1e-12
        )
        assert zk.rate_from_fixed_delay(1.0, 30.0) == 0.0
        assert zk.rate_from_fixed_delay(0.5, 30.0) == pytest.approx(0.023105, abs=1e-6)

    @given(rate=st.floats(1e-6, 1.0), delay=st.floats(0.1, 100.0))
    def test_rate_round_trip(self, rate, delay):
        p1 = math.exp(-rate * delay)
        if p1 > 0.0:
            assert zk.rate_from_fixed_delay(p1, delay) == pytest.approx(rate, rel=1e-12)

    @pytest.mark.parametrize("p1", [0.0, -0.5, 1.2, math.nan])
    def test_rate_domain_errors(self, p1):
        with pytest.raises(zk.DomainError):
            zk.rate_from_fixed_delay(p1, 30.0)
        with pytest.raises(zk.DomainError):
            zk.rate_from_fixed_delay(0.5, 0.0)


class TestReadoutCalibration:
    def test_reference_amplitude_point(self, device_calibration):
        stark = device_calibration.stark_shift(EPSILON_REF)
        assert stark == pytest.approx(mhz_to_angular(0.5178), abs=mhz_to_angular(5e-5))
        assert device_calibration.dephasing(EPSILON_REF) == pytest.approx(
            mhz_to_angular(0.268), abs=mhz_to_angular(2e-4)
        )
        assert device_calibration.nbar(EPSILON_REF) == pytest.approx(
            stark / (2 * device_calibration.chi), rel=1e-15
        )

    def test_invariants_enforced(self):
        with pytest.raises(zk.DomainError):
            zk.ReadoutCalibration(1.0, 0.0, -0.1, chi=1.0)
        with pytest.raises(zk.DomainError):
            zk.ReadoutCalibration(1.0, 0.0, 0.1, chi=0.0)
        # Kerr term must stay subdominant over the calibrated range
        with pytest.raises(zk.DomainError):
            zk.ReadoutCalibration(1.0, 2e4, 0.1, chi=1.0, max_epsilon=0.5)
        # Stark and chi signs must agree
        with pytest.raises(zk.SignError):
            zk.ReadoutCalibration(-1.0, 0.0, 0.1, chi=1.0, max_epsilon=0.5)
        with pytest.raises(zk.DomainError, match="range must be >= 0"):
            zk.ReadoutCalibration(1.0, 0.0, 0.1, chi=1.0, max_epsilon=-0.5)

    def test_contexts_stay_in_the_calibrated_range(self, device_calibration):
        zk.MeasurementContext.from_calibration(device_calibration, 0.0, 0.05)
        with pytest.raises(zk.DomainError, match="0.0500001 is past the calibrated range"):
            zk.MeasurementContext.from_calibration(device_calibration, 0.0, 0.0500001)
        unbounded = replace(device_calibration, max_epsilon=None)
        zk.MeasurementContext.from_calibration(unbounded, 0.0, 0.4)

    @pytest.mark.parametrize("max_epsilon", [None, 0.05])
    def test_range_round_trips_through_json(self, tmp_path, device_calibration, max_epsilon):
        calibration = replace(device_calibration, max_epsilon=max_epsilon)
        path = tmp_path / "calibration.json"
        path.write_text(calibration_to_json(calibration))
        assert ("max_epsilon" in json.loads(path.read_text())) == (max_epsilon is not None)
        assert read_calibration_json(path).max_epsilon == max_epsilon
