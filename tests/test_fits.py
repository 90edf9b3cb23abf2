import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import zenokit as zk
from conftest import (
    CHI_MHZ,
    EPSILON_REF,
    GAMMA_PHI_REF,
    K_MHZ,
    NU_S_MHZ,
    OFFSET_MHZ,
    R_MHZ,
    S_MHZ,
    make_ramsey_signal,
)
from zenokit.fits import _DAMPED_SINE_NAMES, _damped_sine_residual_jacobian
from zenokit.units import TWO_PI, mhz_to_angular


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
        rng = np.random.default_rng(11)
        noisy = ramsey_trace.signal + rng.normal(0.0, 0.02 * 0.45, ramsey_trace.times.size)
        _, _, report = zk.fit_damped_sine(
            zk.RamseyTrace(ramsey_trace.times, noisy, offset_freq=OFFSET_MHZ)
        )
        theta = np.array([report.parameters[k] for k in _DAMPED_SINE_NAMES])
        fun = _damped_sine_residual_jacobian(ramsey_trace.times, noisy)
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

    def test_constant_signal_is_fit_error(self):
        times = np.linspace(0.0, 3.0, 100)
        with pytest.raises(zk.FitError):
            zk.fit_damped_sine(zk.RamseyTrace(times, np.full(100, 0.7), offset_freq=10.0))


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
        assert S_fit == 0.0
        assert K_fit == 0.0
        R_fit, _ = zk.fit_dephasing_quadratic(points)
        assert R_fit == 0.0

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

    def test_flux_noise_quadratic_exact(self):
        amps = np.linspace(0.2, 1.0, 6)
        coef, _ = zk.fit_flux_noise_quadratic([(a, 2.37 * a**2) for a in amps])
        assert coef == pytest.approx(2.37, rel=1e-12)
        zero, _ = zk.fit_flux_noise_quadratic([(a, 0.0) for a in amps])
        assert zero == 0.0

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
