import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenokit as zk
from conftest import CHI_MHZ, GAMMA_1D, G_D, K_MHZ, QUBIT_FREQ, R_MHZ, S_MHZ, make_hotspot_spectrum
from zenokit import kk
from zenokit.kk import pairwise_sum
from zenokit.units import TWO_PI, mhz_to_angular


def lorentzian_pair_rate(coupling_sq, width, dephasing, detuning):
    """Closed-form convolution of a defect line with the dephasing filter.

    The convolution of two Lorentzians is a Lorentzian whose width is
    the sum of the two; verified against adaptive quadrature before
    being frozen here.
    """
    total = dephasing + width / 2.0
    return 2.0 * coupling_sq * total / (total**2 + detuning**2)


def convolution_window(width, dephasing, detuning, center):
    """Window wide enough for 1e-3 agreement with the whole-axis result.

    The analytic normalization assumes the spectrum continues flat
    outside the window, which inflates a lone-peak result by roughly
    (2/pi) * dephasing / half_width; the half-width below keeps that
    bias under ~3e-4.
    """
    half = max(50.0 * (dephasing + width), 2200.0 * dephasing, 3.0 * abs(detuning))
    return (center - half, center + half)


class TestNormalization:
    def test_symmetric_ten_widths(self):
        ctx = zk.MeasurementContext(freq=3.0, dephasing=0.5)
        norm = zk.window_normalization(ctx, (3.0 - 5.0, 3.0 + 5.0))
        assert norm == pytest.approx(2.0 / math.pi * math.atan(10.0), rel=1e-14)
        assert norm == pytest.approx(0.93655, abs=1e-5)

    def test_symmetric_one_width(self):
        ctx = zk.MeasurementContext(freq=0.0, dephasing=2.0)
        assert zk.window_normalization(ctx, (-2.0, 2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_half_lorentzian(self):
        ctx = zk.MeasurementContext(freq=1.0, dephasing=0.3)
        assert zk.window_normalization(ctx, (1.0, math.inf)) == pytest.approx(0.5, rel=1e-14)

    def test_approaches_one_for_wide_window(self):
        ctx = zk.MeasurementContext(freq=0.0, dephasing=1.0)
        assert zk.window_normalization(ctx, (-1e9, 1e9)) == pytest.approx(1.0, abs=1e-8)

    def test_errors(self):
        with pytest.raises(zk.DomainError):
            zk.window_normalization(zk.MeasurementContext(0.0, 0.0), (-1.0, 1.0))
        with pytest.raises(zk.DomainError):
            zk.window_normalization(zk.MeasurementContext(0.0, 1.0), (1.0, -1.0))


def folded_sum(values):
    """The documented tree with Python floats: pad to 2^k, fold halves."""
    buf = [float(v) for v in values]
    buf += [0.0] * ((1 << (len(buf) - 1).bit_length()) - len(buf))
    while len(buf) > 1:
        half = len(buf) // 2
        buf = [a + b for a, b in zip(buf[:half], buf[half:])]
    return buf[0]


class TestPairwiseSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 101, 4001])
    def test_follows_the_fixed_tree(self, n):
        rng = np.random.default_rng(n)
        # Mixed magnitudes, so that a different order would round differently.
        values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        assert pairwise_sum(values) == folded_sum(values)

    def test_pairwise_error_bound(self):
        values = np.random.default_rng(3).random(40001) * 1e3
        bound = math.ceil(math.log2(values.size)) * np.finfo(float).eps * np.abs(values).sum()
        assert abs(pairwise_sum(values) - math.fsum(values)) <= bound


class TestSeriesKernel:
    """The segment kernel's odd series against 40-digit mpmath."""

    LIMIT = kk.SERIES_LIMIT
    POINTS = [
        np.nextafter(kk.SERIES_LIMIT, 0.0),  # last argument on the series
        np.nextafter(kk.SERIES_LIMIT, 1.0),  # first one on longdouble libm
        kk.SERIES_LIMIT,
        1e-300,
        1e-8,
        0.0,
    ]

    @staticmethod
    def assert_within_2_ulp(got, exact):
        exact = float(exact)
        assert abs(got - exact) <= 2.0 * math.ulp(exact), (got, exact)

    def test_truncation_is_below_half_an_ulp(self):
        half_ulp = 2.0**-54
        n = kk.ATAN_TERMS
        assert self.LIMIT ** (2 * n) / (2 * n + 1) < half_ulp
        y = self.LIMIT / (2.0 + self.LIMIT)
        m = kk.ATANH_TERMS
        assert y ** (2 * m) / ((2 * m + 1) * (1.0 - y * y)) < half_ulp

    @pytest.mark.parametrize("z", POINTS)
    def test_atan_at_threshold(self, z):
        mpmath = pytest.importorskip("mpmath")
        got = kk._atan2(np.array([z]), np.array([1.0]))[0]
        with mpmath.workdps(40):
            self.assert_within_2_ulp(got, mpmath.atan(mpmath.mpf(z)))

    @pytest.mark.parametrize("x", POINTS)
    def test_log1p_at_threshold(self, x):
        mpmath = pytest.importorskip("mpmath")
        got = kk._log1p(np.array([x]))[0]
        with mpmath.workdps(40):
            self.assert_within_2_ulp(got, mpmath.log1p(mpmath.mpf(x)))

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(0.0, 2.0 * kk.SERIES_LIMIT), den=st.floats(0.5, 2.0))
    def test_both_branches_match_mpmath(self, x, den):
        mpmath = pytest.importorskip("mpmath")
        num = x * den
        atan = kk._atan2(np.array([num]), np.array([den]))[0]
        log = kk._log1p(np.array([x]))[0]
        with mpmath.workdps(40):
            self.assert_within_2_ulp(atan, mpmath.atan2(mpmath.mpf(num), mpmath.mpf(den)))
            self.assert_within_2_ulp(log, mpmath.log1p(mpmath.mpf(x)))


class TestDecayRate:
    def test_flat_spectrum_returns_background(self):
        s = zk.ParametricSpectrum(background=0.037)
        ctx = zk.MeasurementContext(freq=10.0, dephasing=1.3)
        result = zk.decay_rate(s, ctx, window=(10.0 - 65.0, 10.0 + 65.0))
        assert result.rate == pytest.approx(0.037, rel=1e-8)

    def test_flat_tabulated_any_context(self):
        grid = np.linspace(-100.0, 100.0, 301)
        s = zk.TabulatedSpectrum(grid, np.full(301, 0.02))
        for freq, hw in ((0.0, 1.0), (-30.0, 5.0), (42.0, 0.2)):
            ctx = zk.MeasurementContext(freq=freq, dephasing=hw)
            assert zk.decay_rate(s, ctx).rate == pytest.approx(0.02, rel=1e-14)

    def test_delta_limit_is_interpolated_spectrum(self):
        s = make_hotspot_spectrum()
        probe = QUBIT_FREQ + mhz_to_angular(1.234)
        for dephasing in (0.0, 1e-10):
            ctx = zk.MeasurementContext(freq=probe, dephasing=dephasing)
            result = zk.decay_rate(s, ctx)
            assert result.rate == s.rate_at(probe)
            assert result.norm == 1.0

    def test_delta_limit_strict_range(self):
        s = make_hotspot_spectrum(extrapolation="raise")
        outside = s.omega_max + 1.0
        with pytest.raises(zk.RangeError):
            zk.decay_rate(s, zk.MeasurementContext(freq=outside, dephasing=0.0))

    def test_single_peak_closed_form(self):
        # one spot check; the acceptance suite runs the full 16-point matrix
        width, dephasing, detuning = GAMMA_1D, GAMMA_1D, 5.0 * GAMMA_1D
        peak = zk.TlsPeak(center=QUBIT_FREQ - detuning, width=width, coupling_sq=G_D**2)
        s = zk.ParametricSpectrum(background=0.0, peaks=(peak,))
        ctx = zk.MeasurementContext(freq=QUBIT_FREQ, dephasing=dephasing)
        window = convolution_window(width, dephasing, detuning, QUBIT_FREQ)
        result = zk.decay_rate(s, ctx, window=window)
        expected = lorentzian_pair_rate(G_D**2, width, dephasing, detuning)
        assert result.rate == pytest.approx(expected, rel=1e-3)

    def test_grid_convergence_at_default_resolution(self):
        # the integral is exact, so the resolution keyword is inert
        s = make_hotspot_spectrum()
        ctx = zk.MeasurementContext(freq=QUBIT_FREQ, dephasing=TWO_PI * 0.3)
        coarse = zk.decay_rate(s, ctx, resolution=4001)
        fine = zk.decay_rate(s, ctx, resolution=8001)
        assert coarse == fine

    def test_window_bounds_rate(self):
        s = make_hotspot_spectrum()
        lo, hi = s.omega_min, s.omega_max
        grid_min, grid_max = s.rates.min(), s.rates.max()
        for freq_off, dephasing in ((0.0, 0.5), (-20.0, 3.0), (10.0, 12.0)):
            ctx = zk.MeasurementContext(freq=QUBIT_FREQ + freq_off, dephasing=dephasing)
            rate = zk.decay_rate(s, ctx).rate
            assert grid_min * (1 - 1e-6) <= rate <= grid_max * (1 + 1e-6)

    def test_errors(self):
        s = zk.ParametricSpectrum(background=0.01)
        ctx = zk.MeasurementContext(freq=0.0, dephasing=1.0)
        with pytest.raises(zk.DomainError):
            zk.decay_rate(s, ctx, window=(1.0, -1.0))
        with pytest.raises(zk.DomainError):
            zk.decay_rate(s, ctx, window=(-1.0, 1.0), resolution=51)
        with pytest.raises(zk.DomainError):
            zk.MeasurementContext(freq=0.0, dephasing=-1.0)

    @settings(max_examples=40, deadline=None)
    @given(shift=st.floats(-1e3, 1e3), dephasing=st.floats(0.05, 5.0))
    def test_translation_covariance(self, shift, dephasing):
        grid = np.linspace(-40.0, 40.0, 801)
        rates = 0.01 + 0.1 / (1.0 + (grid - 7.0) ** 2)
        ctx = zk.MeasurementContext(freq=3.0, dephasing=dephasing)
        base = zk.decay_rate(zk.TabulatedSpectrum(grid, rates), ctx).rate
        moved = zk.decay_rate(
            zk.TabulatedSpectrum(grid + shift, rates),
            zk.MeasurementContext(freq=3.0 + shift, dephasing=dephasing),
        ).rate
        assert moved == pytest.approx(base, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        scale_pow=st.integers(-6, 6),
        scale_odd=st.floats(0.1, 10.0),
        dephasing=st.floats(0.05, 5.0),
    )
    def test_rate_scaling(self, scale_pow, scale_odd, dephasing):
        grid = np.linspace(-40.0, 40.0, 801)
        rates = 0.01 + 0.1 / (1.0 + (grid - 7.0) ** 2)
        ctx = zk.MeasurementContext(freq=0.0, dephasing=dephasing)
        base = zk.decay_rate(zk.TabulatedSpectrum(grid, rates), ctx).rate
        # powers of two rescale bit-exactly; general factors to rounding
        two = 2.0**scale_pow
        exact = zk.decay_rate(zk.TabulatedSpectrum(grid, two * rates), ctx).rate
        assert exact == two * base
        general = zk.decay_rate(zk.TabulatedSpectrum(grid, scale_odd * rates), ctx).rate
        assert general == pytest.approx(scale_odd * base, rel=1e-12)


def quad_window_integral(spectrum, center, hw, lo, hi):
    """Independent reference: adaptive quadrature of the window integral.

    Integrates in ``t = omega - center`` so the filter sees exact offsets
    (``omega`` itself has ~7e-15 rad/us spacing near 50 rad/us), with
    breakpoints at the table nodes, at the centre, and at ``hw * 10**k``
    on either side of it, so every piece is smooth on its own scale.
    """
    integrate = pytest.importorskip("scipy.integrate")

    def integrand(t):
        return spectrum.rate_at(center + t) * (hw / math.pi) / (hw * hw + t * t)

    a, b = lo - center, hi - center
    points = {a, b, 0.0, *(float(w - center) for w in spectrum.omegas)}
    points |= {sign * hw * 10.0**k for k in range(12) for sign in (-1.0, 1.0)}
    points = sorted(p for p in points if a <= p <= b)
    parts = [
        integrate.quad(integrand, p, q, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for p, q in zip(points[:-1], points[1:])
    ]
    return math.fsum(parts)


def mpmath_pair_integral(peak, center, hw, lo, hi):
    """Independent reference: one peak times the filter, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, c, d = mpmath.mpf(peak.width) / 2, mpmath.mpf(center), mpmath.mpf(peak.center)
        h = mpmath.mpf(hw)

        def integrand(w):
            return (2 * peak.coupling_sq * a / (a * a + (w - d) ** 2)) * (h / mpmath.pi) / (
                h * h + (w - c) ** 2
            )

        return float(mpmath.quad(integrand, sorted({lo, hi, center, peak.center})))


class TestExactIntegral:
    """The closed forms against adaptive quadrature and high precision."""

    # a steep segment under a wide filter: the log term's ratio is 1 + 2e-8
    @example(
        gaps=[0.01], rates=[1e-3] + [1.0] * 12, log_hw=3.0, case="centre on node", frac=0.0,
        node=0,
    )
    @settings(max_examples=150, deadline=None)
    @given(
        gaps=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12),
        rates=st.lists(st.floats(1e-3, 1.0), min_size=13, max_size=13),
        log_hw=st.floats(-6.0, 3.0),
        case=st.sampled_from(["centre on node", "centre anywhere", "beyond grid", "edge on node"]),
        frac=st.floats(0.0, 1.0),
        node=st.integers(0, 12),
    )
    def test_tabulated_matches_quadrature(self, gaps, rates, log_hw, case, frac, node):
        omegas = 50.0 + np.concatenate(([0.0], np.cumsum(gaps)))
        s = zk.TabulatedSpectrum(omegas, rates[: omegas.size])
        hw = 10.0**log_hw
        lo, hi = s.omega_min, s.omega_max
        span = hi - lo
        center = lo - 0.5 * span + 2.0 * span * frac
        if case == "centre on node":
            center = float(omegas[node % omegas.size])
        elif case == "beyond grid":
            lo, hi = lo - 0.3 * span, hi + 0.2 * span  # held flat outside
        elif case == "edge on node":
            hi = float(omegas[max(1, node % omegas.size)])
        ctx = zk.MeasurementContext(freq=center, dephasing=hw)
        raw = zk.decay_rate(s, ctx, window=(lo, hi)).raw_rate
        expected = quad_window_integral(s, center, hw, lo, hi)
        assert raw == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_raise_policy_refuses_a_window_beyond_the_grid(self):
        s = make_hotspot_spectrum(extrapolation="raise")
        ctx = zk.MeasurementContext(freq=QUBIT_FREQ, dephasing=1.0)
        inside = zk.decay_rate(s, ctx, window=(s.omega_min + 1.0, s.omega_max - 1.0))
        assert inside.rate > 0.0
        with pytest.raises(zk.RangeError):
            zk.decay_rate(s, ctx, window=(s.omega_min - 1.0, s.omega_max))

    @pytest.mark.parametrize("direction", ["offset", "width"])
    @pytest.mark.parametrize("separation", [0.0, 1e-12, 1e-8, 1e-5, 1e-3, 0.1])
    def test_peak_pair_near_coincident_poles(self, separation, direction):
        # poles d + i a (peak) and i hw (filter), relative separation
        # |d + i (a - hw)| / (a + hw); both coincide at 0
        center, a = 10.0, 1.0
        offset = 2.0 * a * separation if direction == "offset" else 0.0
        hw = a * (1.0 + 2.0 * separation) if direction == "width" else a
        peak = zk.TlsPeak(center=center + offset, width=2.0 * a, coupling_sq=1.3)
        s = zk.ParametricSpectrum(background=0.0, peaks=(peak,))
        lo, hi = center - 40.0, center + 60.0
        raw = zk.decay_rate(s, zk.MeasurementContext(center, hw), window=(lo, hi)).raw_rate
        expected = mpmath_pair_integral(peak, center, hw, lo, hi)
        assert raw == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("offset", [0.0, 0.123, -2.5])
    def test_continuous_into_golden_rule(self, offset):
        hw = 10.0 * zk.kk.DELTA_LIMIT
        probe = QUBIT_FREQ + offset
        tabulated = make_hotspot_spectrum()
        peak = zk.TlsPeak(center=QUBIT_FREQ + 1.0, width=2.0, coupling_sq=0.5)
        parametric = zk.ParametricSpectrum(background=0.01, peaks=(peak,))
        for s in (tabulated, parametric):
            rate = zk.decay_rate(s, zk.MeasurementContext(probe, hw)).rate
            assert rate == pytest.approx(s.rate_at(probe), rel=1e-6)


class TestSweep:
    def test_zero_amplitude_is_unmeasured_rate(self, device_calibration):
        s = make_hotspot_spectrum()
        results = zk.sweep(s, device_calibration, QUBIT_FREQ, [0.0])
        assert results[0].rate == s.rate_at(QUBIT_FREQ)
        assert results[0].context.nbar == 0.0

    def test_antizeno_rising_for_hotspot_under_shift(self):
        # hot spot below the qubit, calibration shifting downward:
        # the decay rate grows monotonically until the peak is crossed.
        cal = zk.ReadoutCalibration(
            stark_quad=-mhz_to_angular(825.0),
            stark_quartic=-mhz_to_angular(5619.0),
            dephasing_quad=mhz_to_angular(429.0),
            chi=-mhz_to_angular(0.98),
        )
        s = make_hotspot_spectrum(offset_mhz=-3.0)
        amplitudes = np.linspace(0.0, 0.05, 21)
        results = zk.sweep(s, cal, QUBIT_FREQ, amplitudes)
        rates = np.array([r.rate for r in results])
        shifts = np.array([r.context.freq - QUBIT_FREQ for r in results])
        before_peak = shifts >= -mhz_to_angular(3.0)
        assert np.all(np.diff(rates[before_peak]) >= 0)
        assert rates[before_peak][-1] > 2.0 * rates[0]

    def test_zeno_falling_when_centered_on_hotspot(self, device_calibration):
        # qubit parked on the hot spot: dephasing broadens it away into
        # the valley, so the rate decreases initially
        s = make_hotspot_spectrum(offset_mhz=0.0)
        amplitudes = np.linspace(0.0, 0.02, 11)
        results = zk.sweep(s, device_calibration, QUBIT_FREQ, amplitudes)
        rates = np.array([r.rate for r in results])
        assert np.all(np.diff(rates) <= 0)

    def test_context_consistency(self, device_calibration):
        s = make_hotspot_spectrum()
        amplitudes = [0.0, 0.01, 0.02]
        results = zk.sweep(s, device_calibration, QUBIT_FREQ, amplitudes)
        for eps, r in zip(amplitudes, results):
            stark = device_calibration.stark_shift(eps)
            assert r.context.freq == QUBIT_FREQ + stark
            assert 2.0 * device_calibration.chi * r.context.nbar == pytest.approx(
                stark, rel=1e-12, abs=1e-300
            )

    def test_input_validation(self, device_calibration):
        s = make_hotspot_spectrum()
        with pytest.raises(zk.DomainError):
            zk.sweep(s, device_calibration, QUBIT_FREQ, [-0.01, 0.0])
        with pytest.raises(zk.DomainError):
            zk.sweep(s, device_calibration, QUBIT_FREQ, [0.02, 0.01])

    # 2999 segments: two contexts per block, so the ten measured contexts
    # run in five blocks
    @example(seed=0, nodes=3000, amplitudes=[0.01 * k for k in range(1, 11)], windowed=False)
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nodes=st.integers(2, 4000),
        amplitudes=st.lists(st.floats(0.0, 0.06), min_size=1, max_size=11),
        windowed=st.booleans(),
    )
    def test_batch_equals_single_contexts(self, seed, nodes, amplitudes, windowed):
        rng = np.random.default_rng(seed)
        omegas = QUBIT_FREQ - 100.0 + np.cumsum(rng.uniform(0.01, 1.0, nodes))
        s = zk.TabulatedSpectrum(omegas, rng.uniform(1e-3, 1.0, nodes))
        cal = zk.ReadoutCalibration(
            stark_quad=mhz_to_angular(S_MHZ),
            stark_quartic=mhz_to_angular(K_MHZ),
            dephasing_quad=mhz_to_angular(R_MHZ),
            chi=mhz_to_angular(CHI_MHZ),
        )
        span = s.omega_max - s.omega_min
        window = (s.omega_min + 0.1 * span, s.omega_max + 0.2 * span) if windowed else None
        amps = sorted([0.0, *amplitudes])
        results = zk.sweep(s, cal, QUBIT_FREQ, amps, window=window)
        assert len(results) == len(amps)
        for r in results:
            single = zk.decay_rate(s, r.context, window=window)
            assert (r.raw_rate, r.norm, r.rate) == (single.raw_rate, single.norm, single.rate)

    def test_residual_dephasing_floor(self, device_calibration):
        s = make_hotspot_spectrum()
        residual = TWO_PI * 0.05
        results = zk.sweep(
            s, device_calibration, QUBIT_FREQ, [0.0], residual_dephasing=residual
        )
        assert results[0].context.dephasing == residual
        assert results[0].norm < 1.0
