import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenokit as zk
from conftest import GAMMA_1D, GAMMA_Q, G_D
from test_kk import convolution_window, lorentzian_pair_rate
from zenokit.units import TWO_PI, mhz_to_angular


class TestGeneralizedPurcell:
    def test_reduces_to_plain_purcell(self, strong_defect):
        qubit = zk.QubitParams(freq=strong_defect.freq)
        rate = zk.generalized_purcell(qubit, strong_defect)
        assert rate == pytest.approx(4.0 * G_D**2 / GAMMA_1D, rel=1e-15)

    def test_published_resonant_magnitude(self, strong_defect):
        # frozen from an independent evaluation of gq + 2 g^2 / W with
        # W = g1d/2 - gq/2; about 3.6 decades above the 0.01/us floor
        qubit = zk.QubitParams(freq=strong_defect.freq, decay=GAMMA_Q)
        rate = zk.generalized_purcell(qubit, strong_defect)
        assert rate == pytest.approx(41.69160867260064, rel=1e-12)
        assert 1e3 <= rate / GAMMA_Q <= 1e4

    def test_lorentzian_tail_ratio(self, strong_defect):
        width = zk.effective_width(zk.QubitParams(freq=0.0), strong_defect)
        on_res = zk.generalized_purcell(zk.QubitParams(freq=strong_defect.freq), strong_defect)
        detuned = zk.generalized_purcell(
            zk.QubitParams(freq=strong_defect.freq + 10.0 * width), strong_defect
        )
        assert detuned == pytest.approx(on_res / 101.0, rel=1e-12)

    def test_never_below_intrinsic_decay(self, strong_defect):
        for detuning in (0.0, 5.0, 500.0):
            qubit = zk.QubitParams(freq=strong_defect.freq + detuning, decay=0.3, dephasing=1.0)
            assert zk.generalized_purcell(qubit, strong_defect) >= 0.3

    def test_nonpositive_width_rejected(self, strong_defect):
        # decay fast enough to break the fast-bath assumption
        qubit = zk.QubitParams(freq=strong_defect.freq, decay=2.0 * GAMMA_1D)
        with pytest.raises(zk.DomainError):
            zk.generalized_purcell(qubit, strong_defect)

    @settings(max_examples=100)
    @given(detuning=st.floats(0.0, 1e3), dephasing=st.floats(0.0, 50.0))
    def test_detuning_symmetry(self, detuning, dephasing):
        defect = zk.DefectParams(freq=1000.0, coupling=G_D, decay=GAMMA_1D)
        up = zk.generalized_purcell(
            zk.QubitParams(freq=defect.freq + detuning, dephasing=dephasing), defect
        )
        down = zk.generalized_purcell(
            zk.QubitParams(freq=defect.freq - detuning, dephasing=dephasing), defect
        )
        assert up == pytest.approx(down, rel=1e-12)

    def test_dephasing_slope_sign_structure(self, strong_defect):
        # d rate / d dephasing < 0 iff W > |detuning| (measurement slows
        # the decay on resonance, accelerates it off resonance)
        h = 1e-6
        for detuning, expected_sign in ((0.0, -1.0), (200.0, +1.0)):
            freq = strong_defect.freq + detuning
            low = zk.generalized_purcell(zk.QubitParams(freq=freq, dephasing=1.0), strong_defect)
            high = zk.generalized_purcell(
                zk.QubitParams(freq=freq, dephasing=1.0 + h), strong_defect
            )
            assert np.sign(high - low) == expected_sign


class TestLimits:
    def test_resonant_purcell_basics(self):
        assert zk.resonant_purcell(0.0, 3.0) == 0.0
        assert zk.resonant_purcell(2.0, 8.0) == pytest.approx(2.0, rel=1e-15)
        assert zk.resonant_purcell(2.0, 16.0) == zk.resonant_purcell(2.0, 8.0) / 2.0
        with pytest.raises(zk.DomainError):
            zk.resonant_purcell(1.0, 0.0)

    def test_zeno_jump_basics(self):
        assert zk.zeno_jump_rate(0.0, 5.0) == 0.0
        assert zk.zeno_jump_rate(1.0, 4.0) == 0.25
        assert zk.zeno_jump_rate(1.0, 8.0) == zk.zeno_jump_rate(1.0, 4.0) / 2.0
        with pytest.raises(zk.DomainError):
            zk.zeno_jump_rate(1.0, -1.0)

    def test_limit_chain_identities(self, strong_defect):
        # swapping an excitation at vacuum-Rabi rate 2g into a mode
        # measured at rate kappa is the resonant Purcell process
        plain = zk.resonant_purcell(G_D, GAMMA_1D)
        jump = zk.zeno_jump_rate(2.0 * G_D, GAMMA_1D)
        general = zk.generalized_purcell(zk.QubitParams(freq=strong_defect.freq), strong_defect)
        assert plain == jump
        assert general == pytest.approx(plain, rel=1e-15)


class TestDecayRateMap:
    # the map takes detunings as given, so the scalar formula it matches
    # bit for bit is the one for a defect at 0 and a qubit at the detuning

    def test_single_point_matches_scalar_formula(self, strong_defect):
        at_zero = dataclasses.replace(strong_defect, freq=0.0)
        grid = zk.decay_rate_map([3.0], [1.5], at_zero, qubit_decay=GAMMA_Q)
        expected = zk.generalized_purcell(
            zk.QubitParams(freq=3.0, decay=GAMMA_Q, dephasing=1.5), at_zero
        )
        assert grid.shape == (1, 1)
        assert grid[0, 0] == expected

    def test_grid_matches_scalar_formula_bitwise(self, strong_defect):
        # the broadcast map evaluates the scalar expression elementwise, in
        # the same order, so every element keeps the scalar's bytes
        at_zero = dataclasses.replace(strong_defect, freq=0.0)
        rng = np.random.default_rng(7)
        detunings = rng.uniform(-300.0, 300.0, 40)
        dephasings = np.concatenate(([0.0], rng.uniform(0.0, 50.0, 29)))
        grid = zk.decay_rate_map(detunings, dephasings, at_zero, qubit_decay=GAMMA_Q)
        expected = [
            [
                zk.generalized_purcell(
                    zk.QubitParams(freq=det, decay=GAMMA_Q, dephasing=g), at_zero
                )
                for g in dephasings
            ]
            for det in detunings
        ]
        assert grid.shape == (40, 30)
        assert np.array_equal(grid, expected)

    @pytest.mark.parametrize(
        "dephasings,qubit_decay",
        [([1.0, -0.5], GAMMA_Q), ([1.0], -0.1), ([0.0, 1.0], 2.0 * GAMMA_1D)],
        ids=["negative-dephasing", "negative-qubit-decay", "non-positive-width"],
    )
    def test_invalid_grid_point_rejected(self, strong_defect, dephasings, qubit_decay):
        with pytest.raises(zk.DomainError):
            zk.decay_rate_map([0.0, 1.0], dephasings, strong_defect, qubit_decay=qubit_decay)

    def test_resonant_column_monotone_decreasing(self, strong_defect):
        dephasings = np.linspace(0.0, 30.0, 40)
        grid = zk.decay_rate_map([0.0], dephasings, strong_defect, GAMMA_Q)
        assert np.all(np.diff(grid[0]) < 0)

    def test_detuned_column_peaks_at_matched_width(self, strong_defect):
        # far detuned: rate rises until W = |detuning|, then falls
        detuning = 10.0 * (GAMMA_1D / 2.0 + 30.0)
        dephasings = np.linspace(0.0, 2.5 * detuning, 2001)
        grid = zk.decay_rate_map([detuning], dephasings, strong_defect, GAMMA_Q)
        rates = grid[0]
        peak = int(np.argmax(rates))
        assert 0 < peak < rates.size - 1
        assert np.all(np.diff(rates[: peak + 1]) > 0)
        assert np.all(np.diff(rates[peak:]) < 0)
        width_at_peak = dephasings[peak] + GAMMA_1D / 2.0 - GAMMA_Q / 2.0
        assert width_at_peak == pytest.approx(detuning, rel=2e-3)

    def test_published_map_spans_three_decades(self, strong_defect):
        detunings = mhz_to_angular(np.linspace(-50.0, 50.0, 41))
        dephasings = TWO_PI * np.linspace(0.01, 8.0, 30)
        grid = zk.decay_rate_map(detunings, dephasings, strong_defect, GAMMA_Q)
        assert grid.max() / grid.min() >= 1e3

    def test_empty_grid_rejected(self, strong_defect):
        with pytest.raises(zk.DomainError):
            zk.decay_rate_map([], [1.0], strong_defect)


class TestAgainstConvolution:
    @pytest.mark.parametrize(
        "dephasing,detuning",
        [
            (0.5 * GAMMA_1D, 0.0),            # resonant, W > |delta|
            (0.2 * GAMMA_1D, 8.0 * GAMMA_1D), # anti-Zeno side, W < |delta|
            (2.0 * GAMMA_1D, 15.0 * GAMMA_1D),
        ],
    )
    def test_matches_kk_on_single_peak_spectrum(self, strong_defect, dephasing, detuning):
        # with zero intrinsic decay the closed form and the convolution
        # describe identical physics; the -gq/2 width correction is
        # exactly what plain convolution cannot see
        spectrum = zk.ParametricSpectrum(
            background=0.0, peaks=(strong_defect.spectral_peak(),)
        )
        qubit_freq = strong_defect.freq + detuning
        window = convolution_window(strong_defect.decay, dephasing, detuning, qubit_freq)
        numeric = zk.decay_rate(
            spectrum,
            zk.MeasurementContext(freq=qubit_freq, dephasing=dephasing),
            window=window,
        ).rate
        closed = zk.generalized_purcell(
            zk.QubitParams(freq=qubit_freq, dephasing=dephasing), strong_defect
        )
        assert closed == pytest.approx(
            lorentzian_pair_rate(G_D**2, GAMMA_1D, dephasing, detuning), rel=1e-15
        )
        assert numeric == pytest.approx(closed, rel=1e-3)


DEFECT = zk.DefectParams(freq=0.0, coupling=1.0, decay=2.0)
CALIBRATION = zk.ReadoutCalibration(stark_quad=1.0, stark_quartic=0.0, dephasing_quad=1.0, chi=1.0)
NAN = float("nan")
NAN_GUARDED_FIELDS = {
    "DefectParams.coupling": lambda: zk.DefectParams(freq=0.0, coupling=NAN, decay=2.0),
    "QubitParams.decay": lambda: zk.QubitParams(freq=0.0, decay=NAN),
    "QubitParams.dephasing": lambda: zk.QubitParams(freq=0.0, dephasing=NAN),
    "decay_rate_map.qubit_decay": lambda: zk.decay_rate_map([0.0], [1.0], DEFECT, NAN),
    "decay_rate_map.dephasings": lambda: zk.decay_rate_map([0.0], [1.0, NAN], DEFECT),
    "ReadoutCalibration.dephasing_quad": lambda: zk.ReadoutCalibration(
        stark_quad=1.0, stark_quartic=0.0, dephasing_quad=NAN, chi=1.0
    ),
    "MeasurementContext.dephasing": lambda: zk.MeasurementContext(freq=0.0, dephasing=NAN),
    "MeasurementContext.nbar": lambda: zk.MeasurementContext(freq=0.0, dephasing=1.0, nbar=NAN),
    "sweep.amplitudes": lambda: zk.sweep(
        zk.ParametricSpectrum(background=0.01), CALIBRATION, 0.0, [0.1, NAN, 0.2]
    ),
    "LindbladModel.dephasing": lambda: zk.LindbladModel(0.0, DEFECT, dephasing=NAN),
    "LindbladModel.qubit_decay": lambda: zk.LindbladModel(0.0, DEFECT, qubit_decay=NAN),
    "TlsPeak.coupling_sq": lambda: zk.TlsPeak(center=0.0, width=1.0, coupling_sq=NAN),
    "ParametricSpectrum.background": lambda: zk.ParametricSpectrum(background=NAN),
}


@pytest.mark.parametrize("field", sorted(NAN_GUARDED_FIELDS))
def test_nan_is_refused_by_every_nonnegative_guard(field):
    # each guard reads `not x >= 0`: `x < 0` let NaN through, so that
    # DefectParams(coupling=nan) gave a NaN Purcell rate without a word
    with pytest.raises(zk.DomainError, match="must be >= 0"):
        NAN_GUARDED_FIELDS[field]()


INF = float("inf")
NON_FINITE_FIELDS = {
    "DefectParams.freq": lambda: zk.DefectParams(freq=NAN, coupling=1.0, decay=2.0),
    "QubitParams.freq": lambda: zk.QubitParams(freq=NAN),
    "MeasurementContext.freq": lambda: zk.MeasurementContext(freq=NAN, dephasing=1.0),
    "TlsPeak.center": lambda: zk.TlsPeak(center=NAN, width=1.0, coupling_sq=1.0),
    "LindbladModel.qubit_freq": lambda: zk.LindbladModel(NAN, DEFECT),
    "ReadoutCalibration.stark_quad": lambda: zk.ReadoutCalibration(
        stark_quad=NAN, stark_quartic=0.0, dephasing_quad=1.0, chi=1.0
    ),
    "ReadoutCalibration.stark_quartic": lambda: zk.ReadoutCalibration(
        stark_quad=1.0, stark_quartic=NAN, dephasing_quad=1.0, chi=1.0
    ),
    "ReadoutCalibration.chi": lambda: zk.ReadoutCalibration(
        stark_quad=1.0, stark_quartic=0.0, dephasing_quad=1.0, chi=NAN
    ),
    "decay_rate_map.detunings": lambda: zk.decay_rate_map([0.0, NAN], [1.0], DEFECT),
    "photons_from_stark.stark_shift": lambda: zk.photons_from_stark(NAN, 1.0),
    "ParametricSpectrum.background": lambda: zk.ParametricSpectrum(background=INF),
}


@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_non_finite_value_is_refused(field):
    # a NaN frequency or calibration coefficient gave NaN rates without a
    # word, and reached LAPACK in the oracle, whose eig raises LinAlgError
    with pytest.raises(zk.DomainError, match="finite|not >= 0"):
        NON_FINITE_FIELDS[field]()
