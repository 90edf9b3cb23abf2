import numpy as np
import pytest

import zenokit as zk
from conftest import GAMMA_Q, make_hotspot_spectrum
from zenokit.io import format_spectrum_csv, read_spectrum_csv
from zenokit.units import TWO_PI, angular_to_mhz, mhz_to_angular


class TestParametric:
    def test_flat_background(self):
        s = zk.ParametricSpectrum(background=0.01)
        for omega in (-50.0, 0.0, 3.7, 1e4):
            assert s.rate_at(omega) == 0.01

    def test_peak_value_on_resonance(self):
        peak = zk.TlsPeak(center=12.0, width=3.0, coupling_sq=5.0)
        s = zk.ParametricSpectrum(background=0.0, peaks=(peak,))
        assert s.rate_at(12.0) == pytest.approx(4.0 * 5.0 / 3.0, rel=1e-14)

    def test_peak_matches_closed_form_off_resonance(self):
        peak = zk.TlsPeak(center=12.0, width=3.0, coupling_sq=5.0)
        s = zk.ParametricSpectrum(background=0.02, peaks=(peak,))
        delta = 7.3
        expected = 0.02 + 2.0 * 5.0 * 1.5 / (1.5**2 + delta**2)
        assert s.rate_at(12.0 + delta) == pytest.approx(expected, rel=1e-14)

    def test_rates_nonnegative_everywhere(self):
        peak = zk.TlsPeak(center=0.0, width=1.0, coupling_sq=2.0)
        s = zk.ParametricSpectrum(background=0.0, peaks=(peak,))
        grid = np.linspace(-100, 100, 501)
        assert np.all(s.rate_at(grid) >= 0)

    def test_invalid_parameters(self):
        with pytest.raises(zk.DomainError):
            zk.TlsPeak(center=0.0, width=0.0, coupling_sq=1.0)
        with pytest.raises(zk.DomainError):
            zk.TlsPeak(center=0.0, width=1.0, coupling_sq=-1.0)
        with pytest.raises(zk.DomainError):
            zk.ParametricSpectrum(background=-0.1)

    def test_tabulated_sampling_matches_closed_form_at_midpoints(self):
        # sampled on >= 2001 points over +-20 widths, linear interpolation
        # stays within 1e-3 relative of the closed form between nodes
        peak = zk.TlsPeak(center=100.0, width=2.0, coupling_sq=3.0)
        s = zk.ParametricSpectrum(background=0.005, peaks=(peak,))
        grid = np.linspace(100.0 - 20 * 2.0, 100.0 + 20 * 2.0, 2001)
        tab = s.tabulate(grid)
        mids = 0.5 * (grid[:-1] + grid[1:])
        interp = tab.rate_at(mids)
        exact = s.rate_at(mids)
        assert np.max(np.abs(interp - exact) / exact) < 1e-3


class TestTabulated:
    def test_midpoint_interpolation(self):
        s = zk.TabulatedSpectrum([0.0, TWO_PI * 1.0], [0.01, 0.03])
        assert s.rate_at(TWO_PI * 0.5) == pytest.approx(0.02, rel=1e-14)

    def test_grid_nodes_reproduced_exactly(self):
        rng = np.random.default_rng(7)
        omegas = np.sort(rng.uniform(-10, 10, 40))
        rates = rng.uniform(0.0, 1.0, 40)
        s = zk.TabulatedSpectrum(omegas, rates)
        assert np.array_equal(s.rate_at(omegas), rates)

    def test_hold_extrapolation_clamps(self):
        s = zk.TabulatedSpectrum([0.0, 1.0], [0.2, 0.4])
        assert s.rate_at(-5.0) == 0.2
        assert s.rate_at(9.0) == 0.4

    def test_stores_copies_and_leaves_the_callers_arrays_writeable(self):
        omegas, rates = np.array([0.0, 1.0]), np.array([0.2, 0.4])
        s = zk.TabulatedSpectrum(omegas, rates)
        assert omegas.flags.writeable and rates.flags.writeable
        assert not (s.omegas.flags.writeable or s.rates.flags.writeable)
        omegas[1], rates[1] = 5.0, 9.0
        assert s.omega_max == 1.0 and s.rate_at(9.0) == 0.4

    @pytest.mark.parametrize(
        "omegas,rates",
        [
            ([0.0], [0.1]),                      # too short
            ([0.0, 0.0], [0.1, 0.2]),            # duplicate
            ([1.0, 0.0], [0.1, 0.2]),            # unsorted
            ([0.0, 1.0], [-0.1, 0.2]),           # negative rate
            ([0.0, np.nan], [0.1, 0.2]),         # non-finite
        ],
    )
    def test_invalid_grids(self, omegas, rates):
        with pytest.raises(zk.DomainError):
            zk.TabulatedSpectrum(omegas, rates)


def read_text(tmp_path, text):
    """``read_spectrum_csv`` on a file holding ``text``."""
    path = tmp_path / "spectrum.csv"
    path.write_text(text)
    return read_spectrum_csv(path)


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        s = make_hotspot_spectrum()
        text = format_spectrum_csv(s, tag="zenokit-v1")
        back = read_text(tmp_path, text)
        assert np.allclose(back.omegas, s.omegas, rtol=1e-15)
        assert np.array_equal(back.rates, s.rates)

    def test_parses_simple_file(self, tmp_path):
        text = "freq_mhz,gamma_per_us\n4870.0,0.01\n4880.0,0.02\n"
        s = read_text(tmp_path, text)
        assert s.omegas[0] == pytest.approx(mhz_to_angular(4870.0))
        assert s.rates[1] == 0.02

    def test_leading_comment_allowed(self, tmp_path):
        text = "# zenokit-v1\nfreq_mhz,gamma_per_us\n1.0,0.1\n2.0,0.2\n"
        s = read_text(tmp_path, text)
        assert angular_to_mhz(s.omegas[-1]) == pytest.approx(2.0)

    @pytest.mark.parametrize("preamble", ["\n", "# zenokit-v1\n\n"])
    def test_blank_lines_before_header_are_skipped(self, preamble, tmp_path):
        s = read_text(tmp_path, preamble + "freq_mhz,gamma_per_us\n1.0,0.1\n2.0,0.2\n")
        assert s.rates.tolist() == [0.1, 0.2]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("freq_mhz,gamma_per_us\n1.0,0.1\n", "at least 2 grid points"),
            ("freq_mhz,gamma_per_us\n2.0,0.1\n1.0,0.2\n", "strictly increasing"),
            ("freq_mhz,gamma_per_us\n1.0,-0.1\n2.0,0.2\n", "rates must be >= 0"),
        ],
    )
    def test_spectrum_rule_errors_name_the_file(self, text, message, tmp_path):
        # the spectrum's own invariants, raised as a ParseError on the file
        with pytest.raises(zk.ParseError, match=message) as info:
            read_text(tmp_path, text)
        assert str(tmp_path / "spectrum.csv") in str(info.value)

    @pytest.mark.parametrize(
        "text",
        [
            "frequency,gamma\n1.0,0.1\n2.0,0.2\n",           # wrong header
            "freq_mhz,gamma_per_us\n1.0,0.1\n",              # too few rows
            "freq_mhz,gamma_per_us\n1.0,0.1\n1.0,0.2\n",     # duplicate freq
            "freq_mhz,gamma_per_us\n2.0,0.1\n1.0,0.2\n",     # unsorted
            "freq_mhz,gamma_per_us\n1.0,nan\n2.0,0.2\n",     # NaN
            "freq_mhz,gamma_per_us\n1.0,-0.1\n2.0,0.2\n",    # negative rate
            "freq_mhz,gamma_per_us\n1.0,0.1,9\n2.0,0.2\n",   # extra column
            "freq_mhz,gamma_per_us\n1.0,abc\n2.0,0.2\n",     # non-numeric
        ],
    )
    def test_rejects_malformed(self, text, tmp_path):
        with pytest.raises(zk.ParseError):
            read_text(tmp_path, text)


def test_hotspot_fixture_sane():
    s = make_hotspot_spectrum()
    assert s.rate_at(s.omega_min) == pytest.approx(GAMMA_Q, rel=0.05)
    peak_rate = s.rates.max()
    assert peak_rate == pytest.approx(GAMMA_Q + 0.1, rel=0.01)
