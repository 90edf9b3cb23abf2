"""Shared constants and fixture builders.

The numeric constants are device values from a published flux-tunable
transmon experiment: defect coupling 1.6 MHz, defect lifetime 103 ns,
background qubit decay 1/(100 us), readout calibration S/2pi = 825 MHz,
K/2pi = 5619 MHz, R/2pi = 429 MHz, chi/2pi = 0.98 MHz, and the
single-trace Ramsey fit (0.451 MHz Stark shift, 0.362 MHz dephasing at
drive amplitude 0.025 with a 10 MHz fringe offset).
"""
import numpy as np
import pytest

import zenokit as zk
from zenokit.units import TWO_PI, mhz_to_angular

G_D = TWO_PI * 1.6
GAMMA_1D = 1.0 / 0.103
GAMMA_Q = 0.01

S_MHZ = 825.0
K_MHZ = 5619.0
R_MHZ = 429.0
CHI_MHZ = 0.98

NU_S_MHZ = 0.451
GAMMA_PHI_REF = TWO_PI * 0.362
EPSILON_REF = 0.025
OFFSET_MHZ = 10.0

QUBIT_FREQ = mhz_to_angular(4884.0)
DEFECT_FREQ = mhz_to_angular(4300.0)


@pytest.fixture
def strong_defect():
    return zk.DefectParams(freq=DEFECT_FREQ, coupling=G_D, decay=GAMMA_1D)


@pytest.fixture
def adiabatic_defect():
    return zk.DefectParams(freq=DEFECT_FREQ, coupling=TWO_PI * 0.1, decay=10.0)


def make_hotspot_spectrum(center=QUBIT_FREQ, offset_mhz=-3.0, extrapolation="hold"):
    """Tabulated spectrum with one hot spot displaced from ``center``.

    Mimics a measured loss landscape: flat background with a broad
    Lorentzian peak ``offset_mhz`` away, sampled on a dense grid over
    center +- 15 MHz.
    """
    peak = zk.TlsPeak(
        center=center + mhz_to_angular(offset_mhz),
        width=TWO_PI * 1.5,
        coupling_sq=0.25 * TWO_PI * 1.5 * 0.1,  # peak height 0.1/us
    )
    parametric = zk.ParametricSpectrum(background=GAMMA_Q, peaks=(peak,))
    grid = np.linspace(center - mhz_to_angular(15.0), center + mhz_to_angular(15.0), 2001)
    return parametric.tabulate(grid, extrapolation=extrapolation)


def make_ramsey_signal(
    times,
    stark_mhz=NU_S_MHZ,
    dephasing=GAMMA_PHI_REF,
    offset_mhz=OFFSET_MHZ,
    amplitude=0.45,
    phase=0.3,
    baseline=0.5,
):
    return (
        amplitude
        * np.exp(-dephasing * times)
        * np.cos(TWO_PI * (offset_mhz + stark_mhz) * times + phase)
        + baseline
    )


@pytest.fixture
def ramsey_trace():
    times = np.arange(0.0, 3.0, 0.004)
    return zk.RamseyTrace(times, make_ramsey_signal(times), offset_freq=OFFSET_MHZ)


@pytest.fixture
def device_calibration():
    return zk.ReadoutCalibration(
        stark_quad=mhz_to_angular(S_MHZ),
        stark_quartic=mhz_to_angular(K_MHZ),
        dephasing_quad=mhz_to_angular(R_MHZ),
        chi=mhz_to_angular(CHI_MHZ),
        max_epsilon=0.05,
    )
