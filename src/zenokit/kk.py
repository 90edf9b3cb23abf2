"""Decay rate during continuous measurement via spectral convolution.

The decay rate of a continuously measured qubit is the average of the
bath spectrum gamma_q(omega), weighted by a unit-area Lorentzian of
half-width equal to the measurement-induced dephasing rate, centered on
the Stark-shifted qubit frequency:

    Gamma = integral  gamma_q(omega) * L(omega; center, half_width) domega

Measured spectra only cover a finite window, so the raw trapezoidal
integral is divided by the analytic weight the Lorentzian carries inside
that window (an arctan expression).  This amounts to assuming that
outside the window gamma_q is well approximated by its in-window average.
In the zero-dephasing limit the Lorentzian collapses to a delta function
and the result reduces to the spectrum evaluated at the qubit frequency
(Fermi's golden rule).

The trapezoid is the uniform rule ``step * (S - (y[0] + y[-1]) / 2)``
with one scalar step and ``S`` the fixed-order :func:`pairwise_sum` of
the integrand samples, so the result's bytes depend on neither the
numpy version nor its SIMD dispatch nor the BLAS library.

:class:`ReadoutCalibration` maps a drive amplitude to the Stark shift,
dephasing and photon number that :class:`MeasurementContext` carries;
the fits that produce its coefficients live in :mod:`zenokit.fits`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SignError
from .spectrum import BathSpectrum, LorentzianFilter, TabulatedSpectrum

# Below this dephasing rate (rad/us) no realistic grid resolves the
# Lorentzian, and the analytic delta-function limit is strictly better.
DELTA_LIMIT = 1e-9

DEFAULT_RESOLUTION = 4001


@dataclass(frozen=True)
class ReadoutCalibration:
    """Drive amplitude -> (Stark shift, dephasing, photon number) map.

    Fields are angular (rad/us): ``stark_quad`` and ``stark_quartic`` are
    the quadratic and quartic Stark coefficients, ``dephasing_quad`` the
    quadratic dephasing coefficient, ``chi`` the signed dispersive shift.
    The quartic Kerr term is retained but must stay subdominant over the
    calibrated amplitude range; the Stark sign must match ``chi`` so the
    inferred photon number stays non-negative.
    """

    stark_quad: float
    stark_quartic: float
    dephasing_quad: float
    chi: float
    max_epsilon: float | None = None

    def __post_init__(self):
        if self.dephasing_quad < 0:
            raise DomainError(f"dephasing coefficient must be >= 0, got {self.dephasing_quad}")
        if self.chi == 0:
            raise DomainError("dispersive shift chi must be nonzero")
        if self.max_epsilon is not None and self.max_epsilon > 0:
            eps = self.max_epsilon
            if abs(self.stark_quartic) * eps**4 >= abs(self.stark_quad) * eps**2 and (
                self.stark_quartic != 0.0
            ):
                raise DomainError(
                    "quartic Stark term dominates the quadratic one at the "
                    f"calibrated amplitude {eps}"
                )
            # raises SignError when the Stark and chi signs disagree
            self.nbar(eps)

    def stark_shift(self, epsilon: float) -> float:
        return self.stark_quad * epsilon**2 + self.stark_quartic * epsilon**4

    def dephasing(self, epsilon: float) -> float:
        return self.dephasing_quad * epsilon**2

    def nbar(self, epsilon: float) -> float:
        return photons_from_stark(self.stark_shift(epsilon), self.chi)


def photons_from_stark(stark_shift: float, chi: float) -> float:
    """Mean photon number from ``stark_shift = 2 * chi * nbar``.

    Raises :class:`SignError` when the signs of shift and dispersive
    shift disagree (which would imply a negative photon number).
    """
    if chi == 0:
        raise DomainError("dispersive shift chi must be nonzero")
    nbar = stark_shift / (2.0 * chi)
    if nbar < 0:
        raise SignError(
            f"stark shift {stark_shift} and chi {chi} imply negative photon number {nbar}"
        )
    return nbar


@dataclass(frozen=True)
class MeasurementContext:
    """Effective qubit state during readout at one drive strength.

    Parameters
    ----------
    freq : float
        Stark-shifted qubit frequency in rad/us.
    dephasing : float
        Measurement-induced dephasing rate in 1/us (>= 0).
    nbar : float
        Mean resonator photon number; metadata, >= 0.
    """

    freq: float
    dephasing: float
    nbar: float = 0.0

    def __post_init__(self):
        if self.dephasing < 0:
            raise DomainError(f"dephasing rate must be >= 0, got {self.dephasing}")
        if self.nbar < 0:
            raise DomainError(f"photon number must be >= 0, got {self.nbar}")

    @classmethod
    def from_calibration(
        cls,
        calibration: ReadoutCalibration,
        qubit_freq: float,
        epsilon: float,
        residual_dephasing: float = 0.0,
    ) -> "MeasurementContext":
        """Build the context for drive amplitude ``epsilon``.

        The shifted frequency is ``qubit_freq + stark(epsilon)`` and the
        photon number follows ``stark = 2 * chi * nbar``, so the
        frequency/photon consistency holds by construction.
        ``residual_dephasing`` is the zero-power dephasing floor, which
        the quadratic calibration does not capture.
        """
        stark = calibration.stark_shift(epsilon)
        return cls(
            freq=qubit_freq + stark,
            dephasing=residual_dephasing + calibration.dephasing(epsilon),
            nbar=calibration.nbar(epsilon),
        )


@dataclass(frozen=True)
class KkResult:
    """One convolution evaluation: raw integral, window weight, and rate.

    ``rate = raw_rate / norm`` is a weighted average of the spectrum over
    the window, so it lies between the window's min and max decay rate
    (up to quadrature error).
    """

    context: MeasurementContext
    raw_rate: float
    norm: float
    rate: float


def window_normalization(context: MeasurementContext, window: tuple[float, float]) -> float:
    """Weight the Lorentzian filter carries inside ``window``.

    Closed form ``(1/pi) * (atan((hi - c)/hw) + atan((c - lo)/hw))``; lies
    in (0, 1] and approaches 1 as the window approaches the whole axis.
    Infinite edges are allowed.
    """
    lo, hi = window
    if not lo < hi:
        raise DomainError(f"invalid window [{lo}, {hi}]")
    hw = context.dephasing
    if not hw > 0:
        raise DomainError("window normalization needs dephasing > 0")
    return (math.atan((hi - context.freq) / hw) + math.atan((context.freq - lo) / hw)) / math.pi


def default_window(spectrum: BathSpectrum, context: MeasurementContext) -> tuple[float, float]:
    """Measured range for tabulated spectra; generous cover for parametric.

    For parametric spectra the half-width ``50 * (dephasing + max peak
    width)`` keeps the truncation and normalization error below the
    documented convolution tolerance at moderate dephasing.
    """
    if isinstance(spectrum, TabulatedSpectrum):
        return (spectrum.omega_min, spectrum.omega_max)
    half = 50.0 * (context.dephasing + spectrum.max_width)
    if not half > 0:
        raise DomainError("cannot pick a default window for a flat spectrum at zero dephasing")
    return (context.freq - half, context.freq + half)


def pairwise_sum(values: np.ndarray) -> float:
    """Sum of a 1-D array by a fixed binary tree of elementwise adds.

    The array is zero-padded to a power of two (exact), then its first
    half is added onto its second half until one element is left.  Each
    step is an IEEE-rounded elementwise add, so the result is the same
    bit for bit whatever numpy's internal reduction order, SIMD dispatch
    or version; the error bound is the pairwise one, O(eps log n)
    (Higham, SIAM J. Sci. Comput. 14, 783, 1993).
    """
    values = np.asarray(values, dtype=float)
    size = 1 << (values.size - 1).bit_length()
    buf = np.zeros(size)
    buf[: values.size] = values
    while size > 1:
        size //= 2
        np.add(buf[:size], buf[size:], out=buf[size:])
        buf = buf[size:]
    return float(buf[0])


def decay_rate(
    spectrum: BathSpectrum,
    context: MeasurementContext,
    window: tuple[float, float] | None = None,
    resolution: int = DEFAULT_RESOLUTION,
) -> KkResult:
    """Decay rate of the measured qubit against ``spectrum``.

    Parameters
    ----------
    spectrum : BathSpectrum
        Frequency-dependent decay rate gamma_q(omega).
    context : MeasurementContext
        Shifted frequency and dephasing at this readout strength.
    window : (float, float), optional
        Integration window in rad/us; defaults per ``default_window``.
    resolution : int
        Number of uniform grid points (>= 101) for the trapezoid rule
        ``step * (S - (y[0] + y[-1]) / 2)``, where
        ``step = (hi - lo) / (resolution - 1)`` and ``S`` is the
        fixed-order :func:`pairwise_sum` of the integrand samples ``y``.

    Returns
    -------
    KkResult
        Raw integral, analytic window weight, and normalized rate.

    Notes
    -----
    Below ``DELTA_LIMIT`` the dephasing is treated as exactly zero: the
    result is the spectrum at the shifted qubit frequency with norm 1.
    Above it the caller owns grid adequacy: the normalization is
    analytic, so a grid step larger than the filter half-width silently
    under-samples the Lorentzian; keep ``(hi - lo) / resolution`` a few
    times smaller than the smallest dephasing rate in play.
    """
    if context.dephasing < DELTA_LIMIT:
        rate = float(spectrum.rate_at(context.freq))
        return KkResult(context=context, raw_rate=rate, norm=1.0, rate=rate)

    if window is None:
        window = default_window(spectrum, context)
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid integration window [{lo}, {hi}]")
    if resolution < 101:
        raise DomainError(f"resolution must be >= 101 grid points, got {resolution}")

    filt = LorentzianFilter(center=context.freq, half_width=context.dephasing)
    grid = np.linspace(lo, hi, int(resolution))
    y = spectrum.rate_at(grid) * filt.density_at(grid)
    # One scalar step: np.diff(grid) carries relative errors up to ~5e-10
    # at |omega| ~ 3e4 rad/us.
    step = (hi - lo) / (int(resolution) - 1)
    raw = step * (pairwise_sum(y) - 0.5 * (float(y[0]) + float(y[-1])))
    norm = window_normalization(context, (lo, hi))
    return KkResult(context=context, raw_rate=raw, norm=norm, rate=raw / norm)


def sweep(
    spectrum: BathSpectrum,
    calibration: ReadoutCalibration,
    qubit_freq: float,
    amplitudes: Sequence[float],
    window: tuple[float, float] | None = None,
    resolution: int = DEFAULT_RESOLUTION,
    residual_dephasing: float = 0.0,
) -> list[KkResult]:
    """Predicted decay rate across a sorted sweep of drive amplitudes.

    Each amplitude is mapped through the readout calibration to a
    measurement context and evaluated with :func:`decay_rate`; the output
    order matches the input order.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if amps.size and amps.min() < 0:
        raise DomainError("drive amplitudes must be >= 0")
    if np.any(np.diff(amps) < 0):
        raise DomainError("drive amplitudes must be sorted ascending")
    return [
        decay_rate(
            spectrum,
            MeasurementContext.from_calibration(
                calibration, qubit_freq, float(eps), residual_dephasing
            ),
            window=window,
            resolution=resolution,
        )
        for eps in amps
    ]
