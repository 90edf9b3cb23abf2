"""Bath spectra.

The qubit's frequency-dependent decay rate gamma_q(omega) is represented
either as a measured table (linear interpolation between grid points,
holding the end rates outside the grid) or as a parametric model: a
flat background plus a sum of Lorentzian defect peaks.

All frequencies are angular (rad/us) and all rates are 1/us; see
:mod:`zenokit.units` for the boundary conversions.  The spectrum CSV
format (MHz on disk) is read and written by :mod:`zenokit.io`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, require_finite, require_rate


@dataclass(frozen=True)
class TlsPeak:
    """One Lorentzian loss peak: a defect mode seen through the bath.

    Parameters
    ----------
    center : float
        Peak frequency in rad/us.
    width : float
        Full width (the defect's energy decay rate) in 1/us; must be > 0.
    coupling_sq : float
        Squared qubit-defect coupling in (rad/us)^2; must be >= 0.

    The contribution to gamma_q(omega) is
    ``2 * coupling_sq * (width/2) / ((width/2)**2 + (omega - center)**2)``,
    which peaks at ``4 * coupling_sq / width`` on resonance.
    """

    center: float
    width: float
    coupling_sq: float

    def __post_init__(self):
        require_finite(self.center, "peak center")
        if not 0 < self.width < math.inf:
            raise DomainError(f"peak width must be > 0 and finite, got {self.width}")
        require_rate(self.coupling_sq, "coupling_sq")

    def contribution(self, omega):
        """Decay-rate contribution at ``omega`` (scalar or array)."""
        hw = 0.5 * self.width
        delta = np.asarray(omega, dtype=float) - self.center
        return 2.0 * self.coupling_sq * hw / (hw * hw + delta * delta)


@dataclass(frozen=True)
class TabulatedSpectrum:
    """Measured gamma_q(omega) on a strictly increasing frequency grid.

    Evaluation linearly interpolates between grid points; measured loss
    data are noisy, so higher-order schemes would only invent structure.
    Outside the grid each end rate holds: the spectrum beyond the
    measured window is taken as the constant measured at its edge.  The
    grid and rates are stored as read-only copies.
    """

    omegas: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        omegas = np.array(self.omegas, dtype=float)
        rates = np.array(self.rates, dtype=float)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "rates", rates)
        if omegas.ndim != 1 or omegas.shape != rates.shape:
            raise DomainError("omegas and rates must be 1-D arrays of equal length")
        if omegas.size < 2:
            raise DomainError("tabulated spectrum needs at least 2 grid points")
        if not np.all(np.isfinite(omegas)) or not np.all(np.isfinite(rates)):
            raise DomainError("tabulated spectrum contains non-finite values")
        if not np.all(np.diff(omegas) > 0):
            raise DomainError("frequency grid must be strictly increasing")
        if np.any(rates < 0):
            raise DomainError("decay rates must be >= 0")
        omegas.setflags(write=False)
        rates.setflags(write=False)

    @property
    def omega_min(self) -> float:
        return float(self.omegas[0])

    @property
    def omega_max(self) -> float:
        return float(self.omegas[-1])

    def rate_at(self, omega):
        """gamma_q at ``omega`` (scalar or array), the end rates held outside the grid."""
        out = np.interp(np.asarray(omega, dtype=float), self.omegas, self.rates)
        return float(out) if np.isscalar(omega) else out


@dataclass(frozen=True)
class ParametricSpectrum:
    """Flat background plus a sum of Lorentzian defect peaks."""

    background: float
    peaks: tuple[TlsPeak, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        require_rate(self.background, "background rate")

    @property
    def max_width(self) -> float:
        """Largest peak width, or 0 for a peakless spectrum."""
        return max((p.width for p in self.peaks), default=0.0)

    def rate_at(self, omega):
        """gamma_q at ``omega`` (scalar or array): closed form, always >= 0."""
        w = np.asarray(omega, dtype=float)
        out = np.full_like(w, self.background, dtype=float)
        for peak in self.peaks:
            out = out + peak.contribution(w)
        return float(out) if np.isscalar(omega) else out

    def tabulate(self, omegas) -> TabulatedSpectrum:
        """Sample onto a grid, e.g. to mimic a measured spectrum."""
        omegas = np.asarray(omegas, dtype=float)
        return TabulatedSpectrum(omegas, self.rate_at(omegas))


BathSpectrum = TabulatedSpectrum | ParametricSpectrum

