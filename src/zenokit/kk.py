"""Decay rate during continuous measurement via spectral convolution.

The decay rate of a continuously measured qubit is the average of the
bath spectrum gamma_q(omega), weighted by a unit-area Lorentzian of
half-width equal to the measurement-induced dephasing rate, centered on
the Stark-shifted qubit frequency (the Kofman-Kurizki universal formula,
Nature 405, 546, 2000):

    Gamma = integral  gamma_q(omega) * L(omega; center, half_width) domega

A measured spectrum only covers a finite window, the table's own range,
so the raw integral over the window is divided by the analytic weight
the Lorentzian carries inside it (an arctan expression).  This amounts
to assuming that outside the window gamma_q is well approximated by its
in-window average.  In the zero-dephasing limit the Lorentzian
collapses to a delta function and the result reduces to the spectrum
evaluated at the qubit frequency (Fermi's golden rule).

The window integral is exact, with no quadrature grid.  A tabulated
spectrum is linear between its nodes, and each segment's integral
against the Lorentzian is an arctan and a log term.  A parametric
spectrum is a flat background plus Lorentzian peaks, and each peak
times the filter integrates by complex partial fractions.  The
tabulated path's arithmetic is elementwise float64.  Its arctan and
log1p terms are a fixed-order odd series (IEEE multiply, add and
divide) wherever the argument is below the constant ``SERIES_LIMIT``,
which a dense table makes almost every segment; the rest fall back to
``arctan2`` and ``log1p`` on ``np.longdouble`` (libm, not numpy's SIMD
loops).  Its terms are added by the fixed-order :func:`pairwise_sum`;
the parametric path is Python scalar arithmetic.  So the result's bytes
depend on neither the numpy version nor its SIMD dispatch nor the BLAS
library.

:class:`ReadoutCalibration` maps a drive amplitude to the Stark shift,
dephasing and photon number that :class:`MeasurementContext` carries;
the fits that produce its coefficients live in :mod:`zenokit.fits`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SignError, require_finite, require_rate
from .spectrum import BathSpectrum, TabulatedSpectrum, TlsPeak

# Below this dephasing rate (1/us) the filter is taken as a delta
# function (Fermi's golden rule); the convolution differs from that limit
# by O(dephasing) times the spectrum's local slope.
DELTA_LIMIT = 1e-9

# The default of decay_rate's ignored `resolution` keyword; see decay_rate.
DEFAULT_RESOLUTION = 4001

# The tabulated kernel's arctan and log1p terms use an odd series
# below this argument.  atan(z) = sum_k (-1)^k z^(2k+1)/(2k+1) alternates,
# so cutting it after ATAN_TERMS terms errs by at most the first omitted
# term, z^17/17 relative to atan(z) ~ z: 0.1^16/17 = 5.9e-18, below half
# an ulp (2^-54 = 5.6e-17).  log1p(x) = 2 atanh(y) with y = x/(2+x) <
# 0.1/2.1; the atanh series has all signs +, so its remainder after
# ATANH_TERMS terms is below y^12/(13 (1 - y^2)) = 1.05e-17 relative.
# One term fewer would err by 6.7e-16 (atan) and 5.5e-15 (atanh).
SERIES_LIMIT = 0.1
ATAN_TERMS = 8
ATANH_TERMS = 6
_ATAN_TAIL = tuple((-1.0) ** k / (2 * k + 1) for k in range(1, ATAN_TERMS))
_ATANH_TAIL = tuple(1.0 / (2 * k + 1) for k in range(1, ATANH_TERMS))

# A sweep evaluates its contexts in blocks of at most this many
# segment x context elements, so its temporaries stay a few hundred kB.
BLOCK_ELEMENTS = 8192

# Relative pole separation below which a peak's two simple poles are
# merged into one double pole.  Against mpmath, partial fractions erred
# by up to ~2e-16/sep and the merged form by ~sep**2; the two cross near
# 5e-6, where both stay below 5e-11.
POLE_MERGE = 5e-6


@dataclass(frozen=True)
class ReadoutCalibration:
    """Drive amplitude -> (Stark shift, dephasing, photon number) map.

    Fields are angular (rad/us): ``stark_quad`` and ``stark_quartic`` are
    the quadratic and quartic Stark coefficients, ``dephasing_quad`` the
    quadratic dephasing coefficient, ``chi`` the signed dispersive shift.
    The quartic Kerr term is retained but must stay subdominant over the
    calibrated amplitude range; the Stark sign must match ``chi`` so the
    inferred photon number stays non-negative.  ``max_epsilon``, the
    largest calibrated drive amplitude, when given, bounds the
    amplitudes :meth:`MeasurementContext.from_calibration` accepts.
    """

    stark_quad: float
    stark_quartic: float
    dephasing_quad: float
    chi: float
    max_epsilon: float | None = None

    def __post_init__(self):
        for name in ("stark_quad", "stark_quartic", "chi"):
            require_finite(getattr(self, name), name)
        require_rate(self.dephasing_quad, "dephasing coefficient")
        if self.chi == 0:
            raise DomainError("dispersive shift chi must be nonzero")
        if self.max_epsilon is not None and not self.max_epsilon >= 0:
            raise DomainError(f"calibrated amplitude range must be >= 0, got {self.max_epsilon}")
        if self.max_epsilon is not None and self.max_epsilon > 0:
            eps = self.max_epsilon
            require_finite(eps, "calibrated amplitude range")
            try:
                quartic = abs(self.stark_quartic) * eps**4
            except OverflowError:
                raise DomainError(f"calibrated amplitude {eps} overflows a float") from None
            if quartic >= abs(self.stark_quad) * eps**2 and self.stark_quartic != 0.0:
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
    shift disagree (which would imply a negative photon number), or the
    photon number is NaN.
    """
    if chi == 0:
        raise DomainError("dispersive shift chi must be nonzero")
    nbar = stark_shift / (2.0 * chi)
    if not nbar >= 0:
        raise SignError(
            f"stark shift {stark_shift} and chi {chi} imply photon number {nbar}, not >= 0"
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
        require_finite(self.freq, "qubit frequency")
        require_rate(self.dephasing, "dephasing rate")
        require_rate(self.nbar, "photon number")

    @classmethod
    def from_calibration(
        cls,
        calibration: ReadoutCalibration,
        qubit_freq: float,
        epsilon: float,
    ) -> "MeasurementContext":
        """Build the context for drive amplitude ``epsilon``.

        The shifted frequency is ``qubit_freq + stark(epsilon)`` and the
        photon number follows ``stark = 2 * chi * nbar``, so the
        frequency/photon consistency holds by construction.  The
        dephasing is the measurement-induced ``R epsilon^2`` alone: a
        measured loss spectrum already carries the qubit's rest
        linewidth, which a second term would apply twice.  An ``epsilon`` past
        the calibration's ``max_epsilon`` raises :class:`DomainError`:
        the fitted polynomials say nothing there.
        """
        if calibration.max_epsilon is not None and epsilon > calibration.max_epsilon:
            raise DomainError(
                f"drive amplitude {epsilon} is past the calibrated range "
                f"(max_epsilon {calibration.max_epsilon})"
            )
        try:
            stark = calibration.stark_shift(epsilon)
        except OverflowError:
            raise DomainError(f"drive amplitude {epsilon} overflows a float") from None
        return cls(
            freq=qubit_freq + stark,
            dephasing=calibration.dephasing(epsilon),
            nbar=photons_from_stark(stark, calibration.chi),
        )


@dataclass(frozen=True)
class KkResult:
    """One convolution evaluation: raw integral, window weight, and rate.

    ``rate = raw_rate / norm`` is a weighted average of the spectrum over
    the window, so it lies between the window's min and max decay rate
    (up to round-off).
    """

    context: MeasurementContext
    raw_rate: float
    norm: float
    rate: float


def window_normalization(context: MeasurementContext, window: tuple[float, float]) -> float:
    """Weight the Lorentzian filter carries inside ``window``.

    Closed form ``(1/pi) * (atan((hi - c)/hw) + atan((c - lo)/hw))``; lies
    in (0, 1] and approaches 1 as the window approaches the whole axis.
    With the centre ``c`` outside the window the two terms lie near
    ``+-pi/2`` and their sum would cancel, so there the weight is the
    cancellation-free ``atan2((hi - lo) hw, hw^2 + (c - lo)(c - hi)) / pi``
    of ``kk``'s segments, or ``atan(hw / |c - edge|) / pi`` beyond the
    finite edge of a half-line.  Infinite edges are allowed; a weight
    that rounds to 0 is refused.
    """
    lo, hi = window
    if not lo < hi:
        raise DomainError(f"invalid window [{lo}, {hi}]")
    hw, c = context.dephasing, context.freq
    if not hw > 0:
        raise DomainError("window normalization needs dephasing > 0")
    if lo <= c <= hi:
        norm = (math.atan((hi - c) / hw) + math.atan((c - lo) / hw)) / math.pi
    elif math.isinf(lo) or math.isinf(hi):
        norm = math.atan(hw / abs(c - (hi if math.isinf(lo) else lo))) / math.pi
    else:
        norm = math.atan2((hi - lo) * hw, hw * hw + (c - lo) * (c - hi)) / math.pi
    if not norm > 0:
        raise DomainError(f"the filter at {context.freq:.6g} rad/us has no weight in the window")
    return norm


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


def pairwise_sum(values: np.ndarray):
    """Sum along the last axis by a fixed binary tree of elementwise adds.

    The array is zero-padded to a power of two (exact), then its first
    half is added onto its second half until one element is left.  Each
    step is an IEEE-rounded elementwise add, so the result is the same
    bit for bit whatever numpy's internal reduction order, SIMD dispatch
    or version, and each row of a 2-D array sums to the bits of the same
    row summed alone; the error bound is the pairwise one, O(eps log n)
    (Higham, SIAM J. Sci. Comput. 14, 783, 1993).  A 1-D array gives a
    float, a 2-D one an array of row sums.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    size = 1 << (n - 1).bit_length()
    buf = np.zeros(values.shape[:-1] + (size,))
    buf[..., :n] = values
    while size > 1:
        size //= 2
        np.add(buf[..., :size], buf[..., size:], out=buf[..., size:])
        buf = buf[..., size:]
    return float(buf[0]) if buf.ndim == 1 else buf[..., 0]


def _odd_tail(z2: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """``sum_k coeffs[k] * z2**k`` by Horner, highest order first."""
    tail = np.full_like(z2, coeffs[-1])
    for c in coeffs[-2::-1]:
        tail *= z2
        tail += c
    return tail


def _atan2(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``arctan2(num, den)`` elementwise for ``num >= 0``.

    Where ``num / den`` lies in ``[0, SERIES_LIMIT)`` it is ``atan(z)``,
    summed as ``z + z * (z**2 * tail)`` so the leading term is exact;
    elsewhere it is longdouble ``arctan2``.
    """
    series = num < SERIES_LIMIT * den
    z = np.divide(num, den, out=np.zeros_like(num), where=series)
    z2 = z * z
    out = z + z * (z2 * _odd_tail(z2, _ATAN_TAIL))
    if not series.all():
        far = ~series
        out[far] = np.arctan2(num[far], den[far], dtype=np.longdouble)
    return out


def _log1p(x: np.ndarray) -> np.ndarray:
    """``log1p(x)`` elementwise for ``x >= 0``.

    Below ``SERIES_LIMIT`` it is ``2 atanh(y)`` with ``y = x / (2 + x)``,
    written ``x + y * (2 y**2 tail - x)`` (since ``2 y = x - x y``) so the
    leading term is exact; elsewhere it is longdouble ``log1p``.
    """
    series = x < SERIES_LIMIT
    y = x / (2.0 + x)
    y2 = y * y
    out = x + y * (2.0 * y2 * _odd_tail(y2, _ATANH_TAIL) - x)
    if not series.all():
        far = ~series
        out[far] = np.log1p(x[far], dtype=np.longdouble)
    return out


def _tabulated_integral(
    spectrum: TabulatedSpectrum, centers: np.ndarray, hws: np.ndarray
) -> np.ndarray:
    """Exact integrals of the linear-interpolated table times each filter.

    Returns one raw rate per ``(centers[i], hws[i])``, integrated over
    the table's own segments, whose nodes, values and slopes every
    context shares.  On a segment
    ``[u0, u1]`` (``u = omega - center``) with slope ``s`` and
    ``a = f(u0) - s * u0`` the integral is
    ``a * atan2((u1 - u0) * hw, hw**2 + u0 * u1) / pi
    + s * hw * log((hw**2 + u1**2) / (hw**2 + u0**2)) / (2 pi)``.
    Contexts run in blocks of at most ``BLOCK_ELEMENTS`` segment x context
    elements; every operation is elementwise and each row is summed on
    its own, so a context's bits do not depend on its block.
    """
    nodes, f = spectrum.omegas, spectrum.rates
    du = np.diff(nodes)
    slope = np.diff(f) / du
    centers = np.asarray(centers, dtype=float)
    hws = np.asarray(hws, dtype=float)
    raw = np.empty(centers.size)
    rows = max(1, BLOCK_ELEMENTS // du.size)
    for start in range(0, centers.size, rows):
        block = slice(start, start + rows)
        hw = hws[block, None]
        u = nodes - centers[block, None]
        u0, u1 = u[:, :-1], u[:, 1:]
        # The log term is +-log1p(x) with x >= 0, the ratio of the larger
        # to the smaller hw**2 + u**2 minus one, so it keeps full relative
        # accuracy when the ratio nears 1 (hw wide against the segment).
        hw2 = hw * hw
        d_atan = _atan2(du * hw, hw2 + u0 * u1)
        u_sum = u0 + u1
        excess = du * np.abs(u_sum) / (hw2 + np.minimum(u0 * u0, u1 * u1))
        d_log = np.copysign(_log1p(excess), u_sum)
        terms = (f[:-1] - slope * u0) * d_atan / math.pi + slope * hw * d_log / (2.0 * math.pi)
        raw[block] = pairwise_sum(terms)
    return raw


def _peak_integral(peak: TlsPeak, center: float, hw: float, lo: float, hi: float) -> float:
    """Exact integral of one Lorentzian peak times the filter over ``[lo, hi]``.

    In ``x = omega - center`` the integrand is
    ``2 g^2 a (hw/pi) / (((x - d)^2 + a^2) (x^2 + hw^2))`` with peak
    half-width ``a`` and offset ``d``: simple poles at ``z1 = d + i a``
    and ``z2 = i hw`` (and conjugates), integrated by partial fractions
    with the principal log, which is continuous on the real axis since
    no pole lies on it.  When the poles nearly coincide (relative
    separation below ``POLE_MERGE``) both are replaced by their midpoint
    ``m + i b``, whose double pole integrates to
    ``(x - m) / (2 b^2 ((x - m)^2 + b^2)) + atan((x - m) / b) / (2 b^3)``;
    the integral is symmetric in the two poles, so this is off by
    O(separation**2).
    """
    a = 0.5 * peak.width
    z1, z2 = complex(peak.center - center, a), complex(0.0, hw)
    x0, x1 = lo - center, hi - center
    if abs(z1 - z2) < POLE_MERGE * (a + hw):
        m, b = 0.5 * z1.real, 0.5 * (a + hw)

        def primitive(x):
            t = x - m
            return t / (2.0 * b * b * (t * t + b * b)) + math.atan(t / b) / (2.0 * b**3)

        integral = primitive(x1) - primitive(x0)
    else:
        # 1/((x-z1)(x-z1*)(x-z2)(x-z2*)) = sum_k A_k/(x-z_k) + conjugates
        a1 = 1.0 / ((z1 - z1.conjugate()) * (z1 - z2) * (z1 - z2.conjugate()))
        a2 = 1.0 / ((z2 - z2.conjugate()) * (z2 - z1) * (z2 - z1.conjugate()))

        def log_span(z):
            return cmath.log(x1 - z) - cmath.log(x0 - z)

        integral = 2.0 * (a1 * log_span(z1) + a2 * log_span(z2)).real
    return 2.0 * peak.coupling_sq * a * (hw / math.pi) * integral


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
        Integration window in rad/us for a parametric spectrum; defaults
        per ``default_window``.  A tabulated spectrum is integrated over
        its own range, and a window given with it raises
        :class:`DomainError`.
    resolution : int
        Ignored and unchecked: the integral is exact.  Kept so existing
        callers keep working.

    Returns
    -------
    KkResult
        Raw integral, analytic window weight, and normalized rate.

    Notes
    -----
    Below ``DELTA_LIMIT`` the dephasing is treated as exactly zero: the
    result is the spectrum at the shifted qubit frequency with norm 1.
    Above it the window integral is evaluated in closed form: per table
    segment for a tabulated spectrum, and as ``background * norm`` plus
    one partial-fraction integral per peak for a parametric one.
    """
    if window is not None and isinstance(spectrum, TabulatedSpectrum):
        raise DomainError("a tabulated spectrum is integrated over its own range, not a window")
    if context.dephasing < DELTA_LIMIT:
        rate = float(spectrum.rate_at(context.freq))
        return KkResult(context=context, raw_rate=rate, norm=1.0, rate=rate)
    if isinstance(spectrum, TabulatedSpectrum):
        return _tabulated_results(spectrum, [context])[0]

    lo, hi = map(float, default_window(spectrum, context) if window is None else window)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid integration window [{lo}, {hi}]")
    norm = window_normalization(context, (lo, hi))
    raw = spectrum.background * norm
    for peak in spectrum.peaks:
        raw += _peak_integral(peak, context.freq, context.dephasing, lo, hi)
    return KkResult(context=context, raw_rate=raw, norm=norm, rate=raw / norm)


def _tabulated_results(
    spectrum: TabulatedSpectrum, contexts: Sequence[MeasurementContext]
) -> list[KkResult]:
    """:func:`decay_rate` of contexts above ``DELTA_LIMIT``, in one pass."""
    window = default_window(spectrum, contexts[0])
    norms = [window_normalization(c, window) for c in contexts]  # a weight of 0 is refused first
    centers, hws = [c.freq for c in contexts], [c.dephasing for c in contexts]
    raws = _tabulated_integral(spectrum, centers, hws)
    return [
        KkResult(context=context, raw_rate=raw, norm=norm, rate=raw / norm)
        for context, raw, norm in zip(contexts, raws.tolist(), norms)
    ]


def sweep(
    spectrum: BathSpectrum,
    calibration: ReadoutCalibration,
    qubit_freq: float,
    amplitudes: Sequence[float],
) -> list[KkResult]:
    """Predicted decay rate across a sorted sweep of drive amplitudes.

    Each amplitude is mapped through the readout calibration to a
    measurement context; the output order matches the input order.
    Every context is integrated over :func:`default_window`, so a
    tabulated spectrum over the table's own range.  For
    a tabulated spectrum the contexts above ``DELTA_LIMIT`` are one
    block-batched pass of the segment kernel, whose nodes and slopes are
    built once, and each result is bit for bit the :func:`decay_rate` of
    its context.  Golden-rule contexts and parametric spectra go through
    :func:`decay_rate` one by one.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if amps.size and not amps.min() >= 0:
        raise DomainError("drive amplitudes must be >= 0")
    if not np.all(np.diff(amps) >= 0):
        raise DomainError("drive amplitudes must be sorted ascending")
    contexts = [
        MeasurementContext.from_calibration(calibration, qubit_freq, float(eps)) for eps in amps
    ]
    measured = [c for c in contexts if c.dephasing >= DELTA_LIMIT]
    if not (isinstance(spectrum, TabulatedSpectrum) and measured):
        return [decay_rate(spectrum, c) for c in contexts]
    batch = iter(_tabulated_results(spectrum, measured))
    return [
        next(batch) if c.dephasing >= DELTA_LIMIT else decay_rate(spectrum, c) for c in contexts
    ]
