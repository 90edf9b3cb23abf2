"""Least-squares fits that turn raw traces into calibration constants.

Every nonlinear model here is linear in all but its rate and frequency:
the damped oscillation ``e^{-g t} (a cos 2 pi f t + b sin 2 pi f t [+ c]) + B``
in ``(a, b[, c], B)`` (the vacuum-Rabi linecut keeps the decaying
baseline ``c``, the Ramsey fringe omits it), the exponential
``A e^{-g t}`` in ``A``.  One core, :func:`_separable_fit`, fits them by
variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)): the Levenberg-Marquardt descent moves the nonlinear parameters
alone, the linear ones being the least-squares solve at each step, with
Kaufman's Jacobian (BIT 15, 49 (1975)).  It ends with one Gauss-Newton
step from where the descent reports convergence.  That lands on the
least-squares optimum to rounding when the residual is small (1.3e-15
relative on noiseless Ramsey traces); Gauss-Newton converges only
linearly when it is large, so a poor model keeps a little of the miss
(9e-10 relative on ``exp(-3t) + 0.2`` at 20 samples over 0-2 us, up to
5e-12 on 40-sample echo traces with 1% noise).  Seeds are deterministic
(spectral peak pick, log-envelope and log-linear regressions), so
identical inputs produce bit-identical fit reports.

Units follow the traces: times in us, ordinary frequencies in MHz
(cycles/us), decay rates in 1/us.  The quadratic/quartic calibration
fits are unit-agnostic; they return coefficients in whatever units the
input response carries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError

TWO_PI = 2.0 * math.pi

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12


@dataclass(frozen=True)
class FitReport:
    """Outcome of one least-squares fit.

    ``converged`` is only set when the descent's gradient, in the
    nonlinear parameters, fell below :func:`_gradient_tolerance`
    (``GRADIENT_TOL * max(1, cost)`` or the cost's rounding floor,
    whichever is larger), or below :func:`_stall_tolerance` once no step
    lowered the cost.  ``gradient_norm`` is the largest component of
    the cost gradient in all reported parameters at the result, and the
    uncertainties are 1-sigma values there, from :func:`_rank_and_sigma`'s
    SVD of the Jacobian.
    """

    parameters: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    gradient_norm: float = 0.0
    warnings: tuple[str, ...] = ()


def _samples(times, signal, minimum) -> tuple[np.ndarray, np.ndarray]:
    """``(times, signal)`` as float arrays: 1-D, of equal length, at least
    ``minimum`` samples, all finite, times strictly increasing; else
    DomainError."""
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if times.ndim != 1 or times.shape != signal.shape:
        raise DomainError("times and signal must be 1-D arrays of equal length")
    if times.size < minimum:
        raise DomainError(f"need >= {minimum} samples, got {times.size}")
    for name, array in (("times", times), ("signal", signal)):
        if not np.all(np.isfinite(array)):
            raise DomainError(f"{name} must be finite")
    if not np.all(np.diff(times) > 0):
        raise DomainError("times must be strictly increasing")
    return times, signal


@dataclass(frozen=True)
class RamseyTrace:
    """A Ramsey fringe record: signal vs free-evolution time.

    ``offset_freq`` is the deliberate fringe offset in MHz that separates
    the frequency-shift and decay time scales; it must be >= 0, because
    the fitted fringe frequency is.  The samples must pass
    :func:`_samples` with at least 8 of them.
    """

    times: np.ndarray
    signal: np.ndarray
    offset_freq: float

    def __post_init__(self):
        if not self.offset_freq >= 0:
            raise DomainError(f"offset_freq must be >= 0 MHz, got {self.offset_freq}")
        for name, array in zip(("times", "signal"), _samples(self.times, self.signal, 8)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core


def _gradient_tolerance(cost: float, curvature: float) -> float:
    """Largest gradient norm counted as converged while the search descends.

    The nominal criterion is ``GRADIENT_TOL`` relative to the cost.  A
    strict-descent search cannot resolve cost changes below the cost's
    rounding error; taking that error as ``eps * cost`` gives a gradient
    floor of about ``sqrt(eps * cost * curvature)``, half of which is
    accepted; ``curvature = max(1, max_j ||J_j||^2)`` is the scale both
    tolerances take.  ``eps * cost`` underestimates the error when the
    residual is small next to the data, because ``r = model - data`` is
    formed by cancellation; :func:`_stall_tolerance` covers that case
    once the search has stopped.
    """
    eps = np.finfo(float).eps
    floor = 0.5 * math.sqrt(eps * max(cost, 0.0) * curvature)
    return max(GRADIENT_TOL * max(1.0, cost), floor)


def _stall_tolerance(r_norm: float, data_norm: float, curvature: float) -> float:
    """Gradient norm below which a stalled search is at the rounding floor.

    Each entry of ``r = model - data`` is formed by cancellation and is
    off by about ``eps`` times the data entry, so the cost ``||r||^2 / 2``
    is uncertain by about ``eps * ||r|| * (||r|| + ||data||)``.  A
    Gauss-Newton step lowers the cost by about ``gnorm^2 / curvature``;
    below that uncertainty no descent can be seen, and half of the
    resulting gradient floor is accepted.
    """
    eps = np.finfo(float).eps
    return 0.5 * math.sqrt(eps * r_norm * (r_norm + data_norm) * curvature)


def _lm_minimize(residual_jacobian, theta0, data_norm):
    """Damped Gauss-Newton descent on 0.5*||r(theta)||^2.

    ``residual_jacobian(theta) -> (r, J)`` with analytic ``J``; ``r`` is
    model minus data and ``data_norm`` is the data's 2-norm.  Returns
    ``(theta, r, J, converged, iterations, gradient_norm)``; convergence
    means the gradient norm fell below :func:`_gradient_tolerance`, or,
    once no step lowers the cost or the last one moved ``theta`` by less
    than ``STEP_TOL`` relative, below :func:`_stall_tolerance`.
    """
    theta = np.array(theta0, dtype=float)
    r, J = residual_jacobian(theta)
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        g = J.T @ r
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        jtj = J.T @ J
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        if gnorm <= _gradient_tolerance(cost, max(1.0, float(diag.max()))):
            converged = True
            break
        # stays set unless a step lowers the cost by moving theta measurably
        stalled = True
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            # a wild trial step may overflow, and inf - inf is nan; its
            # non-finite cost rejects it
            with np.errstate(over="ignore", invalid="ignore"):
                r_new, J_new = residual_jacobian(theta + delta)
                cost_new = 0.5 * float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new < cost:
                theta = theta + delta
                r, J, cost = r_new, J_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                step = float(np.linalg.norm(delta))
                stalled = step <= STEP_TOL * (STEP_TOL + float(np.linalg.norm(theta)))
                break
            lam *= 10.0
        if stalled:
            gnorm = float(np.max(np.abs(J.T @ r)))
            curvature = max(1.0, float(np.einsum("ij,ij->j", J, J).max()))
            tolerance = max(
                _gradient_tolerance(cost, curvature),
                _stall_tolerance(math.sqrt(2.0 * cost), data_norm, curvature),
            )
            converged = gnorm <= tolerance
            break
    return theta, r, J, converged, iterations, gnorm


def _rank_and_sigma(r: np.ndarray, J: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank of ``J`` and the 1-sigma parameter errors, from one SVD of ``J``.

    ``J = U diag(s) V^T``; singular values at or below ``max(n, p) * eps
    * s[0]`` (``lstsq``'s cutoff) count as zero, and the covariance is
    ``var * V diag(s^-2) V^T`` over the rest, ``var = ||r||^2 / (n - p)``
    (errors 0 when ``n <= p``).  Working on ``J`` rather than ``J^T J``
    keeps the condition number unsquared.
    """
    n, p = J.shape
    _, s, vt = np.linalg.svd(J, full_matrices=False)
    rank = int(np.count_nonzero(s > max(n, p) * np.finfo(float).eps * s[0]))
    if n <= p:
        return rank, np.zeros(p)
    scaled = vt[:rank] / s[:rank, np.newaxis]
    return rank, np.sqrt(float(r @ r) / (n - p) * np.einsum("kj,kj->j", scaled, scaled))


def _report(names, theta, r, J, converged, iterations) -> FitReport:
    _, sig = _rank_and_sigma(r, J)
    return FitReport(
        parameters=dict(zip(names, (float(v) for v in theta))),
        uncertainties=dict(zip(names, (float(s) for s in sig))),
        residual_norm=float(np.linalg.norm(r)),
        converged=converged,
        iterations=iterations,
        gradient_norm=float(np.max(np.abs(J.T @ r))),
    )


# ---------------------------------------------------------------------------
# deterministic seeding helpers


def _spectrum_peak(times, values, f_window=None):
    """Dominant non-DC frequency of a (near-)uniform trace, in MHz.

    Resamples to a uniform grid, applies a Hann window against leakage,
    and refines the peak bin parabolically on the log magnitude.
    Returns ``(freq, peak_height)``.
    """
    n = len(times)
    uniform_t = np.linspace(times[0], times[-1], n)
    z = np.interp(uniform_t, times, values)
    z = z - z.mean()
    mags = np.abs(np.fft.rfft(z * np.hanning(n)))
    dfreq = 1.0 / (uniform_t[-1] - uniform_t[0] + (uniform_t[1] - uniform_t[0]))
    freqs = np.arange(mags.size) * dfreq
    search = mags.copy()
    search[0] = 0.0
    if f_window is not None:
        lo, hi = f_window
        search[(freqs < lo) | (freqs > hi)] = 0.0
        if not np.any(search > 0):
            search = mags.copy()
            search[0] = 0.0
    k = int(np.argmax(search))
    if k == 0 or search[k] == 0.0:
        return 0.0, 0.0
    shift = 0.0
    if 1 <= k < mags.size - 1 and mags[k - 1] > 0 and mags[k + 1] > 0:
        la, lb, lc = np.log(mags[k - 1 : k + 2])
        denom = la - 2.0 * lb + lc
        if denom < 0:
            shift = float(np.clip(0.5 * (la - lc) / denom, -0.5, 0.5))
    return float((k + shift) * dfreq), float(mags[k])


def _oscillation_seed(times, signal, f_window=None):
    """Frequency and decay seeds of a damped oscillation, and the signal's
    range; FitError if the signal is constant or does not oscillate."""
    spread = float(np.ptp(signal))
    if spread <= 1e-14 * (1.0 + abs(float(np.mean(signal)))):
        raise FitError("constant signal: nothing to fit")
    freq, peak = _spectrum_peak(times, signal, f_window)
    if peak == 0.0:
        raise FitError("no oscillating component found in the trace")
    return freq, _log_envelope_rate(times, signal, freq), spread


def _log_envelope_rate(times, values, freq):
    """Decay-rate seed from a linear fit to the log demodulated envelope."""
    z = np.asarray(values, dtype=float) - np.mean(values)
    rot = z * np.exp(-1j * TWO_PI * freq * times)
    if freq > 0:
        # one fringe period, but no wider than the trace: a wider kernel
        # makes the "same"-mode convolution longer than the trace
        dt = float(np.median(np.diff(times)))
        win = min(max(1, int(round(1.0 / (freq * dt)))), len(times))
    else:
        win = 1
    kernel = np.ones(win) / win
    env = 2.0 * np.abs(np.convolve(rot, kernel, mode="same"))
    top = env.max()
    if top <= 0:
        return 0.0
    mask = env > 0.05 * top
    if mask.sum() < 2:
        return 0.0
    slope = np.polyfit(times[mask], np.log(env[mask]), 1)[0]
    return max(-float(slope), 0.0)


# ---------------------------------------------------------------------------
# variable projection: each nonlinear model is linear in all but <= 2 parameters


def _solve_linear(phi, signal):
    """Least-squares ``coef`` of ``phi @ coef ~ signal`` and the inverse
    Gram matrix; LinAlgError if that matrix is not finite or singular.
    Finiteness comes first: LAPACK on an overflowed basis can hang."""
    gram = phi.T @ phi
    if not math.isfinite(gram.sum()):
        raise np.linalg.LinAlgError("the basis is not finite")
    inverse = np.linalg.inv(gram)
    return inverse @ (phi.T @ signal), inverse


def _projected_residual_jacobian(signal, basis):
    """``fun(theta) -> (r, J)`` of the model ``phi @ coef``, ``coef``
    being the least-squares solve at ``theta``.

    ``basis(theta) -> (phi, tangent)`` gives the columns, and
    ``tangent(coef, fitted)`` the model's derivatives in ``theta`` at
    fixed ``coef``.  ``J = (I - P) tangent``, with ``P`` the projector
    onto the columns, is Kaufman's Jacobian: its ``J.T @ r`` is the
    exact gradient of the projected cost at every ``theta``.  A basis
    that :func:`_solve_linear` refuses gives a NaN residual, which the
    descent rejects.
    """

    def fun(theta):
        phi, tangent = basis(theta)
        try:
            coef, inverse = _solve_linear(phi, signal)
        except np.linalg.LinAlgError:
            return np.full_like(signal, np.nan), np.zeros((signal.size, len(theta)))
        fitted = phi @ coef
        T = tangent(coef, fitted)
        return fitted - signal, T - phi @ (inverse @ (phi.T @ T))

    return fun


def _separable_fit(signal, basis, theta0):
    """Fit :func:`_projected_residual_jacobian`'s model from ``theta0``;
    returns ``(theta, coef, r, J, converged, iterations)``, ``J`` being
    the full Jacobian in ``(coef, theta)`` at the result.  A converged
    descent ends with one Gauss-Newton step."""
    fun = _projected_residual_jacobian(signal, basis)
    theta, r, J, converged, iterations, _ = _lm_minimize(
        fun, theta0, data_norm=float(np.linalg.norm(signal))
    )
    if converged:
        theta = theta - np.linalg.lstsq(J, r, rcond=None)[0]
    phi, tangent = basis(theta)
    try:
        coef, _ = _solve_linear(phi, signal)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"fit has no least-squares solution: {exc}") from None
    fitted = phi @ coef
    J = np.hstack([phi, tangent(coef, fitted)])
    return theta, coef, fitted - signal, J, converged, iterations


# ---------------------------------------------------------------------------
# damped oscillation (Ramsey fringes and the vacuum-Rabi linecut)

_DAMPED_SINE_NAMES = ("amplitude", "decay_rate", "frequency", "phase", "baseline")


def _damped_sine_basis(times, decaying_baseline=False):
    """``basis(theta)`` of the damped oscillation at ``theta = (g, f)``:
    columns ``(e cos, e sin[, e], 1)``, tangent ``(-t (fitted - B),
    2 pi t (b e cos - a e sin))``."""
    ones = np.ones_like(times)
    two_pi_t = TWO_PI * times

    def basis(theta):
        rate, freq = theta
        envelope = np.exp(-rate * times)
        arg = two_pi_t * freq
        e_cos, e_sin = envelope * np.cos(arg), envelope * np.sin(arg)
        columns = (e_cos, e_sin, envelope, ones) if decaying_baseline else (e_cos, e_sin, ones)

        def tangent(coef, fitted):
            a, b, *_, base = coef
            return np.array([-times * (fitted - base), two_pi_t * (b * e_cos - a * e_sin)]).T

        return np.array(columns).T, tangent

    return basis


def _fit_damped_oscillation(times, signal, name, f_window=None, decaying_baseline=False):
    """Seed and fit :func:`_damped_sine_basis`'s model; returns
    ``(theta, coef, r, J, iterations, signal range)``, or raises
    FitError naming ``name``.

    The model is unchanged under ``(b, f) -> (-b, -f)``; the result has
    ``f >= 0``.  A fit is refused as degenerate when its envelope falls
    by more than a factor e over the smallest sample step (the fringe is
    seen by one sample), when its frequency is above that step's Nyquist
    frequency (the fringe is an alias), or when ``J`` loses rank at the
    cutoff of :func:`_rank_and_sigma`, which reports the uncertainties;
    in the first and last cases some reported uncertainty would be zero.
    """
    freq0, rate0, spread = _oscillation_seed(times, signal, f_window)
    (rate, freq), coef, r, J, converged, iterations = _separable_fit(
        signal, _damped_sine_basis(times, decaying_baseline), (rate0, freq0)
    )
    if not converged:
        raise FitError(
            f"{name} fit did not converge: {iterations} iterations, "
            f"gradient norm {np.max(np.abs(J.T @ r)):.3e}, residual {np.linalg.norm(r):.3e}"
        )
    if freq < 0:
        freq, coef[1] = -freq, -coef[1]
        J[:, [1, -1]] *= -1.0
    step = float(np.min(np.diff(times)))
    if rate * step > 1.0:
        raise FitError(
            f"{name} fit is degenerate: its envelope falls by a factor e^{rate * step:.3g} "
            f"per sample step (decay rate {rate:.3e}/us)"
        )
    if freq > 0.5 / step:
        raise FitError(
            f"{name} fit is degenerate: its frequency {freq:.6g} MHz is above the "
            f"{0.5 / step:.6g} MHz Nyquist frequency of the sample step"
        )
    rank, _ = _rank_and_sigma(r, J)
    if rank < J.shape[1]:
        raise FitError(f"{name} fit is degenerate: its Jacobian has rank {rank} of {J.shape[1]}")
    return (rate, freq), coef, r, J, iterations, spread


def fit_damped_sine(trace: RamseyTrace) -> tuple[float, float, FitReport]:
    """Fit ``A exp(-g t) cos(2 pi f t + phi) + B`` to a Ramsey trace.

    Returns ``(freq_shift, decay_rate, report)`` where ``freq_shift`` is
    the fitted fringe frequency minus the deliberate offset (MHz) and
    ``decay_rate`` the envelope decay in 1/us.  The fitted frequency is
    taken ``>= 0``, so a zero offset reports ``|shift|``.  The fit's
    ``a = A cos(phi)``, ``b = -A sin(phi)`` are reported as ``(A, phi)``.

    Raises
    ------
    DomainError
        The trace spans less than 1.5 periods of the expected (offset)
        frequency.
    FitError
        Constant signal, no convergence within the iteration budget, or
        a degenerate fit (see :func:`_fit_damped_oscillation`).
    """
    times, signal = trace.times, trace.signal
    if trace.offset_freq > 0:
        span_periods = (times[-1] - times[0]) * trace.offset_freq
        if span_periods < 1.5:
            raise DomainError(
                f"trace spans {span_periods:.2f} expected periods, need >= 1.5"
            )
    (rate, freq), (a, b, base), r, J, iterations, _ = _fit_damped_oscillation(
        times, signal, "damped-sine"
    )
    # the (A, phi) columns by the chain rule through a = A cos(phi), b = -A sin(phi)
    amp = math.hypot(a, b)
    J = np.column_stack(
        [(a * J[:, 0] + b * J[:, 1]) / amp, J[:, 3], J[:, 4], b * J[:, 0] - a * J[:, 1], J[:, 2]]
    )
    theta = (amp, rate, freq, math.atan2(-b, a), base)
    report = _report(_DAMPED_SINE_NAMES, theta, r, J, True, iterations)
    return freq - trace.offset_freq, rate, report


# ---------------------------------------------------------------------------
# single exponential (fixed- and variable-delay decay data)

_EXP_NAMES = ("amplitude", "decay_rate")


def _exponential_basis(times):
    """``basis(theta)`` of ``A e^{-g t}`` at ``theta = (g,)``."""

    def basis(theta):
        (rate,) = theta
        envelope = np.exp(-rate * times)[:, np.newaxis]
        return envelope, lambda coef, fitted: (-times * fitted)[:, np.newaxis]

    return basis


def _exponential_seed(times, signal) -> float:
    """Rate seed for ``A exp(-g t)``: the slope of a log-linear regression
    over the positive samples, or no decay with fewer than two of them."""
    positive = signal > 0
    if positive.sum() < 2:
        return 0.0
    return -np.polyfit(times[positive], np.log(signal[positive]), 1)[0]


def _exponential_fit(times, signal) -> tuple[FitReport, np.ndarray]:
    """Fit ``A exp(-g t)`` by :func:`_separable_fit`; returns ``(report, r)``
    with a rate of zero reported as ``+0.0``."""
    (rate,), (amp,), r, J, converged, iterations = _separable_fit(
        signal, _exponential_basis(times), (_exponential_seed(times, signal),)
    )
    return _report(_EXP_NAMES, (amp, rate + 0.0), r, J, converged, iterations), r


def fit_exponential(times, signal) -> tuple[float, FitReport]:
    """Fit ``A exp(-g t)`` and return ``(g, report)``.

    Fits with :func:`_exponential_fit`.  Needs :func:`_samples` with at
    least 2; no convergence raises FitError, and so does a fitted
    amplitude <= 0, which is no decay (a signal of zeros has amplitude 0).
    """
    times, signal = _samples(times, signal, 2)
    report, _ = _exponential_fit(times, signal)
    if not report.converged:
        raise FitError(
            f"exponential fit did not converge: {report.iterations} iterations, "
            f"gradient norm {report.gradient_norm:.3e}"
        )
    amplitude = report.parameters["amplitude"]
    if not amplitude > 0:
        raise FitError(f"exponential fit found amplitude {amplitude:.3e}, not a positive decay")
    return report.parameters["decay_rate"], report


# ---------------------------------------------------------------------------
# vacuum-Rabi linecut (swap spectroscopy)

_CHEVRON_NAMES = ("osc_cos", "osc_sin", "envelope_offset", "baseline", "decay_rate", "frequency")


def fit_swap_chevron(times, populations, f_guess: float) -> tuple[float, float, FitReport]:
    """Extract (coupling, defect decay) from a resonant vacuum-Rabi linecut.

    Fits ``exp(-g t) * (a cos(2 pi f t) + b sin(2 pi f t) + c) + d``: the
    population exchanged with a lossy defect oscillates at the damped
    vacuum-Rabi frequency on top of an equally damped baseline.  That is
    :func:`fit_damped_sine`'s model plus ``c e^{-g t}``, with ``a = A cos(phi)``
    and ``b = -A sin(phi)``.  At resonance the fitted ``(f, g)`` invert to

        defect_decay = 2 g,
        coupling     = sqrt((pi f)^2 + (defect_decay / 4)^2),

    the second term undoing the damping-induced frequency pull.

    Parameters
    ----------
    times, populations : array-like
        The linecut at maximal oscillation amplitude (resonant cut).
    f_guess : float
        Expected oscillation frequency in MHz; steers the peak pick.

    Returns
    -------
    (coupling, defect_decay, report)
        Coupling in rad/us, decay in 1/us.
    """
    times, populations = _samples(times, populations, 8)
    if f_guess > 0 and (times[-1] - times[0]) * f_guess < 2.0:
        raise DomainError("linecut must span >= 2 expected oscillation periods")
    window = (0.5 * f_guess, 2.0 * f_guess) if f_guess > 0 else None
    theta, coef, r, J, iterations, spread = _fit_damped_oscillation(
        times, populations, "vacuum-Rabi", window, decaying_baseline=True
    )
    amp = math.hypot(coef[0], coef[1])
    if amp < 0.02 * spread:
        raise FitError(
            f"no resolvable oscillation: fitted amplitude {amp:.3e} "
            f"vs signal range {spread:.3e}"
        )
    report = _report(_CHEVRON_NAMES, (*coef, *theta), r, J, True, iterations)
    defect_decay = 2.0 * report.parameters["decay_rate"]
    half_osc = math.pi * report.parameters["frequency"]
    coupling = math.hypot(half_osc, defect_decay / 4.0)
    return coupling, defect_decay, report


# ---------------------------------------------------------------------------
# polynomial calibrations (linear least squares)


def _polynomial_fit(points, powers, names):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("expected a sequence of (amplitude, response) pairs")
    if not np.all(np.isfinite(pts)):
        raise DomainError("amplitudes and responses must be finite")
    amp, response = pts[:, 0], pts[:, 1]
    if np.unique(amp).size < len(powers) + 1:
        raise DomainError(
            f"need >= {len(powers) + 1} distinct amplitudes, got {np.unique(amp).size}"
        )
    design = np.column_stack([amp**p for p in powers])
    coef, _, rank, _ = np.linalg.lstsq(design, response, rcond=None)
    if rank < len(powers):
        raise FitError("rank-deficient design: amplitudes do not separate the terms")
    # + 0.0: a zero response gives coefficients -0.0, which would be written so
    coef = coef + 0.0
    r = design @ coef - response
    report = _report(names, coef, r, design, True, 1)
    return coef, report


def fit_stark_poly(points) -> tuple[float, float, FitReport]:
    """Quadratic + quartic (Kerr) Stark-shift fit, no intercept.

    ``points`` are (amplitude, stark_shift) pairs; returns ``(S, K,
    report)`` with the shift modeled as ``S eps^2 + K eps^4``.
    """
    coef, report = _polynomial_fit(points, (2, 4), ("stark_quad", "stark_quartic"))
    return float(coef[0]), float(coef[1]), report


def fit_dephasing_quadratic(points) -> tuple[float, FitReport]:
    """Quadratic dephasing-vs-amplitude fit; returns ``(R, report)``."""
    coef, report = _polynomial_fit(points, (2,), ("dephasing_quad",))
    return float(coef[0]), report


def fit_flux_noise_quadratic(points) -> tuple[float, FitReport]:
    """Quadratic fit of echo decay rate vs flux-noise amplitude."""
    coef, report = _polynomial_fit(points, (2,), ("quadratic_coef",))
    return float(coef[0]), report


# ---------------------------------------------------------------------------
# scalar conversion


def rate_from_fixed_delay(p1: float, t_delay: float) -> float:
    """Decay rate from the surviving population after a fixed delay.

    Inverts ``p1 = exp(-rate * t_delay)``; ``p1`` must lie in (0, 1] and
    out-of-range values raise rather than clamp, so bad data surface.
    """
    if not t_delay > 0:
        raise DomainError(f"delay must be > 0, got {t_delay}")
    if not 0.0 < p1 <= 1.0:
        raise DomainError(f"population must be in (0, 1], got {p1}")
    return -math.log(p1) / t_delay + 0.0
