"""Least-squares fits that turn raw traces into calibration constants.

The nonlinear models (damped sinusoids, exponential decays) are fit with
a damped Gauss-Newton (Levenberg-Marquardt) loop using analytic
Jacobians.  Initialization is deterministic: discrete-spectrum peak pick
for the frequency, log-envelope regression for the decay, and a linear
quadrature projection for amplitude/phase.  Identical inputs therefore
produce bit-identical fit reports.

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

    ``converged`` is only set when the cost gradient dropped below the
    relative tolerance, so a converged report always has a small
    ``gradient_norm``.  Uncertainties are 1-sigma values from the
    residual-variance-scaled normal-equations inverse.
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
    ``minimum`` samples, times strictly increasing; else DomainError."""
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if times.ndim != 1 or times.shape != signal.shape:
        raise DomainError("times and signal must be 1-D arrays of equal length")
    if times.size < minimum:
        raise DomainError(f"need >= {minimum} samples, got {times.size}")
    if not np.all(np.diff(times) > 0):
        raise DomainError("times must be strictly increasing")
    return times, signal


@dataclass(frozen=True)
class RamseyTrace:
    """A Ramsey fringe record: signal vs free-evolution time.

    ``offset_freq`` is the deliberate fringe offset in MHz that separates
    the frequency-shift and decay time scales.  The samples must pass
    :func:`_samples` with at least 8 of them.
    """

    times: np.ndarray
    signal: np.ndarray
    offset_freq: float

    def __post_init__(self):
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
    once no step makes progress, below :func:`_stall_tolerance`.
    """
    theta = np.array(theta0, dtype=float)
    r, J = residual_jacobian(theta)
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    iterations = 0
    converged = False
    gnorm = np.inf
    for _ in range(MAX_ITERATIONS):
        iterations += 1
        g = J.T @ r
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        jtj = J.T @ J
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        if gnorm <= _gradient_tolerance(cost, max(1.0, float(diag.max()))):
            converged = True
            break
        step_done = False
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            # a wild trial step may overflow; its non-finite cost rejects it
            with np.errstate(over="ignore"):
                r_new, J_new = residual_jacobian(theta + delta)
                cost_new = 0.5 * float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new < cost:
                theta = theta + delta
                r, J, cost = r_new, J_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                step_done = True
                if float(np.linalg.norm(delta)) <= STEP_TOL * (
                    STEP_TOL + float(np.linalg.norm(theta))
                ):
                    step_done = "stop"
                break
            lam *= 10.0
        if step_done == "stop" or not step_done:
            g = J.T @ r
            gnorm = float(np.max(np.abs(g)))
            curvature = max(1.0, float(np.einsum("ij,ij->j", J, J).max()))
            tolerance = max(
                _gradient_tolerance(cost, curvature),
                _stall_tolerance(math.sqrt(2.0 * cost), data_norm, curvature),
            )
            converged = gnorm <= tolerance
            break
    return theta, r, J, converged, iterations, gnorm


def _uncertainties(r: np.ndarray, J: np.ndarray) -> np.ndarray:
    """1-sigma parameter errors from the normal-equations inverse."""
    n, p = J.shape
    if n <= p:
        return np.zeros(p)
    resid_var = float(r @ r) / (n - p)
    cov = resid_var * np.linalg.pinv(J.T @ J)
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _report(names, theta, r, J, converged, iterations, gnorm) -> FitReport:
    sig = _uncertainties(r, J)
    return FitReport(
        parameters=dict(zip(names, (float(v) for v in theta))),
        uncertainties=dict(zip(names, (float(s) for s in sig))),
        residual_norm=float(np.linalg.norm(r)),
        converged=converged,
        iterations=iterations,
        gradient_norm=gnorm,
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


def _quadrature_projection(times, values, freq, rate, with_decaying_baseline=False):
    """Linear solve for the in/out-of-phase amplitudes at fixed (freq, rate)."""
    envelope = np.exp(-rate * times)
    cols = [
        envelope * np.cos(TWO_PI * freq * times),
        envelope * np.sin(TWO_PI * freq * times),
    ]
    if with_decaying_baseline:
        cols.append(envelope)
    cols.append(np.ones_like(times))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return coef


# ---------------------------------------------------------------------------
# damped sinusoid (Ramsey fringes)

_DAMPED_SINE_NAMES = ("amplitude", "decay_rate", "frequency", "phase", "baseline")


def _damped_sine_residual_jacobian(times, signal):
    def fun(theta):
        amp, rate, freq, phase, base = theta
        envelope = np.exp(-rate * times)
        arg = TWO_PI * freq * times + phase
        cos_t, sin_t = np.cos(arg), np.sin(arg)
        r = amp * envelope * cos_t + base - signal
        J = np.column_stack(
            [
                envelope * cos_t,
                -times * amp * envelope * cos_t,
                -TWO_PI * times * amp * envelope * sin_t,
                -amp * envelope * sin_t,
                np.ones_like(times),
            ]
        )
        return r, J

    return fun


def _canonical_damped_sine(theta):
    amp, rate, freq, phase, base = theta
    if freq < 0:
        freq, phase = -freq, -phase
    if amp < 0:
        amp, phase = -amp, phase + math.pi
    phase = math.remainder(phase, TWO_PI)
    if phase <= -math.pi:
        phase += TWO_PI
    elif phase > math.pi:
        phase -= TWO_PI
    return np.array([amp, rate, freq, phase, base])


def fit_damped_sine(trace: RamseyTrace) -> tuple[float, float, FitReport]:
    """Fit ``A exp(-g t) cos(2 pi f t + phi) + B`` to a Ramsey trace.

    Returns ``(freq_shift, decay_rate, report)`` where ``freq_shift`` is
    the fitted fringe frequency minus the deliberate offset (MHz) and
    ``decay_rate`` the envelope decay in 1/us.

    Raises
    ------
    DomainError
        The trace spans less than 1.5 periods of the expected (offset)
        frequency.
    FitError
        Constant signal, or no convergence within the iteration budget.
    """
    times, signal = trace.times, trace.signal
    if trace.offset_freq > 0:
        span_periods = (times[-1] - times[0]) * trace.offset_freq
        if span_periods < 1.5:
            raise DomainError(
                f"trace spans {span_periods:.2f} expected periods, need >= 1.5"
            )
    freq0, rate0, _ = _oscillation_seed(times, signal)
    a_cos, a_sin, base0 = _quadrature_projection(times, signal, freq0, rate0)
    theta0 = np.array(
        [math.hypot(a_cos, a_sin), rate0, freq0, math.atan2(-a_sin, a_cos), base0]
    )

    fun = _damped_sine_residual_jacobian(times, signal)
    theta, r, J, converged, iterations, gnorm = _lm_minimize(
        fun, theta0, data_norm=float(np.linalg.norm(signal))
    )
    if not converged:
        raise FitError(
            f"damped-sine fit did not converge: {iterations} iterations, "
            f"gradient norm {gnorm:.3e}, residual {np.linalg.norm(r):.3e}"
        )
    theta = _canonical_damped_sine(theta)
    r, J = fun(theta)
    report = _report(_DAMPED_SINE_NAMES, theta, r, J, converged, iterations, gnorm)
    freq_shift = report.parameters["frequency"] - trace.offset_freq
    return freq_shift, report.parameters["decay_rate"], report


# ---------------------------------------------------------------------------
# single exponential (fixed- and variable-delay decay data)

_EXP_NAMES = ("amplitude", "decay_rate")


def _exponential_residual_jacobian(times, signal):
    def fun(theta):
        amp, rate = theta
        envelope = np.exp(-rate * times)
        r = amp * envelope - signal
        J = np.column_stack([envelope, -times * amp * envelope])
        return r, J

    return fun


def _exponential_seed(times, signal) -> np.ndarray:
    """``(A, g)`` seed for ``A exp(-g t)``: a log-linear regression.

    The regression runs over the positive samples; with fewer than two
    of them the seed is the largest sample with no decay.
    """
    positive = signal > 0
    if positive.sum() < 2:
        return np.array([max(float(signal.max()), 1e-12), 0.0])
    slope, intercept = np.polyfit(times[positive], np.log(signal[positive]), 1)
    return np.array([math.exp(min(intercept, 700.0)), -slope])


def fit_exponential(times, signal) -> tuple[float, FitReport]:
    """Fit ``A exp(-g t)`` and return ``(g, report)``.

    Seeds from :func:`_exponential_seed`.  Needs :func:`_samples` with
    at least 2; a fitted amplitude <= 0 is no decay and raises FitError.
    """
    times, signal = _samples(times, signal, 2)
    fun = _exponential_residual_jacobian(times, signal)
    theta, r, J, converged, iterations, gnorm = _lm_minimize(
        fun, _exponential_seed(times, signal), data_norm=float(np.linalg.norm(signal))
    )
    if not converged:
        raise FitError(
            f"exponential fit did not converge: {iterations} iterations, "
            f"gradient norm {gnorm:.3e}"
        )
    if not theta[0] > 0:
        raise FitError(f"exponential fit found amplitude {theta[0]:.3e}, not a positive decay")
    report = _report(_EXP_NAMES, theta, r, J, converged, iterations, gnorm)
    return report.parameters["decay_rate"], report


# ---------------------------------------------------------------------------
# vacuum-Rabi linecut (swap spectroscopy)

_CHEVRON_NAMES = ("osc_cos", "osc_sin", "envelope_offset", "baseline", "decay_rate", "frequency")


def _chevron_residual_jacobian(times, signal):
    def fun(theta):
        a_cos, a_sin, env_off, base, rate, freq = theta
        envelope = np.exp(-rate * times)
        arg = TWO_PI * freq * times
        cos_t, sin_t = np.cos(arg), np.sin(arg)
        osc = a_cos * cos_t + a_sin * sin_t + env_off
        r = envelope * osc + base - signal
        J = np.column_stack(
            [
                envelope * cos_t,
                envelope * sin_t,
                envelope,
                np.ones_like(times),
                -times * envelope * osc,
                TWO_PI * times * envelope * (a_sin * cos_t - a_cos * sin_t),
            ]
        )
        return r, J

    return fun


def fit_swap_chevron(times, populations, f_guess: float) -> tuple[float, float, FitReport]:
    """Extract (coupling, defect decay) from a resonant vacuum-Rabi linecut.

    Fits ``exp(-g t) * (a cos(2 pi f t) + b sin(2 pi f t) + c) + d``: the
    population exchanged with a lossy defect oscillates at the damped
    vacuum-Rabi frequency on top of an equally damped baseline.  At
    resonance the fitted ``(f, g)`` invert to

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
    freq0, rate0, spread = _oscillation_seed(times, populations, window)
    a_cos, a_sin, env_off, base0 = _quadrature_projection(
        times, populations, freq0, rate0, with_decaying_baseline=True
    )
    theta0 = np.array([a_cos, a_sin, env_off, base0, rate0, freq0])

    fun = _chevron_residual_jacobian(times, populations)
    theta, r, J, converged, iterations, gnorm = _lm_minimize(
        fun, theta0, data_norm=float(np.linalg.norm(populations))
    )
    if not converged:
        raise FitError(
            f"vacuum-Rabi fit did not converge: {iterations} iterations, "
            f"gradient norm {gnorm:.3e}"
        )
    if theta[5] < 0:
        theta[5] = -theta[5]
        theta[1] = -theta[1]
    osc_amp = math.hypot(theta[0], theta[1])
    if osc_amp < 0.02 * spread:
        raise FitError(
            f"no resolvable oscillation: fitted amplitude {osc_amp:.3e} "
            f"vs signal range {spread:.3e}"
        )
    r, J = fun(theta)
    report = _report(_CHEVRON_NAMES, theta, r, J, converged, iterations, gnorm)
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
    amp, response = pts[:, 0], pts[:, 1]
    if np.unique(amp).size < len(powers) + 1:
        raise DomainError(
            f"need >= {len(powers) + 1} distinct amplitudes, got {np.unique(amp).size}"
        )
    design = np.column_stack([amp**p for p in powers])
    if np.linalg.matrix_rank(design) < len(powers):
        raise FitError("rank-deficient design: amplitudes do not separate the terms")
    coef, *_ = np.linalg.lstsq(design, response, rcond=None)
    r = design @ coef - response
    report = _report(names, coef, r, design, True, 1, float(np.max(np.abs(design.T @ r))))
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
