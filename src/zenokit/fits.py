"""Least-squares fits that turn raw traces into calibration constants.

The nonlinear models (damped oscillations, exponential decays) are fit
with a damped Gauss-Newton (Levenberg-Marquardt) loop using analytic
Jacobians.  The Ramsey fringe and the vacuum-Rabi linecut are one damped
oscillation model with one fit path, the linecut adding a baseline that
decays with the fringe.  Initialization is deterministic: discrete-spectrum
peak pick for the frequency, log-envelope regression for the decay, and a
linear quadrature projection for amplitude/phase.  Identical inputs
therefore produce bit-identical fit reports.

There is one exponential fit, :func:`_exponential_fit`, behind both
:func:`fit_exponential` and the oracle's ``lindblad.extract_decay_rate``.
``A exp(-g t)`` is separable: at a fixed rate the amplitude is a linear
least-squares solve, so the Levenberg-Marquardt descent runs on the rate
alone with the amplitude projected out (variable projection, Golub &
Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), seeded by a log-linear
regression.  It ends with one scalar Gauss-Newton step from the point
where the descent reports convergence, rather than wherever the gradient
first fell below its tolerance.  That step lands on the least-squares
optimum to rounding when the residual is small; Gauss-Newton converges
only linearly when it is large, so a poor model keeps a little of the
miss (4e-10 relative on ``exp(-3t) + 0.2`` at 20 samples over 0-2 us,
up to 1e-11 on 40-sample echo traces with 1% noise).

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

    ``converged`` is only set when ``gradient_norm``, the largest
    component of the cost gradient, fell below :func:`_gradient_tolerance`
    during the descent (``GRADIENT_TOL * max(1, cost)`` or the cost's
    rounding floor, whichever is larger), or below :func:`_stall_tolerance`
    once no step lowered the cost.  Uncertainties are 1-sigma values from
    the residual-variance-scaled normal-equations inverse.
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
            # a wild trial step may overflow, and inf - inf is nan; its
            # non-finite cost rejects it
            with np.errstate(over="ignore", invalid="ignore"):
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
    """Linear solve at fixed (freq, rate) for the cos, sin, 1 [, envelope] coefficients."""
    envelope = np.exp(-rate * times)
    cols = [
        envelope * np.cos(TWO_PI * freq * times),
        envelope * np.sin(TWO_PI * freq * times),
        np.ones_like(times),
    ]
    if with_decaying_baseline:
        cols.append(envelope)
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return coef


# ---------------------------------------------------------------------------
# damped oscillation (Ramsey fringes and the vacuum-Rabi linecut)

_DAMPED_SINE_NAMES = ("amplitude", "decay_rate", "frequency", "phase", "baseline")


def _damped_sine_residual_jacobian(times, signal):
    """``(r, J)`` of ``A e^{-g t} cos(2 pi f t + phi) + B [+ C e^{-g t}]``
    at ``theta = (A, g, f, phi, B[, C])``; the decaying baseline ``C`` is
    in the model when ``theta`` has six entries."""

    def fun(theta):
        amp, rate, freq, phase, base, *decaying = theta
        envelope = np.exp(-rate * times)
        arg = TWO_PI * freq * times + phase
        cos_t, sin_t = np.cos(arg), np.sin(arg)
        r = amp * envelope * cos_t + base - signal
        columns = [
            envelope * cos_t,
            -times * amp * envelope * cos_t,
            -TWO_PI * times * amp * envelope * sin_t,
            -amp * envelope * sin_t,
            np.ones_like(times),
        ]
        if decaying:
            (env_off,) = decaying
            r += env_off * envelope
            columns[1] -= times * env_off * envelope
            columns.append(envelope)
        return r, np.column_stack(columns)

    return fun


def _canonical_damped_sine(theta):
    """The one of ``theta``'s equivalent sign choices with ``f >= 0``,
    ``A >= 0`` and ``phi`` in ``(-pi, pi]``; ``B`` and ``C`` are kept."""
    amp, rate, freq, phase, *linear = theta
    if freq < 0:
        freq, phase = -freq, -phase
    if amp < 0:
        amp, phase = -amp, phase + math.pi
    phase = math.remainder(phase, TWO_PI)
    if phase <= -math.pi:
        phase += TWO_PI
    elif phase > math.pi:
        phase -= TWO_PI
    return np.array([amp, rate, freq, phase, *linear])


def _fit_damped_oscillation(times, signal, name, f_window=None, decaying_baseline=False):
    """Seed and fit :func:`_damped_sine_residual_jacobian`'s model; returns
    ``(theta, r, J, iterations, gradient_norm, signal range)`` at the
    canonical ``theta``, or raises FitError naming ``name``.

    A converged fit is refused as degenerate when its envelope falls by
    more than a factor e over the smallest sample step, or when ``J``
    loses rank at the cutoff of the pseudo-inverse in
    :func:`_uncertainties`: in the first case the fringe is seen by one
    sample, and the rate and frequency columns of ``J`` vanish; in
    both, some reported uncertainty would be zero.
    """
    freq0, rate0, spread = _oscillation_seed(times, signal, f_window)
    a_cos, a_sin, *linear = _quadrature_projection(
        times, signal, freq0, rate0, decaying_baseline
    )
    theta0 = np.array(
        [math.hypot(a_cos, a_sin), rate0, freq0, math.atan2(-a_sin, a_cos), *linear]
    )

    fun = _damped_sine_residual_jacobian(times, signal)
    theta, r, J, converged, iterations, gnorm = _lm_minimize(
        fun, theta0, data_norm=float(np.linalg.norm(signal))
    )
    if not converged:
        raise FitError(
            f"{name} fit did not converge: {iterations} iterations, "
            f"gradient norm {gnorm:.3e}, residual {np.linalg.norm(r):.3e}"
        )
    theta = _canonical_damped_sine(theta)
    r, J = fun(theta)
    fall = theta[1] * float(np.min(np.diff(times)))
    if fall > 1.0:
        raise FitError(
            f"{name} fit is degenerate: its envelope falls by a factor e^{fall:.3g} "
            f"per sample step (decay rate {theta[1]:.3e}/us)"
        )
    rank = np.linalg.matrix_rank(J.T @ J)
    if rank < J.shape[1]:
        raise FitError(f"{name} fit is degenerate: its Jacobian has rank {rank} of {J.shape[1]}")
    return theta, r, J, iterations, gnorm, spread


def fit_damped_sine(trace: RamseyTrace) -> tuple[float, float, FitReport]:
    """Fit ``A exp(-g t) cos(2 pi f t + phi) + B`` to a Ramsey trace.

    Returns ``(freq_shift, decay_rate, report)`` where ``freq_shift`` is
    the fitted fringe frequency minus the deliberate offset (MHz) and
    ``decay_rate`` the envelope decay in 1/us.  The fitted frequency is
    taken ``>= 0``, so a zero offset reports ``|shift|``.

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
    theta, r, J, iterations, gnorm, _ = _fit_damped_oscillation(times, signal, "damped-sine")
    report = _report(_DAMPED_SINE_NAMES, theta, r, J, True, iterations, gnorm)
    freq_shift = report.parameters["frequency"] - trace.offset_freq
    return freq_shift, report.parameters["decay_rate"], report


# ---------------------------------------------------------------------------
# single exponential (fixed- and variable-delay decay data)

_EXP_NAMES = ("amplitude", "decay_rate")


def _exponential_amplitude(times, signal, rate) -> tuple[float, np.ndarray]:
    """Least-squares amplitude ``<signal, e> / <e, e>`` of ``A e`` at a
    fixed rate, and the envelope ``e = exp(-rate t)``."""
    envelope = np.exp(-rate * times)
    return (signal @ envelope) / (envelope @ envelope), envelope


def _exponential_projected_residual_jacobian(times, signal):
    """``(r, J)`` of ``A e^{-g t}`` at ``theta = (g,)``, with ``A`` the
    least-squares amplitude at ``g``.  ``J`` is the exact derivative of
    ``A(g) e^{-g t}``, whose ``dA/dg`` follows from differentiating
    :func:`_exponential_amplitude`."""

    def fun(theta):
        (rate,) = theta
        # a wild trial rate underflows <e, e> to 0; its non-finite cost rejects it
        with np.errstate(divide="ignore", invalid="ignore"):
            amp, envelope = _exponential_amplitude(times, signal, rate)
            slope = times * envelope
            d_amp = (2.0 * amp * (envelope @ slope) - signal @ slope) / (envelope @ envelope)
            return amp * envelope - signal, (d_amp * envelope - amp * slope)[:, np.newaxis]

    return fun


def _exponential_seed(times, signal) -> float:
    """Rate seed for ``A exp(-g t)``: the slope of a log-linear regression
    over the positive samples, or no decay with fewer than two of them."""
    positive = signal > 0
    if positive.sum() < 2:
        return 0.0
    return -np.polyfit(times[positive], np.log(signal[positive]), 1)[0]


def _exponential_fit(times, signal) -> tuple[FitReport, np.ndarray]:
    """Fit ``A exp(-g t)`` by variable projection; returns ``(report, r)``.

    The descent runs on ``g`` alone (see the module docstring) and a
    converged one ends with one Gauss-Newton step.  The report is that
    of both parameters at the result, with the residual ``r`` and the
    gradient norm of ``(A, g)``; ``converged`` is the descent's verdict.
    A rate of zero is reported as ``+0.0``.
    """
    (rate,), r, J, converged, iterations, _ = _lm_minimize(
        _exponential_projected_residual_jacobian(times, signal),
        [_exponential_seed(times, signal)],
        data_norm=float(np.linalg.norm(signal)),
    )
    if converged:
        # the descent stops once the gradient is below a tolerance, which
        # can leave the rate off in its 11th digit; one Gauss-Newton step
        # from there brings it to the optimum; a zero column, from a
        # signal that is zero throughout, takes none
        rate -= (J[:, 0] @ r) / ((J[:, 0] @ J[:, 0]) or 1.0)
    amp, envelope = _exponential_amplitude(times, signal, rate)
    r = amp * envelope - signal
    J = np.column_stack([envelope, -times * amp * envelope])
    gnorm = float(np.max(np.abs(J.T @ r)))
    return _report(_EXP_NAMES, (amp, rate + 0.0), r, J, converged, iterations, gnorm), r


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
    theta, r, J, iterations, gnorm, spread = _fit_damped_oscillation(
        times, populations, "vacuum-Rabi", window, decaying_baseline=True
    )
    amp, rate, freq, phase, base, env_off = theta
    if amp < 0.02 * spread:
        raise FitError(
            f"no resolvable oscillation: fitted amplitude {amp:.3e} "
            f"vs signal range {spread:.3e}"
        )
    # the (a, b) columns by the chain rule through A = hypot(a, b), phi = atan2(-b, a)
    cos_p, sin_p = math.cos(phase), math.sin(phase)
    J_a = cos_p * J[:, 0] - (sin_p / amp) * J[:, 3]
    J_b = -sin_p * J[:, 0] - (cos_p / amp) * J[:, 3]
    J = np.column_stack([J_a, J_b, J[:, [5, 4, 1, 2]]])
    theta = (amp * cos_p, -amp * sin_p, env_off, base, rate, freq)
    report = _report(_CHEVRON_NAMES, theta, r, J, True, iterations, gnorm)
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
    if np.linalg.matrix_rank(design) < len(powers):
        raise FitError("rank-deficient design: amplitudes do not separate the terms")
    # + 0.0: a zero response gives coefficients -0.0, which would be written so
    coef = np.linalg.lstsq(design, response, rcond=None)[0] + 0.0
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
