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

The core is batched: it fits every trace of a set that shares one time
grid in one pass (:func:`fit_damped_sines`, :func:`fit_exponentials`),
with each array carrying a leading row axis.  The basis, the Gram
solves, the Jacobian, the damped normal equations and the SVD are
evaluated on stacks, one BLAS or LAPACK call per row; each row keeps its
own damping, step acceptance, convergence test and iteration count; a
row that finishes stays in the stack, frozen, until the last one does;
and no operation reduces across rows.  So a row's result is bit for bit
that of fitting its trace alone, and a row that fails yields its own
FitError without touching the others.  The single-trace fits are
batches of one.

Units follow the traces: times in us, ordinary frequencies in MHz
(cycles/us), decay rates in 1/us.  The quadratic/quartic calibration
fits are unit-agnostic; they return coefficients in whatever units the
input response carries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, FitError

TWO_PI = 2.0 * math.pi

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
EPS = np.finfo(float).eps


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
        if not np.isfinite(array).all():
            raise DomainError(f"{name} must be finite")
    if not (np.diff(times) > 0).all():
        raise DomainError("times must be strictly increasing")
    return times, signal


@dataclass(frozen=True)
class Trace:
    """A sampled record: signal vs time, as :func:`fit_exponentials` takes it.

    The samples must pass :func:`_samples` with at least ``MIN_SAMPLES``
    of them; read-only copies are stored, and the caller's arrays are
    left writeable.
    """

    times: np.ndarray
    signal: np.ndarray

    MIN_SAMPLES: ClassVar[int] = 2

    def __post_init__(self):
        for name, array in zip(
            ("times", "signal"), _samples(self.times, self.signal, self.MIN_SAMPLES)
        ):
            array = array.copy()
            array.setflags(write=False)
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class RamseyTrace(Trace):
    """A Ramsey fringe record: signal vs free-evolution time.

    ``offset_freq`` is the deliberate fringe offset in MHz that separates
    the frequency-shift and decay time scales; it must be >= 0, because
    the fitted fringe frequency is.  The samples must pass
    :func:`_samples` with at least 8 of them, and with a nonzero offset
    span at least 1.5 of its periods; else DomainError.
    """

    offset_freq: float

    MIN_SAMPLES: ClassVar[int] = 8

    def __post_init__(self):
        if not self.offset_freq >= 0:
            raise DomainError(f"offset_freq must be >= 0 MHz, got {self.offset_freq}")
        super().__post_init__()
        span_periods = (self.times[-1] - self.times[0]) * self.offset_freq
        if self.offset_freq > 0 and span_periods < 1.5:
            raise DomainError(f"trace spans {span_periods:.2f} expected periods, need >= 1.5")


def _by_grid(traces, fit) -> list:
    """``fit(times, signals, group)`` once per group of ``traces`` whose
    times are bit-identical, ``signals`` stacking the group's signals;
    returns the per-trace results in the order of ``traces``."""
    groups: dict[bytes, list[int]] = {}
    for i, trace in enumerate(traces):
        groups.setdefault(trace.times.tobytes(), []).append(i)
    results = [None] * len(traces)
    for rows in groups.values():
        group = [traces[i] for i in rows]
        signals = np.array([trace.signal for trace in group])
        for i, result in zip(rows, fit(group[0].times, signals, group)):
            results[i] = result
    return results


def _one(result):
    """A batch of one's result, or its FitError raised."""
    if isinstance(result, FitError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core: arrays carry a leading row axis


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
    floor = 0.5 * math.sqrt(EPS * max(cost, 0.0) * curvature)
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
    return 0.5 * math.sqrt(EPS * r_norm * (r_norm + data_norm) * curvature)


def _row_solves(op, *stacks):
    """``(op(*stacks), failed)``: ``op`` is ``np.linalg.inv`` or
    ``np.linalg.solve`` on stacks of matrices.  A stack with a singular
    row is redone row by row; that row, listed in ``failed``, gets NaN,
    and the others their own results, so it cannot fail them."""
    try:
        return op(*stacks), []
    except np.linalg.LinAlgError:
        out = np.full(stacks[-1].shape, np.nan)
        failed = []
        for i, row in enumerate(zip(*stacks)):
            try:
                out[i] = op(*row)
            except np.linalg.LinAlgError:
                failed.append(i)
        return out, failed


def _descent_state(r, J):
    """Per row at ``(r, J)``: the gradient ``J^T r`` (as column vectors),
    the normal matrix ``J^T J``, its diagonal with entries <= 0 set to 1
    (the damping scale), and, as lists of floats, the curvature ``max(1,
    max diag)`` and the gradient norm ``max |J^T r|``."""
    jt = J.swapaxes(1, 2)
    g = jt @ r[..., np.newaxis]
    normal = jt @ J
    diag = normal.diagonal(0, 1, 2).copy()
    diag[diag <= 0] = 1.0
    curvature = [max(1.0, *row) for row in diag.tolist()]
    return g, normal, diag, curvature, np.abs(g[..., 0]).max(axis=1).tolist()


def _lm_descent(residual_jacobian, theta0, data_norms):
    """Damped Gauss-Newton descent on ``0.5 * ||r_b(theta_b)||^2`` for
    each row ``b`` of ``theta0``.

    ``residual_jacobian(theta) -> (r, J)`` evaluates every row at
    ``theta``, one row of parameters each, with analytic ``J``; ``r`` is
    model minus data and ``data_norms`` the data's 2-norms.  Each round
    solves the damped normal equations and evaluates one trial step for
    the whole stack; then each row still descending, in Python floats,
    keeps its own damping, step acceptance and iteration count, and its
    own convergence test: the gradient norm fell below
    :func:`_gradient_tolerance`, or, once no step lowers the cost or the
    last one moved ``theta`` by less than ``STEP_TOL`` relative, below
    :func:`_stall_tolerance`.  A finished row stays in the stack, frozen:
    its trial steps are never accepted, so it keeps its ``theta``, ``r``
    and ``J``.  Returns ``(theta, r, J, converged, iterations,
    gradient_norm)``: the first three stacked, the others lists with one
    entry per row.
    """
    theta = np.array(theta0, dtype=float)
    r, J = residual_jacobian(theta)
    cost = (0.5 * np.vecdot(r, r)).tolist()
    g, normal, diag, curvature, gnorm = _descent_state(r, J)
    eye = np.eye(theta.shape[1])
    lam = [1e-3] * len(theta)
    iterations = [1] * len(theta)
    # per row: None while it descends, else whether it converged
    ends = [
        True if gn <= _gradient_tolerance(c, cv) else None
        for gn, c, cv in zip(gnorm, cost, curvature)
    ]
    while None in ends:
        damping = (np.array(lam)[:, np.newaxis] * diag)[..., np.newaxis] * eye
        delta = _row_solves(np.linalg.solve, normal + damping, -g)[0][..., 0]
        trial = theta + delta
        # a wild trial step may overflow, and inf - inf is nan; its NaN cost,
        # like that of a singular damped matrix's NaN step, is not lower
        with np.errstate(over="ignore", invalid="ignore"):
            r_new, J_new = residual_jacobian(trial)
            cost_new = (0.5 * np.vecdot(r_new, r_new)).tolist()
        better = [end is None and new < old for end, new, old in zip(ends, cost_new, cost)]
        if any(better):
            steps = [math.hypot(*row) for row in delta.tolist()]
            norms = [math.hypot(*row) for row in trial.tolist()]
            if all(better):
                theta, r, J, cost = trial, r_new, J_new, cost_new
            else:
                mask = np.array(better)
                theta = np.where(mask[:, np.newaxis], trial, theta)
                r = np.where(mask[:, np.newaxis], r_new, r)
                J = np.where(mask[:, np.newaxis, np.newaxis], J_new, J)
                cost = [new if ok else old for ok, new, old in zip(better, cost_new, cost)]
            g, normal, diag, curvature, gnorm = _descent_state(r, J)
        for i, ok in enumerate(better):
            if ends[i] is not None:
                continue
            if ok:
                lam[i] = max(lam[i] / 3.0, 1e-12)
                # a step that barely moved theta
                stalled = steps[i] <= STEP_TOL * (STEP_TOL + norms[i])
            else:
                lam[i] *= 10.0
                # no damping finds a lower cost
                stalled = lam[i] > 1e12
            if stalled:
                tolerance = max(
                    _gradient_tolerance(cost[i], curvature[i]),
                    _stall_tolerance(math.sqrt(2.0 * cost[i]), data_norms[i], curvature[i]),
                )
                ends[i] = gnorm[i] <= tolerance
            elif ok and iterations[i] == MAX_ITERATIONS:
                ends[i] = False
            elif ok:
                iterations[i] += 1
                ends[i] = True if gnorm[i] <= _gradient_tolerance(cost[i], curvature[i]) else None
    return theta, r, J, ends, iterations, gnorm


def _lm_minimize(residual_jacobian, theta0, data_norm):
    """:func:`_lm_descent` on a batch of one: the adapter the single-trace
    fits descend through.  ``residual_jacobian(theta)`` is as there, on a
    stack of one row; ``theta0`` is that row of parameters and
    ``data_norm`` its data's 2-norm.  Returns the row's ``(theta, r, J,
    converged, iterations, gradient_norm)``, the last three as Python
    scalars."""
    theta, r, J, converged, iterations, gnorm = _lm_descent(
        residual_jacobian, np.asarray(theta0, dtype=float)[np.newaxis], [data_norm]
    )
    return theta[0], r[0], J[0], converged[0], iterations[0], gnorm[0]


def _rank_and_sigma(r: np.ndarray, J: np.ndarray) -> tuple:
    """Rank of ``J`` and the 1-sigma parameter errors, from one SVD of ``J``.

    ``J = U diag(s) V^T``; singular values at or below ``max(n, p) * eps
    * s[0]`` (``lstsq``'s cutoff) count as zero, and the covariance is
    ``var * V diag(s^-2) V^T`` over the rest, ``var = ||r||^2 / (n - p)``
    (errors 0 when ``n <= p``).  Working on ``J`` rather than ``J^T J``
    keeps the condition number unsquared.  ``r`` and ``J`` may be stacks
    with leading row axes, and so are the results.
    """
    n, p = J.shape[-2:]
    _, s, vt = np.linalg.svd(J, full_matrices=False)
    kept = s > max(n, p) * EPS * s[..., :1]
    rank = kept.sum(axis=-1)
    if n <= p:
        return rank, np.zeros(J.shape[:-2] + (p,))
    # a dropped singular value divides by infinity, to zero
    scaled = vt / np.where(kept, s, np.inf)[..., np.newaxis]
    variance = np.vecdot(r, r)[..., np.newaxis] / (n - p)
    return rank, np.sqrt(variance * (scaled * scaled).sum(axis=-2))


def _reports(names, thetas, r, J, converged, iterations) -> tuple[list[int], list[FitReport]]:
    """Each row's Jacobian rank and :class:`FitReport`, from one stacked
    SVD (:func:`_rank_and_sigma`); ``thetas`` are the reported parameters
    per row, as floats, and ``J`` their Jacobians."""
    ranks, sigma = _rank_and_sigma(r, J)
    residual_norms = np.sqrt(np.vecdot(r, r)).tolist()
    gradient_norms = np.abs(J.swapaxes(1, 2) @ r[..., np.newaxis])[..., 0].max(axis=1).tolist()
    return ranks.tolist(), [
        FitReport(
            parameters=dict(zip(names, theta)),
            uncertainties=dict(zip(names, sig)),
            residual_norm=residual_norm,
            converged=ok,
            iterations=count,
            gradient_norm=gradient_norm,
        )
        for theta, sig, residual_norm, ok, count, gradient_norm in zip(
            thetas, sigma.tolist(), residual_norms, converged, iterations, gradient_norms
        )
    ]


# ---------------------------------------------------------------------------
# deterministic seeding helpers, per row of a trace set on one grid


def _spectrum_peaks(times, signals, f_window=None):
    """Dominant non-DC frequency of each row of a (near-)uniform trace
    set, in MHz.

    Resamples to a uniform grid, applies a Hann window against leakage,
    and refines the peak bin parabolically on the log magnitude.
    Returns ``[(freq, peak_height)]``, ``(0.0, 0.0)`` for a row with no
    peak.
    """
    n = len(times)
    uniform_t = np.linspace(times[0], times[-1], n)
    z = np.array([np.interp(uniform_t, times, values) for values in signals])
    z = z - z.mean(axis=1, keepdims=True)
    all_mags = np.abs(np.fft.rfft(z * np.hanning(n), axis=1))
    dfreq = 1.0 / (uniform_t[-1] - uniform_t[0] + (uniform_t[1] - uniform_t[0]))
    freqs = np.arange(all_mags.shape[1]) * dfreq
    outside = None if f_window is None else (freqs < f_window[0]) | (freqs > f_window[1])
    peaks = []
    for mags in all_mags:
        search = mags.copy()
        search[0] = 0.0
        if outside is not None and np.any(search[~outside] > 0):
            search[outside] = 0.0
        k = int(np.argmax(search))
        if k == 0 or search[k] == 0.0:
            peaks.append((0.0, 0.0))
            continue
        shift = 0.0
        if 1 <= k < mags.size - 1 and mags[k - 1] > 0 and mags[k + 1] > 0:
            la, lb, lc = np.log(mags[k - 1 : k + 2])
            denom = la - 2.0 * lb + lc
            if denom < 0:
                shift = min(max(float(0.5 * (la - lc) / denom), -0.5), 0.5)
        peaks.append((float((k + shift) * dfreq), float(mags[k])))
    return peaks


def _oscillation_seeds(times, signals, f_window=None) -> list:
    """Per row, the frequency and decay seeds of a damped oscillation and
    the signal's range, or the FitError of a constant signal or one that
    does not oscillate."""
    spreads = np.ptp(signals, axis=1)
    means = signals.mean(axis=1)
    dt = float(np.median(np.diff(times)))
    seeds = []
    for values, spread, mean, (freq, peak) in zip(
        signals, spreads, means, _spectrum_peaks(times, signals, f_window)
    ):
        if spread <= 1e-14 * (1.0 + abs(float(mean))):
            seeds.append(FitError("constant signal: nothing to fit"))
        elif peak == 0.0:
            seeds.append(FitError("no oscillating component found in the trace"))
        else:
            seeds.append((freq, _log_envelope_rate(times, values - mean, freq, dt), float(spread)))
    return seeds


def _line_slope(x, y):
    """Slope of the least-squares line through ``(x, y)``, computed as
    ``np.polyfit(x, y, 1)`` computes it (column-scaled Vandermonde
    matrix, ``lstsq`` at its cutoff), without its argument handling."""
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    return np.linalg.lstsq(lhs, y, rcond=len(x) * EPS)[0][0] / scale[0]


def _log_envelope_rate(times, z, freq, dt):
    """Decay-rate seed from a linear fit to the log demodulated envelope
    of the zero-mean signal ``z`` sampled at steps of about ``dt``."""
    rot = z * np.exp(-1j * TWO_PI * freq * times)
    # one fringe period, but no wider than the trace: a wider kernel
    # makes the "same"-mode convolution longer than the trace
    win = min(max(1, int(round(1.0 / (freq * dt)))), len(times)) if freq > 0 else 1
    kernel = np.ones(win) / win
    env = 2.0 * np.abs(np.convolve(rot, kernel, mode="same"))
    top = env.max()
    if top <= 0:
        return 0.0
    mask = env > 0.05 * top
    if mask.sum() < 2:
        return 0.0
    return max(-float(_line_slope(times[mask], np.log(env[mask]))), 0.0)


# ---------------------------------------------------------------------------
# variable projection: each nonlinear model is linear in all but <= 2 parameters


def _solve_linear(phi, signals):
    """Least-squares ``coef`` of ``phi_b @ coef_b ~ signal_b`` for each
    row ``b``, as ``(rows, columns, 1)``, the inverse Gram matrices, and
    ``{row: reason}`` for the rows refused because their Gram matrix is
    not finite or singular.  A refused row gets zero ``coef`` and
    inverse, and its basis is zeroed in place, so nothing computed from
    it overflows.  Finiteness comes first: LAPACK on an overflowed basis
    can hang; the sum over the stack only gates the check per row."""
    phi_t = phi.swapaxes(1, 2)
    gram = phi_t @ phi
    refused = {}
    if not math.isfinite(gram.sum()):
        finite = np.isfinite(gram).all(axis=(1, 2))
        refused = dict.fromkeys(np.flatnonzero(~finite).tolist(), "the basis is not finite")
        gram[~finite] = np.eye(gram.shape[-1])
    inverse, failed = _row_solves(np.linalg.inv, gram)
    if failed:
        refused.update(dict.fromkeys(failed, "Singular matrix"))
    if refused:
        rows = list(refused)
        inverse[rows] = 0.0
        phi[rows] = 0.0
    return inverse @ (phi_t @ signals[..., np.newaxis]), inverse, refused


def _projected_residual_jacobian(signals, basis):
    """``fun(theta) -> (r, J)`` of the model ``phi @ coef`` on every row
    of ``signals``, ``coef`` being the least-squares solve at ``theta``.

    ``basis(theta) -> (phi, tangent)`` gives the columns, and
    ``tangent(coef, fitted)`` the model's derivatives in ``theta`` at
    fixed ``coef`` (:func:`_solve_linear`'s column vectors).  ``J = (I -
    P) tangent``, with ``P`` the projector onto the columns, is Kaufman's
    Jacobian: its ``J.T @ r`` is the exact gradient of the projected cost
    at every ``theta``.  A row that
    :func:`_solve_linear` refuses gets a NaN residual, which the descent
    rejects, and a zero Jacobian.
    """

    def fun(theta):
        phi, tangent = basis(theta)
        coef, inverse, refused = _solve_linear(phi, signals)
        fitted = (phi @ coef)[..., 0]
        T = tangent(coef, fitted)
        r = fitted - signals
        if refused:
            r[list(refused)] = np.nan
        return r, T - phi @ (inverse @ (phi.swapaxes(1, 2) @ T))

    return fun


def _separable_fit(signals, basis, theta0):
    """Fit :func:`_projected_residual_jacobian`'s model to each row of
    ``signals`` from the same row of ``theta0``.

    Returns ``(theta, coef, r, J, converged, iterations, refused)`` with
    a leading row axis, ``J`` being the full Jacobian in ``(coef, theta)``
    at the result, and ``refused`` the FitError of each row, by index,
    whose basis has no least-squares solution there.  A converged row
    ends with one Gauss-Newton step.  A batch of one descends through
    :func:`_lm_minimize`.
    """
    fun = _projected_residual_jacobian(signals, basis)
    data_norms = np.sqrt(np.vecdot(signals, signals)).tolist()
    if len(signals) == 1:
        theta, r, J, ok, count, _ = _lm_minimize(fun, theta0[0], data_norms[0])
        theta, r, J = theta[np.newaxis], r[np.newaxis], J[np.newaxis]
        converged, iterations = [ok], [count]
    else:
        theta, r, J, converged, iterations, _ = _lm_descent(fun, theta0, data_norms)
    for b, ok in enumerate(converged):
        if ok:
            theta[b] -= np.linalg.lstsq(J[b], r[b], rcond=None)[0]
    phi, tangent = basis(theta)
    coef, _, refused = _solve_linear(phi, signals)
    fitted = (phi @ coef)[..., 0]
    J = np.concatenate([phi, tangent(coef, fitted)], axis=2)
    refused = {
        b: FitError(f"fit has no least-squares solution: {reason}") for b, reason in refused.items()
    }
    return theta, coef[..., 0], fitted - signals, J, converged, iterations, refused


# ---------------------------------------------------------------------------
# damped oscillation (Ramsey fringes and the vacuum-Rabi linecut)

_DAMPED_SINE_NAMES = ("amplitude", "decay_rate", "frequency", "phase", "baseline")


def _damped_sine_basis(times, decaying_baseline=False):
    """``basis(theta)`` of the damped oscillation at rows ``theta = (g,
    f)``: columns ``(e cos, e sin[, e], 1)``, tangent ``(-t (fitted - B),
    2 pi t (b e cos - a e sin))``."""
    two_pi_t = TWO_PI * times
    minus_t = -times
    width = 4 if decaying_baseline else 3

    def basis(theta):
        envelope = np.exp(theta[:, :1] * minus_t)
        arg = two_pi_t * theta[:, 1:]
        # column-major, so zeroing a refused row's basis zeroes e_cos and e_sin
        columns = np.empty((width, len(theta), times.size))
        e_cos = np.multiply(envelope, np.cos(arg), out=columns[0])
        e_sin = np.multiply(envelope, np.sin(arg), out=columns[1])
        if decaying_baseline:
            columns[2] = envelope
        columns[-1] = 1.0

        def tangent(coef, fitted):
            a, b, base = coef[:, 0], coef[:, 1], coef[:, -1]
            rows = np.empty((2, len(coef), times.size))
            np.multiply(minus_t, fitted - base, out=rows[0])
            np.multiply(two_pi_t, b * e_cos - a * e_sin, out=rows[1])
            return rows.transpose(1, 2, 0)

        return columns.transpose(1, 2, 0), tangent

    return basis


def _oscillation_error(name, step, theta, coef, r, J, converged, iterations):
    """The FitError refusing one row of :func:`_fit_damped_oscillations`,
    or None; a row with ``f < 0`` is flipped in place first."""
    if not converged:
        return FitError(
            f"{name} fit did not converge: {iterations} iterations, "
            f"gradient norm {np.max(np.abs(J.T @ r)):.3e}, residual {np.linalg.norm(r):.3e}"
        )
    if theta[1] < 0:
        theta[1], coef[1] = -theta[1], -coef[1]
        J[:, [1, -1]] *= -1.0
    rate, freq = theta.tolist()
    if rate * step > 1.0:
        return FitError(
            f"{name} fit is degenerate: its envelope falls by a factor e^{rate * step:.3g} "
            f"per sample step (decay rate {rate:.3e}/us)"
        )
    if freq > 0.5 / step:
        return FitError(
            f"{name} fit is degenerate: its frequency {freq:.6g} MHz is above the "
            f"{0.5 / step:.6g} MHz Nyquist frequency of the sample step"
        )
    return None


def _fit_damped_oscillations(times, signals, name, f_window=None, decaying_baseline=False):
    """Seed and fit :func:`_damped_sine_basis`'s model to each row of
    ``signals``.

    Returns ``(rows, fits, errors)``: the rows that pass, their stacked
    ``(theta, coef, r, J, iterations, signal range)``, and the FitError
    naming ``name`` that refuses each other row, by index.  The model is
    unchanged under ``(b, f) -> (-b, -f)``; the result has ``f >= 0``.  A
    fit is refused as degenerate when its envelope falls by more than a
    factor e over the smallest sample step (the fringe is seen by one
    sample), or when its frequency is above that step's Nyquist frequency
    (the fringe is an alias).  The caller refuses a reported Jacobian
    that loses rank at the cutoff of :func:`_rank_and_sigma`
    (:func:`_reports`); in the first and last cases some reported
    uncertainty would be zero.
    """
    seeds = _oscillation_seeds(times, signals, f_window)
    errors = {b: seed for b, seed in enumerate(seeds) if isinstance(seed, FitError)}
    rows = [b for b in range(len(seeds)) if b not in errors]
    if not rows:
        return rows, None, errors
    theta, coef, r, J, converged, iterations, refused = _separable_fit(
        signals[rows],
        _damped_sine_basis(times, decaying_baseline),
        np.array([(seeds[b][1], seeds[b][0]) for b in rows]),
    )
    step = float(np.min(np.diff(times)))
    for i, b in enumerate(rows):
        error = refused.get(i) or _oscillation_error(
            name, step, theta[i], coef[i], r[i], J[i], converged[i], iterations[i]
        )
        if error:
            errors[b] = error
    kept = [i for i, b in enumerate(rows) if b not in errors]
    fits = (theta, coef, r, J, iterations, [seeds[b][2] for b in rows])
    if len(kept) < len(rows):
        fits = tuple(x[kept] if isinstance(x, np.ndarray) else [x[i] for i in kept] for x in fits)
    return [rows[i] for i in kept], fits, errors


def _damped_sine_fits(times, signals, traces) -> list:
    """:func:`fit_damped_sine` on each of ``traces``, which share the grid
    ``times`` and whose signals ``signals`` stacks."""
    rows, fits, errors = _fit_damped_oscillations(times, signals, "damped-sine")
    results = [errors.get(b) for b in range(len(signals))]
    if not rows:
        return results
    theta, coef, r, J, iterations, _ = fits
    thetas = [
        (math.hypot(x, y), rate, freq, math.atan2(-y, x), base)
        for (rate, freq), (x, y, base) in zip(theta.tolist(), coef.tolist())
    ]
    a, b = coef[:, :1], coef[:, 1:2]
    amp = np.array([[A] for A, *_ in thetas])
    # (A, phi) are singular at A = 0: such a row keeps its (a, b) columns,
    # whose rank refuses it
    zero = amp == 0
    if zero.any():
        a, b, amp = np.where(zero, 1.0, a), np.where(zero, 0.0, b), np.where(zero, 1.0, amp)
    # the (A, phi) columns by the chain rule through a = A cos(phi), b = -A sin(phi)
    columns = J[..., 0], J[..., 1], J[..., 2], J[..., 3], J[..., 4]
    J = np.stack(
        [(a * columns[0] + b * columns[1]) / amp, columns[3], columns[4],
         b * columns[0] - a * columns[1], columns[2]],
        axis=-1,
    )
    ranks, reports = _reports(_DAMPED_SINE_NAMES, thetas, r, J, [True] * len(rows), iterations)
    for row, rank, report, (_, rate, freq, *_) in zip(rows, ranks, reports, thetas):
        if rank < J.shape[-1]:
            results[row] = FitError(
                f"damped-sine fit is degenerate: its Jacobian has rank {rank} of {J.shape[-1]}"
            )
        else:
            results[row] = (freq - traces[row].offset_freq, rate, report)
    return results


def fit_damped_sines(traces) -> list:
    """:func:`fit_damped_sine` on every one of ``traces``, fitting the
    traces whose times are bit-identical in one batch.

    Returns per trace, in order, its ``(freq_shift, decay_rate,
    report)`` or the FitError that refuses it; each is bit for bit what
    :func:`fit_damped_sine` gives on that trace alone.
    """
    return _by_grid(traces, _damped_sine_fits)


def fit_damped_sine(trace: RamseyTrace) -> tuple[float, float, FitReport]:
    """Fit ``A exp(-g t) cos(2 pi f t + phi) + B`` to a Ramsey trace.

    Returns ``(freq_shift, decay_rate, report)`` where ``freq_shift`` is
    the fitted fringe frequency minus the deliberate offset (MHz) and
    ``decay_rate`` the envelope decay in 1/us.  The fitted frequency is
    taken ``>= 0``, so a zero offset reports ``|shift|``.  The fit's
    ``a = A cos(phi)``, ``b = -A sin(phi)`` are reported as ``(A, phi)``.

    Raises
    ------
    FitError
        Constant signal, no convergence within the iteration budget, or
        a degenerate fit (see :func:`_fit_damped_oscillations`), or a
        reported Jacobian that loses rank.
    """
    return _one(fit_damped_sines([trace])[0])


# ---------------------------------------------------------------------------
# single exponential (fixed- and variable-delay decay data)

_EXP_NAMES = ("amplitude", "decay_rate")


def _exponential_basis(times):
    """``basis(theta)`` of ``A e^{-g t}`` at rows ``theta = (g,)``."""
    minus_t = -times

    def basis(theta):
        phi = np.exp(theta * minus_t)[:, :, np.newaxis]
        return phi, lambda coef, fitted: (minus_t * fitted)[:, :, np.newaxis]

    return basis


def _exponential_seed(times, signal) -> float:
    """Rate seed for ``A exp(-g t)``: the slope of a log-linear regression
    over the positive samples, or no decay with fewer than two of them."""
    positive = signal > 0
    if positive.sum() < 2:
        return 0.0
    return -_line_slope(times[positive], np.log(signal[positive]))


def _exponential_fits(times, signals) -> list:
    """Fit ``A exp(-g t)`` to each row of ``signals`` by
    :func:`_separable_fit`; returns per row ``(report, r)``, with a rate
    of zero reported as ``+0.0``, or the FitError of a row with no
    least-squares solution."""
    theta, coef, r, J, converged, iterations, refused = _separable_fit(
        signals,
        _exponential_basis(times),
        np.array([[_exponential_seed(times, signal)] for signal in signals]),
    )
    thetas = [(amp, rate + 0.0) for amp, rate in zip(coef[:, 0].tolist(), theta[:, 0].tolist())]
    _, reports = _reports(_EXP_NAMES, thetas, r, J, converged, iterations)
    return [refused.get(b, (report, r[b])) for b, report in enumerate(reports)]


def _exponential_fit(times, signal) -> tuple[FitReport, np.ndarray]:
    """:func:`_exponential_fits` on one signal; raises its FitError."""
    return _one(_exponential_fits(times, signal[np.newaxis])[0])


def _decay(result):
    """:func:`fit_exponential`'s result from one of
    :func:`_exponential_fits`', or the FitError that refuses it."""
    if isinstance(result, FitError):
        return result
    report, _ = result
    if not report.converged:
        return FitError(
            f"exponential fit did not converge: {report.iterations} iterations, "
            f"gradient norm {report.gradient_norm:.3e}"
        )
    amplitude = report.parameters["amplitude"]
    if not amplitude > 0:
        return FitError(f"exponential fit found amplitude {amplitude:.3e}, not a positive decay")
    return report.parameters["decay_rate"], report


def fit_exponentials(traces) -> list:
    """:func:`fit_exponential` on every one of ``traces`` (:class:`Trace`),
    fitting the traces whose times are bit-identical in one batch.

    Returns per trace, in order, its ``(decay_rate, report)`` or the
    FitError that refuses it; each is bit for bit what
    :func:`fit_exponential` gives on that trace alone.
    """
    return _by_grid(
        traces, lambda times, signals, _: [_decay(x) for x in _exponential_fits(times, signals)]
    )


def fit_exponential(times, signal) -> tuple[float, FitReport]:
    """Fit ``A exp(-g t)`` and return ``(g, report)``.

    :func:`fit_exponentials` on the batch of one ``Trace(times,
    signal)``, so the samples must pass :class:`Trace`; no convergence
    raises FitError, and so does a fitted amplitude <= 0, which is no
    decay (a signal of zeros has amplitude 0).
    """
    return _one(fit_exponentials([Trace(times, signal)])[0])


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
        Expected oscillation frequency in MHz, > 0 (else DomainError,
        before the samples are read).  The peak pick searches
        ``(f_guess / 2, 2 f_guess)``, and the linecut must span at least
        two periods of it.

    Returns
    -------
    (coupling, defect_decay, report)
        Coupling in rad/us, decay in 1/us.
    """
    if not f_guess > 0:
        raise DomainError(f"f_guess must be > 0 MHz, got {f_guess}")
    times, populations = _samples(times, populations, 8)
    if (times[-1] - times[0]) * f_guess < 2.0:
        raise DomainError("linecut must span >= 2 expected oscillation periods")
    window = (0.5 * f_guess, 2.0 * f_guess)
    _, fits, errors = _fit_damped_oscillations(
        times, populations[np.newaxis], "vacuum-Rabi", window, decaying_baseline=True
    )
    if errors:
        raise errors[0]
    theta, coef, r, J, iterations, (spread,) = fits
    (rank,), (report,) = _reports(
        _CHEVRON_NAMES, [coef[0].tolist() + theta[0].tolist()], r, J, [True], iterations
    )
    if rank < J.shape[-1]:
        raise FitError(
            f"vacuum-Rabi fit is degenerate: its Jacobian has rank {rank} of {J.shape[-1]}"
        )
    amp = math.hypot(coef[0, 0], coef[0, 1])
    if amp < 0.02 * spread:
        raise FitError(
            f"no resolvable oscillation: fitted amplitude {amp:.3e} "
            f"vs signal range {spread:.3e}"
        )
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
    _, (report,) = _reports(names, [coef.tolist()], r[np.newaxis], design[np.newaxis], [True], [1])
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
