"""Independent references the benchmark checks zenokit's outputs against.

- :func:`pwl_lorentzian_rate`: the exact convolution of a piecewise-linear
  table with a unit-area Lorentzian, per segment
  ``a*dAtan/pi + s*hw*dLog/(2 pi)``, summed with ``math.fsum``.
- :func:`trapezoid_error_bound`: the error a uniform trapezoid should
  stay within on that convolution, which sets the gate's tolerance.
- :func:`purcell_rate`: the closed-form generalized Purcell rate,
  broadcast over whole grids.
- :func:`lorentzian_pair_rate`: Lorentzian (defect line) times Lorentzian
  (filter) over a finite window, by complex partial fractions.
- :func:`exact_oracle_rate`: populations from the eigendecomposition of
  the Lindblad superoperator, fitted by the package's own
  ``extract_decay_rate`` on the integrator's sampling grid, so only the
  propagation differs from the oracle under test.
- :func:`polynomial_lstsq`: the linear Stark, dephasing and flux-noise
  polynomials, refitted from the per-trace results the CLI reports.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# spectral convolution


def window_weight(center, half_width, lo, hi):
    """Weight a unit-area Lorentzian carries inside [lo, hi]."""
    return (math.atan((hi - center) / half_width) + math.atan((center - lo) / half_width)) / math.pi


def pwl_lorentzian_rate(freqs, rates, center, half_width):
    """Window-normalized convolution of a linear-interpolated table.

    Returns ``(rate, norm)`` with the window equal to the table's range.
    ``half_width == 0`` is the golden-rule limit: the interpolated value.
    """
    x = np.asarray(freqs, dtype=float)
    f = np.asarray(rates, dtype=float)
    if half_width == 0.0:
        return float(np.interp(center, x, f)), 1.0
    hw = half_width
    slope = np.diff(f) / np.diff(x)
    at_center = f[:-1] + slope * (center - x[:-1])
    u0, u1 = x[:-1] - center, x[1:] - center
    d_atan = np.arctan2((u1 - u0) * hw, hw * hw + u0 * u1)
    d_log = np.log((hw * hw + u1 * u1) / (hw * hw + u0 * u0))
    terms = np.concatenate([at_center * d_atan / math.pi, slope * hw * d_log / TWO_PI])
    raw = math.fsum(terms.tolist())
    norm = window_weight(center, hw, x[0], x[-1])
    return raw / norm, norm


def fsum_trapezoid_rate(freqs, rates, center, half_width, points):
    """Brute-force check of :func:`pwl_lorentzian_rate` on a fine grid."""
    x = np.asarray(freqs, dtype=float)
    grid = np.linspace(x[0], x[-1], points)
    density = (half_width / math.pi) / (half_width**2 + (grid - center) ** 2)
    y = np.interp(grid, x, rates) * density
    step = (grid[-1] - grid[0]) / (points - 1)
    raw = step * (math.fsum(y.tolist()) - 0.5 * (y[0] + y[-1]))
    return raw / window_weight(center, half_width, x[0], x[-1])


def trapezoid_error_bound(freqs, rates, center, half_width, points):
    """Relative error the uniform trapezoid should stay within on the table's range.

    The integrand is the linear-interpolated table times the unit-area
    Lorentzian.  Euler-Maclaurin bounds the rule's error by ``step**2/12``
    times the integrand's slope jumps: one per table node, where the
    table's slope jumps, and one at each end.  The analytic part adds
    the aliasing term ``2 exp(-2 pi half_width / step)``, which dominates
    once the step nears the half-width.
    """
    x = np.asarray(freqs, dtype=float)
    f = np.asarray(rates, dtype=float)
    step = (x[-1] - x[0]) / (points - 1)
    slope = np.diff(f) / np.diff(x)
    u = x - center
    density = (half_width / math.pi) / (half_width**2 + u**2)
    d_density = -2.0 * u * density / (half_width**2 + u**2)
    kinks = np.abs(np.diff(slope)) * density[1:-1]
    ends = (abs(slope[0] * density[0] + f[0] * d_density[0]),
            abs(slope[-1] * density[-1] + f[-1] * d_density[-1]))
    raw = step * step / 12.0 * math.fsum([*kinks.tolist(), *ends])
    rate, norm = pwl_lorentzian_rate(x, f, center, half_width)
    return raw / (rate * norm) + 2.0 * math.exp(-TWO_PI * half_width / step)


# ---------------------------------------------------------------------------
# single lossy defect


def purcell_rate(detuning, dephasing, coupling, decay, qubit_decay):
    """``gq + 2 g^2 W / (W^2 + delta^2)``, ``W = gphi + kappa/2 - gq/2``; broadcasts."""
    width = np.asarray(dephasing, dtype=float) + decay / 2.0 - qubit_decay / 2.0
    delta = np.asarray(detuning, dtype=float)
    return qubit_decay + 2.0 * coupling**2 * width / (width**2 + delta**2)


def lorentzian_pair_rate(coupling, decay, qubit_decay, detuning, dephasing, half_window):
    """Convolution rate for a flat background plus one defect line.

    The window is ``[c - half_window, c + half_window]`` around the
    filter centre ``c``, normalized by the filter weight inside it, as
    the convolution predictor does.  ``dephasing == 0`` is the
    golden-rule limit.  Coordinates are relative to the filter centre;
    the defect line sits at ``-detuning``.
    """
    a = decay / 2.0
    peak = 2.0 * coupling**2 * a
    if dephasing == 0.0:
        return qubit_decay + peak / (a * a + detuning * detuning)
    h = dephasing
    lo, hi = -half_window, half_window
    z1 = complex(-detuning, a)  # defect-line pole
    z2 = complex(0.0, h)  # filter pole
    # 1/((x-z1)(x-z1*)(x-z2)(x-z2*)) = sum_k A_k/(x-z_k) + conjugates
    a1 = 1.0 / ((z1 - z1.conjugate()) * (z1 - z2) * (z1 - z2.conjugate()))
    a2 = 1.0 / ((z2 - z2.conjugate()) * (z2 - z1) * (z2 - z1.conjugate()))

    def log_span(z):
        # Im(x - z) keeps one sign on the real axis, so the principal log is continuous
        return np.log(complex(hi, 0.0) - z) - np.log(complex(lo, 0.0) - z)

    integral = 2.0 * (a1 * log_span(z1) + a2 * log_span(z2)).real
    norm = window_weight(0.0, h, lo, hi)
    return qubit_decay + peak * (h / math.pi) * integral / norm


def lorentzian_pair_quadrature(coupling, decay, qubit_decay, detuning, dephasing, half_window,
                               points):
    """Brute-force check of :func:`lorentzian_pair_rate`."""
    a, h = decay / 2.0, dephasing
    x = np.linspace(-half_window, half_window, points)
    y = (2.0 * coupling**2 * a / (a * a + (x + detuning) ** 2)) * (h / math.pi) / (h * h + x * x)
    step = x[1] - x[0]
    raw = step * (math.fsum(y.tolist()) - 0.5 * (y[0] + y[-1]))
    return qubit_decay + raw / window_weight(0.0, h, -half_window, half_window)


# ---------------------------------------------------------------------------
# density-matrix oracle


def evolve_steps(model, t_final, dt=None):
    """RK4 step count and step size of the fixed-step integrator."""
    if dt is None:
        scale = model.rate_scale()
        dt = 0.01 / scale if scale > 0 else t_final / 100.0
    n_steps = max(1, int(math.ceil(t_final / dt)))
    return n_steps, t_final / n_steps


def evolve_sample_times(model, t_final):
    """Times at which the fixed-step integrator stores samples (default dt)."""
    n_steps, dt = evolve_steps(model, t_final)
    stride = max(1, -(-n_steps // 4000))
    steps = [s for s in range(1, n_steps + 1) if s % stride == 0 or s == n_steps]
    return np.asarray([0.0] + [s * dt for s in steps])


def exact_states(model, times):
    """rho(t) from the qubit-excited initial state, by eigendecomposition."""
    eigvals, vecs = np.linalg.eig(model.superoperator())
    coef = np.linalg.solve(vecs, model.initial_excited().reshape(-1))
    flat = vecs @ (coef[:, None] * np.exp(eigvals[:, None] * np.asarray(times)[None, :]))
    return flat.T.reshape(len(times), model.dim, model.dim)


def oracle_window(coupling, decay, qubit_decay, detuning, dephasing):
    """Fit window of the oracle cross-check: skip the transient, then 4.5 slow lifetimes."""
    t_start = 12.0 / (decay + 2.0 * dephasing)
    purcell = float(purcell_rate(detuning, dephasing, coupling, decay, qubit_decay))
    slow_rate = min(purcell, decay / 2.0 + qubit_decay)
    return t_start, t_start + 4.5 / slow_rate


def exact_oracle_rate(zk, model):
    """Oracle decay rate with exact propagation instead of RK4.

    ``model`` is a ``zenokit.LindbladModel`` with a defect.  Returns
    ``(rate, oscillating)``.
    """
    defect = model.defect
    t_start, t_final = oracle_window(
        defect.coupling, defect.decay, model.qubit_decay,
        model.qubit_freq - defect.freq, model.dephasing,
    )
    times = evolve_sample_times(model, t_final)
    trajectory = zk.Trajectory(model=model, times=times, states=exact_states(model, times))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", zk.OscillationWarning)
        rate, report = zk.extract_decay_rate(trajectory, (t_start, t_final))
    return rate, bool(report.warnings)


# ---------------------------------------------------------------------------
# calibration polynomials


def polynomial_lstsq(x, y, powers):
    design = np.column_stack([np.asarray(x, dtype=float) ** p for p in powers])
    return np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)[0]
