"""Brute-force density-matrix oracle for the measured qubit + defect.

Integrates

    drho/dt = -i [H, rho] + (gphi/2) D[sz] rho + gq D[sm] rho + g1d D[a] rho

with fixed-step RK4 in the frame rotating at the defect frequency, so
only detunings and couplings (MHz scale) enter the integrator rather
than GHz carriers.  The defect is a two-level system: from ``|e,0>``
exchange and dephasing keep the excitation number and every jump lowers
it, so no defect level above the first is ever populated.  The readout
resonator itself never appears, only its effect on the qubit (dephasing
and Stark shift), which is exactly the regime the closed-form
predictions address.  The integrator is deliberately simple and
deterministic: for dimensions this small, correctness and bit-stable
output beat adaptive cleverness.

The Lindbladian is linear and time-invariant, so one RK4 step is a
fixed matrix ``I + A + A^2/2 + A^3/6 + A^4/24`` with ``A = dt * S``.  It
is built once per trajectory, raised to the sample stride, and each
stored sample costs one matrix-vector product; the step rule, and with
it the fourth-order error, is that of the per-step loop.

Trace and Hermiticity are conserved by the equation itself; the
integrator checks them (plus positivity) on every stored sample, in one
batched pass with the tolerances of :func:`check_density_matrix`, and
refuses to return when they drift, since that always means the step
size is too large.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kk
from .defect import DefectParams, QubitParams, generalized_purcell
from .errors import DomainError, FitError, OscillationWarning, StabilityError
from .fits import (
    FitReport,
    _exponential_residual_jacobian,
    _exponential_seed,
    _lm_minimize,
    _report,
)
from .spectrum import ParametricSpectrum

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = -1e-9

# samples per batched invariant check; bounds the temporaries' memory
_CHECK_BLOCK = 256

# fraction of the fitted envelope the residual may reach before the
# trajectory is declared non-exponential
OSCILLATION_FRACTION = 0.1

# log-spaced samples the decay-rate fit resamples the window onto
FIT_SAMPLES = 60

# relative miss of the convolution against the oracle that flags a row
FLAG_THRESHOLD = 0.1

_SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)   # ground, excited
_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class LindbladModel:
    """Qubit (optionally + lossy defect) under dephasing and decay.

    Parameters
    ----------
    qubit_freq : float
        Effective (Stark-shifted) qubit frequency, rad/us, lab frame.
    dephasing : float
        Pure dephasing rate gphi in 1/us; enters as ``gphi/2 D[sz]`` so
        coherences decay at exactly ``gphi``.
    qubit_decay : float
        Intrinsic qubit decay rate on the lowering operator.
    defect : DefectParams, optional
        Coherently coupled lossy two-level defect; omitted for a bare
        qubit.  The basis is qubit (ground, excited) times defect
        (ground, excited).
    """

    qubit_freq: float
    dephasing: float = 0.0
    qubit_decay: float = 0.0
    defect: DefectParams | None = None

    def __post_init__(self):
        if self.dephasing < 0 or self.qubit_decay < 0:
            raise DomainError("dissipation rates must be >= 0")

    @property
    def dim(self) -> int:
        return 4 if self.defect is not None else 2

    @property
    def frame_freq(self) -> float:
        """Rotating-frame frequency: the defect's, or the qubit's own."""
        return self.defect.freq if self.defect is not None else self.qubit_freq

    def _qubit_op(self, op: np.ndarray) -> np.ndarray:
        if self.defect is None:
            return op
        return np.kron(op, np.eye(2, dtype=complex))

    def hamiltonian(self) -> np.ndarray:
        """Rotating-frame Hamiltonian: detuning term plus exchange coupling."""
        detuning = self.qubit_freq - self.frame_freq
        H = 0.5 * detuning * self._qubit_op(_SIGMA_Z)
        if self.defect is not None:
            swap = np.kron(_SIGMA_MINUS.conj().T, _SIGMA_MINUS)
            H = H + self.defect.coupling * (swap + swap.conj().T)
        return H

    def jump_operators(self) -> list[tuple[float, np.ndarray]]:
        """(rate, operator) pairs; zero-rate channels are dropped."""
        jumps = []
        if self.dephasing > 0:
            jumps.append((0.5 * self.dephasing, self._qubit_op(_SIGMA_Z)))
        if self.qubit_decay > 0:
            jumps.append((self.qubit_decay, self._qubit_op(_SIGMA_MINUS)))
        if self.defect is not None and self.defect.decay > 0:
            jumps.append((self.defect.decay, np.kron(np.eye(2, dtype=complex), _SIGMA_MINUS)))
        return jumps

    def excited_projector(self) -> np.ndarray:
        return self._qubit_op(np.diag([0.0, 1.0]).astype(complex))

    def initial_excited(self) -> np.ndarray:
        """|excited, vacuum><excited, vacuum|."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[self.dim // 2, self.dim // 2] = 1.0
        return rho

    def rate_scale(self) -> float:
        """Fastest rate/frequency seen by the integrator (rad/us or 1/us)."""
        scale = max(
            abs(self.qubit_freq - self.frame_freq),
            self.dephasing,
            self.qubit_decay,
        )
        if self.defect is not None:
            scale = max(scale, 2.0 * self.defect.coupling, self.defect.decay)
        return scale

    def superoperator(self) -> np.ndarray:
        """Dense matrix acting on row-major vec(rho)."""
        d = self.dim
        eye = np.eye(d, dtype=complex)
        H = self.hamiltonian()
        S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
        for rate, L in self.jump_operators():
            LdL = L.conj().T @ L
            S += rate * (
                np.kron(L, L.conj())
                - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))
            )
        return S


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-matrix evolution."""

    model: LindbladModel
    times: np.ndarray
    states: np.ndarray  # shape (n_samples, dim, dim)

    def populations(self) -> np.ndarray:
        """Excited-state population of the qubit at each sample."""
        proj = self.model.excited_projector()
        return np.einsum("tij,ji->t", self.states, proj).real

    def trace_errors(self) -> np.ndarray:
        return np.abs(np.einsum("tii->t", self.states).real - 1.0)


def check_density_matrix(rho: np.ndarray, context: str = "density matrix") -> None:
    """Enforce Hermiticity, unit trace, and positivity tolerances."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITICITY_TOL:
        raise StabilityError(f"{context}: Hermiticity error {herm:.2e} > {HERMITICITY_TOL}")
    trace_err = abs(float(np.trace(rho).real) - 1.0)
    if trace_err > TRACE_TOL:
        raise StabilityError(f"{context}: trace error {trace_err:.2e} > {TRACE_TOL}")
    eigmin = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if eigmin < EIGENVALUE_TOL:
        raise StabilityError(f"{context}: eigenvalue {eigmin:.2e} < {EIGENVALUE_TOL}")


def _check_samples(states: np.ndarray, times: np.ndarray, dt: float) -> None:
    """:func:`check_density_matrix` on every sample after the first, batched.

    The samples are checked in blocks of ``_CHECK_BLOCK`` so the
    temporaries stay small; the first failing sample is handed to
    :func:`check_density_matrix` itself, so the error is the one it raises.
    """
    for start in range(1, len(states), _CHECK_BLOCK):
        rho = states[start : start + _CHECK_BLOCK]
        rho_h = rho.conj().transpose(0, 2, 1)
        herm = np.max(np.abs(rho - rho_h), axis=(1, 2))
        trace_err = np.abs(np.einsum("tii->t", rho).real - 1.0)
        eigmin = np.linalg.eigvalsh(0.5 * (rho + rho_h))[:, 0]
        bad = (herm > HERMITICITY_TOL) | (trace_err > TRACE_TOL) | (eigmin < EIGENVALUE_TOL)
        for i in start + np.flatnonzero(bad):
            try:
                check_density_matrix(states[i], f"t={times[i]:.6g} us")
            except StabilityError as exc:
                raise StabilityError(f"{exc}; reduce dt below {dt:.3e}") from None


def evolve(
    model: LindbladModel,
    rho0: np.ndarray | None = None,
    t_final: float = 1.0,
    dt: float | None = None,
    sample_stride: int | None = None,
) -> Trajectory:
    """Fixed-step RK4 integration up to ``t_final`` (us).

    The RK4 step is applied as a precomputed matrix: its
    ``sample_stride``-th power advances one stored sample to the next,
    and the last sample, when ``sample_stride`` does not divide the step
    count, comes from the matching smaller power.  Every stored sample
    is then checked against the trace, Hermiticity and positivity
    tolerances of :func:`check_density_matrix`.

    Parameters
    ----------
    rho0 : array, optional
        Initial state; defaults to qubit excited, defect in vacuum.
    dt : float, optional
        Step size in us; must satisfy ``dt <= 0.05 / rate_scale``.
        Defaults to ``0.01 / rate_scale``, which keeps the positivity
        undershoot well below tolerance when populations touch zero.
    sample_stride : int, optional
        Store every this-many steps; default keeps about 4000 samples.

    Raises
    ------
    StabilityError
        When a stored sample violates the trace/Hermiticity/positivity
        tolerances; the message names the first such sample and advises
        a smaller ``dt``.
    """
    if not t_final > 0:
        raise DomainError(f"t_final must be > 0, got {t_final}")
    scale = model.rate_scale()
    if dt is None:
        dt = 0.01 / scale if scale > 0 else t_final / 100.0
    if scale > 0 and dt > 0.05 / scale:
        raise DomainError(
            f"dt={dt} too coarse for rate scale {scale}/us; need dt <= {0.05 / scale:.3e}"
        )
    if rho0 is None:
        rho0 = model.initial_excited()
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (model.dim, model.dim):
        raise DomainError(f"rho0 must be {model.dim}x{model.dim}, got {rho0.shape}")
    try:
        check_density_matrix(rho0, "initial state")
    except StabilityError as exc:
        raise DomainError(str(exc)) from None

    n_steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / n_steps
    if sample_stride is None:
        sample_stride = max(1, -(-n_steps // 4000))
    if sample_stride < 1:
        raise DomainError("sample_stride must be >= 1")

    # one RK4 step of the linear, time-invariant Lindbladian is the fixed
    # matrix I + A + A^2/2 + A^3/6 + A^4/24 with A = dt * S
    d = model.dim
    A = dt * model.superoperator()
    eye = np.eye(d * d, dtype=complex)
    step = eye + A @ (eye + A @ (0.5 * eye + A @ (eye / 6.0 + A / 24.0)))

    n_full, rest = divmod(n_steps, sample_stride)
    steps = np.arange(1, n_full + 1) * sample_stride
    if rest:
        steps = np.append(steps, n_steps)
    times = np.concatenate(([0.0], steps * dt))
    flat = np.empty((times.size, d * d), dtype=complex)
    flat[0] = rho0.reshape(-1)
    if n_full:
        stride_step = np.linalg.matrix_power(step, sample_stride)
        for k in range(1, n_full + 1):
            np.matmul(stride_step, flat[k - 1], out=flat[k])
    if rest:
        np.matmul(np.linalg.matrix_power(step, rest), flat[n_full], out=flat[-1])
    states = flat.reshape(-1, d, d)
    _check_samples(states, times, dt)
    return Trajectory(model=model, times=times, states=states)


def extract_decay_rate(
    trajectory: Trajectory,
    fit_window: tuple[float, float],
) -> tuple[float, FitReport]:
    """Single-exponential decay rate of the excited population.

    The population is resampled on ``FIT_SAMPLES`` logarithmically
    spaced times inside ``fit_window`` (reliable over orders of magnitude
    of decay) and fit to ``A exp(-rate t)``.  If the residual anywhere exceeds
    ``OSCILLATION_FRACTION`` of the fitted envelope, the trajectory is
    not exponential: an :class:`OscillationWarning` is emitted and noted
    on the report; that is the signature of coherent qubit-defect
    oscillations, where a single rate stops being meaningful.

    Raises
    ------
    DomainError
        Window outside the trajectory, or population drops by less than
        1/e inside it.
    FitError
        No convergence and no detected oscillation.
    """
    t = trajectory.times
    p = trajectory.populations()
    lo, hi = fit_window
    lo = max(float(lo), float(t[1]))
    hi = float(hi)
    if not lo < hi:
        raise DomainError(f"invalid fit window [{lo}, {hi}]")
    if hi > t[-1] * (1 + 1e-12):
        raise DomainError(f"fit window ends at {hi} but trajectory stops at {t[-1]}")
    p_lo = float(np.interp(lo, t, p))
    p_hi = float(np.interp(hi, t, p))
    if p_hi > p_lo / math.e:
        raise DomainError(
            f"population only drops from {p_lo:.4g} to {p_hi:.4g} in the window; "
            "need a 1/e drop"
        )

    tt = np.geomspace(lo, hi, FIT_SAMPLES)
    pp = np.interp(tt, t, p)
    fun = _exponential_residual_jacobian(tt, pp)
    theta, r, J, converged, iterations, gnorm = _lm_minimize(
        fun, _exponential_seed(tt, pp), data_norm=float(np.linalg.norm(pp))
    )
    report = _report(("amplitude", "decay_rate"), theta, r, J, converged, iterations, gnorm)

    envelope = np.abs(theta[0]) * np.exp(-theta[1] * tt)
    floor = max(float(envelope.max()), 1e-300) * 1e-12
    ratio = float(np.max(np.abs(r) / np.maximum(envelope, floor)))
    if ratio > OSCILLATION_FRACTION:
        message = (
            f"population still oscillates inside the fit window (residual reaches "
            f"{ratio:.1%} of the envelope); a single exponential is not meaningful"
        )
        warnings.warn(OscillationWarning(message))
        report = replace(report, warnings=report.warnings + (message,))
    elif not converged:
        raise FitError(
            f"decay-rate fit did not converge: {iterations} iterations, "
            f"gradient norm {gnorm:.3e}"
        )
    return report.parameters["decay_rate"], report


@dataclass(frozen=True)
class ComparisonRow:
    """One context in the prediction-vs-oracle table (rates in 1/us)."""

    kk_rate: float
    purcell_rate: float
    oracle_rate: float
    dev_kk: float
    dev_purcell: float
    flagged: bool
    oscillating: bool


def validate_kk(
    spectrum: ParametricSpectrum,
    defect: DefectParams,
    contexts,
    qubit_decay: float = 0.0,
) -> list[ComparisonRow]:
    """Compare convolution, closed-form, and density-matrix decay rates.

    ``spectrum`` must be the single-peak parametric spectrum matching
    ``defect`` (same line) with a flat background equal to
    ``qubit_decay``, so all three routes describe the same physics.  For
    each measurement context the oracle evolves the full qubit+defect
    density matrix and fits a decay rate over a window that skips the
    initial fast transient; rows where the convolution misses the oracle
    by more than ``FLAG_THRESHOLD`` are flagged (the regime where the
    excitation coherently returns from the defect and the spectral
    picture breaks down).
    """
    if len(spectrum.peaks) != 1:
        raise DomainError("validate_kk needs a single-peak parametric spectrum")
    peak = spectrum.peaks[0]
    ref = defect.spectral_peak()
    if not (
        math.isclose(peak.center, ref.center, rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(peak.width, ref.width, rel_tol=1e-12)
        and math.isclose(peak.coupling_sq, ref.coupling_sq, rel_tol=1e-12)
    ):
        raise DomainError("spectrum peak does not match the defect parameters")
    if not math.isclose(spectrum.background, qubit_decay, rel_tol=1e-12, abs_tol=1e-15):
        raise DomainError("spectrum background must equal the intrinsic qubit decay")

    rows = []
    for ctx in contexts:
        kk_rate = kk.decay_rate(spectrum, ctx).rate
        purcell = generalized_purcell(
            QubitParams(freq=ctx.freq, decay=qubit_decay, dephasing=ctx.dephasing), defect
        )
        model = LindbladModel(
            qubit_freq=ctx.freq,
            dephasing=ctx.dephasing,
            qubit_decay=qubit_decay,
            defect=defect,
        )
        # skip the fast defect-equilibration transient, then leave enough
        # window for a 1/e drop even when the closed form overestimates
        t_start = 12.0 / (defect.decay + 2.0 * ctx.dephasing)
        slow_rate = min(purcell, defect.decay / 2.0 + qubit_decay)
        t_final = t_start + 4.5 / slow_rate
        trajectory = evolve(model, t_final=t_final)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OscillationWarning)
            oracle_rate, report = extract_decay_rate(trajectory, (t_start, t_final))
        dev_kk = abs(kk_rate - oracle_rate) / abs(oracle_rate)
        dev_purcell = abs(purcell - oracle_rate) / abs(oracle_rate)
        rows.append(
            ComparisonRow(
                kk_rate=kk_rate,
                purcell_rate=purcell,
                oracle_rate=oracle_rate,
                dev_kk=dev_kk,
                dev_purcell=dev_purcell,
                flagged=dev_kk > FLAG_THRESHOLD,
                oscillating=bool(report.warnings),
            )
        )
    return rows
