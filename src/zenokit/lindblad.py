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
is built once per trajectory and raised to the sample stride, giving
``M``; the powers ``M^1..M^b``, with ``b`` the integer square root of
the number of full strides, are stacked so that each block of ``b``
stored samples is one matrix-vector product from the block's first
sample.  The step rule, and with it the fourth-order error, is that of
the per-step loop; only the rounding differs.

Trace and Hermiticity are conserved by the equation itself; the
integrator checks them (plus positivity and finite entries) on every
stored sample, in one batched pass with the tolerances of
:func:`check_density_matrix`, and refuses to return when they drift,
since that always means the step size is too large.  Positivity is
certified by a Cholesky factorization with a margin above the
eigenvalue tolerance; only a block it cannot certify pays for
eigenvalues.
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, bit-equal to it at a fraction of its cost."""
    (m, n), (p, q) = a.shape, b.shape
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(m * p, n * q)


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
        return _kron(op, np.eye(2, dtype=complex))

    def hamiltonian(self) -> np.ndarray:
        """Rotating-frame Hamiltonian: detuning term plus exchange coupling."""
        detuning = self.qubit_freq - self.frame_freq
        H = 0.5 * detuning * self._qubit_op(_SIGMA_Z)
        if self.defect is not None:
            swap = _kron(_SIGMA_MINUS.conj().T, _SIGMA_MINUS)
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
            jumps.append((self.defect.decay, _kron(np.eye(2, dtype=complex), _SIGMA_MINUS)))
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
        S = -1j * (_kron(H, eye) - _kron(eye, H.T))
        for rate, L in self.jump_operators():
            LdL = L.conj().T @ L
            S += rate * (
                _kron(L, L.conj())
                - 0.5 * (_kron(LdL, eye) + _kron(eye, LdL.T))
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
    """Enforce finite entries and the Hermiticity, unit trace, and
    positivity tolerances."""
    found = _first_violation(rho[np.newaxis])
    if found:
        raise StabilityError(f"{context}: {found[1]}")


def _first_violation(rho: np.ndarray) -> tuple[int, str] | None:
    """Index of the first matrix of the stack ``rho`` that breaks a
    tolerance, and what it breaks; the checks run in the order finite
    entries, Hermiticity, trace, positivity.  ``None`` when all pass.

    Positivity is certified for the whole stack by one batched Cholesky
    factorization of ``herm - (EIGENVALUE_TOL + 1e-12) I``, ``herm`` the
    Hermitian part.  Its backward error, about ``(n + 1) eps ||rho||``
    (2e-15 for a state of these dimensions), is far below the 1e-12
    margin, so a factorization that
    succeeds proves every smallest eigenvalue above the tolerance by
    more than ``eigvalsh``'s own rounding.  Only a stack it cannot
    certify pays for ``eigvalsh``, whose verdict and message then stand,
    so the outcome is exactly that of ``eigvalsh`` alone.
    """
    finite = np.isfinite(rho).all(axis=(1, 2))
    # non-finite matrices become zero so that the checks below stay finite
    checked = np.where(finite[:, np.newaxis, np.newaxis], rho, 0.0)
    rho_h = checked.conj().transpose(0, 2, 1)
    herm = np.max(np.abs(checked - rho_h), axis=(1, 2))
    trace_err = np.abs(np.einsum("tii->t", checked).real - 1.0)
    hermitian = 0.5 * (checked + rho_h)
    margin = EIGENVALUE_TOL + 1e-12
    try:
        np.linalg.cholesky(hermitian - margin * np.eye(rho.shape[-1]))
    except np.linalg.LinAlgError:
        eigmin = np.linalg.eigvalsh(hermitian)[:, 0]
    else:
        eigmin = np.full(len(rho), np.inf)  # certified above the tolerance
    bad = np.flatnonzero(
        ~finite
        | (herm > HERMITICITY_TOL)
        | (trace_err > TRACE_TOL)
        | (eigmin < EIGENVALUE_TOL)
    )
    if not bad.size:
        return None
    i = int(bad[0])
    if not finite[i]:
        j, k = np.argwhere(~np.isfinite(rho[i]))[0]
        return i, f"non-finite entry ({j}, {k}): {rho[i, j, k]}"
    if herm[i] > HERMITICITY_TOL:
        return i, f"Hermiticity error {herm[i]:.2e} > {HERMITICITY_TOL}"
    if trace_err[i] > TRACE_TOL:
        return i, f"trace error {trace_err[i]:.2e} > {TRACE_TOL}"
    return i, f"eigenvalue {eigmin[i]:.2e} < {EIGENVALUE_TOL}"


def evolve(
    model: LindbladModel,
    rho0: np.ndarray | None = None,
    t_final: float = 1.0,
    dt: float | None = None,
    sample_stride: int | None = None,
) -> Trajectory:
    """Fixed-step RK4 integration up to ``t_final`` (us).

    The RK4 step is applied as a precomputed matrix ``M``, its
    ``sample_stride``-th power.  With ``b`` the integer square root of
    the number of full strides, the stacked powers ``M^1..M^b`` advance
    the first sample of each block of ``b`` to all of the block's
    samples in one product.  The last sample, when ``sample_stride``
    does not divide the step count, comes from the matching smaller
    power of the step.  Every stored sample is then checked for finite
    entries and against the trace, Hermiticity and positivity
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
    DomainError
        When ``rho0`` has a non-finite entry or is not a density matrix.
    StabilityError
        When a stored sample has a non-finite entry or violates the
        trace/Hermiticity/positivity tolerances; the message names the
        first such sample and advises a smaller ``dt``.
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
        # the powers M^1..M^b of the stride matrix M, by doubling, advance
        # one block's first sample to its next b samples in one product
        b = math.isqrt(n_full)
        powers = np.linalg.matrix_power(step, sample_stride)[np.newaxis]
        while len(powers) < b:
            powers = np.concatenate((powers, powers @ powers[-1]))
        block = powers[:b].reshape(b * d * d, d * d)
        for k in range(0, n_full, b):
            m = min(b, n_full - k)
            flat[k + 1 : k + 1 + m] = (block[: m * d * d] @ flat[k]).reshape(m, d * d)
    if rest:
        np.matmul(np.linalg.matrix_power(step, rest), flat[n_full], out=flat[-1])
    states = flat.reshape(-1, d, d)
    for start in range(1, times.size, _CHECK_BLOCK):
        found = _first_violation(states[start : start + _CHECK_BLOCK])
        if found:
            i, problem = found
            t = times[start + i]
            raise StabilityError(f"t={t:.6g} us: {problem}; reduce dt below {dt:.3e}")
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
