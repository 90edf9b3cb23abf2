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
``M``.  The samples are filled by doubling: once the first ``m`` hold
``M^0..M^(m-1)`` applied to the first sample, one product with ``M^m``
fills the next ``m``, and ``M^m`` is squared, so about ``log2`` of the
sample count products (12 for 4000 samples) make the whole trajectory.
A trajectory of more than ``MAX_STEPS`` steps is refused before it is
integrated.  The step rule, and with it the fourth-order error, is that
of the per-step loop; only the rounding differs.

Every trajectory starts from ``|e,0>``, and all of this runs on the
fixed sector ``_SECTOR``: 5 of the 16 entries of vec(rho), the
populations of ``|g,0>``, ``|g,1>``, ``|e,0>`` and the
``|e,0>``-``|g,1>`` coherence with its conjugate.  Exchange keeps the
excitation number and every jump lowers it, so no Lindbladian of the
model leads out of the sector, and the other entries stay exactly zero
under every power of the step; they are never multiplied.  A bare qubit
is the case of a defect with coupling 0.

Trace and Hermiticity are conserved by the equation itself; the
integrator checks them (plus positivity and finite entries) on every
stored sample with the tolerances of :func:`check_density_matrix`, and
refuses to return when they drift, since that always means the step
size is too large.  The check runs once over the whole trajectory, on
the sector's own columns: the sector is stored column-major, so each of
its entries of every sample is one contiguous row, and each step of the
check is one array operation over all samples.  Each sample is
``p_g0 (+) [[p_g1, c*], [c, p_e0]] (+) 0``, so the Hermiticity error and
the trace are those of the whole matrix, and positivity is certified in
closed form, by the three pivots of a Cholesky factorization with a
margin above the eigenvalue tolerance (see :func:`_sector_clears`).  A
trajectory this does not clear is decided on the whole matrices, block
by block, with eigenvalues, so verdicts and messages are those of the
whole matrices.  Each channel's dissipator is the same for every model,
so it is built once.

The decay rate is fit with the one exponential fit of :mod:`zenokit.fits`
(variable projection on the rate, closed by a Gauss-Newton step; see
that module's docstring), on log-spaced resamples of the population.

The oracle, :func:`validate_kk`, integrates nothing for a
well-conditioned context.  The fit's linear resampling reads only the two
samples of :func:`evolve`'s grid that bracket each of its times, plus
the first two and the last (:func:`_fit_sample_indices`), so only those,
about 120 of some 4000, are computed, each by exact propagation with the
eigendecomposition of the sector generator RK4 steps with
(:func:`_exact_samples`).  ``np.interp`` returns on them what it returns
on the whole grid, so the rate is still a fit to linear resampling on
the integrator's grid and moves only by RK4's truncation error.  The
exact samples pass the same sector check; a context whose eigenbasis is
ill-conditioned (``EIGENBASIS_COND_LIMIT``, as near an exceptional
point) or whose exact samples do not clear the check is integrated by
:func:`evolve` as before, which keeps its accuracy and its
:class:`StabilityError`.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import kk
from .defect import DefectParams, QubitParams, generalized_purcell
from .errors import DomainError, FitError, OscillationWarning, StabilityError, require_finite
from .fits import FitReport, _exponential_fit
from .fits import _lm_minimize  # noqa: F401  (unused here; perfbench/tracer.py wraps this name)
from .spectrum import ParametricSpectrum

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = -1e-9

# most RK4 steps a trajectory may take: each step's rounding can move the
# trace by about eps, so past TRACE_TOL / eps (4.5e6) steps rounding alone
# could fail the trace check, whatever the step size
MAX_STEPS = int(TRACE_TOL / np.finfo(float).eps)

# the entries of row-major vec(rho) that evolution from |e,0> can make
# nonzero: the populations of |g,0>, |g,1>, |e,0> and the |g,1>-|e,0>
# coherence with its conjugate; exchange keeps the excitation number and
# every jump lowers it, so no Lindbladian of the model leads out of them
_SECTOR = [0, 5, 6, 9, 10]

# samples per whole-matrix check of a trajectory that its sector does not
# clear; bounds the temporaries' memory
_CHECK_BLOCK = 1024

# fraction of the fitted envelope the residual may reach before the
# trajectory is declared non-exponential
OSCILLATION_FRACTION = 0.1

# log-spaced samples the decay-rate fit resamples the window onto
FIT_SAMPLES = 60

# largest condition number of the sector generator's eigenbasis that the
# oracle propagates exactly: the propagator's rounding grows as cond * eps,
# 2e-10 at this bound and far inside TRACE_TOL, while the contexts of
# interest read 3 to 5; at an exceptional point it diverges (3.7e10 at
# g = kappa/4 with no detuning or dephasing, where the samples missed
# expm by 1e-6), and such a basis is integrated by RK4 instead
EIGENBASIS_COND_LIMIT = 1e6

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
    """Qubit plus lossy defect under dephasing and decay.

    Parameters
    ----------
    qubit_freq : float
        Effective (Stark-shifted) qubit frequency, rad/us: an offset
        from a zero the caller picks, shared with the defect's frequency.
    defect : DefectParams
        Coherently coupled lossy two-level defect; a bare qubit is one
        with coupling 0.  The basis is qubit (ground, excited) times
        defect (ground, excited).
    dephasing : float
        Pure dephasing rate gphi in 1/us; enters as ``gphi/2 D[sz]`` so
        coherences decay at exactly ``gphi``.
    qubit_decay : float
        Intrinsic qubit decay rate on the lowering operator.
    """

    qubit_freq: float
    defect: DefectParams
    dephasing: float = 0.0
    qubit_decay: float = 0.0
    dim: ClassVar[int] = 4

    def __post_init__(self):
        require_finite(self.qubit_freq, "qubit frequency")
        if not (self.dephasing >= 0 and self.qubit_decay >= 0):
            raise DomainError("dissipation rates must be >= 0")

    def hamiltonian(self) -> np.ndarray:
        """Hamiltonian in the defect's frame: detuning term plus exchange coupling."""
        detuning = self.qubit_freq - self.defect.freq
        H = 0.5 * detuning * _kron(_SIGMA_Z, np.eye(2, dtype=complex))
        swap = _kron(_SIGMA_MINUS.conj().T, _SIGMA_MINUS)
        return H + self.defect.coupling * (swap + swap.conj().T)

    def excited_projector(self) -> np.ndarray:
        return np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)

    def initial_excited(self) -> np.ndarray:
        """|excited, vacuum><excited, vacuum|."""
        return np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)

    def rate_scale(self) -> float:
        """Fastest rate/frequency seen by the integrator (rad/us or 1/us), > 0."""
        return max(
            abs(self.qubit_freq - self.defect.freq),
            self.dephasing,
            self.qubit_decay,
            2.0 * self.defect.coupling,
            self.defect.decay,
        )

    def superoperator(self) -> np.ndarray:
        """Dense matrix acting on row-major vec(rho).

        Only the Hamiltonian and the rates depend on the model; each
        channel's dissipator comes from :func:`_dissipators`.
        """
        eye = np.eye(4, dtype=complex)
        H = self.hamiltonian()
        S = -1j * (_kron(H, eye) - _kron(eye, H.T))
        rates = (0.5 * self.dephasing, self.qubit_decay, self.defect.decay)
        for rate, dissipator in zip(rates, _dissipators()):
            if rate > 0:
                S += rate * dissipator
        return S


@functools.cache
def _dissipators() -> tuple[np.ndarray, ...]:
    """``L (x) L* - (L^H L (x) I + I (x) (L^H L)^T) / 2`` on row-major
    vec(rho) for the jump operators ``L`` of dephasing (``sz``), qubit
    decay (``sm``) and defect decay, in the qubit x defect basis; built
    once and read-only, as every model shares them."""
    eye2, eye = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    dissipators = []
    for L in (_kron(_SIGMA_Z, eye2), _kron(_SIGMA_MINUS, eye2), _kron(eye2, _SIGMA_MINUS)):
        LdL = L.conj().T @ L
        D = _kron(L, L.conj()) - 0.5 * (_kron(LdL, eye) + _kron(eye, LdL.T))
        D.setflags(write=False)
        dissipators.append(D)
    return tuple(dissipators)


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-matrix evolution."""

    model: LindbladModel
    times: np.ndarray
    states: np.ndarray  # shape (n_samples, dim, dim)

    def populations(self) -> np.ndarray:
        """Excited-state population of the qubit at each sample."""
        # the projector is diagonal, so only the diagonal's real parts enter
        proj = np.diag(self.model.excited_projector()).real
        return np.einsum("tii,i->t", self.states.real, proj)

    def trace_errors(self) -> np.ndarray:
        return np.abs(np.einsum("tii->t", self.states).real - 1.0)


def check_density_matrix(rho, context: str = "density matrix") -> None:
    """Enforce finite entries and the Hermiticity, unit trace, and
    positivity tolerances (:func:`_first_violation`) on one matrix, given
    as any array-like; raise :class:`StabilityError` naming the first
    broken one, or :class:`DomainError` naming the shape of an input that
    is not one non-empty square matrix of numbers."""
    rho = np.asarray(rho)
    square = rho.ndim == 2 and rho.shape[0] == rho.shape[1] and rho.size
    if not square or rho.dtype.kind not in "iufc":
        shape = f"shape {rho.shape} of {rho.dtype}"
        raise DomainError(f"{context}: need one non-empty square matrix of numbers, got {shape}")
    found = _first_violation(rho[np.newaxis])
    if found:
        raise StabilityError(f"{context}: {found[1]}")


def _first_violation(rho: np.ndarray) -> tuple[int, str] | None:
    """Index of the first matrix of the stack ``rho`` that breaks a
    tolerance, and what it breaks; the checks run in the order finite
    entries, Hermiticity (``max |rho - rho^H|``), trace, positivity (the
    smallest eigenvalue of the Hermitian part, by ``eigvalsh``).  ``None``
    when all pass.  Non-finite matrices are zeroed before the other
    checks, so that those stay finite.
    """
    finite = np.isfinite(rho).all(axis=(1, 2))
    checked = np.where(finite[:, np.newaxis, np.newaxis], rho, 0.0)
    rho_h = checked.conj().transpose(0, 2, 1)
    herm = np.max(np.abs(checked - rho_h), axis=(1, 2))
    trace_err = np.abs(np.einsum("tii->t", checked).real - 1.0)
    eigmin = np.linalg.eigvalsh(0.5 * (checked + rho_h))[:, 0]
    bad = ~finite | (herm > HERMITICITY_TOL) | (trace_err > TRACE_TOL) | (eigmin < EIGENVALUE_TOL)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not finite[i]:
        j, k = np.argwhere(~np.isfinite(rho[i]))[0]
        return i, f"non-finite entry ({j}, {k}): {rho[i, j, k]}"
    if herm[i] > HERMITICITY_TOL:
        return i, f"Hermiticity error {herm[i]:.2e} > {HERMITICITY_TOL}"
    if trace_err[i] > TRACE_TOL:
        return i, f"trace error {trace_err[i]:.2e} > {TRACE_TOL}"
    return i, f"eigenvalue {eigmin[i]:.2e} < {EIGENVALUE_TOL}"


def _sector_clears(columns: np.ndarray) -> bool:
    """Whether every sample passes the checks of :func:`_first_violation`,
    decided on the ``_SECTOR`` entries alone; ``False`` leaves the verdict
    to the whole matrices.

    ``columns``, shape ``(5, n)``, holds one sample per column, in the
    order of ``_SECTOR``: ``p_g0``, ``p_g1``, ``rho[g1, e0]``,
    ``rho[e0, g1]``, ``p_e0``.  Every other entry is zero, so each sample
    is ``p_g0 (+) [[p_g1, .], [., p_e0]] (+) 0``.  Its Hermiticity error,
    ``2 |Im|`` of the populations and the coherences' mismatch, is bit for
    bit the whole matrix's ``max |rho - rho^H|``, and its trace is summed
    in diagonal order, as ``einsum`` sums it.

    Positivity is certified by a Cholesky factorization of ``herm - s I``,
    ``herm`` the Hermitian part and ``s = EIGENVALUE_TOL + 1e-12``, whose
    pivots are ``p_g0 - s``, ``p_g1 - s``, ``p_e0 - s - |h|^2 / (p_g1 - s)``
    (``h`` the coherence of ``herm``) and ``-s`` for ``|e,1>``.  Any
    Cholesky ordering has the backward error ``(n + 1) eps ||rho||``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 10.3),
    2e-15 here and far below the 1e-12 margin, so pivots that all stay
    positive prove every smallest eigenvalue above the tolerance by more
    than ``eigvalsh``'s own rounding.
    """
    if not np.isfinite(columns.view(float)).all():
        return False
    p_g0, p_g1, above, below, p_e0 = columns
    below = below.conj()
    herm = max(np.max(np.abs(above - below)), np.max(2.0 * np.abs(columns[[0, 1, 4]].imag)))
    trace_err = np.max(np.abs(p_g0.real + p_g1.real + p_e0.real - 1.0))
    if herm > HERMITICITY_TOL or trace_err > TRACE_TOL:
        return False
    shift = EIGENVALUE_TOL + 1e-12
    pivot_g0, pivot_g1 = p_g0.real - shift, p_g1.real - shift
    if not (-shift > 0 and np.min(pivot_g0) > 0 and np.min(pivot_g1) > 0):
        return False
    h = (above + below) * 0.5 * (1.0 / np.sqrt(pivot_g1))
    return bool(np.min(p_e0.real - shift - (h.real * h.real + h.imag * h.imag)) > 0)


def _sample_grid(
    model: LindbladModel,
    t_final: float,
    dt: float | None = None,
    sample_stride: int | None = None,
) -> tuple[float, int, int, np.ndarray]:
    """``(dt, n_steps, sample_stride, times)`` of :func:`evolve`'s grid:
    the step size and count, the stride, and the stored sample times,
    ``0`` then every ``sample_stride``-th step and the last one.  Raises
    :func:`evolve`'s :class:`DomainError` on an argument out of range or
    more than ``MAX_STEPS`` steps."""
    if not 0 < t_final < math.inf:
        raise DomainError(f"t_final must be finite and > 0, got {t_final}")
    scale = model.rate_scale()
    if dt is None:
        dt = 0.01 / scale
    elif not dt > 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    if dt > 0.05 / scale:
        raise DomainError(
            f"dt={dt} too coarse for rate scale {scale}/us; need dt <= {0.05 / scale:.3e}"
        )

    n_steps = max(1, int(math.ceil(t_final / dt)))
    if n_steps > MAX_STEPS:
        raise DomainError(
            f"t_final={t_final:.6g} us takes {n_steps} steps of dt={dt:.3e} us; "
            f"at most {MAX_STEPS} are integrated"
        )
    dt = t_final / n_steps
    if sample_stride is None:
        sample_stride = max(1, -(-n_steps // 4000))
    elif not (isinstance(sample_stride, (int, np.integer)) and sample_stride >= 1):
        raise DomainError(f"sample_stride must be an integer >= 1, got {sample_stride!r}")

    n_full, rest = divmod(n_steps, sample_stride)
    steps = np.arange(1, n_full + 1) * sample_stride
    if rest:
        steps = np.append(steps, n_steps)
    return dt, n_steps, sample_stride, np.concatenate(([0.0], steps * dt))


def _sector_generator(model: LindbladModel) -> np.ndarray:
    """The Lindbladian restricted to ``_SECTOR``, which it never leaves."""
    return model.superoperator()[np.ix_(_SECTOR, _SECTOR)]


def _initial_sector(model: LindbladModel) -> np.ndarray:
    """The ``_SECTOR`` entries of ``|e,0><e,0|``."""
    return model.initial_excited().reshape(-1)[_SECTOR]


def _scatter(model: LindbladModel, columns: np.ndarray) -> np.ndarray:
    """The states whose ``_SECTOR`` entries are ``columns``, one sample
    per column, and whose other entries are zero."""
    d = model.dim
    flat = np.zeros((columns.shape[1], d * d), dtype=complex)
    flat[:, _SECTOR] = columns.T
    return flat.reshape(-1, d, d)


def evolve(
    model: LindbladModel,
    t_final: float = 1.0,
    dt: float | None = None,
    sample_stride: int | None = None,
) -> Trajectory:
    """Fixed-step RK4 integration from ``|e,0>`` up to ``t_final`` (us).

    The RK4 step is applied as a precomputed matrix ``M``, its
    ``sample_stride``-th power.  The samples are filled by doubling:
    with the first ``m`` samples stored and ``P = M^m``, the product of
    ``P`` with them gives the next ``m`` (fewer at the end), and ``P`` is
    squared.  The last sample, when ``sample_stride`` does not divide
    the step count, comes from the matching smaller power of the step.
    All of these act only on the ``_SECTOR`` entries of vec(rho), the
    only ones that ``|e,0>`` reaches; the states are those entries
    scattered into zeros.  Every stored sample is then checked for
    finite entries and against the trace, Hermiticity and positivity
    tolerances of :func:`check_density_matrix`, in one pass of
    :func:`_sector_clears` over the sector's columns and, when that does
    not clear the trajectory, by :func:`_first_violation` on the whole
    matrices block by block, which gives the verdict and message.

    Parameters
    ----------
    dt : float, optional
        Step size in us; must satisfy ``0 < dt <= 0.05 / rate_scale``.
        Defaults to ``0.01 / rate_scale``, which keeps the positivity
        undershoot well below tolerance when populations touch zero.
    sample_stride : int, optional
        Store every this-many steps, >= 1; default keeps about 4000 samples.

    Raises
    ------
    DomainError
        When ``t_final``, ``dt`` or ``sample_stride`` is out of range, or
        the trajectory takes more than ``MAX_STEPS`` steps.
    StabilityError
        When a stored sample has a non-finite entry or violates the
        trace/Hermiticity/positivity tolerances; the message names the
        first such sample and advises a smaller ``dt``.
    """
    dt, n_steps, sample_stride, times = _sample_grid(model, t_final, dt, sample_stride)

    # one RK4 step of the linear, time-invariant Lindbladian is the fixed
    # matrix I + A + A^2/2 + A^3/6 + A^4/24 with A = dt * S, taken on the
    # sector; the other entries stay exactly zero
    A = dt * _sector_generator(model)
    eye = np.eye(len(_SECTOR), dtype=complex)
    step = eye + A @ (eye + A @ (0.5 * eye + A @ (eye / 6.0 + A / 24.0)))

    n_full, rest = divmod(n_steps, sample_stride)
    # the sector is laid out column-major, so that each of its entries of
    # every sample is one contiguous row of ``columns`` for the check
    columns = np.empty((len(_SECTOR), times.size), dtype=complex)
    columns[:, 0] = _initial_sector(model)
    # by doubling: with columns 0..m-1 holding M^0..M^(m-1) applied to the
    # first sample and P = M^m, one product fills columns m..2m-1
    P, m = np.linalg.matrix_power(step, sample_stride), 1
    while m <= n_full:
        k = min(m, n_full + 1 - m)
        columns[:, m : m + k] = P @ columns[:, :k]
        m, P = m + k, P @ P
    if rest:
        columns[:, -1] = np.linalg.matrix_power(step, rest) @ columns[:, n_full]
    states = _scatter(model, columns)

    if not _sector_clears(columns[:, 1:]):
        for start in range(1, times.size, _CHECK_BLOCK):
            found = _first_violation(states[start : start + _CHECK_BLOCK])
            if found:
                i, problem = found
                t = times[start + i]
                raise StabilityError(f"t={t:.6g} us: {problem}; reduce dt below {dt:.3e}")
    return Trajectory(model=model, times=times, states=states)


def _exact_samples(model: LindbladModel, times: np.ndarray) -> Trajectory | None:
    """The trajectory from ``|e,0>`` at ``times``, by exact propagation.

    ``rho(t) = V exp(w t) V^-1 rho(0)`` on the sector, from the
    eigendecomposition ``S = V diag(w) V^-1`` of the sector generator
    :func:`evolve` steps with.  The sample at ``times[0] = 0`` is the
    built initial state, as in :func:`evolve`, and the others pass
    through :func:`_sector_clears`.  ``None`` when the eigenbasis is too
    ill-conditioned (``EIGENBASIS_COND_LIMIT``) or the samples do not
    clear the check; :func:`evolve` decides those.
    """
    w, V = np.linalg.eig(_sector_generator(model))
    if not np.linalg.cond(V) <= EIGENBASIS_COND_LIMIT:
        return None
    x0 = _initial_sector(model)
    columns = V @ (np.linalg.solve(V, x0)[:, np.newaxis] * np.exp(np.outer(w, times)))
    columns[:, 0] = x0
    if not _sector_clears(columns[:, 1:]):
        return None
    return Trajectory(model=model, times=times, states=_scatter(model, columns))


def _fit_times(times: np.ndarray, fit_window: tuple[float, float]) -> np.ndarray:
    """The ``FIT_SAMPLES`` log-spaced times at which
    :func:`extract_decay_rate` reads a trajectory sampled at ``times``:
    ``fit_window`` from no earlier than ``times[1]``."""
    lo, hi = fit_window
    lo = max(float(lo), float(times[1]))
    hi = float(hi)
    if not lo < hi:
        raise DomainError(f"invalid fit window [{lo}, {hi}]")
    if hi > times[-1] * (1 + 1e-12):
        raise DomainError(f"fit window ends at {hi} but trajectory stops at {times[-1]}")
    return np.geomspace(lo, hi, FIT_SAMPLES)


def _fit_sample_indices(times: np.ndarray, fit_window: tuple[float, float]) -> np.ndarray:
    """Indices of the samples of ``times`` that :func:`extract_decay_rate`
    reads: ``0``, ``1``, the last, and the two that bracket each fit time.

    ``np.interp`` finds ``j`` with ``times[j] <= x < times[j + 1]`` and
    reads samples ``j`` and ``j + 1`` only (the last alone at or past
    the end), so on these samples it returns, bit for bit, what it
    returns on all of them; samples 1 and last keep the fit times.
    """
    below = np.searchsorted(times, _fit_times(times, fit_window), side="right") - 1
    keep = np.zeros(times.size, dtype=bool)
    keep[[0, 1, -1]] = True
    keep[below] = True
    keep[np.minimum(below + 1, times.size - 1)] = True
    return np.flatnonzero(keep)


def extract_decay_rate(
    trajectory: Trajectory,
    fit_window: tuple[float, float],
) -> tuple[float, FitReport]:
    """Single-exponential decay rate of the excited population.

    The population is resampled on ``FIT_SAMPLES`` logarithmically
    spaced times inside ``fit_window`` (reliable over orders of magnitude
    of decay) and fit to ``A exp(-rate t)`` by :func:`fits._exponential_fit`,
    the exponential fit that ``fit_exponential`` runs too.  If the
    residual anywhere exceeds ``OSCILLATION_FRACTION`` of the fitted
    envelope, the trajectory is not exponential: an
    :class:`OscillationWarning` is emitted and noted on the report; that
    is the signature of coherent qubit-defect oscillations, where a
    single rate stops being meaningful.

    Raises
    ------
    DomainError
        Window outside the trajectory, or population drops by less than
        1/e inside it.
    FitError
        No convergence and no detected oscillation.
    """
    tt = _fit_times(trajectory.times, fit_window)
    pp = np.interp(tt, trajectory.times, trajectory.populations())
    # geomspace returns its end points exactly
    p_lo, p_hi = pp[0], pp[-1]
    if p_hi > p_lo / math.e:
        raise DomainError(
            f"population only drops from {p_lo:.4g} to {p_hi:.4g} in the window; "
            "need a 1/e drop"
        )

    report, r = _exponential_fit(tt, pp)
    amplitude, rate = report.parameters["amplitude"], report.parameters["decay_rate"]
    envelope = abs(amplitude) * np.exp(-rate * tt)
    floor = max(float(envelope.max()), 1e-300) * 1e-12
    ratio = float(np.max(np.abs(r) / np.maximum(envelope, floor)))
    if ratio > OSCILLATION_FRACTION:
        message = (
            f"population still oscillates inside the fit window (residual reaches "
            f"{ratio:.1%} of the envelope); a single exponential is not meaningful"
        )
        warnings.warn(OscillationWarning(message))
        report = replace(report, warnings=report.warnings + (message,))
    elif not report.converged:
        raise FitError(
            f"decay-rate fit did not converge: {report.iterations} iterations, "
            f"gradient norm {report.gradient_norm:.3e}"
        )
    return rate, report


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

    ``spectrum`` must equal the defect's own spectrum,
    ``ParametricSpectrum(background=qubit_decay,
    peaks=(defect.spectral_peak(),))``, so all three routes describe the
    same physics; any other spectrum, a tabulated one included, raises
    :class:`DomainError` naming the expected one.  For each measurement
    context the oracle evolves the full qubit+defect density matrix and
    fits a decay rate over a window that skips the initial fast
    transient; rows where the convolution misses the oracle by more than
    ``FLAG_THRESHOLD`` are flagged (the regime where the
    excitation coherently returns from the defect and the spectral
    picture breaks down).  A context whose qubit does not decay, or decays
    so slowly that :func:`evolve` would refuse its trajectory (more than
    ``MAX_STEPS`` steps, or an infinite length), raises
    :class:`DomainError` naming the context.

    The density matrix is computed only at the samples of :func:`evolve`'s
    grid that the rate fit reads, by exact propagation on the sector
    (:func:`_exact_samples`); a context whose eigenbasis is
    ill-conditioned, or whose exact samples fail the density-matrix
    check, is integrated by :func:`evolve` instead, and only then can
    :class:`StabilityError` be raised.
    """
    expected = ParametricSpectrum(background=qubit_decay, peaks=(defect.spectral_peak(),))
    if spectrum != expected:
        raise DomainError(f"validate_kk needs the defect's own spectrum, {expected}")

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
        context = f"context ({ctx.freq:.6g} rad/us, {ctx.dephasing:.6g}/us)"
        if not slow_rate > 0:
            raise DomainError(f"{context}: the qubit does not decay")
        t_final = t_start + 4.5 / slow_rate
        window = (t_start, t_final)
        try:
            *_, times = _sample_grid(model, t_final)
        except DomainError as exc:  # a trajectory too long to integrate
            raise DomainError(f"{context}: {exc}") from None
        trajectory = _exact_samples(model, times[_fit_sample_indices(times, window)])
        if trajectory is None:
            trajectory = evolve(model, t_final=t_final)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OscillationWarning)
            oracle_rate, report = extract_decay_rate(trajectory, window)
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
