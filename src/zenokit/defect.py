"""Closed-form decay rates for a qubit coupled to one dissipative defect.

The central result is a Purcell formula generalized to a dephased qubit:

    Gamma = gamma_q + 2 g^2 * W / (W^2 + delta^2)
    W     = dephasing + defect_decay/2 - gamma_q/2

with detuning ``delta = qubit freq - defect freq``.  Frequencies are
offsets from a zero the caller picks; only their difference enters, so
the defect's own frame (the defect at 0) keeps the digits that a GHz
carrier in rad/us would round away.  Adding dephasing
narrows or broadens the qubit's effective overlap with the defect line:
on resonance (W > |delta|) more dephasing slows the decay, far off
resonance (W < |delta|) it accelerates it.  At zero loss and dephasing
on resonance the expression reduces to the textbook Purcell rate
``4 g^2 / kappa``, which is also the quantum-jump rate of a driven,
continuously measured qubit with Rabi rate 2g and measurement rate kappa.

Small terms in the qubit-defect sum frequency (including a heating term)
are dropped, matching the published form of the formula.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite
from .spectrum import TlsPeak


@dataclass(frozen=True)
class DefectParams:
    """A lossy defect mode: frequency, coupling to the qubit, energy decay.

    All in rad/us resp. 1/us; ``decay`` must be > 0 (the defect must
    thermalize into its own bath), ``coupling`` >= 0.  ``freq`` is an
    offset from the same zero as the qubit's frequency, 0 in the
    defect's own frame.
    """

    freq: float
    coupling: float
    decay: float

    def __post_init__(self):
        require_finite(self.freq, "defect frequency")
        if not self.decay > 0:
            raise DomainError(f"defect decay rate must be > 0, got {self.decay}")
        if not self.coupling >= 0:
            raise DomainError(f"coupling must be >= 0, got {self.coupling}")

    def spectral_peak(self) -> TlsPeak:
        """The loss peak this defect contributes to the bath spectrum."""
        return TlsPeak(center=self.freq, width=self.decay, coupling_sq=self.coupling**2)


@dataclass(frozen=True)
class QubitParams:
    """Qubit frequency plus intrinsic decay and pure dephasing rates."""

    freq: float
    decay: float = 0.0
    dephasing: float = 0.0

    def __post_init__(self):
        require_finite(self.freq, "qubit frequency")
        if not self.decay >= 0:
            raise DomainError(f"qubit decay must be >= 0, got {self.decay}")
        if not self.dephasing >= 0:
            raise DomainError(f"dephasing must be >= 0, got {self.dephasing}")


def effective_width(qubit: QubitParams, defect: DefectParams) -> float:
    """The dephasing-broadened linewidth W entering the rate formula."""
    return qubit.dephasing + defect.decay / 2.0 - qubit.decay / 2.0


def generalized_purcell(qubit: QubitParams, defect: DefectParams) -> float:
    """Total qubit decay rate through a dissipative defect, with dephasing.

    Requires ``W = dephasing + defect.decay/2 - qubit.decay/2 > 0``; the
    derivation assumes the defect's bath equilibrates faster than the
    qubit dynamics, and a non-positive width means that regime was left,
    which must surface as an error rather than be silently patched.
    """
    width = effective_width(qubit, defect)
    _require_positive_width(width)
    return _purcell(qubit.decay, defect.coupling, width, qubit.freq - defect.freq)


def _purcell(qubit_decay, coupling, width, delta):
    """``gq + 2 g^2 W / (W^2 + delta^2)``; broadcasts over ``width`` and ``delta``.

    The squares are products, not ``**2``: on a Python float ``**2``
    calls libm ``pow``, which need not round like numpy's elementwise
    square, so scalar and grid evaluations would differ in the last bit.
    """
    return qubit_decay + 2.0 * (coupling * coupling) * width / (width * width + delta * delta)


def _require_positive_width(width) -> None:
    bad = np.flatnonzero(~(np.asarray(width) > 0))
    if bad.size:
        raise DomainError(
            f"effective width must be > 0, got {np.ravel(width)[bad[0]]}; "
            "the fast-bath assumption behind the formula does not hold"
        )


def resonant_purcell(coupling: float, kappa: float) -> float:
    """Textbook Purcell rate 4 g^2 / kappa of a resonant lossy mode.

    Valid for ``coupling << kappa`` (not enforced); note that a *faster*
    resonator decay gives a *slower* induced qubit decay.
    """
    if not kappa > 0:
        raise DomainError(f"mode decay rate must be > 0, got {kappa}")
    return 4.0 * coupling**2 / kappa


def zeno_jump_rate(rabi: float, measurement_rate: float) -> float:
    """Jump rate Omega^2 / gamma_M of a driven, strongly measured qubit.

    For ``rabi << measurement_rate`` the measurement freezes coherent
    Rabi evolution into incoherent jumps at this rate.
    """
    if not measurement_rate > 0:
        raise DomainError(f"measurement rate must be > 0, got {measurement_rate}")
    return rabi**2 / measurement_rate


def decay_rate_map(
    detunings,
    dephasings,
    defect: DefectParams,
    qubit_decay: float = 0.0,
) -> np.ndarray:
    """Generalized Purcell rate over a (detuning, dephasing) grid.

    ``detunings`` are qubit-minus-defect offsets, used as given; the
    defect's own ``freq`` is not read.  Returns an array of shape
    ``(len(detunings), len(dephasings))`` whose ``[i, j]`` element uses
    ``detunings[i]`` and ``dephasings[j]``; every grid point must satisfy
    the positive-width precondition.  Each element equals
    :func:`generalized_purcell` for a defect at 0 and a qubit at
    ``detunings[i]``, bit for bit.
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    dephasings = np.atleast_1d(np.asarray(dephasings, dtype=float))
    if detunings.size == 0 or dephasings.size == 0:
        raise DomainError("decay_rate_map needs non-empty grids")
    if not qubit_decay >= 0:
        raise DomainError(f"qubit decay must be >= 0, got {qubit_decay}")
    if not np.all(np.isfinite(detunings)):
        raise DomainError(f"detuning must be finite, got {detunings[~np.isfinite(detunings)][0]}")
    if not np.all(dephasings >= 0):
        raise DomainError(f"dephasing must be >= 0, got {dephasings[~(dephasings >= 0)][0]}")
    width = dephasings + defect.decay / 2.0 - qubit_decay / 2.0
    _require_positive_width(width)
    return _purcell(qubit_decay, defect.coupling, width[None, :], detunings[:, None])
