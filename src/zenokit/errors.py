"""Exception and warning types shared across the package, and the
finite-number and rate guards the models share.

A frequency outside a tabulated spectrum's grid is no error: the table
holds its end rates there (see :class:`zenokit.spectrum.TabulatedSpectrum`).
"""
import math


class DomainError(ValueError):
    """A parameter is outside the domain where the operation is defined."""


def require_finite(value: float, name: str) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``value`` is finite."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def require_rate(value: float, name: str) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``value`` is >= 0
    and finite: a rate of NaN or infinity is refused."""
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be >= 0 and finite, got {value}")


class SignError(DomainError):
    """A sign inconsistency, e.g. a Stark shift and dispersive shift that
    imply a negative photon number."""


class ParseError(ValueError):
    """An input file violates its documented format."""


class FitError(RuntimeError):
    """A least-squares fit failed: degenerate data or no convergence."""


class StabilityError(RuntimeError):
    """A density-matrix integration violated a conservation invariant;
    usually means the step size is too large for the model's rates."""


class OscillationWarning(UserWarning):
    """Emitted when a trajectory handed to a single-exponential decay fit
    is still visibly oscillating inside the fit window."""
