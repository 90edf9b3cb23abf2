"""Decay-rate prediction for dispersively read out qubits.

Measurement Stark-shifts and dephasing-broadens a qubit, changing how
strongly it overlaps lossy regions of its frequency-dependent bath.
This package predicts the resulting decay rate from a measured loss
spectrum (spectral convolution with the dephasing Lorentzian), provides
the closed-form rate for a single coherent defect, fits the calibration
chain from raw experiment traces, and cross-checks everything against a
brute-force Lindblad density-matrix integrator.
"""
from . import io, units
from .defect import (
    DefectParams,
    QubitParams,
    decay_rate_map,
    effective_width,
    generalized_purcell,
    resonant_purcell,
    zeno_jump_rate,
)
from .errors import (
    DomainError,
    FitError,
    OscillationWarning,
    ParseError,
    RangeError,
    SignError,
    StabilityError,
)
from .fits import (
    FitReport,
    RamseyTrace,
    fit_damped_sine,
    fit_dephasing_quadratic,
    fit_exponential,
    fit_flux_noise_quadratic,
    fit_stark_poly,
    fit_swap_chevron,
    rate_from_fixed_delay,
)
from .io import format_spectrum_csv, read_spectrum_csv
from .kk import (
    DELTA_LIMIT,
    KkResult,
    MeasurementContext,
    ReadoutCalibration,
    decay_rate,
    default_window,
    photons_from_stark,
    sweep,
    window_normalization,
)
from .lindblad import (
    ComparisonRow,
    LindbladModel,
    Trajectory,
    check_density_matrix,
    evolve,
    extract_decay_rate,
    validate_kk,
)
from .spectrum import (
    BathSpectrum,
    ParametricSpectrum,
    TabulatedSpectrum,
    TlsPeak,
)

__version__ = "0.1.0"
