"""Adaptive displacement receivers for M-ary PSK coherent-state signals.

Simulates and analytically evaluates photon-counting receivers that
discriminate phase-shift-keyed coherent states through an adaptive,
feedback-controlled displacement, including their behavior under
detector and channel imperfections, against the heterodyne standard
quantum limit and the Helstrom bound.
"""

from .analytic import (
    CyclicError,
    cyclic_error_probabilities,
    cyclic_error_probability,
    m_click_probability,
)
from .bench import helstrom_mpsk, sql_heterodyne
from .core import PskAlphabet, probe_relative_rates
from .errors import PrecisionError
from .mc import (
    IDEAL,
    ErrorEstimate,
    ImperfectionModel,
    TrialRecords,
    WorkerPool,
    estimate_error,
    estimate_errors,
    simulate_outcomes,
)
from .optimize import OptimizationResult, optimize_beta_analytic, optimize_beta_mc

__version__ = "0.1.0"

__all__ = [
    "CyclicError",
    "ErrorEstimate",
    "IDEAL",
    "ImperfectionModel",
    "OptimizationResult",
    "PrecisionError",
    "PskAlphabet",
    "TrialRecords",
    "WorkerPool",
    "cyclic_error_probabilities",
    "cyclic_error_probability",
    "estimate_error",
    "estimate_errors",
    "helstrom_mpsk",
    "m_click_probability",
    "optimize_beta_analytic",
    "optimize_beta_mc",
    "probe_relative_rates",
    "simulate_outcomes",
    "sql_heterodyne",
    "__version__",
]
