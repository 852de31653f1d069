"""Adaptive displacement receivers for M-ary PSK coherent-state signals.

Simulates and analytically evaluates photon-counting receivers that
discriminate phase-shift-keyed coherent states through an adaptive,
feedback-controlled displacement, including their behavior under
detector and channel imperfections, against the heterodyne standard
quantum limit and the Helstrom bound.
"""

from ._rng import TrialStream
from .analytic import (
    CyclicError,
    cyclic_error_probability,
    m_click_probability,
    poisson_pmf,
)
from .bench import gram_srm_oracle, helstrom_mpsk, sql_heterodyne
from .core import PskAlphabet, displaced_rates, probe_relative_rates
from .errors import PrecisionError
from .mc import (
    IDEAL,
    ErrorEstimate,
    ImperfectionModel,
    TrialOutcome,
    TrialRecords,
    estimate_error,
    estimate_errors,
    sample_thermal_offset,
    simulate_outcomes,
    simulate_trial,
)
from .optimize import OptimizationResult, optimize_beta_analytic, optimize_beta_mc
from .strategy import (
    Hypothesis,
    PosteriorState,
    bayes_click_update,
    bayes_finalize,
    bayes_silence_update,
    cyclic_finalize,
    initial_posterior,
)

__version__ = "0.1.0"

__all__ = [
    "CyclicError",
    "ErrorEstimate",
    "Hypothesis",
    "IDEAL",
    "ImperfectionModel",
    "OptimizationResult",
    "PosteriorState",
    "PrecisionError",
    "PskAlphabet",
    "TrialOutcome",
    "TrialRecords",
    "TrialStream",
    "bayes_click_update",
    "bayes_finalize",
    "bayes_silence_update",
    "cyclic_error_probability",
    "cyclic_finalize",
    "displaced_rates",
    "estimate_error",
    "estimate_errors",
    "gram_srm_oracle",
    "helstrom_mpsk",
    "initial_posterior",
    "m_click_probability",
    "optimize_beta_analytic",
    "optimize_beta_mc",
    "poisson_pmf",
    "probe_relative_rates",
    "sample_thermal_offset",
    "simulate_outcomes",
    "simulate_trial",
    "sql_heterodyne",
    "__version__",
]
