"""Fractional Taylor series toolkit for space-time fractional diffusion.

Forward solution by coefficient marching and inverse identification of a
space-dependent coefficient from initial data and endpoint derivative
traces, all in the gamma-normalized power basis.
"""

from .cases import EXAMPLES, exact_classical, example_problem
from .forward import ForwardResult, forward_march, residual_check
from .gammafn import frac_binom, log_gamma, ml_power_coeffs
from .inverse import (
    DegenerateData,
    NotSeparable,
    RecoveryReport,
    recover_newton,
    recover_separable,
)
from .problem import (
    ConfigError,
    ProblemSpec,
    parse_problem,
    problem_from_config,
    synthesize_boundary,
)
from .series import (
    BiFracSeries,
    DomainError,
    FracOrders,
    TSeries,
    WidthError,
    XSeries,
    deriv_trace_at_one,
    dt_shift,
    eval_series,
    mul_x,
    normalized_from_raw,
    raw_from_normalized,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BiFracSeries",
    "ConfigError",
    "DegenerateData",
    "DomainError",
    "EXAMPLES",
    "ForwardResult",
    "FracOrders",
    "NotSeparable",
    "ProblemSpec",
    "RecoveryReport",
    "TSeries",
    "WidthError",
    "XSeries",
    "deriv_trace_at_one",
    "dt_shift",
    "eval_series",
    "exact_classical",
    "example_problem",
    "forward_march",
    "frac_binom",
    "log_gamma",
    "ml_power_coeffs",
    "mul_x",
    "normalized_from_raw",
    "parse_problem",
    "problem_from_config",
    "raw_from_normalized",
    "recover_newton",
    "recover_separable",
    "residual_check",
    "synthesize_boundary",
]
