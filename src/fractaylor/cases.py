"""Built-in benchmark problems and their classical closed forms.

Two self-coupled inverse problems serve as the standard test cases:

* case 1: initial data E_beta(x^(2*beta)), time eigenvalue 2.  In the
  classical limit alpha = beta = 1 the solution is exp(2t + x^2) and the
  true coefficient is p(x) = -4 x^2.
* case 2: initial data E_beta(x^(3*beta)), time eigenvalue 1.  Classical
  solution exp(t + x^3), true coefficient p(x) = 1 - 6x - 9x^4.

Both are separable by construction: the x = 1 trace is the geometric
sequence lam**i times the trace constant of the initial data.
"""

from __future__ import annotations

import math

from .gammafn import ml_power_coeffs
from .problem import ProblemSpec, synthesize_boundary
from .series import FracOrders, TSeries

__all__ = ["EXAMPLES", "example_problem", "exact_classical"]

EXAMPLES = (1, 2)

_POWER = {1: 2, 2: 3}
_EIGENVALUE = {1: 2.0, 2: 1.0}


def example_problem(
    example: int, alpha: float, beta: float, nt: int, nx: int, kmax: int
) -> ProblemSpec:
    """Materialize a built-in case at the given orders and truncation sizes."""
    _check_example(example)
    phi = ml_power_coeffs(beta, _POWER[example], nx + 2 * nt)
    mu1 = TSeries(alpha, (0.0,) * (nt + 1))
    mu2 = synthesize_boundary(phi, _EIGENVALUE[example], nt, "x1", alpha)
    return ProblemSpec(
        orders=FracOrders(alpha, beta),
        nt=nt, nx=nx, kmax=kmax,
        phi=phi, mu1=mu1, mu2=mu2,
    )


def exact_classical(example: int, x: float, t: float) -> float:
    """Closed-form solution value in the classical limit alpha = beta = 1."""
    _check_example(example)
    if example == 1:
        return math.exp(2.0 * t + x * x)
    return math.exp(t + x * x * x)


def _check_example(example: int) -> None:
    if example not in EXAMPLES:
        raise ValueError(f"example must be one of {EXAMPLES}, got {example}")
