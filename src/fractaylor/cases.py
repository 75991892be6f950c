"""Built-in benchmark problems and their classical closed forms.

Two self-coupled inverse problems serve as the standard test cases:

* case 1: initial data E_beta(x^(2*beta)), time eigenvalue 2.  In the
  classical limit alpha = beta = 1 the solution is exp(2t + x^2) and the
  true coefficient is p(x) = -4 x^2.
* case 2: initial data E_beta(x^(3*beta)), time eigenvalue 1.  Classical
  solution exp(t + x^3), true coefficient p(x) = 1 - 6x - 9x^4.

Each case is a config fragment (`example_config`), which `example_problem`
completes with the orders and sizes and builds with `problem_from_config`,
so a case and its config file give the same problem and the same errors.
Both are separable by construction: the x = 1 trace is the geometric
sequence lam**i times the trace constant of the initial data.
"""

from __future__ import annotations

import math

from .problem import ProblemSpec, problem_from_config

__all__ = ["EXAMPLES", "example_problem", "exact_classical"]

EXAMPLES = (1, 2)


def example_config(example: int) -> dict:
    """The config fields of a built-in case, all but its orders and sizes."""
    _check_example(example)
    m, lam = (2, 2.0) if example == 1 else (3, 1.0)
    return {
        "phi": {"kind": "ml_power", "m": m},
        "mu1": {"kind": "zero"},
        "mu2": {"kind": "separable", "lambda": lam},
        "f": "self",
    }


def example_problem(
    example: int, alpha: float, beta: float, nt: int, nx: int, kmax: int
) -> ProblemSpec:
    """Materialize a built-in case at the given orders and truncation sizes.

    Raises:
        ConfigError: as `problem_from_config` does for the same config: if
            the sizes are invalid or past `MAX_WIDTH`, or the initial data
            or its trace sequence overflows the float range.
    """
    return problem_from_config({
        **example_config(example),
        "alpha": alpha, "beta": beta, "nt": nt, "nx": nx, "kmax": kmax,
    })


def exact_classical(example: int, x: float, t: float) -> float:
    """Closed-form solution value in the classical limit alpha = beta = 1."""
    _check_example(example)
    if example == 1:
        return math.exp(2.0 * t + x * x)
    return math.exp(t + x * x * x)


def _check_example(example: int) -> None:
    if example not in EXAMPLES:
        raise ValueError(f"example must be one of {EXAMPLES}, got {example}")
