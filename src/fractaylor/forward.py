"""Forward solution by marching the coefficient recurrence in the time index.

Matching coefficients of the governing equation in the normalized basis
couples each time level only to the one below it:

    a[i+1][j] = a[i][j+2] + sum_{k<=min(j,kmax)} p_k * B_beta(k, j-k) * f[i][j-k]

where f is the source factor (the solution itself in self-coupled mode).
The index shift by two on the first term is what narrows the stored
trapezoid by two spatial orders per time step: level i+1 keeps exactly the
coefficients the given initial data determines, Jmax(i+1) = Jmax(i) - 2.

The march is explicit (no iteration): in self-coupled mode the product term
at level i uses level i of the solution, which is already known.  The
convolution is built once, W = `convolution_matrix(p)`, so each step is
a[i+1] = a[i][2:] + W[:n, :n] @ f[i][:n].  `forward_march` is a pure
function; independent instances may run in parallel freely.

`march_arrays` is that loop, shared by `forward_march` and the inverse
solve: it returns the levels and endpoint traces as arrays and, on
request, the exact Jacobian of the traces in p, from the tangent
d a / d p advanced level by level beside a (forward-mode differentiation
of the march).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gammafn import convolution_matrix, gamma_table
from .problem import ProblemSpec
from .series import BiFracSeries, TSeries, WidthError, XSeries

__all__ = ["MarchOverflow", "ForwardResult", "forward_march", "march_arrays", "residual_check"]


class MarchOverflow(ValueError):
    """A marched coefficient left the float range."""


@dataclass(frozen=True)
class ForwardResult:
    """Solution series plus its endpoint derivative-trace sequences."""

    u: BiFracSeries
    bc_trace_x0: TSeries
    bc_trace_x1: TSeries


def forward_march(spec: ProblemSpec, p: XSeries) -> ForwardResult:
    """March nt time levels from the initial data using the coefficient p.

    Returns the solution trapezoid together with the order-beta derivative
    traces at both endpoints, one entry per time level (every level keeps
    width >= 1, enforced up front, so all nt + 1 trace entries exist).

    Raises:
        MarchOverflow: if a coefficient of the march is not finite.
    """
    if p.beta != spec.orders.beta:
        raise ValueError("p is expressed at a different beta than the problem orders")
    a, traces, _ = march_arrays(spec, p.coeffs)
    return _forward_result(spec, a, traces)


def _forward_result(spec: ProblemSpec, a: np.ndarray, traces: np.ndarray) -> ForwardResult:
    """The `ForwardResult` of the levels and traces of a `march_arrays` run.

    Raises:
        MarchOverflow: if a coefficient of the march is not finite.
    """
    width0 = a.shape[1] - 1
    try:
        u = BiFracSeries(spec.orders, [row[: width0 + 1 - 2 * i] for i, row in enumerate(a)])
    except ValueError as exc:  # every level is nonempty: a non-finite coefficient
        raise MarchOverflow(f"the march overflows the float range: {exc}") from exc
    alpha = spec.orders.alpha
    return ForwardResult(
        u=u,
        bc_trace_x0=TSeries(alpha, tuple(traces[0].tolist())),
        bc_trace_x1=TSeries(alpha, tuple(traces[1].tolist())),
    )


def march_arrays(
    spec: ProblemSpec, p: Sequence[float], *, tangent: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The march of p as arrays: (a, T, J).

    Row i of a holds level i, zero padded to the width of level 0.  T of
    shape (2, nt + 1) holds the endpoint traces, T[0] at x = 0 and T[1] at
    x = 1 as in `forward_march`.  With tangent, J of shape
    (2, nt + 1, len(p)) is their exact Jacobian, J[e, i, k] =
    d T[e, i] / d p_k; otherwise J is None.  An overflowing march is not
    an error here: it leaves a non-finite entry in T (the x = 1 trace of a
    level sums all of its coefficients), without a warning.

    The tangent d[i] = d a[i] / d p advances in the same loop as a:
    d[i+1] = d[i][2:] + C(f_i) + W @ d[i], where C(f)[j, k] = B_beta(k, j-k)
    f[j-k] is the derivative of the product W @ f in p_k, and the last term
    appears only in self-coupled mode (for a known source the march is
    affine in p).
    """
    if len(p) > spec.kmax + 1:
        raise ValueError(f"p has {len(p)} coefficients, at most kmax + 1 = {spec.kmax + 1} allowed")
    width0 = len(spec.phi) - 1
    if width0 - 2 * spec.nt < 1:
        raise WidthError(
            f"trapezoid collapses: initial width {width0} leaves "
            f"{width0 - 2 * spec.nt} spatial orders after nt={spec.nt} steps, need >= 1"
        )
    beta = spec.orders.beta
    f = spec.f_series
    a = np.zeros((spec.nt + 1, width0 + 1))
    a[0] = spec.phi.coeffs
    source = a
    if f is not None:  # a known source is zero beyond its truncation
        source = np.zeros((spec.nt, width0 - 1))
        known = f.array[: spec.nt, : width0 - 1]
        source[: known.shape[0], : known.shape[1]] = known
    d = None
    if tangent:
        d = np.zeros((spec.nt + 1, width0 + 1, len(p)))
        index, weights = _product_jacobian_table(beta, width0 - 1, len(p))
    # an overflowing march leaves inf/nan entries, which callers reject
    with np.errstate(over="ignore", invalid="ignore"):
        w = convolution_matrix(p, beta, width0 - 1)
        for i in range(spec.nt):
            n = width0 - 1 - 2 * i
            f_row = source[i, :n]
            a[i + 1, :n] = a[i, 2 : n + 2] + w[:n, :n] @ f_row
            if d is not None:
                d[i + 1, :n] = d[i, 2 : n + 2] + weights[:n] * f_row[index[:n]]
                if f is None:
                    d[i + 1, :n] += w[:n, :n] @ d[i, :n]
        # order-beta derivative traces: a[i][1] at x = 0, sum_j a[i][j+1]/Gamma(j*beta+1) at x = 1
        rgamma = gamma_table(beta, width0).rgamma[:width0]
        traces = np.array((a[:, 1], a[:, 1:] @ rgamma))
        jac = None if d is None else np.array((d[:, 1], rgamma @ d[:, 1:]))
    return a, traces, jac


@lru_cache(maxsize=32)
def _product_jacobian_table(beta: float, n: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table of C(f) = the first cols columns of `convolution_matrix(f, beta, n)`.

    C(f)[j, k] = weights[j, k] * f[index[j, k]] with index = j - k and
    weights = B_beta(k, j - k) on and below the diagonal; above it the
    weight is 0 and the index is clamped to 0.  One gather per level costs
    a fraction of building `convolution_matrix(f)`, which would double the
    cost of a tangent march at the sizes of the Newton solve.
    """
    binom = gamma_table(beta, max(n, cols)).binom
    j, k = np.ogrid[:n, :cols]
    index = np.maximum(j - k, 0)
    weights = np.where(j >= k, binom[k, index], 0.0)
    for array in (index, weights):
        array.flags.writeable = False
    return index, weights


def mismatch_scale(data: np.ndarray) -> np.ndarray:
    """max(1, |data|): a trace mismatch is (trace - data) / mismatch_scale(data)."""
    return np.maximum(1.0, np.abs(data))


def residual_check(result: ForwardResult, spec: ProblemSpec) -> float:
    """Largest mismatch (see `mismatch_scale`) between computed traces and the data.

    Compares entries i = 0..usable depth of both endpoint traces with mu1/mu2.
    """
    usable = min(
        len(result.bc_trace_x0), len(result.bc_trace_x1), len(spec.mu1), len(spec.mu2)
    )
    if usable < 1:
        raise ValueError("no usable trace depth: traces and data share no entries")
    traces = np.array((result.bc_trace_x0.coeffs[:usable], result.bc_trace_x1.coeffs[:usable]))
    data = np.array((spec.mu1.coeffs[:usable], spec.mu2.coeffs[:usable]))
    with np.errstate(over="ignore"):  # far-apart finite entries differ by inf
        return float(np.max(np.abs(traces - data) / mismatch_scale(data)))
