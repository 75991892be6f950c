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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gammafn import convolution_matrix, gamma_table
from .problem import ProblemSpec
from .series import BiFracSeries, TSeries, WidthError, XSeries, zero_padded

__all__ = ["ForwardResult", "forward_march", "residual_check"]


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
    """
    if p.beta != spec.orders.beta:
        raise ValueError("p is expressed at a different beta than the problem orders")
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
    # row i holds level i (width0 + 1 - 2i coefficients), then zeros
    a = np.zeros((spec.nt + 1, width0 + 1))
    a[0] = spec.phi.coeffs
    # an overflowing march leaves inf/nan entries, which BiFracSeries rejects
    with np.errstate(over="ignore", invalid="ignore"):
        w = convolution_matrix(p.coeffs, beta, width0 - 1)
        for i in range(spec.nt):
            n = width0 - 1 - 2 * i
            # a known source is zero beyond its truncation
            f_row = a[i, :n] if f is None else zero_padded(f.levels[i] if i <= f.nt else (), n)
            a[i + 1, :n] = a[i, 2 : n + 2] + w[:n, :n] @ f_row
    levels = tuple(tuple(row[: width0 + 1 - 2 * i].tolist()) for i, row in enumerate(a))
    u = BiFracSeries(spec.orders, levels)
    # order-beta derivative traces: a[i][1] at x = 0, sum_j a[i][j+1]/Gamma(j*beta+1) at x = 1
    alpha = spec.orders.alpha
    m1 = TSeries(alpha, tuple(a[:, 1].tolist()))
    m2 = TSeries(alpha, tuple((a[:, 1:] @ gamma_table(beta, width0).rgamma[:width0]).tolist()))
    return ForwardResult(u=u, bc_trace_x0=m1, bc_trace_x1=m2)


def residual_check(result: ForwardResult, spec: ProblemSpec) -> float:
    """Largest normalized mismatch between computed traces and the data.

    Compares entries i = 0..usable depth of both endpoint traces against
    mu1/mu2, each normalized by max(1, |data entry|).
    """
    usable = min(
        len(result.bc_trace_x0), len(result.bc_trace_x1), len(spec.mu1), len(spec.mu2)
    )
    if usable < 1:
        raise ValueError("no usable trace depth: traces and data share no entries")
    worst = 0.0
    for trace, data in (
        (result.bc_trace_x0.coeffs, spec.mu1.coeffs),
        (result.bc_trace_x1.coeffs, spec.mu2.coeffs),
    ):
        for i in range(usable):
            worst = max(worst, abs(trace[i] - data[i]) / max(1.0, abs(data[i])))
    return worst
