"""Gamma-function arithmetic for the normalized fractional power basis.

Every coefficient manipulated by this package lives in the basis
x^(j*beta)/Gamma(j*beta+1) (and t^(i*alpha)/Gamma(i*alpha+1) in time), so
the only special-function values needed are G[n] = ln Gamma(n*beta + 1) on
the integer grid and ratios built from them.  `gamma_table` computes G with
the stdlib `math.lgamma` once per (order, width) and caches it with the
convolution weights B_beta(k, m) = exp(G[k+m] - G[k] - G[m]) and the
reciprocal gammas exp(-G[n]) of the basis.  Working in log space keeps the
weights finite although Gamma itself overflows past ~171.
`convolution_matrix` is the one kernel of the B_beta-weighted product of
two spatial series: the forward march, the separable solve and the series
algebra all go through it.

The cached arrays are read-only and all functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "GammaTable", "log_gamma", "frac_binom", "gamma_table", "convolution_matrix",
    "ml_power_coeffs",
]

# tables are built for widths rounded up to a multiple of this, so problems
# of nearby sizes share one cache entry
_WIDTH_STEP = 32


class GammaTable(NamedTuple):
    """Read-only grid of one order: lg[n] = ln Gamma(n*beta + 1) for n < 2*width - 1,
    binom[k, m] = B_beta(k, m) for k, m < width, rgamma[n] = 1/Gamma(n*beta + 1)."""

    lg: np.ndarray
    binom: np.ndarray
    rgamma: np.ndarray


def log_gamma(a: float) -> float:
    """Return ln Gamma(a) for a > 0.

    Raises:
        ValueError: if a <= 0 (negative arguments never arise in this
            package: every argument has the form k*beta + 1 with k >= 0).
    """
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a positive argument, got {a}")
    return math.lgamma(a)


def gamma_table(beta: float, width: int) -> GammaTable:
    """The cached gamma grid of order beta, covering at least ``width`` indices."""
    _check_order(beta)
    return _build_table(float(beta), -(-max(width, 1) // _WIDTH_STEP) * _WIDTH_STEP)


@lru_cache(maxsize=16)
def _build_table(beta: float, width: int) -> GammaTable:
    lgs = [math.lgamma(n * beta + 1.0) for n in range(2 * width - 1)]
    lg = np.array(lgs)
    # row by row keeps the peak memory small; summing the subtracted logs
    # first keeps the table exactly symmetric; past width ~500 weights are inf
    binom = np.empty((width, width))
    for k in range(width):
        binom[k] = lg[k : k + width] - (lg[k] + lg[:width])
    with np.errstate(over="ignore"):
        np.exp(binom, out=binom)
    rgamma = np.array([math.exp(-v) for v in lgs[:width]])
    for array in (lg, binom, rgamma):
        array.flags.writeable = False
    return GammaTable(lg, binom, rgamma)


def frac_binom(k: int, m: int, beta: float) -> float:
    """Return the fractional binomial factor B_beta(k, m).

    B_beta(k, m) = Gamma((k+m)*beta + 1) / (Gamma(k*beta + 1) * Gamma(m*beta + 1))

    This is the convolution weight that appears when two series in the
    normalized basis are multiplied: the product of x^(k*beta)/Gamma(k*beta+1)
    and x^(m*beta)/Gamma(m*beta+1) equals B_beta(k, m) times the normalized
    basis element of order k+m.  At beta = 1 it reduces to the ordinary
    binomial coefficient C(k+m, k).  The value is read from `gamma_table`.
    """
    if k < 0 or m < 0:
        raise ValueError(f"frac_binom requires k, m >= 0, got k={k}, m={m}")
    return float(gamma_table(beta, k + m + 1).binom[k, m])


def convolution_matrix(q: Sequence[float], beta: float, n: int) -> np.ndarray:
    """Matrix of the B_beta-weighted product with the spatial series q.

    W[j, m] = q_{j-m} * B_beta(j-m, m) for 0 <= j - m < len(q), else 0, so
    (W @ f)[j] = sum_k q_k * B_beta(k, j-k) * f[j-k] for j < n: the product
    q*f truncated at index n - 1.  B_beta is symmetric, so the matrix of f
    applied to q gives the same product.  Overflowing weights become inf
    without a warning; callers reject non-finite results.
    """
    binom = gamma_table(beta, n).binom
    w = np.zeros((n, n))
    flat = w.reshape(-1)  # flat[k*n + m*(n+1)] is W[m + k, m], the k-th subdiagonal
    with np.errstate(over="ignore"):
        for k, qk in enumerate(q[:n]):
            if qk != 0.0:
                flat[k * n :: n + 1] = qk * binom[k, : n - k]
    return w


def ml_power_coeffs(beta: float, m: int, jmax: int):
    """Normalized spatial coefficients of the Mittag-Leffler-type generator.

    The generator sum_j x^(m*j*beta)/Gamma(j*beta+1) is the fractional
    generalization of exp(x^m).  In the normalized basis its coefficient at
    exponent index m*j is Gamma(m*j*beta+1)/Gamma(j*beta+1); all other
    indices are zero.  Returns an XSeries truncated at index jmax.

    Raises:
        ValueError: if a coefficient overflows the float range.
    """
    _check_order(beta)
    if m < 1:
        raise ValueError(f"ml_power_coeffs requires m >= 1, got {m}")
    if jmax < 0:
        raise ValueError(f"ml_power_coeffs requires jmax >= 0, got {jmax}")
    from .series import XSeries  # deferred: series imports this module

    lg = gamma_table(beta, jmax + 1).lg
    coeffs = np.zeros(jmax + 1)
    with np.errstate(over="ignore"):
        coeffs[::m] = np.exp(lg[: jmax + 1 : m] - lg[: jmax // m + 1])
    if not np.isfinite(coeffs).all():
        raise ValueError(f"the ml_power generator with m = {m} overflows the float range "
                         f"within {jmax + 1} coefficients")
    return XSeries(beta=beta, coeffs=tuple(coeffs.tolist()))


def _check_order(beta: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {beta}")
