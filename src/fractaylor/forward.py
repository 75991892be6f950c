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
of the march).  W and the tangent's product term read `gammafn.product_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gammafn import convolution_matrix, gamma_table, product_table
from .problem import ProblemSpec
from .series import BiFracSeries, TSeries, WidthError, XSeries

__all__ = ["ForwardResult", "forward_march", "residual_check"]


class MarchOverflow(ValueError):
    """A marched coefficient left the float range."""


@dataclass(frozen=True, eq=False)
class ForwardResult:
    """The solution series and its endpoint ``traces``, the (2, nt + 1) array of `march_arrays`."""

    u: BiFracSeries
    traces: np.ndarray

    @property
    def bc_trace_x0(self) -> TSeries:
        return TSeries(self.u.orders.alpha, self.traces[0])

    @property
    def bc_trace_x1(self) -> TSeries:
        return TSeries(self.u.orders.alpha, self.traces[1])


def forward_march(spec: ProblemSpec, p: XSeries) -> ForwardResult:
    """March nt time levels from the initial data using the coefficient p.

    Returns the solution trapezoid together with the order-beta derivative
    traces at both endpoints, one entry per time level (every level keeps
    width >= 1, enforced up front, so all nt + 1 trace entries exist).

    Raises:
        MarchOverflow: if a coefficient or a trace of the march is not finite.
    """
    if p.beta != spec.orders.beta:
        raise ValueError("p is expressed at a different beta than the problem orders")
    a, traces, _ = march_arrays(spec, p.coeffs)
    return _forward_result(spec, a, traces)


def _forward_result(spec: ProblemSpec, a: np.ndarray, traces: np.ndarray) -> ForwardResult:
    """The `ForwardResult` of the levels and traces of a `march_arrays` run.

    The result takes ``a`` and ``traces`` over without a copy; both become read-only.

    Raises:
        MarchOverflow: if a coefficient or a trace of the march is not finite.
    """
    sizes = tuple(range(a.shape[1], a.shape[1] - 2 * len(a), -2))
    try:
        u = BiFracSeries._from_padded(spec.orders, a, sizes)
    except ValueError as exc:  # every level is nonempty: a non-finite coefficient
        raise MarchOverflow(f"the march overflows the float range: {exc}") from exc
    if not np.isfinite(traces).all():  # the x = 1 trace sums a whole level
        raise MarchOverflow("the x = 1 trace of the march overflows the float range")
    traces.flags.writeable = False
    return ForwardResult(u, traces)


def march_arrays(
    spec: ProblemSpec, p: np.ndarray, *, tangent: bool = False
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
    affine in p).  C(f_i) is a gather through the march's one `product_table`.
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
        index, weights = product_table(beta, width0 - 1, len(p))
    # an overflowing march leaves inf/nan entries, which callers reject
    with np.errstate(over="ignore", invalid="ignore"):
        w = convolution_matrix(p, beta, width0 - 1)
        for i in range(spec.nt):
            n = width0 - 1 - 2 * i
            f_row, level = source[i, :n], a[i + 1, :n]
            # in place, out passed positionally: a keyword out costs more than it saves
            np.matmul(w[:n, :n], f_row, level)
            np.add(level, a[i, 2 : n + 2], level)
            if d is not None:
                tangent_level = d[i + 1, :n]
                np.multiply(weights[:n], f_row[index[:n]], tangent_level)
                np.add(tangent_level, d[i, 2 : n + 2], tangent_level)
                if f is None:
                    tangent_level += w[:n, :n] @ d[i, :n]
        # order-beta derivative traces: a[i][1] at x = 0, sum_j a[i][j+1]/Gamma(j*beta+1) at x = 1
        rgamma = gamma_table(beta, width0).rgamma[:width0]
        traces = np.array((a[:, 1], a[:, 1:] @ rgamma))
        jac = None
        if d is not None:  # filled in place: np.array((row0, row1)) would copy both rows again
            jac = np.empty((2, spec.nt + 1, len(p)))
            jac[0] = d[:, 1]
            np.matmul(rgamma, d[:, 1:], jac[1])
    return a, traces, jac


def mismatch_scale(data: np.ndarray) -> np.ndarray:
    """max(1, |data|): a trace mismatch is (trace - data) / mismatch_scale(data)."""
    return np.maximum(1.0, np.abs(data))


def residual_check(result: ForwardResult, spec: ProblemSpec) -> float:
    """Largest mismatch (see `mismatch_scale`) between computed traces and the data.

    Compares entries i = 0..usable depth of both endpoint traces with mu1/mu2.

    Raises:
        WidthError: if the traces and the data share no entry.
    """
    usable = min(result.traces.shape[1], len(spec.mu1), len(spec.mu2))
    if usable < 1:
        raise WidthError("no usable trace depth: traces and data share no entries")
    data = np.array((spec.mu1.coeffs[:usable], spec.mu2.coeffs[:usable]))
    with np.errstate(over="ignore"):  # far-apart finite entries differ by inf
        return float((abs(result.traces[:, :usable] - data) / mismatch_scale(data)).max())
