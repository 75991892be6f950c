"""Recovery of the unknown spatial coefficient from initial and boundary data.

Two routes are provided:

* `recover_separable` - when the x = 1 trace sequence is geometric,
  mu2_i = lam**i * mu2_0, the solution ansatz u = (time factor with
  normalized coefficients lam**i) * phi turns the marching recurrence into
  one triangular linear system for the coefficients of p:

      p_m = (lam*phi_m - phi_{m+2} - sum_{k<m} p_k B_beta(k, m-k) phi_{m-k}) / phi_0

  This reproduces the closed-form coefficients of both built-in example
  problems in the classical limit.

* `recover_newton` - general data.  Minimizes the stacked trace mismatches
  over p by damped Gauss-Newton (step halving) starting from the zero
  vector.  The Jacobian is exact: the march carries its tangent d a / d p
  (`march_arrays`), so one march per trial point gives the mismatch and
  its Jacobian together, and an accepted line-search point hands its
  Jacobian to the next step.  For a known source f the traces are affine
  in p and one step solves the problem.  Each mismatch row is normalized
  by max(1, |data entry|), matching `residual_check`, so the convergence
  test ||r||_inf <= tol is a relative criterion; without the
  normalization the rows span tens of orders of magnitude and no float
  tolerance is meaningful.  A single Gauss-Newton sweep from zero stalls
  in local minima on random self-coupled instances, so the solve warms up
  through increasing trace depths (depth d uses only the first d time
  levels of data) before the full-depth iteration; the reported iteration
  count is that of the full-depth loop.  On 3600 seed-drawn roundtrip
  instances (kmax 0-4, beta in {1, 0.9, 0.7}, a third with a known
  source) the warm-up with forward-difference Jacobians stalled on 7, the
  warm-up with exact Jacobians on the same 7, and exact Jacobians without
  the warm-up on 223.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import ForwardResult, forward_march, march_arrays, residual_check
from .gammafn import convolution_matrix
from .problem import ProblemSpec
from .series import WidthError, XSeries

__all__ = ["NotSeparable", "DegenerateData", "RecoveryReport", "recover_separable", "recover_newton"]


class NotSeparable(ValueError):
    """The boundary data fails the geometric-ratio test; use recover_newton."""


class DegenerateData(ValueError):
    """The data carries no boundary signal (phi_0 = 0 or mu2 identically zero)."""


@dataclass(frozen=True)
class RecoveryReport:
    """Recovered coefficient plus diagnostics.

    ``solution`` is the march of the recovered p and ``forward_residual``
    its `residual_check`; ``converged`` asserts it (or, for the Newton
    route, the final residual) met the configured tolerance.
    ``iterations`` counts full-depth Gauss-Newton steps and is 0 for the
    separable route.  ``rank_deficient`` flags an exact Jacobian with
    numerical rank below the number of unknowns at the solution; it marks
    an ill-posed instance, not a failure.
    """

    p: XSeries
    mode: str
    lam: float | None
    solution: ForwardResult
    forward_residual: float
    iterations: int
    converged: bool
    rank_deficient: bool = False


def recover_separable(
    spec: ProblemSpec, *, tol_sep: float = 1e-9, residual_tol: float = 1e-9
) -> RecoveryReport:
    """Triangular solve for p on separable data.

    The time eigenvalue lam is estimated from mu2 alone (mu1 vanishes
    identically in the separable problems of interest) at the first
    nonzero entry, then every consecutive pair must satisfy
    |mu2_{i+1} - lam*mu2_i| <= tol_sep * max(1, |mu2_i|).

    Raises:
        NotSeparable: data fails the ratio test or the source is a known
            series rather than self-coupled.
        DegenerateData: phi_0 = 0 or mu2 carries no signal.
    """
    if not spec.self_coupled:
        raise NotSeparable("separable recovery applies to the self-coupled source form only")
    phi = spec.phi.coeffs
    if phi[0] == 0.0:
        raise DegenerateData("phi_0 = 0: the triangular solve cannot be anchored")
    mu2 = spec.mu2.coeffs
    lam = _estimate_eigenvalue(mu2, tol_sep)

    kmax = spec.kmax
    if kmax + 2 > len(phi) - 1:
        raise WidthError(
            f"phi width {len(phi) - 1} too small for the triangular solve up to kmax={kmax}"
        )
    beta = spec.orders.beta
    n = kmax + 1
    # row m of the product matrix of phi holds B_beta(k, m-k) phi_{m-k}
    # (B_beta is symmetric): lower triangular with phi_0 on the diagonal
    a = convolution_matrix(phi, beta, n)
    p = np.zeros(n)
    for m in range(n):
        p[m] = (lam * phi[m] - phi[m + 2] - a[m, :m] @ p[:m]) / phi[0]
    p_series = XSeries(beta, tuple(p.tolist()))

    solution = forward_march(spec, p_series)
    residual = residual_check(solution, spec)
    return RecoveryReport(
        p=p_series,
        mode="separable",
        lam=lam,
        solution=solution,
        forward_residual=residual,
        iterations=0,
        converged=residual <= residual_tol,
    )


def _estimate_eigenvalue(mu2: tuple[float, ...], tol_sep: float) -> float:
    nonzero = [i for i, v in enumerate(mu2) if v != 0.0]
    if not nonzero:
        raise DegenerateData("mu2 is identically zero: no boundary signal")
    i0 = nonzero[0]
    if i0 + 1 >= len(mu2):
        raise NotSeparable("mu2 has no usable consecutive pair to estimate the eigenvalue")
    lam = mu2[i0 + 1] / mu2[i0]
    for i in range(len(mu2) - 1):
        if abs(mu2[i + 1] - lam * mu2[i]) > tol_sep * max(1.0, abs(mu2[i])):
            raise NotSeparable(
                f"mu2 is not geometric: ratio test fails at entry {i + 1} (lam={lam:.6g})"
            )
    return lam


def recover_newton(
    spec: ProblemSpec,
    *,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> RecoveryReport:
    """Damped Gauss-Newton recovery of p from general trace data.

    Never raises on non-convergence: the report carries the best iterate
    with ``converged = False``.
    """
    depth = min(spec.nt, len(spec.mu1) - 1, len(spec.mu2) - 1)
    n = spec.kmax + 1
    if 2 * depth < n:
        raise WidthError(f"underdetermined: {2 * depth} usable trace equations for {n} unknowns")

    p = np.zeros(n)
    # warm-up: track the solution through shallower trace depths
    for d in range(1, depth):
        p, _, _, _ = _gauss_newton(spec, p, d, tol=1e-6, max_iter=20)
    p, iterations, converged, jac = _gauss_newton(spec, p, depth, tol=tol, max_iter=max_iter)
    rank_deficient = bool(np.all(np.isfinite(jac)) and np.linalg.matrix_rank(jac) < n)

    p_series = XSeries(spec.orders.beta, tuple(float(v) for v in p))
    solution = forward_march(spec, p_series)
    residual = residual_check(solution, spec)
    return RecoveryReport(
        p=p_series,
        mode="newton",
        lam=None,
        solution=solution,
        forward_residual=residual,
        iterations=iterations,
        converged=converged,
        rank_deficient=rank_deficient,
    )


def _trace_mismatch(spec: ProblemSpec, p: np.ndarray, depth: int, weights: np.ndarray) -> np.ndarray:
    """Stacked normalized trace mismatches at levels 1..depth (inf if the march blows up)."""
    return _linearize(spec, p, depth, weights, tangent=False)[0]


def _linearize(
    spec: ProblemSpec, p: np.ndarray, depth: int, weights: np.ndarray, *, tangent: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """The mismatch of `_trace_mismatch` and, with tangent, its exact Jacobian in p.

    One march gives both.  A march that overflows anywhere gives an inf
    mismatch and Jacobian.
    """
    _, traces, jac = march_arrays(spec, p, tangent=tangent)
    if not np.all(np.isfinite(traces)):
        return np.full(2 * depth, np.inf), np.full((2 * depth, len(p)), np.inf)
    data = np.array((spec.mu1.coeffs[1 : depth + 1], spec.mu2.coeffs[1 : depth + 1]))
    r = (traces[:, 1 : depth + 1] - data).reshape(-1) * weights
    if jac is not None:
        jac = jac[:, 1 : depth + 1].reshape(2 * depth, -1) * weights[:, None]
    return r, jac


def _gauss_newton(
    spec: ProblemSpec,
    p0: np.ndarray,
    depth: int,
    *,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, bool, np.ndarray]:
    weights = np.array(
        [1.0 / max(1.0, abs(spec.mu1.coeffs[i])) for i in range(1, depth + 1)]
        + [1.0 / max(1.0, abs(spec.mu2.coeffs[i])) for i in range(1, depth + 1)]
    )
    p = p0.copy()
    r, jac = _linearize(spec, p, depth, weights)
    it = 0
    while it < max_iter:
        if np.max(np.abs(r)) <= tol or not np.all(np.isfinite(jac)):
            break
        col_scale = np.linalg.norm(jac, axis=0)
        col_scale[col_scale == 0.0] = 1.0
        y, *_ = np.linalg.lstsq(jac / col_scale, -r, rcond=None)
        step = y / col_scale
        best = np.linalg.norm(r)
        s = 1.0
        for _ in range(31):
            candidate = p + s * step
            r_new, jac_new = _linearize(spec, candidate, depth, weights)
            if np.linalg.norm(r_new) < best:
                break
            s *= 0.5
        else:
            break
        p, r, jac = candidate, r_new, jac_new
        it += 1
    converged = bool(np.max(np.abs(r)) <= tol) if np.all(np.isfinite(r)) else False
    return p, it, converged, jac
