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
  (`march_arrays`), so one march gives the mismatch and its Jacobian
  together.  Each distinct iterate is marched once: the march does not
  depend on the trace depth, so an accepted point hands its march to the
  next step, the next depth and the report.  A line-search trial that
  rounds to the current iterate ends the search as failed, as would
  every smaller step; one that rounds to the trial just rejected is
  skipped unmarched.  For a known source f the traces are affine
  in p and one step solves the problem.  Each mismatch row is divided
  by max(1, |data entry|) (`mismatch_scale`, as in `residual_check`),
  so the convergence test ||r||_inf <= NEWTON_TOL is relative; without
  the normalization the rows span tens of orders of magnitude and no float
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

from .forward import (
    ForwardResult, _forward_result, forward_march, march_arrays, mismatch_scale, residual_check,
)
from .gammafn import convolution_matrix
from .problem import ProblemSpec
from .series import WidthError, XSeries

__all__ = ["NotSeparable", "DegenerateData", "RecoveryReport", "recover_separable", "recover_newton"]

SEPARABLE_TOL = 1e-9  # each mismatch of the ratio test
SEPARABLE_RESIDUAL_TOL = 1e-9  # the forward residual of a converged separable solve
NEWTON_TOL, NEWTON_MAX_ITER = 1e-10, 100  # Gauss-Newton ||r||_inf and steps at full depth
WARMUP_TOL, WARMUP_MAX_ITER = 1e-6, 20  # the same at each warm-up depth


class NotSeparable(ValueError):
    """The boundary data fails the geometric-ratio test; use recover_newton."""


class DegenerateData(ValueError):
    """The data carries no boundary signal (phi_0 = 0 or mu2 identically zero)."""


@dataclass(frozen=True)
class RecoveryReport:
    """Recovered coefficient plus diagnostics.

    ``solution`` is the march of the recovered p and ``forward_residual``
    its `residual_check`; ``converged`` asserts it met
    SEPARABLE_RESIDUAL_TOL (for the Newton route: the final Gauss-Newton
    residual met NEWTON_TOL).
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


def recover_separable(spec: ProblemSpec) -> RecoveryReport:
    """Triangular solve for p on separable data.

    The time eigenvalue lam is estimated from mu2 alone (mu1 vanishes
    identically in the separable problems of interest) at the first
    nonzero entry, then every consecutive pair must satisfy
    |mu2_{i+1} - lam*mu2_i| <= SEPARABLE_TOL * max(1, |mu2_i|).

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
    lam = _estimate_eigenvalue(mu2)

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
    return _report(spec, p_series, forward_march(spec, p_series), "separable", lam=lam)


def _estimate_eigenvalue(mu2: tuple[float, ...]) -> float:
    nonzero = [i for i, v in enumerate(mu2) if v != 0.0]
    if not nonzero:
        raise DegenerateData("mu2 is identically zero: no boundary signal")
    i0 = nonzero[0]
    if i0 + 1 >= len(mu2):
        raise NotSeparable("mu2 has no usable consecutive pair to estimate the eigenvalue")
    lam = mu2[i0 + 1] / mu2[i0]
    m = np.array(mu2)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan compare as Python floats
        fails = np.abs(m[1:] - lam * m[:-1]) > SEPARABLE_TOL * mismatch_scale(m[:-1])
    i = int(fails.argmax())  # the first failing pair, if any fails
    if fails[i]:
        raise NotSeparable(
            f"mu2 is not geometric: ratio test fails at entry {i + 1} (lam={lam:.6g})"
        )
    return lam


def recover_newton(spec: ProblemSpec) -> RecoveryReport:
    """Damped Gauss-Newton recovery of p from general trace data.

    Never raises on non-convergence: the report carries the best iterate
    with ``converged = False``.
    """
    depth = min(spec.nt, len(spec.mu1) - 1, len(spec.mu2) - 1)
    n = spec.kmax + 1
    if 2 * depth < n:
        raise WidthError(f"underdetermined: {2 * depth} usable trace equations for {n} unknowns")

    p = np.zeros(n)
    march = march_arrays(spec, p, tangent=True)
    # warm-up: track the solution through shallower trace depths
    for d in range(1, depth):
        p, march, *_ = _gauss_newton(spec, p, march, d, WARMUP_TOL, WARMUP_MAX_ITER)
    p, march, it, converged, jac = _gauss_newton(spec, p, march, depth, NEWTON_TOL, NEWTON_MAX_ITER)
    rank_deficient = bool(np.all(np.isfinite(jac)) and np.linalg.matrix_rank(jac) < n)
    p_series = XSeries(spec.orders.beta, tuple(p.tolist()))
    solution = _forward_result(spec, *march[:2])
    return _report(spec, p_series, solution, "newton", it, converged, rank_deficient)


def _report(
    spec: ProblemSpec, p: XSeries, solution: ForwardResult, mode: str, iterations: int = 0,
    converged: bool | None = None, rank_deficient: bool = False, lam: float | None = None,
) -> RecoveryReport:
    """Check the march of the recovered p against the data and report it, for either route.

    The separable route passes no ``converged``: its report converges when
    the forward residual is at most SEPARABLE_RESIDUAL_TOL.
    """
    residual = residual_check(solution, spec)
    if converged is None:
        converged = residual <= SEPARABLE_RESIDUAL_TOL
    return RecoveryReport(p, mode, lam, solution, residual, iterations, converged, rank_deficient)


def _read_march(
    spec: ProblemSpec, march: tuple, depth: int, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized trace mismatches at levels 1..depth and their exact Jacobian in p.

    Both are read from a tangent march of p; the depth only picks the levels
    read.  A march that overflows anywhere gives an inf mismatch and Jacobian.
    """
    _, traces, jac = march
    if not np.all(np.isfinite(traces)):
        return np.full(2 * depth, np.inf), np.full((2 * depth, jac.shape[2]), np.inf)
    r = (traces[:, 1 : depth + 1] - _newton_data(spec, depth)).reshape(-1) * weights
    return r, jac[:, 1 : depth + 1].reshape(2 * depth, -1) * weights[:, None]


def _newton_data(spec: ProblemSpec, depth: int) -> np.ndarray:
    """mu1 and mu2 at levels 1..depth, the rows the Newton residual matches."""
    return np.array((spec.mu1.coeffs[1 : depth + 1], spec.mu2.coeffs[1 : depth + 1]))


def _gauss_newton(
    spec: ProblemSpec, p: np.ndarray, march: tuple, depth: int, tol: float, max_iter: int
) -> tuple[np.ndarray, tuple, int, bool, np.ndarray]:
    """From p and its tangent march to (last iterate, its march, steps, met tol, Jacobian)."""
    weights = 1.0 / mismatch_scale(_newton_data(spec, depth)).reshape(-1)
    r, jac = _read_march(spec, march, depth, weights)
    it = 0
    # a finite trial mismatch may still overflow its norm: inf is not < best
    with np.errstate(over="ignore"):
        while it < max_iter:
            if np.max(np.abs(r)) <= tol or not np.all(np.isfinite(jac)):
                break
            col_scale = np.linalg.norm(jac, axis=0)
            col_scale[col_scale == 0.0] = 1.0
            y, *_ = np.linalg.lstsq(jac / col_scale, -r, rcond=None)
            step = y / col_scale
            best = np.linalg.norm(r)
            s, rejected = 1.0, b""
            for _ in range(31):
                candidate = p + s * step
                if np.array_equal(candidate, p):  # every smaller s rounds to p: the search fails
                    break
                if candidate.tobytes() != rejected:  # the same bits would be rejected again
                    trial = march_arrays(spec, candidate, tangent=True)
                    r_new, jac_new = _read_march(spec, trial, depth, weights)
                    if np.linalg.norm(r_new) < best:
                        p, march, r, jac = candidate, trial, r_new, jac_new
                        break
                    rejected = candidate.tobytes()
                s *= 0.5
            if p is not candidate:  # no trial was accepted
                break
            it += 1
    return p, march, it, bool(np.max(np.abs(r)) <= tol), jac
