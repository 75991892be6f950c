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
  over p by damped Gauss-Newton (step halving) from p = 0.  The Jacobian
  is exact: the march carries its tangent d a / d p (`march_arrays`), so
  one march gives the mismatch and its Jacobian; every march of a solve
  carries it.  Each accepted iterate is marched once: the march does not
  depend on the trace depth, so an accepted point hands its march to the
  next step, the next depth and the report.  The line search has one stop
  rule: a trial that rounds to the current iterate ends it as failed, as
  would every smaller step.  For a known source f the traces are affine in
  p and their Jacobian does not depend on p: the first exact step from
  p = 0 is the least-squares solution, so the solve is two tangent
  marches (at p = 0 and at the solution) and one least-squares solve.
  Each mismatch row is divided by
  max(1, |data entry|) (`mismatch_scale`, as in `residual_check`), so the
  test ||r||_inf <= NEWTON_TOL is relative; unnormalized rows span tens of
  orders of magnitude.  A single Gauss-Newton sweep from zero stalls in
  local minima on random self-coupled instances (223 of 3600 seed-drawn
  roundtrip instances), so a self-coupled solve warms up through
  increasing trace depths (depth d fits only the first d levels of data)
  before the full-depth iteration; a known source starts at full depth.
  ROADMAP.md item 7 records the stalls left with the warm-up (8 at the
  last count) and why earlier counts differ.  The reported iteration
  count is that of the full-depth loop.  The report converges when its
  forward residual, which also reads level 0 of the traces (fixed by phi
  alone and never fitted), is at most NEWTON_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import (
    ForwardResult, MarchOverflow, _forward_result, forward_march, march_arrays, mismatch_scale,
    residual_check,
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
    SEPARABLE_RESIDUAL_TOL (for the Newton route: NEWTON_TOL).
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
        MarchOverflow: a coefficient of p, or of its march, is not finite.
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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite p is rejected below
        for m in range(n):
            p[m] = (lam * phi[m] - phi[m + 2] - a[m, :m] @ p[:m]) / phi[0]
    if not np.isfinite(p).all():
        raise MarchOverflow("the separable solve for p overflows the float range")
    p_series = XSeries(beta, p)
    return _report(spec, p_series, forward_march(spec, p_series), "separable", lam=lam)


def _estimate_eigenvalue(mu2: np.ndarray) -> float:
    nonzero = np.flatnonzero(mu2)
    if not nonzero.size:
        raise DegenerateData("mu2 is identically zero: no boundary signal")
    i0 = nonzero[0]
    if i0 + 1 >= len(mu2):
        raise NotSeparable("mu2 has no usable consecutive pair to estimate the eigenvalue")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan compare as Python floats
        lam = float(mu2[i0 + 1] / mu2[i0])
        fails = np.abs(mu2[1:] - lam * mu2[:-1]) > SEPARABLE_TOL * mismatch_scale(mu2[:-1])
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
    depth = max(0, min(spec.nt, len(spec.mu1) - 1, len(spec.mu2) - 1))
    n = spec.kmax + 1
    if 2 * depth < n:
        raise WidthError(f"underdetermined: {2 * depth} usable trace equations for {n} unknowns")

    data = np.array((spec.mu1.coeffs[1 : depth + 1], spec.mu2.coeffs[1 : depth + 1]))
    scale = 1.0 / mismatch_scale(data)
    p = np.zeros(n)
    march = march_arrays(spec, p, tangent=True)
    # warm-up through shallower depths, self-coupled only: a known source is affine in p
    for d in range(1, depth if spec.self_coupled else 1):
        p, march, *_ = _gauss_newton(spec, p, march, data[:, :d], scale[:, :d],
                                     WARMUP_TOL, WARMUP_MAX_ITER)
    p, march, it, jac = _gauss_newton(spec, p, march, data, scale, NEWTON_TOL, NEWTON_MAX_ITER)
    rank_deficient = bool(np.isfinite(jac).all() and np.linalg.matrix_rank(jac) < n)
    p_series = XSeries(spec.orders.beta, p)
    return _report(spec, p_series, _forward_result(spec, *march[:2]), "newton", it, rank_deficient)


def _report(
    spec: ProblemSpec, p: XSeries, solution: ForwardResult, mode: str, iterations: int = 0,
    rank_deficient: bool = False, lam: float | None = None,
) -> RecoveryReport:
    """Check the march of the recovered p against the data and report it, for either route.

    The report converges when the forward residual is at most the route's
    tolerance.  It reads every trace level the data has, level 0 too: phi
    alone fixes level 0, which Gauss-Newton never fits, so data that phi
    does not match cannot converge.
    """
    residual = residual_check(solution, spec)
    converged = residual <= (NEWTON_TOL if mode == "newton" else SEPARABLE_RESIDUAL_TOL)
    return RecoveryReport(p, mode, lam, solution, residual, iterations, converged, rank_deficient)


def _read_march(
    march: tuple, data: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized trace mismatches against data and their exact Jacobian in p, from one march.

    ``march`` carries its tangent; ``data`` holds mu1 and mu2 at levels 1..depth, ``scale``
    1 / mismatch_scale(data).  An overflowing march gives all inf.
    """
    _, traces, jac = march
    depth = data.shape[1]
    jac = (jac[:, 1 : depth + 1] * scale[:, :, None]).reshape(data.size, -1)
    if not np.isfinite(traces).all():
        return np.full(data.size, np.inf), np.full_like(jac, np.inf)
    return ((traces[:, 1 : depth + 1] - data) * scale).reshape(-1), jac


def _gauss_newton(
    spec: ProblemSpec, p: np.ndarray, march: tuple, data: np.ndarray, scale: np.ndarray,
    tol: float, max_iter: int,
) -> tuple[np.ndarray, tuple, int, np.ndarray]:
    """From p and its tangent march to (last iterate, its march, steps, Jacobian).

    The 2-norms are the expressions `np.linalg.norm` evaluates for a vector
    and for the columns of a matrix, without its wrapper's cost per call.
    """
    r, jac = _read_march(march, data, scale)
    it = 0
    # a finite trial mismatch may still overflow its norm: inf is not < best
    with np.errstate(over="ignore"):
        while it < max_iter:
            if abs(r).max() <= tol or not np.isfinite(jac).all():
                break
            col_scale = np.sqrt(np.add.reduce(jac * jac, axis=0))
            col_scale[col_scale == 0.0] = 1.0
            y, *_ = np.linalg.lstsq(jac / col_scale, -r, rcond=None)
            step = y / col_scale
            best = math.sqrt(r.dot(r))
            s = 1.0
            for _ in range(31):
                candidate = p + s * step
                if (candidate == p).all():  # every smaller s rounds to p: the search fails
                    break
                trial = march_arrays(spec, candidate, tangent=True)
                r_new, jac_new = _read_march(trial, data, scale)
                if math.sqrt(r_new.dot(r_new)) < best:
                    p, march, r, jac = candidate, trial, r_new, jac_new
                    break
                s *= 0.5
            if p is not candidate:  # no trial was accepted
                break
            it += 1
    return p, march, it, jac
