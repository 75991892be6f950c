"""Truncated bivariate fractional Taylor series and their coefficient algebra.

A solution candidate is stored as a trapezoidal table of coefficients
a[i][j] with the meaning

    u(x, t) = sum_{i,j} a[i][j] * t^(i*alpha)/Gamma(i*alpha+1)
                                * x^(j*beta)/Gamma(j*beta+1)

for fractional orders 0 < alpha, beta <= 1.  Working in this *normalized*
basis (rather than with bare coefficients of t^(i*alpha) x^(j*beta)) makes
both Caputo derivative operators pure index shifts and turns multiplication
by a spatial series into a convolution weighted by B_beta (the kernel
`gammafn.convolution_matrix`).  The bare
("raw") coefficients exist only at the conversion boundary provided by
`raw_from_normalized`/`normalized_from_raw`.

All series values are immutable after construction; every operation returns
a new value, so instances may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gammafn import convolution_matrix, gamma_table

__all__ = [
    "DomainError",
    "WidthError",
    "FracOrders",
    "XSeries",
    "TSeries",
    "BiFracSeries",
    "eval_series",
    "eval_xseries",
    "dt_shift",
    "dx_shift",
    "mul_x",
    "add",
    "scale",
    "convolve_x",
    "raw_from_normalized",
    "normalized_from_raw",
    "deriv_trace_at_zero",
    "deriv_trace_at_one",
]


class DomainError(ValueError):
    """An argument left the mathematical domain of an operation."""


class WidthError(ValueError):
    """A truncated series is too narrow (or shallow) for the request."""


def _check_unit_interval_order(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {value}")


@dataclass(frozen=True)
class FracOrders:
    """The pair of fractional derivative orders (time, space)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_unit_interval_order("alpha", self.alpha)
        _check_unit_interval_order("beta", self.beta)


@dataclass(frozen=True)
class XSeries:
    """Spatial coefficient sequence in the basis x^(j*beta)/Gamma(j*beta+1)."""

    beta: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_unit_interval_order("beta", self.beta)
        coeffs = tuple(map(float, self.coeffs))
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("XSeries coefficients must all be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class TSeries:
    """Temporal coefficient sequence in the basis t^(i*alpha)/Gamma(i*alpha+1)."""

    alpha: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_unit_interval_order("alpha", self.alpha)
        coeffs = tuple(map(float, self.coeffs))
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("TSeries coefficients must all be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class BiFracSeries:
    """Trapezoidally truncated bivariate series in the normalized basis.

    ``levels[i][j]`` holds a[i][j]; level widths are explicit so that
    coefficients a truncation never determined cannot be read by accident.
    Levels produced by the forward march narrow by two spatial orders per
    time step; free-standing series may be rectangular.
    """

    orders: FracOrders
    levels: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        levels = tuple(tuple(map(float, level)) for level in self.levels)
        if not levels:
            raise ValueError("BiFracSeries needs at least one time level")
        for i, level in enumerate(levels):
            if not level:
                raise ValueError(f"time level {i} is empty")
            if not all(map(math.isfinite, level)):
                raise ValueError(f"time level {i} contains non-finite coefficients")
        object.__setattr__(self, "levels", levels)

    @property
    def nt(self) -> int:
        """Largest stored time index."""
        return len(self.levels) - 1

    def width(self, i: int) -> int:
        """Largest stored spatial index at time level i."""
        return len(self.levels[i]) - 1

    def coeff(self, i: int, j: int) -> float:
        """Stored coefficient a[i][j]; raises IndexError outside the trapezoid."""
        if not 0 <= i <= self.nt or not 0 <= j <= self.width(i):
            raise IndexError(f"coefficient ({i}, {j}) is outside the stored trapezoid")
        return self.levels[i][j]


def eval_xseries(q: XSeries, x: float) -> float:
    """Evaluate a spatial series at x >= 0 (with the convention 0**0 = 1)."""
    if not x >= 0.0:
        raise DomainError(f"fractional powers need x >= 0, got {x}")
    return float(np.dot(q.coeffs, _basis(q.beta, x, len(q))))


def eval_series(s: BiFracSeries, x: float, t: float | Sequence[float]) -> float | np.ndarray:
    """Evaluate the truncated series at x >= 0 and one or more t >= 0.

    A scalar t gives a float; a 1-D sequence of t gives an array of the
    values at (x, t[k]), each bit for bit the scalar result: the x basis
    and the level sums are computed once and the levels are accumulated in
    the same order for every t.  numpy's ``0.0 ** 0.0 == 1.0`` supplies the
    0**0 = 1 convention needed for the constant term on the coordinate axes.
    """
    ts = np.asarray(t, dtype=float)
    if not (x >= 0.0 and np.all(ts >= 0.0)):
        raise DomainError(f"fractional powers need x, t >= 0, got x={x}, t={t}")
    xbasis = _basis(s.orders.beta, x, max(len(level) for level in s.levels))
    tbasis = _basis(s.orders.alpha, ts[..., None], len(s.levels))
    acc = 0
    for i, level in enumerate(s.levels):
        acc = acc + tbasis[..., i] * np.dot(level, xbasis[: len(level)])
    return float(acc) if ts.ndim == 0 else acc


def _basis(order: float, x: float | np.ndarray, n: int) -> np.ndarray:
    """Normalized basis values x^(j*order)/Gamma(j*order+1) for j < n (along the last axis)."""
    return x ** (np.arange(n) * order) * gamma_table(order, n).rgamma[:n]


def dt_shift(s: BiFracSeries, r: int) -> BiFracSeries:
    """Caputo time derivative of order r*alpha as a pure index shift.

    In the normalized basis the derivative sends a[i][j] to a[i+r][j]: the
    gamma-ratio factor Gamma((i+r)*alpha+1)/Gamma(i*alpha+1) that multiplies
    the raw coefficients is exactly absorbed by the basis normalization, so
    no arithmetic beyond the shift is performed (the tests verify this
    against the raw-basis formula).  Constants are annihilated for r >= 1.
    """
    if r < 1:
        raise ValueError(f"shift order must be a positive integer, got {r}")
    if r > s.nt:
        raise WidthError(f"time shift r={r} exceeds stored depth nt={s.nt}")
    return BiFracSeries(s.orders, s.levels[r:])


def dx_shift(s: BiFracSeries, r: int) -> BiFracSeries:
    """Caputo space derivative of order r*beta as a pure index shift.

    Sends a[i][j] to a[i][j+r]; composing two single shifts equals one shift
    by two, matching the telescoped gamma factor of the second derivative.
    """
    if r < 1:
        raise ValueError(f"shift order must be a positive integer, got {r}")
    short = [i for i in range(s.nt + 1) if s.width(i) < r]
    if short:
        raise WidthError(
            f"space shift r={r} exceeds stored width {s.width(short[0])} at level {short[0]}"
        )
    return BiFracSeries(s.orders, tuple(level[r:] for level in s.levels))


def mul_x(s: BiFracSeries, q: XSeries, jcap: int) -> BiFracSeries:
    """Multiply by a spatial series, truncating every level at index jcap.

    c[i][j] = sum_{k<=j} q_k * B_beta(k, j-k) * a[i][j-k].  The result is
    exact for j <= jcap provided jcap does not exceed any stored level
    width; q itself is treated as a complete polynomial.
    """
    if q.beta != s.orders.beta:
        raise DomainError(
            f"spatial order mismatch: series has beta={s.orders.beta}, factor has beta={q.beta}"
        )
    if jcap < 0:
        raise ValueError(f"jcap must be >= 0, got {jcap}")
    narrow = [i for i in range(s.nt + 1) if s.width(i) < jcap]
    if narrow:
        raise WidthError(
            f"jcap={jcap} exceeds stored width {s.width(narrow[0])} at level {narrow[0]}"
        )
    w = convolution_matrix(q.coeffs, s.orders.beta, jcap + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array([level[: jcap + 1] for level in s.levels]) @ w.T
    return BiFracSeries(s.orders, tuple(tuple(row) for row in out.tolist()))


def add(a: BiFracSeries, b: BiFracSeries) -> BiFracSeries:
    """Coefficientwise sum on the common trapezoid of the two operands."""
    if a.orders != b.orders:
        raise DomainError("cannot add series with different fractional orders")
    depth = min(a.nt, b.nt)
    levels = tuple(
        tuple(
            a.levels[i][j] + b.levels[i][j]
            for j in range(min(a.width(i), b.width(i)) + 1)
        )
        for i in range(depth + 1)
    )
    return BiFracSeries(a.orders, levels)


def scale(s: BiFracSeries, c: float) -> BiFracSeries:
    """Multiply every coefficient by the scalar c."""
    return BiFracSeries(s.orders, tuple(tuple(c * v for v in level) for level in s.levels))


def convolve_x(q1: XSeries, q2: XSeries, jcap: int) -> XSeries:
    """B_beta-weighted Cauchy product of two spatial series up to index jcap.

    Both inputs are treated as complete polynomials, so every returned
    coefficient is exact.
    """
    if q1.beta != q2.beta:
        raise DomainError("cannot convolve spatial series with different beta")
    if jcap < 0:
        raise ValueError(f"jcap must be >= 0, got {jcap}")
    w = convolution_matrix(q1.coeffs, q1.beta, jcap + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = w @ zero_padded(q2.coeffs, jcap + 1)
    return XSeries(q1.beta, tuple(out.tolist()))


def zero_padded(values: Sequence[float], n: int) -> np.ndarray:
    """The first n entries of values as an array, zero-filled past its end."""
    out = np.zeros(n)
    out[: min(n, len(values))] = values[:n]
    return out


def raw_from_normalized(s: BiFracSeries) -> dict[tuple[int, int], float]:
    """Bare power-basis coefficients g[i,j] of t^(i*alpha) x^(j*beta).

    g[i,j] = a[i][j] / (Gamma(i*alpha+1) * Gamma(j*beta+1)); the inverse
    conversion divides by the same factor.
    """
    rt, rx = _rgammas(s.orders, len(s.levels), max(len(level) for level in s.levels))
    return {(i, j): c * (rt[i] * rx[j])
            for i, level in enumerate(s.levels) for j, c in enumerate(level)}


def normalized_from_raw(
    orders: FracOrders, raw: Mapping[tuple[int, int], float]
) -> BiFracSeries:
    """Rebuild a normalized series from bare coefficients (missing entries are 0)."""
    if not raw:
        raise ValueError("raw coefficient map is empty")
    nt = max(i for i, _ in raw)
    widths = [max((j for k, j in raw if k == i), default=0) for i in range(nt + 1)]
    rt, rx = _rgammas(orders, nt + 1, max(widths) + 1)
    return BiFracSeries(orders, tuple(
        tuple(raw.get((i, j), 0.0) / (rt[i] * rx[j]) for j in range(width + 1))
        for i, width in enumerate(widths)
    ))


def _rgammas(orders: FracOrders, nlevels: int, width: int) -> tuple[list[float], list[float]]:
    """1/Gamma(i*alpha+1) for i < nlevels and 1/Gamma(j*beta+1) for j < width."""
    return (gamma_table(orders.alpha, nlevels).rgamma.tolist(),
            gamma_table(orders.beta, width).rgamma.tolist())


def deriv_trace_at_zero(coeffs: Sequence[float]) -> float:
    """Value at x = 0 of the order-beta derivative of a spatial sequence.

    Shifting by one and evaluating at x = 0 leaves only the j = 0 term.
    """
    if len(coeffs) < 2:
        raise WidthError("need width >= 1 to take a derivative trace")
    return float(coeffs[1])


def deriv_trace_at_one(coeffs: Sequence[float], beta: float) -> float:
    """Value at x = 1 of the order-beta derivative of a spatial sequence."""
    if len(coeffs) < 2:
        raise WidthError("need width >= 1 to take a derivative trace")
    n = len(coeffs) - 1
    return float(np.dot(coeffs[1:], gamma_table(beta, n).rgamma[:n]))
