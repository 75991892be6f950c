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

Every series stores read-only float64 arrays: ``XSeries.coeffs`` and
``TSeries.coeffs`` are 1-D, ``BiFracSeries.array`` is the padded table, and
``BiFracSeries.levels`` is the one tuple view.  A constructor copies its
input, so instances are immutable and may be shared freely across threads;
every operation returns a new value.  Two series are equal only when they
are the same object.
"""

from __future__ import annotations

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
    "dt_shift",
    "mul_x",
    "raw_from_normalized",
    "normalized_from_raw",
    "deriv_trace_at_one",
]


class DomainError(ValueError):
    """An argument left the mathematical domain of an operation."""


class WidthError(ValueError):
    """A truncated series is too narrow (or shallow) for the request."""


def _check_unit_interval_order(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {value}")


def _init_series(series, order: str) -> None:
    _check_unit_interval_order(order, getattr(series, order))
    coeffs = np.array(series.coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError(f"{type(series).__name__} coefficients must be 1-D, got {coeffs.ndim}-D")
    if not np.isfinite(coeffs).all():
        raise ValueError(f"{type(series).__name__} coefficients must all be finite")
    coeffs.flags.writeable = False
    object.__setattr__(series, "coeffs", coeffs)


@dataclass(frozen=True)
class FracOrders:
    """The pair of fractional derivative orders (time, space)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_unit_interval_order("alpha", self.alpha)
        _check_unit_interval_order("beta", self.beta)


@dataclass(frozen=True, eq=False)
class XSeries:
    """Spatial coefficient sequence in the basis x^(j*beta)/Gamma(j*beta+1)."""

    beta: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _init_series(self, "beta")

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True, eq=False)
class TSeries:
    """Temporal coefficient sequence in the basis t^(i*alpha)/Gamma(i*alpha+1)."""

    alpha: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _init_series(self, "alpha")

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True, init=False, eq=False)
class BiFracSeries:
    """Trapezoidally truncated bivariate series in the normalized basis.

    ``array[i, j]`` holds a[i][j] for j < ``sizes[i]`` and is 0 past the
    level's size; the float64 array is read-only.  Level sizes are
    explicit so that coefficients a truncation never determined cannot be
    read by accident.  Levels produced by the forward march narrow by two
    spatial orders per time step; free-standing series may be rectangular.
    ``levels`` is the same table as tuples of Python floats, built on
    request.
    """

    orders: FracOrders
    array: np.ndarray
    sizes: tuple[int, ...]

    def __init__(self, orders: FracOrders, levels: Iterable[Sequence[float]]) -> None:
        rows = list(levels)
        if not rows:
            raise ValueError("BiFracSeries needs at least one time level")
        sizes = tuple(map(len, rows))
        array = np.zeros((len(rows), max(sizes)))
        for row, level, n in zip(array, rows, sizes):
            row[:n] = level
        self._adopt(orders, array, sizes)

    @classmethod
    def _from_padded(
        cls, orders: FracOrders, array: np.ndarray, sizes: tuple[int, ...]
    ) -> BiFracSeries:
        """The series over a float64 ``array`` already zero past each level's size.

        The array is taken over without a copy and made read-only; it is
        validated as in ``__init__``.
        """
        series = cls.__new__(cls)
        series._adopt(orders, array, sizes)
        return series

    def _adopt(self, orders: FracOrders, array: np.ndarray, sizes: tuple[int, ...]) -> None:
        if not (min(sizes) > 0 and np.isfinite(array).all()):  # name the first bad level
            valid = np.isfinite(array).all(axis=1) & (np.array(sizes) > 0)
            i = int(valid.argmin())
            problem = "is empty" if sizes[i] == 0 else "contains non-finite coefficients"
            raise ValueError(f"time level {i} {problem}")
        array.flags.writeable = False
        self.__dict__.update(orders=orders, array=array, sizes=sizes)

    @property
    def levels(self) -> tuple[tuple[float, ...], ...]:
        """``levels[i][j]`` = a[i][j], one tuple of Python floats per time level."""
        return tuple(tuple(row[:n]) for row, n in zip(self.array.tolist(), self.sizes))

    @property
    def nt(self) -> int:
        """Largest stored time index."""
        return len(self.sizes) - 1

    def width(self, i: int) -> int:
        """Largest stored spatial index at time level i."""
        return self.sizes[i] - 1


def eval_series(s: BiFracSeries, x: float, t: float | Sequence[float]) -> float | np.ndarray:
    """Evaluate the truncated series at x >= 0 and one or more t >= 0.

    The composition of `level_values` at x and `time_sum` over the t basis.
    A scalar t gives a float; a 1-D sequence of t gives an array of the
    values at (x, t[k]), each bit for bit the scalar result: the x basis
    and the level sums are computed once and the levels are accumulated in
    the same order for every t.  numpy's ``0.0 ** 0.0 == 1.0`` supplies the
    0**0 = 1 convention needed for the constant term on the coordinate axes.
    """
    ts = np.asarray(t, dtype=float)
    if not (x >= 0.0 and np.all(ts >= 0.0)):
        raise DomainError(f"fractional powers need x, t >= 0, got x={x}, t={t}")
    acc = time_sum(time_basis(s.orders.alpha, ts, len(s.sizes)), level_values(s, x))
    return float(acc) if ts.ndim == 0 else acc


def level_values(s: BiFracSeries, x: float) -> np.ndarray:
    """The spatial sum of each time level at x >= 0.

    v[i] = sum_j a[i][j] * x^(j*beta)/Gamma(j*beta+1).  The values depend
    on beta and x but not on alpha, so a series relabelled to another
    alpha has the same level values.
    """
    if not x >= 0.0:
        raise DomainError(f"fractional powers need x >= 0, got {x}")
    xbasis = _basis(s.orders.beta, x, s.array.shape[1])
    return np.array([np.dot(row[:n], xbasis[:n]) for row, n in zip(s.array, s.sizes)])


def time_basis(alpha: float, t: float | Sequence[float] | np.ndarray, n: int) -> np.ndarray:
    """t^(i*alpha)/Gamma(i*alpha+1) for i < n along a new last axis of the t values (t >= 0)."""
    return _basis(alpha, np.asarray(t, dtype=float)[..., None], n)


def time_sum(tbasis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i tbasis[..., i] * values[..., i], broadcasting over the leading axes.

    The levels are added one at a time in index order, so every cell is
    bit for bit the sum of its own series whatever the shape of the batch;
    a matrix product would sum in an order of its own and move the
    rounding-level cells.
    """
    acc = 0
    for i in range(values.shape[-1]):
        acc = acc + tbasis[..., i] * values[..., i]
    return acc


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
    return BiFracSeries(s.orders, [row[:n] for row, n in zip(s.array[r:], s.sizes[r:])])


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
        out = s.array[:, : jcap + 1] @ w.T
    return BiFracSeries(s.orders, out)


def raw_from_normalized(s: BiFracSeries) -> dict[tuple[int, int], float]:
    """Bare power-basis coefficients g[i,j] of t^(i*alpha) x^(j*beta).

    g[i,j] = a[i][j] / (Gamma(i*alpha+1) * Gamma(j*beta+1)); the inverse
    conversion divides by the same factor.
    """
    rt, rx = _rgammas(s.orders, *s.array.shape)
    return {(i, j): c * (rt[i] * rx[j])
            for i, (row, n) in enumerate(zip(s.array.tolist(), s.sizes))
            for j, c in enumerate(row[:n])}


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


def deriv_trace_at_one(coeffs: np.ndarray, beta: float) -> float:
    """Value at x = 1 of the order-beta derivative of a spatial sequence."""
    if len(coeffs) < 2:
        raise WidthError("need width >= 1 to take a derivative trace")
    n = len(coeffs) - 1
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf, callers reject
        return float(np.dot(coeffs[1:], gamma_table(beta, n).rgamma[:n]))
