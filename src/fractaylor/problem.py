"""Problem instances: data model, JSON config ingestion, boundary synthesis.

A problem couples the fractional orders with the initial spatial data phi,
the two endpoint derivative-trace sequences mu1 (at x = 0) and mu2 (at
x = 1), the source mode, and the truncation sizes (nt time levels, nx
guaranteed final spatial width, kmax highest recoverable coefficient
index).  Boundary data is kept as coefficient sequences in the normalized
t-basis, never as callables: the solvers only ever consume coefficients.

Configs are JSON documents with a fixed field set (unknown fields are a
hard error) and explicit generators for the data sequences, e.g.::

    {
      "alpha": 1.0, "beta": 1.0, "nt": 8, "nx": 8, "kmax": 4,
      "phi": {"kind": "ml_power", "m": 2},
      "mu1": {"kind": "zero"},
      "mu2": {"kind": "separable", "lambda": 2.0},
      "f": "self",
      "p": {"kind": "coeffs", "values": [0.0, 0.0, -8.0]}
    }

`problem_from_config` is the one builder of a ProblemSpec from such a
mapping, for the built-in examples of `cases` too.  Generators: ``ml_power``
(phi = E_beta(x^(m*beta))), ``separable`` (`synthesize_boundary`),
``coeffs`` and ``zero``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .gammafn import ml_power_coeffs
from .series import (
    BiFracSeries,
    DomainError,
    FracOrders,
    TSeries,
    WidthError,
    XSeries,
    deriv_trace_at_one,
)

__all__ = [
    "ConfigError",
    "ProblemSpec",
    "synthesize_boundary",
    "problem_from_config",
]

_TOP_FIELDS = frozenset(("alpha", "beta", "nt", "nx", "kmax", "phi", "mu1", "mu2", "f"))

# largest march width nx + 2*nt + 1 (and length of phi): it keeps a march's
# product table at 512 x 512 weights, all finite at beta = 1 (up to n = 1030)
MAX_WIDTH = 512


class ConfigError(ValueError):
    """A config document or problem instance violates the schema."""


def _check_width(what: str, width: int) -> None:
    """Reject a march width above MAX_WIDTH, before any gamma table is built."""
    if width > MAX_WIDTH:
        raise ConfigError(f"{what} = {width} exceeds the march width limit {MAX_WIDTH}")


@dataclass(frozen=True)
class ProblemSpec:
    """One forward/inverse problem instance.

    ``f_series`` holds the source factor when it is a known series;
    ``None`` means the source is coupled to the solution itself (the
    self-coupled form used by both built-in example problems).  ``p_known``
    is only consulted by forward runs.
    """

    orders: FracOrders
    nt: int
    nx: int
    kmax: int
    phi: XSeries
    mu1: TSeries
    mu2: TSeries
    f_series: BiFracSeries | None = None
    p_known: XSeries | None = None

    def __post_init__(self) -> None:
        for name in ("nt", "nx", "kmax"):
            _nonneg_int(name, getattr(self, name))
        if self.kmax > self.nx:
            raise ConfigError(f"kmax={self.kmax} must not exceed nx={self.nx}")
        _check_width("len(phi)", len(self.phi))
        required = self.nx + 2 * self.nt + 1
        if len(self.phi) < required:
            raise ConfigError(
                f"phi has {len(self.phi)} coefficients but the marching recurrence "
                f"needs at least nx + 2*nt + 1 = {required}"
            )
        if self.phi.beta != self.orders.beta:
            raise ConfigError("phi is expressed at a different beta than the problem orders")
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if len(mu) < self.nt:
                raise ConfigError(f"{name} has {len(mu)} entries, need at least nt = {self.nt}")
            if mu.alpha != self.orders.alpha:
                raise ConfigError(f"{name} is expressed at a different alpha than the problem orders")
        if self.f_series is not None and self.f_series.orders != self.orders:
            raise ConfigError("f series orders differ from the problem orders")
        if self.p_known is not None:
            if self.p_known.beta != self.orders.beta:
                raise ConfigError("p is expressed at a different beta than the problem orders")
            if len(self.p_known) > self.kmax + 1:
                raise ConfigError(
                    f"p has {len(self.p_known)} coefficients, at most kmax + 1 = {self.kmax + 1} allowed"
                )

    @property
    def self_coupled(self) -> bool:
        return self.f_series is None


def synthesize_boundary(
    phi: XSeries, lam: float, nt: int, at: str, alpha: float = 1.0
) -> TSeries:
    """Endpoint derivative-trace sequence of the separable solution built on phi.

    For a solution whose time factor has normalized coefficients lam**i,
    the order-beta spatial derivative trace at an endpoint is m_i =
    lam**i * c, where c is the trace of the shifted phi: c = phi_1 at
    x = 0 (only the constant term of the shifted series survives) and
    c = sum_j phi_{j+1}/Gamma(j*beta+1) at x = 1.  The constant uses the
    current truncation width of phi, keeping the data consistent with the
    truncated forward model rather than with an analytic limit.

    Raises:
        ValueError: if the trace constant or a term overflows the float range.
    """
    if nt < 0:
        raise ValueError(f"nt must be >= 0, got {nt}")
    if at == "x0":
        if len(phi) < 2:
            raise WidthError("need width >= 1 to take a derivative trace")
        c = float(phi.coeffs[1])  # Python floats: an overflowing product below is inf, silently
    elif at == "x1":
        c = deriv_trace_at_one(phi.coeffs, phi.beta)
        if not math.isfinite(c):
            raise ValueError("the x = 1 trace of phi overflows the float range")
    else:
        raise ValueError(f"at must be 'x0' or 'x1', got {at!r}")
    try:
        # Python's lam**i, not np.power: the two differ in the last bit for some (lam, i)
        values = tuple(lam**i * c for i in range(nt + 1))
    except OverflowError:  # lam**i itself; an overflowing product is inf instead
        values = (math.inf,)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"lambda = {lam:g} overflows the trace sequence within nt = {nt} levels")
    return TSeries(alpha, values)


def decode_config(text: str) -> dict:
    """Decode a JSON config document, which must hold one JSON object."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # the only other ValueError: too many digits for int()
        raise ConfigError("invalid JSON: an integer literal has too many digits") from exc
    except RecursionError as exc:
        raise ConfigError("invalid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    return cfg


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Build a ProblemSpec from an already-decoded config mapping."""
    unknown = sorted(cfg.keys() - _TOP_FIELDS - {"p"})
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    missing = sorted(_TOP_FIELDS - cfg.keys())
    if missing:
        raise ConfigError(f"missing config fields: {', '.join(missing)}")

    alpha = _real(cfg, "alpha")
    beta = _real(cfg, "beta")
    try:
        orders = FracOrders(alpha, beta)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    nt = _nonneg_int("nt", cfg["nt"])
    nx = _nonneg_int("nx", cfg["nx"])
    kmax = _nonneg_int("kmax", cfg["kmax"])
    _check_width("nx + 2*nt + 1", nx + 2 * nt + 1)

    kind, value = _generator(cfg["phi"], "phi", allowed=("ml_power", "coeffs"))
    if kind == "ml_power":
        try:
            phi = ml_power_coeffs(beta, value, nx + 2 * nt)
        except ValueError as exc:
            raise ConfigError(f"phi: {exc}") from exc
    else:
        _check_width("len(phi)", len(value))
        phi = XSeries(beta, value)

    mu1 = _expand_mu(cfg, "mu1", phi, alpha, nt, "x0")
    mu2 = _expand_mu(cfg, "mu2", phi, alpha, nt, "x1")

    f_series = _parse_f(cfg["f"], orders)

    p_known = None
    if "p" in cfg:
        p_known = XSeries(beta, _generator(cfg["p"], "p", allowed=("coeffs",))[1])

    return ProblemSpec(
        orders=orders, nt=nt, nx=nx, kmax=kmax,
        phi=phi, mu1=mu1, mu2=mu2, f_series=f_series, p_known=p_known,
    )


def _expand_mu(cfg: dict, field: str, phi: XSeries, alpha: float, nt: int, at: str) -> TSeries:
    kind, value = _generator(cfg[field], field, allowed=("zero", "separable", "coeffs"))
    if kind == "zero":
        return TSeries(alpha, (0.0,) * (nt + 1))
    if kind == "separable":
        try:
            return synthesize_boundary(phi, value, nt, at, alpha)
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}") from exc
    return TSeries(alpha, value)


def _parse_f(raw, orders: FracOrders) -> BiFracSeries | None:
    if raw == "self":
        return None
    if not isinstance(raw, dict):
        raise ConfigError('f must be "self" or an object {"kind": "coeffs2d", "values": [[...]]}')
    unknown = sorted(set(raw) - {"kind", "values"})
    if unknown:
        raise ConfigError(f"unknown fields in f: {', '.join(unknown)}")
    if raw.get("kind") != "coeffs2d":
        raise ConfigError(f"f kind must be 'coeffs2d', got {raw.get('kind')!r}")
    values = raw.get("values")
    if not isinstance(values, list) or not values or not all(isinstance(v, list) for v in values):
        raise ConfigError("f values must be a nonempty list of coefficient lists")
    if not all(_is_real(c) for level in values for c in level):
        raise ConfigError("f values must be lists of real numbers")
    try:
        return BiFracSeries(orders, values)
    except ValueError as exc:
        raise ConfigError(f"f values invalid: {exc}") from exc


def _generator(raw, field: str, allowed: tuple[str, ...]) -> tuple[str, object]:
    """The kind of a generator object and its checked parameter.

    The parameter is m (an int >= 1) for ``ml_power``, lambda (a finite
    float) for ``separable``, values (a list of finite reals) for
    ``coeffs``, and None for ``zero``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{field} must be a generator object with a 'kind' key")
    kind = raw.get("kind")
    if kind not in allowed:
        raise ConfigError(f"{field} generator kind must be one of {allowed}, got {kind!r}")
    keys = {"ml_power": {"kind", "m"}, "coeffs": {"kind", "values"},
            "zero": {"kind"}, "separable": {"kind", "lambda"}}[kind]
    unknown = sorted(raw.keys() - keys)
    if unknown:
        raise ConfigError(f"unknown fields in {field}: {', '.join(unknown)}")
    if kind == "ml_power":
        m = raw.get("m")
        if not isinstance(m, int) or isinstance(m, bool):
            raise ConfigError(f"{field}.m must be an integer, got {m!r}")
        if m < 1:
            raise ConfigError("ml_power generator needs an integer m >= 1")
        return kind, m
    if kind == "separable":
        lam = raw.get("lambda")
        if not _is_real(lam):
            raise ConfigError(f"{field}.lambda must be a real number, got {lam!r}")
        if not math.isfinite(lam):
            raise ConfigError(f"{field}.lambda must be finite, got {lam!r}")
        return kind, float(lam)
    if kind == "coeffs":
        values = raw.get("values")
        if not isinstance(values, list) or not all(map(_is_real, values)):
            raise ConfigError(f"{field}.values must be a list of real numbers")
        if not all(map(math.isfinite, values)):
            raise ConfigError("coeffs generator values must all be finite")
        return kind, values
    return kind, None


def _is_real(value) -> bool:
    """A JSON number: a float, or an int (not a bool) that converts to a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return isinstance(value, float) or math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _real(cfg: dict, field: str) -> float:
    value = cfg.get(field)
    if not _is_real(value):
        raise ConfigError(f"{field} must be a real number, got {value!r}")
    return float(value)


def _nonneg_int(field: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{field} must be a nonnegative integer, got {value!r}")
    return value
