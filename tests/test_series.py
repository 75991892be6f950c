"""Series algebra against brute-force polynomial oracles.

At beta = 1 the normalized basis is x^j/j!, so every operation can be
checked independently by converting to plain monomial coefficients
(divide by j!), doing schoolbook polynomial arithmetic, and converting
back.  The raw-basis conversion provides the cross-check for the shift
operators at fractional orders.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractaylor import (
    BiFracSeries,
    DomainError,
    FracOrders,
    TSeries,
    WidthError,
    XSeries,
    deriv_trace_at_one,
    dt_shift,
    eval_series,
    example_problem,
    forward_march,
    mul_x,
    normalized_from_raw,
    raw_from_normalized,
)
from fractaylor.gammafn import gamma_table
from fractaylor.series import level_values

ORDERS11 = FracOrders(1.0, 1.0)


def monomial_from_normalized(coeffs):
    """Oracle basis change at beta = 1: coefficient of x^j is a_j / j!."""
    return [c / math.factorial(j) for j, c in enumerate(coeffs)]


def normalized_from_monomial(coeffs):
    return [c * math.factorial(j) for j, c in enumerate(coeffs)]


def poly_mul(a, b, jcap):
    """Schoolbook product of monomial coefficient lists, truncated at jcap."""
    out = [0.0] * (jcap + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= jcap:
                out[i + j] += ai * bj
    return out


def exp_x2_normalized(jmax):
    """Normalized coefficients of exp(x^2): a_{2j} = (2j)!/j!."""
    a = [0.0] * (jmax + 1)
    j = 0
    while 2 * j <= jmax:
        a[2 * j] = math.factorial(2 * j) / math.factorial(j)
        j += 1
    return a


def exp2t_expx2_series(nt, jmax):
    """Rectangular truncation of exp(2t) * exp(x^2): a[i][2j] = 2^i (2j)!/j!."""
    row = exp_x2_normalized(jmax)
    return BiFracSeries(ORDERS11, tuple(tuple(2.0**i * c for c in row) for i in range(nt + 1)))


# --- evaluation ---------------------------------------------------------


def test_eval_constant_series():
    s = BiFracSeries(ORDERS11, ((1.0,),))
    for x, t in ((0.0, 0.0), (0.3, 0.9), (1.0, 1.0)):
        assert eval_series(s, x, t) == 1.0


def test_eval_matches_exp_closed_form():
    s = exp2t_expx2_series(12, 24)
    got = eval_series(s, 0.5, 0.05)
    assert abs(got - math.exp(0.35)) < 1e-5
    assert got == pytest.approx(1.4190675, abs=5e-7)


def test_eval_time_power_vanishes_at_origin():
    s = BiFracSeries(ORDERS11, ((0.0,), (1.0,)))
    assert eval_series(s, 0.3, 0.0) == 0.0


def test_eval_rejects_negative_points():
    s = BiFracSeries(ORDERS11, ((1.0,),))
    with pytest.raises(DomainError):
        eval_series(s, -0.1, 0.5)
    with pytest.raises(DomainError):
        eval_series(s, 0.5, -0.1)


def test_series_helpers_reject_arguments_outside_their_domain():
    s = BiFracSeries(ORDERS11, ((1.0, 2.0),))
    with pytest.raises(DomainError, match="need x >= 0, got -0.1"):
        level_values(s, -0.1)
    with pytest.raises(ValueError, match="jcap must be >= 0, got -1"):
        mul_x(s, XSeries(1.0, (1.0,)), -1)
    with pytest.raises(ValueError, match="raw coefficient map is empty"):
        normalized_from_raw(ORDERS11, {})
    with pytest.raises(WidthError, match="need width >= 1"):
        deriv_trace_at_one(np.ones(1), 1.0)


def test_eval_initial_condition_trace_matches_xseries():
    rng = random.Random(7)
    levels = tuple(
        tuple(rng.uniform(-3, 3) for _ in range(8 - 2 * i)) for i in range(3)
    )
    s = BiFracSeries(FracOrders(0.9, 0.7), levels)
    for x in (0.0, 0.25, 1.0):
        trace = sum(c * x ** (j * 0.7) / math.gamma(j * 0.7 + 1.0) for j, c in enumerate(levels[0]))
        assert eval_series(s, x, 0.0) == pytest.approx(trace, rel=1e-14, abs=1e-14)


def scalar_eval_reference(s, x, t):
    """The one-point evaluation written out: per level, tbasis[i] * (level . xbasis)."""
    nx = max(len(level) for level in s.levels)
    xbasis = x ** (np.arange(nx) * s.orders.beta) * gamma_table(s.orders.beta, nx).rgamma[:nx]
    n = len(s.levels)
    tbasis = t ** (np.arange(n) * s.orders.alpha) * gamma_table(s.orders.alpha, n).rgamma[:n]
    return float(sum(tb * np.dot(level, xbasis[: len(level)])
                     for tb, level in zip(tbasis, s.levels)))


@pytest.mark.parametrize("seed", range(6))
def test_eval_series_over_many_t_matches_scalar_calls_bit_for_bit(seed):
    rng = random.Random(seed)
    alpha, beta = rng.choice((1.0, 0.9, 0.7, rng.uniform(0.05, 1.0))), rng.uniform(0.05, 1.0)
    nt = rng.randint(0, 10)
    width0 = 2 * nt + rng.randint(1, 12)
    levels = tuple(
        tuple(rng.uniform(-10, 10) * 10.0 ** rng.randint(-8, 8) for _ in range(width0 + 1 - 2 * i))
        for i in range(nt + 1)
    )
    s = BiFracSeries(FracOrders(alpha, beta), levels)
    ts = [0.0] + sorted(rng.uniform(0.0, 1.0) for _ in range(9)) + [1.0]
    for x in (0.0, 0.3, 1.0):
        got = eval_series(s, x, ts)
        assert isinstance(got, np.ndarray) and got.shape == (len(ts),)
        for value, t in zip(got.tolist(), ts):
            assert value == eval_series(s, x, t)
            assert value == scalar_eval_reference(s, x, t)
        assert eval_series(s, x, np.array(ts)).tolist() == got.tolist()


def test_eval_series_scalar_t_returns_float():
    s = BiFracSeries(FracOrders(0.9, 0.7), ((1.0, 2.0, 3.0), (4.0,)))
    for t in (0.0, 0.5, 1, np.float64(0.25)):
        assert type(eval_series(s, 0.4, t)) is float


@pytest.mark.parametrize("bad", (-0.1, math.nan))
@pytest.mark.parametrize("where", (0, 2, 4))
def test_eval_series_rejects_a_bad_t_anywhere_in_the_array(bad, where):
    s = BiFracSeries(ORDERS11, ((1.0, 1.0), (2.0,)))
    ts = [0.0, 0.25, 0.5, 0.75, 1.0]
    ts[where] = bad
    with pytest.raises(DomainError):
        eval_series(s, 0.5, ts)
    with pytest.raises(DomainError):
        eval_series(s, 0.5, np.array(ts))


# --- time shift ---------------------------------------------------------


def test_dt_shift_annihilates_constant():
    s = BiFracSeries(ORDERS11, ((5.0,), (0.0,)))
    assert dt_shift(s, 1).levels == ((0.0,),)


@pytest.mark.parametrize("alpha", [1.0, 0.9, 0.7])
@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_dt_shift_eigenfunction_property(alpha, lam):
    # the time exponential with eigenvalue lam has normalized levels lam**i
    nt = 10
    s = BiFracSeries(
        FracOrders(alpha, 1.0), tuple((lam**i,) for i in range(nt + 1))
    )
    shifted = dt_shift(s, 1)
    for i in range(nt):
        expected = lam * s.levels[i][0]
        assert abs(shifted.levels[i][0] - expected) <= 1e-12 * abs(expected)


def test_dt_shift_is_pure_index_shift():
    levels = ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0))
    s = BiFracSeries(ORDERS11, levels)
    assert dt_shift(s, 2).levels == levels[2:]


def test_dt_shift_depth_errors():
    s = BiFracSeries(ORDERS11, ((1.0,), (2.0,)))
    with pytest.raises(WidthError):
        dt_shift(s, 2)
    with pytest.raises(ValueError):
        dt_shift(s, 0)


def test_dt_shift_agrees_with_raw_basis_formula():
    # raw-basis derivative: g'[i][j] = g[i+1][j] * Gamma((i+1)a+1)/Gamma(ia+1)
    rng = random.Random(21)
    orders = FracOrders(0.9, 0.7)
    levels = tuple(
        tuple(rng.uniform(-10, 10) for _ in range(6)) for _ in range(5)
    )
    s = BiFracSeries(orders, levels)
    raw = raw_from_normalized(s)
    raw_shifted = {
        (i, j): raw[(i + 1, j)]
        * math.exp(math.lgamma((i + 1) * orders.alpha + 1.0) - math.lgamma(i * orders.alpha + 1.0))
        for (i, j) in raw
        if i + 1 <= s.nt
    }
    via_raw = normalized_from_raw(orders, raw_shifted)
    direct = dt_shift(s, 1)
    for i in range(direct.nt + 1):
        for j in range(direct.width(i) + 1):
            a, b = via_raw.levels[i][j], direct.levels[i][j]
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


# --- multiplication by a spatial series ---------------------------------


def test_mul_x_identity():
    rng = random.Random(11)
    levels = tuple(tuple(rng.uniform(-4, 4) for _ in range(6)) for _ in range(3))
    s = BiFracSeries(FracOrders(0.9, 0.7), levels)
    unit = XSeries(0.7, (1.0,))
    assert mul_x(s, unit, 5).levels == levels


def test_mul_x_zero_factor():
    s = BiFracSeries(ORDERS11, ((1.0, 2.0, 3.0),))
    zero = XSeries(1.0, (0.0, 0.0))
    assert mul_x(s, zero, 2).levels == ((0.0, 0.0, 0.0),)


def test_mul_x_x_times_x():
    # x in the normalized basis is a_1 = 1; x*x = 2 * x^2/2!
    s = BiFracSeries(ORDERS11, ((0.0, 1.0, 0.0),))
    q = XSeries(1.0, (0.0, 1.0))
    assert mul_x(s, q, 2).levels[0] == pytest.approx((0.0, 0.0, 2.0), rel=1e-12)


def test_mul_x_matches_polynomial_oracle():
    rng = random.Random(17)
    for _ in range(20):
        width = rng.randint(3, 9)
        qlen = rng.randint(1, 5)
        jcap = rng.randint(0, width)
        level = [rng.uniform(-5, 5) for _ in range(width + 1)]
        q = [rng.uniform(-5, 5) for _ in range(qlen)]
        s = BiFracSeries(ORDERS11, (tuple(level),))
        got = mul_x(s, XSeries(1.0, tuple(q)), jcap).levels[0]
        oracle = normalized_from_monomial(
            poly_mul(monomial_from_normalized(level), monomial_from_normalized(q), jcap)
        )
        for a, b in zip(got, oracle):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_mul_x_is_bilinear():
    rng = random.Random(5)
    orders = FracOrders(0.9, 0.7)
    mk = lambda: BiFracSeries(
        orders, tuple(tuple(rng.uniform(-3, 3) for _ in range(6)) for _ in range(2))
    )
    s1, s2 = mk(), mk()
    q = XSeries(0.7, tuple(rng.uniform(-3, 3) for _ in range(3)))
    # both series are rectangular, so their arrays hold exactly their levels
    lhs = mul_x(BiFracSeries(orders, s1.array + s2.array), q, 5)
    rhs = BiFracSeries(orders, mul_x(s1, q, 5).array + mul_x(s2, q, 5).array)
    for i in range(lhs.nt + 1):
        for a, b in zip(lhs.levels[i], rhs.levels[i]):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_mul_x_successive_factors_match_convolved_factor():
    rng = random.Random(29)
    orders = FracOrders(0.8, 0.9)
    width = 8
    s = BiFracSeries(
        orders, tuple(tuple(rng.uniform(-3, 3) for _ in range(width + 1)) for _ in range(2))
    )
    q1 = XSeries(0.9, tuple(rng.uniform(-2, 2) for _ in range(3)))
    q2 = XSeries(0.9, tuple(rng.uniform(-2, 2) for _ in range(4)))
    two_step = mul_x(mul_x(s, q1, width), q2, width)
    # q1 * q2 as the one level of a series holding q1, zero padded to the width
    q12 = mul_x(BiFracSeries(orders, (q1.coeffs.tolist() + [0.0] * (width - 2),)), q2, width)
    one_step = mul_x(s, XSeries(0.9, q12.levels[0]), width)
    for i in range(two_step.nt + 1):
        for a, b in zip(two_step.levels[i], one_step.levels[i]):
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


def test_mul_x_width_and_order_checks():
    s = BiFracSeries(ORDERS11, ((1.0, 2.0),))
    with pytest.raises(WidthError):
        mul_x(s, XSeries(1.0, (1.0,)), 2)
    with pytest.raises(DomainError):
        mul_x(s, XSeries(0.5, (1.0,)), 1)


# --- basis conversion ----------------------------------------------------


def test_raw_conversion_of_square_exponential_initial_data():
    # normalized a_{0,2j} = Gamma(2jb+1)/Gamma(jb+1) has raw coefficient
    # 1/Gamma(jb+1): the ML sum written over bare powers
    beta = 0.7
    jmax = 10
    coeffs = [0.0] * (jmax + 1)
    j = 0
    while 2 * j <= jmax:
        coeffs[2 * j] = math.exp(math.lgamma(2 * j * beta + 1.0) - math.lgamma(j * beta + 1.0))
        j += 1
    s = BiFracSeries(FracOrders(1.0, beta), (tuple(coeffs),))
    raw = raw_from_normalized(s)
    assert raw[(0, 0)] == 1.0
    for j in range(1, jmax // 2 + 1):
        expected = 1.0 / math.exp(math.lgamma(j * beta + 1.0))
        assert raw[(0, 2 * j)] == pytest.approx(expected, rel=1e-12)


def test_raw_roundtrip_is_identity():
    rng = random.Random(13)
    orders = FracOrders(0.85, 0.65)
    levels = tuple(
        tuple(rng.uniform(-10, 10) for _ in range(9 - 2 * i)) for i in range(4)
    )
    s = BiFracSeries(orders, levels)
    back = normalized_from_raw(orders, raw_from_normalized(s))
    for i in range(s.nt + 1):
        for a, b in zip(back.levels[i], s.levels[i]):
            assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


# --- construction constraints -------------------------------------------


def test_series_requires_finite_entries():
    with pytest.raises(ValueError):
        BiFracSeries(ORDERS11, ((1.0, math.inf),))
    with pytest.raises(ValueError):
        XSeries(1.0, (math.nan,))


def test_series_store_read_only_float64_copies():
    for cls in (XSeries, TSeries):
        source = np.array([0.5, -1.5, 2.0])
        series = cls(1.0, source)
        assert series.coeffs.dtype == np.float64 and series.coeffs.ndim == 1
        assert not series.coeffs.flags.writeable
        with pytest.raises(ValueError):
            series.coeffs[0] = 1.0
        source[0] = 9.0  # the constructor copied its input
        assert series.coeffs.tolist() == [0.5, -1.5, 2.0]
        assert cls(1.0, np.array([1, 2], dtype=np.int64)).coeffs.tolist() == [1.0, 2.0]
        assert cls(1.0, np.array([0.5], dtype=np.float32)).coeffs.dtype == np.float64
        with pytest.raises(ValueError, match=f"^{cls.__name__} coefficients must be 1-D"):
            cls(1.0, np.ones((2, 2)))
        # equality is identity
        assert series == series and series != cls(1.0, series.coeffs)
    # levels is the one tuple view: Python floats whatever the input type
    mixed = BiFracSeries(ORDERS11, (np.array([1, 2], dtype=np.int64), (np.float32(0.5),)))
    assert mixed.levels == ((1.0, 2.0), (0.5,))
    assert all(type(c) is float for level in mixed.levels for c in level)
    spec = example_problem(1, 0.9, 0.8, nt=3, nx=4, kmax=2)
    result = forward_march(spec, XSeries(0.8, (0.5, 0.0, -2.0)))
    assert result.traces.shape == (2, spec.nt + 1) and result.traces.dtype == np.float64
    assert not result.traces.flags.writeable
    for trace, row in zip((result.bc_trace_x0, result.bc_trace_x1), result.traces):
        assert trace.alpha == 0.9 and trace.coeffs.tobytes() == row.tobytes()


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_constructors_reject_a_non_finite_last_entry(bad):
    with pytest.raises(ValueError, match="^XSeries coefficients must all be finite$"):
        XSeries(1.0, (1.0, 2.0, bad))
    with pytest.raises(ValueError, match="^TSeries coefficients must all be finite$"):
        TSeries(1.0, np.array([1.0, 2.0, bad]))
    with pytest.raises(ValueError, match="^time level 1 contains non-finite coefficients$"):
        BiFracSeries(ORDERS11, ((1.0, 2.0, 3.0), (1.0, bad)))
    with pytest.raises(ValueError, match="^time level 1 is empty$"):
        BiFracSeries(ORDERS11, ((1.0,), ()))
    with pytest.raises(ValueError, match="^BiFracSeries needs at least one time level$"):
        BiFracSeries(ORDERS11, ())


def test_orders_must_lie_in_unit_interval():
    with pytest.raises(DomainError):
        FracOrders(1.2, 1.0)
    with pytest.raises(DomainError):
        FracOrders(1.0, 0.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=7),
        min_size=1, max_size=6,
    )
)
def test_ragged_series_roundtrips_through_levels(rows):
    s = BiFracSeries(ORDERS11, tuple(map(tuple, rows)))
    assert s.array.dtype == np.float64 and not s.array.flags.writeable
    with pytest.raises(ValueError):
        s.array[0, 0] = 1.0
    assert s.array.shape == (len(rows), max(map(len, rows)))
    for row, level in zip(s.array, rows):
        assert row[: len(level)].tolist() == level and not row[len(level):].any()
    assert s.levels == tuple(tuple(map(float, row)) for row in rows)
    again = BiFracSeries(ORDERS11, s.levels)
    assert again.levels == s.levels
    assert again.sizes == s.sizes and again.array.tobytes() == s.array.tobytes()
    assert s.nt == len(rows) - 1
    for i, row in enumerate(rows):
        assert s.width(i) == len(row) - 1
        assert s.array[i, : s.sizes[i]].tolist() == row
