"""Marching recurrence: hand-checked steps, closed-form limits, invariants."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractaylor import (
    BiFracSeries,
    FracOrders,
    ProblemSpec,
    TSeries,
    WidthError,
    XSeries,
    eval_series,
    example_problem,
    forward_march,
    ml_power_coeffs,
    mul_x,
    residual_check,
    synthesize_boundary,
)


def classical_case1(nt, nx, kmax=2):
    return example_problem(1, 1.0, 1.0, nt=nt, nx=nx, kmax=kmax)


P_CASE1 = XSeries(1.0, (0.0, 0.0, -8.0))
P_CASE2 = XSeries(1.0, (1.0, -6.0, 0.0, 0.0, -216.0))


def test_first_level_by_hand_case1():
    spec = classical_case1(nt=1, nx=4)
    result = forward_march(spec, P_CASE1)
    level0, level1 = result.u.levels[0], result.u.levels[1]
    # a[1][0] = a[0][2] + p_0 * a[0][0] = 2;  a[1][2] = a[0][4] + p_2 * B(2,0) * a[0][0] = 12 - 8
    assert level1[0] == pytest.approx(2.0, rel=1e-13)
    assert level1[2] == pytest.approx(4.0, rel=1e-13)
    # the separable structure doubles the whole level
    for j in range(len(level1)):
        assert level1[j] == pytest.approx(2.0 * level0[j], rel=1e-12, abs=1e-12)


def test_first_level_by_hand_case2():
    spec = example_problem(2, 1.0, 1.0, nt=1, nx=6, kmax=4)
    result = forward_march(spec, P_CASE2)
    level0, level1 = result.u.levels[0], result.u.levels[1]
    for j in range(len(level1)):  # eigenvalue 1: level repeats
        assert level1[j] == pytest.approx(level0[j], rel=1e-12, abs=1e-12)


def test_constant_data_with_zero_p_stays_constant():
    orders = FracOrders(1.0, 1.0)
    phi = XSeries(1.0, (3.0,) + (0.0,) * 10)
    mu = TSeries(1.0, (0.0,) * 5)
    spec = ProblemSpec(orders, nt=4, nx=2, kmax=0, phi=phi,
                       mu1=mu, mu2=mu)
    result = forward_march(spec, XSeries(1.0, (0.0,)))
    for i in range(1, 5):
        assert all(c == 0.0 for c in result.u.levels[i])


def test_recurrence_identity_recomputed_via_mul_x():
    rng = random.Random(99)
    orders = FracOrders(0.9, 0.7)
    width0 = 12
    phi = XSeries(0.7, tuple(rng.uniform(-3, 3) for _ in range(width0 + 1)))
    p = XSeries(0.7, tuple(rng.uniform(-2, 2) for _ in range(3)))
    mu = TSeries(0.9, (0.0,) * 4)
    spec = ProblemSpec(orders, nt=3, nx=6, kmax=2, phi=phi, mu1=mu, mu2=mu)
    u = forward_march(spec, p).u
    for i in range(3):
        level = BiFracSeries(orders, (u.levels[i],))
        conv = mul_x(level, p, u.width(i + 1)).levels[0]
        for j in range(u.width(i + 1) + 1):
            got = u.levels[i + 1][j]
            identity = got - u.levels[i][j + 2] - conv[j]
            assert abs(identity) <= 1e-12 * max(1.0, abs(got))


def test_known_source_reproduces_self_coupled_run():
    spec = classical_case1(nt=3, nx=6)
    self_run = forward_march(spec, P_CASE1)
    spec_known = ProblemSpec(
        spec.orders, nt=spec.nt, nx=spec.nx, kmax=spec.kmax,
        phi=spec.phi, mu1=spec.mu1, mu2=spec.mu2,
        f_series=self_run.u,
    )
    known_run = forward_march(spec_known, P_CASE1)
    assert known_run.u.levels == self_run.u.levels


def test_classical_limit_oracle():
    spec = classical_case1(nt=10, nx=5)  # phi width 26
    u = forward_march(spec, P_CASE1).u
    assert abs(eval_series(u, 0.5, 0.05) - math.exp(0.35)) <= 1e-6


def test_separability_deep_classical():
    # at beta = 1 the p support is exact so the separable structure survives
    # in exact arithmetic at any depth; in floats the near-total cancellation
    # between the shift and product terms amplifies rounding by roughly the
    # consumed column index per step, so the 1e-10 bound needs a modest
    # initial width (J0 = 10 here keeps the noise near 3e-11)
    spec = classical_case1(nt=4, nx=2)
    u = forward_march(spec, P_CASE1).u
    for i in range(5):
        lam_i = 2.0**i
        for j in range(u.width(i) + 1):
            assert abs(u.levels[i][j] - lam_i * u.levels[0][j]) <= 1e-10 * max(
                1.0, abs(u.levels[0][j])
            )


def test_monotone_truncation_convergence():
    # fixed initial width, increasing depth: error at (0.5, 0.5) shrinks
    width0 = 44
    exact = math.exp(2.0 * 0.5 + 0.25)
    errors = []
    for nt in (4, 6, 8, 10):
        spec = classical_case1(nt=nt, nx=width0 - 2 * nt)
        u = forward_march(spec, P_CASE1).u
        errors.append(abs(eval_series(u, 0.5, 0.5) - exact))
    assert all(a >= b for a, b in zip(errors, errors[1:]))


def test_residual_check_self_consistency():
    spec = classical_case1(nt=2, nx=34)
    result = forward_march(spec, P_CASE1)
    assert residual_check(result, spec) <= 1e-10


def test_residual_check_detects_perturbation():
    spec = classical_case1(nt=2, nx=34)
    result = forward_march(spec, P_CASE1)
    bumped = list(spec.mu2.coeffs)
    bumped[1] += 1.0
    spec_bumped = ProblemSpec(
        spec.orders, nt=spec.nt, nx=spec.nx, kmax=spec.kmax,
        phi=spec.phi, mu1=spec.mu1, mu2=TSeries(1.0, tuple(bumped)),
    )
    assert residual_check(result, spec_bumped) >= 0.9 / max(1.0, abs(bumped[1]))


def test_residual_check_rejects_empty_overlap():
    orders = FracOrders(1.0, 1.0)
    phi = XSeries(1.0, (1.0,) * 4)
    spec = ProblemSpec(orders, nt=0, nx=3, kmax=0, phi=phi,
                       mu1=TSeries(1.0, ()), mu2=TSeries(1.0, ()))
    result = forward_march(spec, XSeries(1.0, (0.0,)))
    with pytest.raises(ValueError, match="usable"):
        residual_check(result, spec)


def test_residual_check_equals_the_entrywise_loop():
    # the loop that residual_check replaced, kept as its reference
    rng = random.Random(3)
    spec = classical_case1(nt=4, nx=6)
    result = forward_march(spec, P_CASE1)
    traces = (tuple(result.traces[0].tolist()), tuple(result.traces[1].tolist()))
    for _ in range(50):
        mu = [
            tuple(
                t * (1 + rng.uniform(-1e-6, 1e-6)) if rng.random() < 0.5
                else rng.uniform(-2, 2) * 10 ** rng.uniform(-3, 3)
                for t in trace + (1.0,) * 2  # data may outrun the 5 trace entries
            )[: rng.randint(4, 7)]
            for trace in traces
        ]
        data = ProblemSpec(spec.orders, nt=4, nx=6, kmax=2, phi=spec.phi,
                           mu1=TSeries(1.0, mu[0]), mu2=TSeries(1.0, mu[1]))
        usable = min(5, len(mu[0]), len(mu[1]))
        expected = 0.0
        for trace, values in zip(traces, mu):
            for i in range(usable):
                expected = max(expected, abs(trace[i] - values[i]) / max(1.0, abs(values[i])))
        assert residual_check(result, data) == expected


def test_overflowing_march_raises_value_error_without_warnings():
    from fractaylor.forward import march_arrays
    from fractaylor.inverse import _read_march

    spec = example_problem(1, 0.7, 0.7, nt=4, nx=4, kmax=2)
    p = (1e300, -1e300, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            forward_march(spec, XSeries(0.7, p))
        # the Newton residual turns the same failure into an inf mismatch
        data = np.array((spec.mu1.coeffs[1:4], spec.mu2.coeffs[1:4]))
        r, _ = _read_march(march_arrays(spec, np.array(p), tangent=True), data, np.ones((2, 3)))
    assert np.all(np.isinf(r))


def test_march_hands_its_level_array_to_the_solution():
    # the solution adopts the march's zero-padded array: the same bits and
    # sizes as a series built from its levels, and read-only
    from fractaylor.forward import MarchOverflow

    for spec, p in (
        (classical_case1(nt=3, nx=6), P_CASE1),
        (example_problem(2, 0.7, 0.9, nt=4, nx=6, kmax=4),
         XSeries(0.9, (1.0, -0.5, 0.25, 2.0, -3.0))),
    ):
        u = forward_march(spec, p).u
        rebuilt = BiFracSeries(u.orders, u.levels)
        assert u.sizes == rebuilt.sizes
        assert (u.array.shape, u.array.tobytes()) == (rebuilt.array.shape, rebuilt.array.tobytes())
        assert not u.array.flags.writeable
    spec = example_problem(1, 0.7, 0.7, nt=4, nx=4, kmax=2)
    with pytest.raises(MarchOverflow) as info:
        forward_march(spec, XSeries(0.7, (1e300, -1e300, 1e300)))
    assert str(info.value) == (
        "the march overflows the float range: time level 2 contains non-finite coefficients"
    )


def test_trapezoid_collapse_raises():
    orders = FracOrders(1.0, 1.0)
    phi = XSeries(1.0, (1.0,) * 5)  # width 4: two steps leave width 0
    mu = TSeries(1.0, (0.0,) * 3)
    spec = ProblemSpec(orders, nt=2, nx=0, kmax=0, phi=phi, mu1=mu, mu2=mu)
    with pytest.raises(WidthError, match="collapse"):
        forward_march(spec, XSeries(1.0, (0.0,)))


def test_rejects_oversized_p():
    spec = classical_case1(nt=2, nx=4, kmax=1)
    with pytest.raises(ValueError, match="kmax"):
        forward_march(spec, P_CASE1)


def test_traces_match_definitions():
    spec = classical_case1(nt=3, nx=8)
    result = forward_march(spec, P_CASE1)
    u = result.u
    # x = 0 trace is the first-order coefficient of each level
    assert result.bc_trace_x0.coeffs.tolist() == [level[1] for level in u.levels]
    # level-0 trace at x = 1 equals the synthesized constant exactly
    synth = synthesize_boundary(spec.phi, 2.0, 0, "x1", alpha=1.0)
    assert result.bc_trace_x1.coeffs[0] == synth.coeffs[0]


def mp_traces(spec, p):
    """Both endpoint traces of every level, marched in mpmath at the working precision.

    Returns [x = 0 traces, x = 1 traces], each with nt + 1 entries.
    """
    import mpmath

    b = mpmath.mpf(spec.orders.beta)
    lg = [mpmath.loggamma(n * b + 1) for n in range(len(spec.phi))]
    level = [mpmath.mpf(v) for v in spec.phi.coeffs]
    x0, x1 = [], []
    for i in range(spec.nt + 1):
        x0.append(level[1])
        x1.append(mpmath.fsum(level[j + 1] * mpmath.exp(-lg[j]) for j in range(len(level) - 1)))
        if i == spec.nt:
            break
        if spec.f_series is None:
            f = level
        else:
            row = spec.f_series.levels[i] if i <= spec.f_series.nt else ()
            f = [mpmath.mpf(row[j]) if j < len(row) else 0 for j in range(len(level))]
        level = [
            level[j + 2] + mpmath.fsum(
                p[k] * mpmath.exp(lg[j] - lg[k] - lg[j - k]) * f[j - k]
                for k in range(min(j, len(p) - 1) + 1)
            )
            for j in range(len(level) - 2)
        ]
    return [x0, x1]


@pytest.mark.parametrize("source", ["self", "known"])
@pytest.mark.parametrize("beta", [1.0, 0.7])
def test_tangent_jacobian_matches_mpmath_differences(beta, source):
    # the traces are polynomials in p, so a 50-digit difference quotient
    # with step 1e-25 is the derivative to about 25 digits
    mpmath = pytest.importorskip("mpmath")
    from fractaylor.forward import march_arrays

    rng = random.Random(f"tangent:{beta}:{source}")
    for kmax in range(5):
        nt, nx = kmax + 2, max(kmax, 4)
        base = example_problem(1, 1.0, beta, nt=nt, nx=nx, kmax=kmax)
        f = None
        if source == "known":
            # rows shorter than their level, and no row for the last step
            f = BiFracSeries(base.orders, tuple(
                tuple(rng.uniform(-1.0, 1.0) for _ in range(len(base.phi) - 3 * i))
                for i in range(nt - 1)
            ))
        spec = ProblemSpec(base.orders, nt=nt, nx=nx, kmax=kmax, phi=base.phi,
                           mu1=base.mu1, mu2=base.mu2, f_series=f)
        p = [rng.uniform(-5.0, 5.0) for _ in range(kmax + 1)]
        _, _, jac = march_arrays(spec, np.array(p), tangent=True)
        assert jac.shape == (2, nt + 1, kmax + 1)
        with mpmath.workdps(50):
            h = mpmath.mpf("1e-25")
            at_p = mp_traces(spec, [mpmath.mpf(v) for v in p])
            for k in range(kmax + 1):
                bumped = [mpmath.mpf(v) for v in p]
                bumped[k] += h
                at_bumped = mp_traces(spec, bumped)
                column = [
                    float((at_bumped[e][i] - at_p[e][i]) / h)
                    for e in range(2) for i in range(nt + 1)
                ]
                scale = max(abs(v) for v in column)
                got = jac[:, :, k].reshape(-1)
                worst = max(abs(g - r) for g, r in zip(got, column))
                assert worst <= 1e-10 * scale, (kmax, k, worst, scale)


@st.composite
def known_source_specs(draw):
    """A known-source problem: random phi and a ragged f whose rows may be short, long or missing."""
    beta = draw(st.sampled_from((1.0, 0.9, 0.7, 0.35)))
    orders = FracOrders(1.0, beta)
    kmax = draw(st.integers(0, 4))
    nt = draw(st.integers(1, 4))
    nx = draw(st.integers(max(kmax, 1), kmax + 4))
    coeff = st.floats(-2.0, 2.0)
    width0 = nx + 2 * nt
    phi = XSeries(beta, draw(st.lists(coeff, min_size=width0 + 1, max_size=width0 + 1)))
    rows = draw(st.lists(st.lists(coeff, min_size=1, max_size=width0 + 2), min_size=1, max_size=nt + 2))
    zeros = TSeries(1.0, (0.0,) * (nt + 1))
    spec = ProblemSpec(orders, nt=nt, nx=nx, kmax=kmax, phi=phi, mu1=zeros, mu2=zeros,
                       f_series=BiFracSeries(orders, tuple(map(tuple, rows))))
    p = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=kmax + 1, max_size=kmax + 1)))
    return spec, p


@settings(derandomize=True, deadline=None, max_examples=80)
@given(known_source_specs())
def test_known_source_march_is_affine_in_p(case):
    # traces(p) = traces(0) + J p; the bound scales with the march of the
    # absolute values, which sums the magnitude of every term
    from fractaylor.forward import march_arrays

    spec, p = case
    _, at_p, _ = march_arrays(spec, p)
    _, at_zero, jac = march_arrays(spec, np.zeros_like(p), tangent=True)
    f = spec.f_series
    magnitude_spec = ProblemSpec(
        spec.orders, nt=spec.nt, nx=spec.nx, kmax=spec.kmax,
        phi=XSeries(spec.orders.beta, tuple(map(abs, spec.phi.coeffs))),
        mu1=spec.mu1, mu2=spec.mu2,
        f_series=BiFracSeries(f.orders, tuple(tuple(map(abs, level)) for level in f.levels)),
    )
    _, magnitude, _ = march_arrays(magnitude_spec, np.abs(p))
    assert np.all(np.abs(at_p - (at_zero + jac @ p)) <= 1e-13 * (1.0 + magnitude))
