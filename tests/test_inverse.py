"""Coefficient recovery: closed-form anchors, consistency identities, roundtrips.

Classical-limit anchors come from the product-rule oracle: for a known
solution u the coefficient is p = (u_t - u_xx)/u, giving -4x^2 for case 1
(u = exp(2t + x^2)) and 1 - 6x - 9x^4 for case 2 (u = exp(t + x^3)).
"""

import collections
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractaylor import (
    BiFracSeries,
    DegenerateData,
    NotSeparable,
    ProblemSpec,
    FracOrders,
    TSeries,
    XSeries,
    forward_march,
    frac_binom,
    example_problem,
    ml_power_coeffs,
    problem_from_config,
    recover_newton,
    recover_separable,
    synthesize_boundary,
)
from fractaylor.problem import decode_config


def test_case1_classical_recovery():
    spec = example_problem(1, 1.0, 1.0, nt=4, nx=18, kmax=4)
    report = recover_separable(spec)
    assert report.mode == "separable"
    assert report.lam == pytest.approx(2.0, abs=1e-13)
    expected = (0.0, 0.0, -8.0, 0.0, 0.0)
    for got, want in zip(report.p.coeffs, expected):
        assert got == pytest.approx(want, abs=1e-9)
    # monomial form: p_2/Gamma(3) = -4, the x^2 coefficient of -4x^2
    assert report.p.coeffs[2] / 2.0 == pytest.approx(-4.0, rel=1e-12)


def test_case2_classical_recovery():
    spec = example_problem(2, 1.0, 1.0, nt=4, nx=18, kmax=6)
    report = recover_separable(spec)
    assert report.lam == pytest.approx(1.0, abs=1e-13)
    expected = (1.0, -6.0, 0.0, 0.0, -216.0, 0.0, 0.0)
    for got, want in zip(report.p.coeffs, expected):
        assert got == pytest.approx(want, abs=1e-9)
    # monomial form: p_4/Gamma(5) = -9, the x^4 coefficient of 1 - 6x - 9x^4
    assert report.p.coeffs[4] / 24.0 == pytest.approx(-9.0, rel=1e-12)


def test_case1_fractional_leading_coefficient():
    # the triangular solve pins p_0 = 2 - Gamma(2b+1)/Gamma(b+1) at
    # fractional orders (zero only in the classical limit)
    beta = 0.7
    spec = example_problem(1, 1.0, beta, nt=2, nx=8, kmax=4)
    report = recover_separable(spec)
    expected = 2.0 - math.exp(math.lgamma(2.0 * beta + 1.0) - math.lgamma(beta + 1.0))
    assert report.p.coeffs[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("beta", [1.0, 0.9, 0.7])
def test_triangular_consistency_identity(beta):
    # plugging the recovered p back into the separable identity; the
    # mismatch is normalized by the summation magnitude because the terms
    # cancel almost completely (that cancellation is the solve itself)
    rng = random.Random(41 + int(beta * 10))
    for _ in range(5):
        lam = rng.uniform(0.5, 3.0)
        width = 12
        phi = XSeries(beta, tuple(rng.uniform(0.25, 4.0) for _ in range(width + 1)))
        mu2 = synthesize_boundary(phi, lam, 3, "x1", alpha=1.0)
        spec = ProblemSpec(
            FracOrders(1.0, beta), nt=3, nx=6, kmax=6,
            phi=phi, mu1=TSeries(1.0, (0.0,) * 4), mu2=mu2,
        )
        p = recover_separable(spec).p.coeffs
        for m in range(7):
            terms = [phi.coeffs[m + 2]] + [
                p[k] * frac_binom(k, m - k, beta) * phi.coeffs[m - k]
                for k in range(m + 1)
            ]
            lhs = lam * phi.coeffs[m]
            scale = max(1.0, abs(lhs), sum(abs(v) for v in terms))
            assert abs(lhs - sum(terms)) <= 1e-11 * scale


def test_separable_solve_is_scale_equivariant():
    rng = random.Random(8)
    beta = 0.9
    width = 10
    base = tuple(rng.uniform(0.2, 3.0) for _ in range(width + 1))
    reports = []
    for c in (1.0, -3.5):
        phi = XSeries(beta, tuple(c * v for v in base))
        mu2 = synthesize_boundary(phi, 1.7, 2, "x1", alpha=1.0)
        spec = ProblemSpec(
            FracOrders(1.0, beta), nt=2, nx=4, kmax=4,
            phi=phi, mu1=TSeries(1.0, (0.0,) * 3), mu2=mu2,
        )
        reports.append(recover_separable(spec).p.coeffs)
    for a, b in zip(*reports):
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_degenerate_data_rejected():
    orders = FracOrders(1.0, 1.0)
    phi = XSeries(1.0, (3.0,) + (0.0,) * 8)
    zero_mu = TSeries(1.0, (0.0,) * 3)
    spec = ProblemSpec(orders, nt=2, nx=2, kmax=2, phi=phi, mu1=zero_mu, mu2=zero_mu)
    with pytest.raises(DegenerateData):
        recover_separable(spec)

    phi0 = XSeries(1.0, (0.0, 1.0) + (0.0,) * 7)
    mu2 = synthesize_boundary(phi0, 2.0, 2, "x1", alpha=1.0)
    spec0 = ProblemSpec(orders, nt=2, nx=2, kmax=2, phi=phi0, mu1=zero_mu, mu2=mu2)
    with pytest.raises(DegenerateData):
        recover_separable(spec0)


def test_non_geometric_data_rejected():
    spec = example_problem(1, 1.0, 1.0, nt=3, nx=6, kmax=2)
    bad = ProblemSpec(
        spec.orders, nt=3, nx=6, kmax=2, phi=spec.phi,
        mu1=spec.mu1, mu2=TSeries(1.0, (1.0, 2.0, 3.0, 4.0)),
    )
    with pytest.raises(NotSeparable):
        recover_separable(bad)


def test_ratio_test_names_the_first_failing_entry():
    spec = example_problem(1, 1.0, 1.0, nt=3, nx=6, kmax=2)

    def with_mu2(values):
        return ProblemSpec(
            spec.orders, nt=3, nx=6, kmax=2, phi=spec.phi, mu1=spec.mu1, mu2=TSeries(1.0, values),
        )

    # entry 3 misses lam * mu2_2 = 8 by 5e-9 > 1e-9 * max(1, |mu2_2|); entry 4 by far more
    with pytest.raises(NotSeparable, match=r"ratio test fails at entry 3 \(lam=2\)$"):
        recover_separable(with_mu2((1.0, 2.0, 4.0, 8.0 + 5e-9, 0.0)))
    # a miss of 3e-9 is within the scaled tolerance 4e-9
    assert recover_separable(with_mu2((1.0, 2.0, 4.0, 8.0 + 3e-9))).lam == 2.0


def test_ratio_test_equals_the_pairwise_loop():
    # the loop that the array ratio test replaced, kept as its reference
    rng = random.Random(5)
    spec = example_problem(1, 1.0, 1.0, nt=3, nx=6, kmax=2)
    for _ in range(50):
        mu2 = [rng.uniform(0.5, 2.0) * rng.choice((-1e3, 1e-3, 1.0))]
        for _ in range(4):
            mu2.append(rng.uniform(-3, 3) * mu2[-1] if rng.random() < 0.1
                       else 1.7 * mu2[-1] * (1 + rng.choice((0.0, 1e-12, 3e-10, 1e-9, 1e-6))))
        lam = mu2[1] / mu2[0]
        failing = [
            i + 1 for i in range(4) if abs(mu2[i + 1] - lam * mu2[i]) > 1e-9 * max(1.0, abs(mu2[i]))
        ]
        data = ProblemSpec(spec.orders, nt=3, nx=6, kmax=2, phi=spec.phi,
                           mu1=spec.mu1, mu2=TSeries(1.0, tuple(mu2)))
        if failing:
            with pytest.raises(NotSeparable, match=f"at entry {failing[0]} "):
                recover_separable(data)
        else:
            assert recover_separable(data).lam == lam


def test_known_source_mode_is_not_separable():
    spec = example_problem(1, 1.0, 1.0, nt=2, nx=4, kmax=2)
    u = forward_march(spec, XSeries(1.0, (0.0, 0.0, -8.0))).u
    known = ProblemSpec(
        spec.orders, nt=2, nx=4, kmax=2, phi=spec.phi,
        mu1=spec.mu1, mu2=spec.mu2, f_series=u,
    )
    with pytest.raises(NotSeparable):
        recover_separable(known)


def roundtrip_spec(beta, pstar, nt, nx):
    """Generate self-consistent data by marching with a known coefficient."""
    base = example_problem(1, 1.0, beta, nt=nt, nx=nx, kmax=len(pstar) - 1)
    data = forward_march(base, XSeries(beta, pstar))
    return ProblemSpec(
        base.orders, nt=nt, nx=nx, kmax=len(pstar) - 1, phi=base.phi,
        mu1=data.bc_trace_x0, mu2=data.bc_trace_x1,
    )


def test_newton_zero_coefficient_is_instant():
    spec = roundtrip_spec(0.7, (0.0, 0.0, 0.0), nt=3, nx=6)
    report = recover_newton(spec)
    assert report.converged
    assert report.iterations <= 1
    assert max(abs(v) for v in report.p.coeffs) <= 1e-10


def test_newton_roundtrip_sample():
    rng = np.random.default_rng(5150)
    for trial in range(5):
        beta = (1.0, 0.9, 0.7)[trial % 3]
        kmax = int(rng.integers(0, 5))
        pstar = tuple(float(v) for v in rng.uniform(-5, 5, kmax + 1))
        spec = roundtrip_spec(beta, pstar, nt=kmax + 2, nx=max(kmax, 4))
        report = recover_newton(spec)
        assert report.converged, f"trial {trial} did not converge"
        assert report.iterations <= 30
        worst = max(abs(a - b) for a, b in zip(report.p.coeffs, pstar))
        assert worst <= 1e-7, f"trial {trial} error {worst:.2e}"


def test_newton_recovers_case1_coefficient_from_marched_data():
    spec = roundtrip_spec(1.0, (0.0, 0.0, -8.0), nt=3, nx=4)
    report = recover_newton(spec)
    assert report.converged
    for got, want in zip(report.p.coeffs, (0.0, 0.0, -8.0)):
        assert got == pytest.approx(want, abs=1e-8)


def test_newton_matches_separable_on_separable_data():
    spec = example_problem(1, 1.0, 1.0, nt=3, nx=34, kmax=4)
    sep = recover_separable(spec)
    newt = recover_newton(spec)
    assert newt.converged
    for a, b in zip(sep.p.coeffs, newt.p.coeffs):
        assert abs(a - b) <= 1e-7


def test_newton_reports_nonconvergence_on_inconsistent_data():
    base = example_problem(1, 1.0, 1.0, nt=3, nx=8, kmax=4)
    spec = ProblemSpec(
        base.orders, nt=3, nx=8, kmax=4, phi=base.phi,
        mu1=TSeries(1.0, (0.0, 3.0, -1.0, 7.0)),
        mu2=TSeries(1.0, (1.0, 7.0, -3.0, 5.0)),
    )
    report = recover_newton(spec)
    assert not report.converged
    assert report.forward_residual > 1e-3  # the best iterate is still reported


def test_newton_rejects_underdetermined_setup():
    spec = roundtrip_spec(1.0, (1.0, -2.0, 0.5), nt=1, nx=4)
    with pytest.raises(ValueError, match="underdetermined"):
        recover_newton(spec)


def test_newton_flags_rank_deficiency():
    # width-1 first level: both endpoint traces collapse onto the same
    # functional and p_0 is never observed
    orders = FracOrders(1.0, 1.0)
    phi = XSeries(1.0, (1.0, 0.0, 0.0, 0.0))
    data = forward_march(
        ProblemSpec(orders, nt=1, nx=1, kmax=1, phi=phi,
                    mu1=TSeries(1.0, (0.0, 0.0)), mu2=TSeries(1.0, (0.0, 0.0))),
        XSeries(1.0, (0.5, 0.25)),
    )
    spec = ProblemSpec(orders, nt=1, nx=1, kmax=1, phi=phi,
                       mu1=data.bc_trace_x0, mu2=data.bc_trace_x1)
    report = recover_newton(spec)
    assert report.rank_deficient
    assert report.converged  # the observable part is matched exactly
    assert report.p.coeffs[1] == pytest.approx(0.25, abs=1e-9)


def test_healthy_roundtrip_is_full_rank():
    spec = roundtrip_spec(0.9, (1.0, -2.0, 0.5), nt=4, nx=4)
    report = recover_newton(spec)
    assert report.converged
    assert not report.rank_deficient


def known_source_roundtrip_spec(beta, pstar, nt, nx, rng):
    """Roundtrip data for a known source f drawn from rng."""
    base = example_problem(1, 1.0, beta, nt=nt, nx=nx, kmax=len(pstar) - 1)
    f = BiFracSeries(base.orders, tuple(
        tuple(rng.uniform(-1.0, 1.0) for _ in range(len(base.phi) - 2 * i))
        for i in range(nt + 1)
    ))
    spec = ProblemSpec(base.orders, nt=nt, nx=nx, kmax=len(pstar) - 1, phi=base.phi,
                       mu1=base.mu1, mu2=base.mu2, f_series=f)
    data = forward_march(spec, XSeries(beta, pstar))
    return ProblemSpec(spec.orders, nt=nt, nx=nx, kmax=spec.kmax, phi=spec.phi,
                       mu1=data.bc_trace_x0, mu2=data.bc_trace_x1, f_series=f)


def test_newton_residual_and_jacobian_come_from_one_march():
    from fractaylor.forward import march_arrays
    from fractaylor.inverse import _read_march

    rng = np.random.default_rng(77)
    for trial in range(6):
        beta = (1.0, 0.7)[trial % 2]
        kmax = trial % 5
        pstar = tuple(float(v) for v in rng.uniform(-5, 5, kmax + 1))
        nt, nx = kmax + 2, max(kmax, 4)
        if trial % 3 == 2:
            spec = known_source_roundtrip_spec(beta, pstar, nt, nx, random.Random(trial))
        else:
            spec = roundtrip_spec(beta, pstar, nt, nx)
        p = rng.uniform(-5, 5, kmax + 1)
        for depth in range(1, nt + 1):
            scale = rng.uniform(0.1, 1.0, (2, depth))
            data = np.array((spec.mu1.coeffs[1 : depth + 1], spec.mu2.coeffs[1 : depth + 1]))
            r, jac = _read_march(march_arrays(spec, p, tangent=True), data, scale)
            assert jac.shape == (2 * depth, kmax + 1)
    # an overflowing march: inf from both, with an inf Jacobian
    spec = example_problem(1, 0.7, 0.7, nt=4, nx=4, kmax=2)
    p = np.array([1e300, -1e300, 1e300])
    data = np.array((spec.mu1.coeffs[1:3], spec.mu2.coeffs[1:3]))
    r, jac = _read_march(march_arrays(spec, p, tangent=True), data, np.ones((2, 2)))
    assert np.all(np.isinf(r)) and np.all(np.isinf(jac))


def pool_shaped_specs():
    """Roundtrip instances like the benchmark's Newton pool: kmax 0-4, beta
    in {1, 0.9, 0.7}, self-coupled and with a known source."""
    rng = random.Random(10)
    for kmax in range(5):
        for beta in (1.0, 0.9, 0.7):
            pstar = tuple(rng.uniform(-5.0, 5.0) for _ in range(kmax + 1))
            nt, nx = kmax + 2, max(kmax, 4)
            yield roundtrip_spec(beta, pstar, nt, nx)
            yield known_source_roundtrip_spec(beta, pstar, nt, nx, rng)


def stalling_spec():
    """alpha = beta = 0.7, (nt, nx, kmax) = (10, 16, 4), separable mu2 with
    lambda = 2: Gauss-Newton stalls, and its last line search fails."""
    text = (Path(__file__).parent / "data" / "newton_stall_10_16_4.json").read_text()
    return problem_from_config(decode_config(text))


def bits(values):
    array = np.asarray(values, dtype=float)
    return array.shape, array.tobytes()


def test_newton_solution_is_the_march_of_the_reported_p():
    for spec in [*pool_shaped_specs(), stalling_spec()]:
        report = recover_newton(spec)
        want = forward_march(spec, report.p)
        got = report.solution
        assert bits(got.u.array) == bits(want.u.array)
        assert got.u.sizes == want.u.sizes
        assert bits(got.bc_trace_x0.coeffs) == bits(want.bc_trace_x0.coeffs)
        assert bits(got.bc_trace_x1.coeffs) == bits(want.bc_trace_x1.coeffs)
    assert not report.converged  # the stalling instance


@pytest.fixture
def march_log(monkeypatch):
    """The bytes of each p that `recover_newton` marches; forward_march must not run."""
    from fractaylor import inverse

    points = []
    march = inverse.march_arrays

    def counting_march(spec, p, **kwargs):
        points.append(np.asarray(p, dtype=float).tobytes())
        return march(spec, p, **kwargs)

    def no_forward_march(spec, p):
        raise AssertionError("recover_newton called forward_march")

    monkeypatch.setattr(inverse, "march_arrays", counting_march)
    monkeypatch.setattr(inverse, "forward_march", no_forward_march)
    return points


def test_newton_marches_each_point_once(march_log):
    # the march does not depend on the trace depth: a warm-up depth hands
    # its last march to the next one, and the last march makes the report
    for spec in pool_shaped_specs():
        march_log.clear()
        recover_newton(spec)
        assert march_log[0] == bytes(8 * (spec.kmax + 1))  # p = 0
        assert len(set(march_log)) == len(march_log)


def test_stalled_line_search_never_retries_the_iterate(march_log):
    # a trial that rounds to the current iterate ends the line search, so
    # neither a trial nor the report re-marches a point marched before
    report = recover_newton(stalling_spec())
    assert not report.converged
    assert len(set(march_log)) == len(march_log)


def level_one_data(spec):
    """mu1 and mu2 at level 1, the data of a depth-1 Gauss-Newton loop, and its scale."""
    from fractaylor.forward import mismatch_scale

    data = np.array((spec.mu1.coeffs[1:2], spec.mu2.coeffs[1:2]))
    return data, 1.0 / mismatch_scale(data)


def level_one_march(spec, data, misses, jac_column):
    """A kmax = 0 tangent march whose level-1 traces miss ``data`` by ``misses``."""
    traces = np.zeros((2, spec.nt + 1))
    traces[:, 1] = data[:, 0] + misses
    jac = np.zeros((2, spec.nt + 1, 1))
    jac[:, 1, 0] = jac_column
    return None, traces, jac


def test_line_search_overflowing_norm_is_silent(monkeypatch):
    # finite trial mismatches near 1e200 have an inf norm: each trial is
    # rejected, and numpy does not warn about the overflow
    from fractaylor import inverse

    spec = example_problem(1, 1.0, 1.0, nt=2, nx=6, kmax=0)
    data, scale = level_one_data(spec)
    start = level_one_march(spec, data, (1.0, 0.0), (1.0, 0.0))
    huge = level_one_march(spec, data, (1e200, 1e200), (1.0, 0.0))
    monkeypatch.setattr(inverse, "march_arrays", lambda spec, p, tangent: huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, march, it, _ = inverse._gauss_newton(spec, np.zeros(1), start, data, scale, 1e-10, 5)
    assert (p.tolist(), march is start, it) == ([0.0], True, 0)


def test_line_search_stops_only_when_the_trial_rounds_to_the_iterate(monkeypatch):
    # from p = 1 a step of 1.25 ulp rounds to 1 + ulp at s = 1 and at
    # s = 1/2, and to p at s = 1/4: the repeat is marched and rejected
    # again, and the search ends without marching p
    from fractaylor import inverse

    ulp = math.ulp(1.0)
    spec = example_problem(1, 1.0, 1.0, nt=2, nx=6, kmax=0)
    data, scale = level_one_data(spec)
    start = level_one_march(spec, data, (-1.25 * ulp, 0.0), (1.0, 0.0))
    worse = level_one_march(spec, data, (1.0, 0.0), (1.0, 0.0))
    trials = []

    def counting_march(spec, p, tangent):
        trials.append(p.tolist())
        return worse

    monkeypatch.setattr(inverse, "march_arrays", counting_march)
    p, march, it, _ = inverse._gauss_newton(spec, np.ones(1), start, data, scale, 0.0, 5)
    assert trials == [[1.0 + ulp], [1.0 + ulp]]
    assert (p.tolist(), march is start, it) == ([1.0], True, 0)


@pytest.fixture
def solver_log(monkeypatch):
    """Counts of the marches (tangent or plain, and tangent at p = 0), lstsq calls
    and `_gauss_newton` calls of a solve."""
    from fractaylor import inverse

    counts = collections.Counter()
    march = inverse.march_arrays

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    def counting_march(spec, p, *, tangent=False):
        counts["tangent march" if tangent else "plain march"] += 1
        if tangent and not np.any(p):
            counts["tangent march at 0"] += 1
        return march(spec, p, tangent=tangent)

    monkeypatch.setattr(inverse, "march_arrays", counting_march)
    monkeypatch.setattr(inverse, "_gauss_newton", counting("gauss_newton", inverse._gauss_newton))
    monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
    return counts


def test_newton_known_source_is_one_step(solver_log):
    # the march is affine in p for a known source, so with the exact
    # Jacobian one Gauss-Newton step from p = 0 solves it, without the
    # warm-up: a tangent march at 0, one least-squares solve, a tangent
    # march at its solution, whose march is the report's
    rng = random.Random(2024)
    for kmax in range(5):
        for beta in (1.0, 0.7):
            pstar = tuple(rng.uniform(-5.0, 5.0) for _ in range(kmax + 1))
            spec = known_source_roundtrip_spec(beta, pstar, kmax + 2, max(kmax, 4), rng)
            solver_log.clear()
            report = recover_newton(spec)
            assert solver_log == {
                "tangent march": 2, "tangent march at 0": 1, "lstsq": 1, "gauss_newton": 1,
            }
            assert report.converged
            assert report.iterations == 1
            assert not report.rank_deficient
            worst = max(abs(a - b) for a, b in zip(report.p.coeffs, pstar))
            assert worst <= 1e-7, (kmax, beta, worst)


def test_known_source_jacobian_does_not_depend_on_p():
    # without the W @ d term the tangent has the same bytes at every p, so
    # the Jacobian at a known-source solution is the one at p = 0
    from fractaylor.forward import march_arrays

    rng = np.random.default_rng(7)
    for spec in pool_shaped_specs():
        p, q = rng.uniform(-5.0, 5.0, (2, spec.kmax + 1))
        jac_p = march_arrays(spec, p, tangent=True)[2]
        jac_q = march_arrays(spec, q, tangent=True)[2]
        if spec.self_coupled:
            assert jac_p.tobytes() != jac_q.tobytes()
        else:
            assert jac_p.tobytes() == jac_q.tobytes()


def test_newton_self_coupled_source_warms_up_through_every_depth(solver_log):
    # self-coupled solves stall without the warm-up: one Gauss-Newton loop
    # per depth 1..depth-1, then the full-depth loop
    for spec in pool_shaped_specs():
        if spec.self_coupled:
            solver_log.clear()
            recover_newton(spec)
            depth = min(spec.nt, len(spec.mu1) - 1, len(spec.mu2) - 1)
            assert solver_log["gauss_newton"] == depth > 1


def test_newton_pool_heaviest_solve_does_a_fixed_amount_of_work(solver_log):
    # the pool's heaviest solve (kmax = 3, beta = 0.9, self-coupled): four
    # warm-up depths and the full-depth loop, 17 accepted steps and nine
    # rejected line-search trials; a faster solve must make the same calls
    text = (Path(__file__).parent / "data" / "newton_pool_self_k3_linesearch.json").read_text()
    report = recover_newton(problem_from_config(decode_config(text)))
    assert solver_log == {
        "tangent march": 27, "tangent march at 0": 1, "lstsq": 17, "gauss_newton": 5,
    }
    assert report.converged
    assert report.iterations == 1


@st.composite
def exactly_separable_specs(draw):
    """Separable data on a random positive phi whose last two entries vanish.

    With nt = 1 and kmax = nx the triangular solve fixes every column of
    level 1, and the zero tail makes the x = 1 trace of the truncated
    level equal the data, so the march of the recovered p reproduces the
    data up to rounding.
    """
    alpha = draw(st.floats(0.05, 1.0))
    beta = draw(st.floats(0.3, 1.0))
    nx = draw(st.integers(1, 8))
    body = draw(st.lists(st.floats(0.25, 4.0), min_size=nx + 1, max_size=nx + 1))
    phi = XSeries(beta, (*body, 0.0, 0.0))
    lam = draw(st.floats(0.5, 3.0))
    return ProblemSpec(
        FracOrders(alpha, beta), nt=1, nx=nx, kmax=nx, phi=phi,
        mu1=synthesize_boundary(phi, lam, 1, "x0", alpha),
        mu2=synthesize_boundary(phi, lam, 1, "x1", alpha),
    )


@settings(derandomize=True, deadline=None, max_examples=80)
@given(exactly_separable_specs())
def test_separable_recovery_then_march_reproduces_the_data(spec):
    # p grows like (B_beta / phi_0)**k, so the rounding budget scales with
    # the march of |p| (phi is positive): the magnitude of every term summed
    report = recover_separable(spec)
    result = forward_march(spec, report.p)
    magnitude = forward_march(spec, XSeries(spec.orders.beta, tuple(map(abs, report.p.coeffs))))
    for trace, data, scale in (
        (result.bc_trace_x0, spec.mu1, magnitude.bc_trace_x0),
        (result.bc_trace_x1, spec.mu2, magnitude.bc_trace_x1),
    ):
        for got, want, m in zip(trace.coeffs, data.coeffs, scale.coeffs):
            assert abs(got - want) <= 1e-13 * m
    level0, level1 = result.u.levels
    for got, want, m in zip(level1, level0, magnitude.u.levels[1]):
        assert abs(got - report.lam * want) <= 1e-13 * m
