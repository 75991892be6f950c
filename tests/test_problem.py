"""Config ingestion and boundary-data synthesis.

The trace constant of `synthesize_boundary` is checked against an
independent oracle: convert the spatial sequence to plain monomial
coefficients (beta = 1), differentiate the polynomial symbolically, and
evaluate it at the endpoint.
"""

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractaylor import (
    BiFracSeries,
    ConfigError,
    ProblemSpec,
    FracOrders,
    TSeries,
    WidthError,
    XSeries,
    example_problem,
    forward_march,
    ml_power_coeffs,
    problem_from_config,
    synthesize_boundary,
)
from fractaylor.problem import MAX_WIDTH, decode_config


def example1_config(**overrides):
    cfg = {
        "alpha": 1.0,
        "beta": 1.0,
        "nt": 4,
        "nx": 6,
        "kmax": 4,
        "phi": {"kind": "ml_power", "m": 2},
        "mu1": {"kind": "zero"},
        "mu2": {"kind": "separable", "lambda": 2.0},
        "f": "self",
    }
    cfg.update(overrides)
    return cfg


def poly_derivative_at_one(normalized):
    """Oracle: d/dx of the truncated polynomial at x = 1 (beta = 1)."""
    mono = [c / math.factorial(j) for j, c in enumerate(normalized)]
    return sum(j * c for j, c in enumerate(mono))


# --- parsing ------------------------------------------------------------


def test_parse_example1_expands_generators():
    spec = problem_from_config(decode_config(json.dumps(example1_config())))
    oracle = ml_power_coeffs(1.0, 2, spec.nx + 2 * spec.nt)
    assert spec.phi.coeffs.tolist() == oracle.coeffs.tolist()
    assert spec.phi.coeffs[:5].tolist() == pytest.approx([1.0, 0.0, 2.0, 0.0, 12.0], rel=1e-13)
    assert spec.mu1.coeffs.tolist() == [0.0] * (spec.nt + 1)
    assert spec.self_coupled
    # mu2 is the geometric sequence 2^i * c
    c = spec.mu2.coeffs[0]
    assert spec.mu2.coeffs.tolist() == [2.0**i * c for i in range(spec.nt + 1)]


@pytest.mark.parametrize("alpha", [1.2, 0.0, -0.5])
def test_parse_rejects_out_of_range_alpha(alpha):
    with pytest.raises(ConfigError):
        problem_from_config(decode_config(json.dumps(example1_config(alpha=alpha))))


def test_parse_rejects_short_phi_naming_required_width():
    cfg = example1_config(phi={"kind": "coeffs", "values": [1.0, 0.0, 2.0]})
    required = cfg["nx"] + 2 * cfg["nt"] + 1
    with pytest.raises(ConfigError, match=str(required)):
        problem_from_config(decode_config(json.dumps(cfg)))


def test_parse_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        problem_from_config(decode_config(json.dumps(example1_config(extra=1))))
    cfg = example1_config()
    cfg["phi"] = {"kind": "ml_power", "m": 2, "shift": 3}
    with pytest.raises(ConfigError, match="unknown"):
        problem_from_config(decode_config(json.dumps(cfg)))


def test_parse_has_no_silent_defaults():
    for field in ("alpha", "beta", "nt", "nx", "kmax", "phi", "mu1", "mu2", "f"):
        cfg = example1_config()
        del cfg[field]
        with pytest.raises(ConfigError, match="missing"):
            problem_from_config(decode_config(json.dumps(cfg)))


def test_parse_rejects_malformed_json_with_location():
    with pytest.raises(ConfigError, match="line"):
        problem_from_config(decode_config("{not json"))


def test_parse_rejects_non_integer_truncations():
    with pytest.raises(ConfigError):
        problem_from_config(decode_config(json.dumps(example1_config(nt=2.5))))
    with pytest.raises(ConfigError):
        problem_from_config(decode_config(json.dumps(example1_config(nx=True))))


def test_parse_known_source_series():
    cfg = example1_config(f={"kind": "coeffs2d", "values": [[1.0, 0.0], [0.5]]})
    spec = problem_from_config(decode_config(json.dumps(cfg)))
    assert not spec.self_coupled
    assert spec.f_series.levels == ((1.0, 0.0), (0.5,))


def test_parse_known_p():
    cfg = example1_config(p={"kind": "coeffs", "values": [0.0, 0.0, -8.0]})
    spec = problem_from_config(decode_config(json.dumps(cfg)))
    assert spec.p_known.coeffs.tolist() == [0.0, 0.0, -8.0]


def test_parse_rejects_overlong_p():
    cfg = example1_config(p={"kind": "coeffs", "values": [0.0] * 7})  # kmax = 4
    with pytest.raises(ConfigError, match="kmax"):
        problem_from_config(decode_config(json.dumps(cfg)))


@pytest.mark.parametrize(
    "field, generator",
    [
        ("phi", {"kind": "ml_power"}),
        ("phi", {"kind": "ml_power", "m": 0}),
        ("mu2", {"kind": "separable"}),
        ("mu1", {"kind": "coeffs"}),
        ("mu1", {"kind": "bogus"}),
    ],
    ids=["missing-m", "m-zero", "missing-lambda", "missing-values", "unknown-kind"],
)
def test_generator_validation(field, generator):
    with pytest.raises(ConfigError):
        problem_from_config(decode_config(json.dumps(example1_config(**{field: generator}))))


def test_problem_spec_invariants():
    orders = FracOrders(1.0, 1.0)
    phi = ml_power_coeffs(1.0, 2, 14)
    mu = TSeries(1.0, (0.0,) * 5)
    with pytest.raises(ConfigError, match="kmax"):
        ProblemSpec(orders, nt=4, nx=6, kmax=7, phi=phi, mu1=mu, mu2=mu)
    with pytest.raises(ConfigError, match="mu1"):
        ProblemSpec(orders, nt=6, nx=2, kmax=2, phi=phi, mu1=TSeries(1.0, (0.0,) * 3), mu2=mu)
    with pytest.raises(ConfigError, match="beta"):
        ProblemSpec(orders, nt=4, nx=6, kmax=4, phi=XSeries(0.5, phi.coeffs), mu1=mu, mu2=mu)
    with pytest.raises(ConfigError, match="mu2 is expressed at a different alpha"):
        ProblemSpec(orders, nt=4, nx=6, kmax=4, phi=phi, mu1=mu, mu2=TSeries(0.5, mu.coeffs))
    with pytest.raises(ConfigError, match="f series orders differ from the problem orders"):
        ProblemSpec(orders, nt=4, nx=6, kmax=4, phi=phi, mu1=mu, mu2=mu,
                    f_series=BiFracSeries(FracOrders(1.0, 0.5), ((0.0,),)))
    with pytest.raises(ConfigError, match="p is expressed at a different beta"):
        ProblemSpec(orders, nt=4, nx=6, kmax=4, phi=phi, mu1=mu, mu2=mu, p_known=XSeries(0.5, (0.0,)))


@pytest.mark.parametrize("width", [MAX_WIDTH, MAX_WIDTH + 1])
def test_problem_spec_enforces_the_width_limit(width):
    # past width 1030 the beta = 1 product weights are inf, and 0 * inf
    # would end the march of this finite problem in a false overflow
    spec = example_problem(1, 1.0, 1.0, nt=2, nx=8, kmax=2)
    phi = XSeries(1.0, [1.0] + [0.0] * (width - 1))
    if width > MAX_WIDTH:
        with pytest.raises(ConfigError, match=f"len\\(phi\\) = {width} exceeds the march width limit 512"):
            replace(spec, phi=phi)
    else:
        u = forward_march(replace(spec, phi=phi), XSeries(1.0, (0.0, 0.0, -8.0))).u
        assert np.isfinite(u.array).all() and u.levels[1][2] == -8.0


def test_example_problem_rejects_an_unknown_example():
    with pytest.raises(ValueError, match=r"example must be one of \(1, 2\), got 3"):
        example_problem(3, 1.0, 1.0, nt=2, nx=4, kmax=2)


# --- boundary synthesis ---------------------------------------------------


def test_synthesize_trace_constant_matches_polynomial_oracle():
    phi = ml_power_coeffs(1.0, 2, 10)  # width 11: 1, 0, 2, 0, 12, ..., 30240
    out = synthesize_boundary(phi, 2.0, 2, "x1", alpha=1.0)
    c = poly_derivative_at_one(phi.coeffs)
    assert c == pytest.approx(5.4166667, abs=5e-8)  # 65/12 at this width
    assert out.coeffs == pytest.approx((c, 2 * c, 4 * c), rel=1e-13)


def test_synthesize_trace_constant_converges_to_derivative_of_limit():
    # oracle: d/dx exp(x^2) at 1 is 2e
    phi = ml_power_coeffs(1.0, 2, 30)
    out = synthesize_boundary(phi, 2.0, 0, "x1", alpha=1.0)
    assert abs(out.coeffs[0] - 2.0 * math.e) < 1e-9


def test_synthesize_even_data_gives_zero_trace_at_origin():
    phi = ml_power_coeffs(0.7, 2, 12)
    out = synthesize_boundary(phi, 3.0, 4, "x0", alpha=0.9)
    assert out.coeffs.tolist() == [0.0] * 5


def test_synthesize_zero_eigenvalue_keeps_only_first_entry():
    phi = XSeries(1.0, (1.0, 0.5, 0.25))
    out = synthesize_boundary(phi, 0.0, 3, "x1", alpha=1.0)
    assert out.coeffs[0] != 0.0
    assert out.coeffs[1:].tolist() == [0.0, 0.0, 0.0]


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=-4, max_value=4), min_size=2, max_size=9),
    st.floats(min_value=-3, max_value=3),
)
@example(coeffs=[0.0, 5e-324], lam=1.5)  # out = (5e-324, 1e-323, ...): ratio 2
def test_synthesize_ratio_property(coeffs, lam):
    phi = XSeries(0.8, tuple(coeffs))
    out = synthesize_boundary(phi, lam, 5, "x1", alpha=0.8)
    for i in range(5):
        prev, entry = out.coeffs[i], out.coeffs[i + 1]
        if abs(prev) >= sys.float_info.min:
            assert abs(entry / prev - lam) <= 1e-14 * max(1.0, abs(lam))
        else:
            # below the normal range entries are multiples of ulp(0.0): bound the miss absolutely
            assert abs(entry - lam * prev) <= 8 * math.ulp(0.0)


def test_synthesize_rejects_bad_endpoint():
    phi = XSeries(1.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        synthesize_boundary(phi, 1.0, 2, "x2")


def test_synthesize_rejects_negative_depth_and_a_phi_without_a_derivative():
    with pytest.raises(ValueError, match="nt must be >= 0, got -1"):
        synthesize_boundary(XSeries(1.0, (1.0, 1.0)), 1.0, -1, "x1")
    with pytest.raises(WidthError, match="need width >= 1"):
        synthesize_boundary(XSeries(1.0, (1.0,)), 1.0, 2, "x0")
