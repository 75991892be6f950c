"""Gamma arithmetic against independent references.

Oracles: scipy's gammaln (an implementation independent of the stdlib
math.lgamma the package uses), exact factorials/binomials, and the
half-integer closed form Gamma(3/2) = sqrt(pi)/2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln

from fractaylor import frac_binom, log_gamma, ml_power_coeffs


def test_log_gamma_integer_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-14  # Gamma(5) = 4!


def test_log_gamma_half_integer_closed_form():
    expected = math.log(math.sqrt(math.pi) / 2.0)  # Gamma(3/2)
    assert abs(log_gamma(1.5) - expected) < 1e-14


def test_log_gamma_accuracy_grid():
    # relative accuracy away from the two zeros of ln Gamma, absolute next
    # to them, where no relative bound is meaningful
    for a in np.linspace(1.0, 200.0, 20011):
        ref = float(gammaln(a))
        err = abs(log_gamma(float(a)) - ref)
        if abs(ref) >= 1e-2:
            assert err / abs(ref) < 1e-13, f"rel error at a={a}"
        else:
            assert err < 5e-15, f"abs error near ln-gamma zero at a={a}"


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
def test_log_gamma_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        log_gamma(bad)


def test_frac_binom_reduces_to_binomial_at_beta_one():
    for k in range(21):
        for m in range(21):
            exact = math.comb(k + m, k)
            assert abs(frac_binom(k, m, 1.0) - exact) / exact < 1e-12


def test_frac_binom_pinned_values():
    assert abs(frac_binom(2, 2, 1.0) - 6.0) < 1e-12
    assert frac_binom(0, 7, 0.7) == 1.0  # Gamma(1) = 1 forces the identity
    assert abs(frac_binom(1, 1, 0.5) - 4.0 / math.pi) < 1e-12


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_frac_binom_symmetric(k, m, beta):
    assert frac_binom(k, m, beta) == frac_binom(m, k, beta)


@pytest.mark.parametrize("beta", [0.0, -0.3, 1.2])
def test_frac_binom_rejects_bad_order(beta):
    with pytest.raises(ValueError):
        frac_binom(1, 1, beta)


def test_frac_binom_rejects_a_negative_index():
    with pytest.raises(ValueError, match="k, m >= 0, got k=-1, m=0"):
        frac_binom(-1, 0, 1.0)


def test_ml_power_coeffs_square_case():
    # Gamma(2j+1)/Gamma(j+1) = (2j)!/j!
    got = ml_power_coeffs(1.0, 2, 4)
    expected = [1.0, 0.0, 2.0, 0.0, 12.0]
    for j in (0, 1, 2):
        assert expected[2 * j] == math.factorial(2 * j) / math.factorial(j)
    assert list(got.coeffs) == pytest.approx(expected, rel=1e-13)


def test_ml_power_coeffs_cube_case():
    got = ml_power_coeffs(1.0, 3, 6)
    expected = [1.0, 0.0, 0.0, 6.0, 0.0, 0.0, 360.0]
    for j in (1, 2):
        assert expected[3 * j] == math.factorial(3 * j) / math.factorial(j)
    assert list(got.coeffs) == pytest.approx(expected, rel=1e-13)


def test_ml_power_coeffs_constant_term_only():
    got = ml_power_coeffs(0.7, 2, 0)
    assert list(got.coeffs) == [1.0]


def test_ml_power_coeffs_unit_power_is_all_ones():
    got = ml_power_coeffs(1.0, 1, 12)
    assert list(got.coeffs) == pytest.approx([1.0] * 13, rel=1e-13)


def test_ml_power_coeffs_validation():
    with pytest.raises(ValueError):
        ml_power_coeffs(1.0, 0, 4)
    with pytest.raises(ValueError):
        ml_power_coeffs(1.5, 2, 4)
    with pytest.raises(ValueError):
        ml_power_coeffs(1.0, 2, -1)
