"""The cached gamma table and the B_beta convolution kernel built on it.

Oracles: exact binomials at beta = 1, 30-digit mpmath values of the table
and the weights, the square weight table the package once cached (built
here), a 30-digit mpmath march written out here (it shares no code with
the package), and a naive triple loop for a march with a known source.
"""

import math
import random

import numpy as np
import pytest

from fractaylor import (
    BiFracSeries,
    FracOrders,
    ProblemSpec,
    XSeries,
    example_problem,
    forward_march,
    frac_binom,
)
from fractaylor.gammafn import convolution_matrix, gamma_table, product_table
from fractaylor.problem import MAX_WIDTH

EPS = 2.0**-52


def square_weights(beta, width):
    """B_beta(k, m) for k, m < width from product_table: row k + m, column m."""
    _, weights = product_table(beta, 2 * width - 1, width)
    k, m = np.ogrid[:width, :width]
    return weights[k + m, m]


def reference_table(beta, width):
    """The square B_beta table the package once cached per order: a row loop
    over the summed logs, then one in-place exp."""
    lg = np.array([math.lgamma(n * beta + 1.0) for n in range(2 * width - 1)])
    binom = np.empty((width, width))
    for k in range(width):
        binom[k] = lg[k : k + width] - (lg[k] + lg[:width])
    with np.errstate(over="ignore"):
        np.exp(binom, out=binom)
    return binom


def test_table_reduces_to_binomials_at_beta_one():
    binom = square_weights(1.0, 64)
    for k in range(64):
        for m in range(64):
            exact = math.comb(k + m, k)
            assert abs(binom[k, m] - exact) <= 1e-12 * exact


def test_table_is_exactly_symmetric():
    for beta in (1.0, 0.9, 0.7, 0.35):
        binom = square_weights(beta, 141)
        assert np.array_equal(binom, binom.T)


def test_table_matches_mpmath_up_to_width_141():
    mpmath = pytest.importorskip("mpmath")
    beta, width = 0.7, 141
    table = gamma_table(beta, width)
    _, weights = product_table(beta, width, width)
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        lg = [mpmath.loggamma(n * b + 1) for n in range(width)]
        for n in range(width):
            assert abs(table.lg[n] - lg[n]) <= 4 * EPS * max(1.0, abs(float(lg[n])))
            rg = float(mpmath.exp(-lg[n]))
            assert abs(table.rgamma[n] - rg) <= 4 * EPS * (1.0 + abs(float(lg[n]))) * rg
        for k in range(width):
            for m in range(width - k):
                exact = float(mpmath.exp(lg[k + m] - lg[k] - lg[m]))
                # exp turns the absolute error of the summed logs into a relative one
                budget = 4 * EPS * (1.0 + float(abs(lg[k + m]) + abs(lg[k]) + abs(lg[m])))
                assert abs(weights[k + m, m] - exact) <= budget * exact, (k, m)


def test_table_arrays_are_read_only():
    table = gamma_table(0.7, 10)
    for array in table:
        with pytest.raises(ValueError):
            array[0] = 2.0


def test_frac_binom_equals_the_product_table_weight():
    _, weights = product_table(0.7, 41, 41)
    for k, m in ((0, 0), (3, 5), (17, 23), (40, 0)):
        assert frac_binom(k, m, 0.7) == weights[k + m, m]


@pytest.mark.parametrize("beta", [1.0, 0.9, 0.7, 0.35, 0.1])
def test_weights_equal_the_square_reference_table(beta):
    ref = reference_table(beta, 511)
    for n, cols in ((1, 1), (7, 3), (33, 33), (141, 9), (300, 511), (511, 61), (511, 511)):
        index, weights = product_table(beta, n, cols)
        j, m = np.ogrid[:n, :cols]
        want = np.where(j >= m, ref[index, m], 0.0)
        assert weights.tobytes() == want.tobytes(), (n, cols)
    rng = random.Random(7)
    pairs = [(0, 0), (510, 0), (0, 510), (255, 255), (510, 510)]
    pairs += [(rng.randrange(511), rng.randrange(511)) for _ in range(300)]
    for k, m in pairs:
        assert np.float64(frac_binom(k, m, beta)).tobytes() == ref[k, m].tobytes(), (k, m)


def test_gamma_table_holds_two_vectors_of_its_width():
    # no (width, width) array: a width-3000 table costs two vectors, not 70 MB
    table = gamma_table(0.5, 3000)
    assert table._fields == ("lg", "rgamma")
    for array in table:
        assert array.ndim == 1 and 3000 <= len(array) < 3032


def test_convolution_matrix_entries():
    cases = [
        ((2.0, 0.0, -3.0), 6),
        # longer than n, as the separable solve passes all of phi into kmax + 1 rows
        (tuple(0.5 * k - 2.0 for k in range(11)), 4),
        (np.array([1.25, -0.5, 4.0, 0.75]), 7),
        ((-1.0, 0.0, 0.0, 3.5, 0.0, -0.25, 0.0, 0.0), 9),
    ]
    for q, n in cases:
        w = convolution_matrix(q, 0.7, n)
        assert w.shape == (n, n)
        for j in range(n):
            for m in range(n):
                k = j - m
                want = q[k] * frac_binom(k, m, 0.7) if 0 <= k < len(q) else 0.0
                assert w[j, m] == want, (list(q), n, j, m)


def test_convolution_matrix_at_the_widest_march_is_finite():
    # at beta = 1 the weights are the largest; a zero q_k must give an exactly
    # zero subdiagonal, not 0 * inf = nan
    n = MAX_WIDTH - 2
    q = [0.0 if k % 3 == 1 else 1.0 for k in range(n)]
    w = convolution_matrix(q, 1.0, n)
    assert np.isfinite(w).all()
    for k in range(1, n, 3):
        assert not np.diagonal(w, -k).any()


def mp_march(phi, p, beta, nt):
    """30-digit march of a self-coupled problem and of its absolute values."""
    import mpmath

    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        lg = [mpmath.loggamma(n * b + 1) for n in range(len(phi))]
        w = [
            [mpmath.mpf(pk) * mpmath.exp(lg[k + m] - lg[k] - lg[m]) for m in range(len(phi) - k)]
            for k, pk in enumerate(p)
        ]
        levels = [[mpmath.mpf(v) for v in phi]]
        mags = [[abs(v) for v in levels[0]]]
        for _ in range(nt):
            prev, mprev = levels[-1], mags[-1]
            nxt, mnxt = [], []
            for j in range(len(prev) - 2):
                ks = range(min(j, len(p) - 1) + 1)
                nxt.append(prev[j + 2] + mpmath.fsum(w[k][j - k] * prev[j - k] for k in ks))
                mnxt.append(
                    mprev[j + 2] + mpmath.fsum(abs(w[k][j - k]) * mprev[j - k] for k in ks)
                )
            levels.append(nxt)
            mags.append(mnxt)
        return [[float(v) for v in lv] for lv in levels], [[float(v) for v in m] for m in mags]


def test_mid_depth_march_matches_mpmath():
    pytest.importorskip("mpmath")
    nt, nx, kmax = 20, 30, 30
    spec = example_problem(1, 0.7, 0.7, nt=nt, nx=nx, kmax=kmax)
    rng = random.Random(3)
    p = [rng.uniform(-1.0, 1.0) for _ in range(kmax + 1)]
    got = forward_march(spec, XSeries(0.7, tuple(p))).u.levels
    ref, mags = mp_march(spec.phi.coeffs, p, 0.7, nt)
    assert [len(level) for level in got] == [len(level) for level in ref]
    for i in range(1, nt + 1):
        for a, r, m in zip(got[i], ref[i], mags[i]):
            assert abs(a - r) <= 1e-10 * m, (i, a, r, m)


def test_known_source_rows_are_padded_and_truncated():
    # f rows shorter and longer than the level they act on, and fewer f
    # levels than time steps: missing entries count as zero
    beta = 0.8
    orders = FracOrders(0.9, beta)
    nt, nx, kmax = 4, 3, 3
    base = example_problem(2, 0.9, beta, nt=nt, nx=nx, kmax=kmax)
    rng = random.Random(11)
    widths = (4, 14, 2)  # against f rows of 10, 8, 6 and 4 coefficients
    f_levels = tuple(tuple(rng.uniform(-2.0, 2.0) for _ in range(w)) for w in widths)
    spec = ProblemSpec(
        orders, nt=nt, nx=nx, kmax=kmax, phi=base.phi, mu1=base.mu1, mu2=base.mu2,
        f_series=BiFracSeries(orders, f_levels),
    )
    p = [rng.uniform(-1.0, 1.0) for _ in range(kmax + 1)]
    got = forward_march(spec, XSeries(beta, tuple(p))).u.levels

    def b(k, m):
        return math.exp(
            math.lgamma((k + m) * beta + 1) - math.lgamma(k * beta + 1) - math.lgamma(m * beta + 1)
        )

    levels = [list(base.phi.coeffs)]
    for i in range(nt):
        prev = levels[-1]
        row = f_levels[i] if i < len(f_levels) else ()
        nxt = []
        for j in range(len(prev) - 2):
            acc, mag = prev[j + 2], abs(prev[j + 2])
            for k in range(min(j, kmax) + 1):
                fval = row[j - k] if j - k < len(row) else 0.0
                acc += p[k] * b(k, j - k) * fval
                mag += abs(p[k] * b(k, j - k) * fval)
            assert abs(got[i + 1][j] - acc) <= 1e-13 * mag
            nxt.append(acc)
        levels.append(nxt)
