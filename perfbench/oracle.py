"""High-precision reference march for the ``deep_march`` workload.

An independent re-implementation of the coefficient recurrence

    a[i+1][j] = a[i][j+2] + sum_{k<=min(j,kmax)} p_k * B_beta(k, j-k) * a[i][j-k]

in 50-digit mpmath arithmetic, with the case-1 initial data
phi_{2j} = Gamma(2*j*beta+1)/Gamma(j*beta+1).  It shares no code with
fractaylor, so it checks the float march rather than restating it.  The
launcher runs it before the workload process starts, outside every timed
region and outside ``setup_s``.

The march starts from phi rounded to float, and the workload hands the
program that same float phi, so the error of the marched levels is the
march's own; the program's phi is checked separately.
"""

from __future__ import annotations

import mpmath


def case1_march(
    p: list[float], beta: float, nt: int, jmax: int, dps: int = 50
) -> tuple[list[float], list[list[float]], list[list[float]]]:
    """March a self-coupled case-1 problem; return (phi, levels, magnitudes).

    ``phi`` is the exact initial data rounded to float; the march starts
    from exactly those floats.  ``levels`` are the exact coefficients of
    time levels 1..nt rounded to float.  ``magnitudes`` come from the same
    march with every weight and value replaced by its absolute value: the
    size of everything summed into each coefficient, the scale against
    which a float march's rounding error is bounded.
    """
    with mpmath.workdps(dps):
        b = mpmath.mpf(beta)
        lg = [mpmath.loggamma(n * b + 1) for n in range(jmax + 1)]
        phi = [0.0] * (jmax + 1)
        for j in range(jmax // 2 + 1):
            phi[2 * j] = float(mpmath.exp(lg[2 * j] - lg[j]))
        # w[k][m] = p_k * B_beta(k, m)
        w = [
            [mpmath.mpf(pk) * mpmath.exp(lg[k + m] - lg[k] - lg[m]) for m in range(jmax + 1 - k)]
            for k, pk in enumerate(p)
        ]
        wabs = [[abs(float(v)) for v in row] for row in w]
        levels = [[mpmath.mpf(v) for v in phi]]
        mags = [[abs(v) for v in phi]]
        for _ in range(nt):
            prev, mprev = levels[-1], mags[-1]
            nxt, mnxt = [], []
            for j in range(len(prev) - 2):
                ks = range(min(j, len(p) - 1) + 1)
                nxt.append(prev[j + 2] + mpmath.fdot([(w[k][j - k], prev[j - k]) for k in ks]))
                mnxt.append(mprev[j + 2] + sum(wabs[k][j - k] * mprev[j - k] for k in ks))
            levels.append(nxt)
            mags.append(mnxt)
        return phi, [[float(v) for v in level] for level in levels[1:]], mags[1:]
