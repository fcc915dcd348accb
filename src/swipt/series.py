"""Half-sample sinc coefficients and the constants their sums reduce to.

A band-limited symbol stream at rate f_w takes the value
X((k + 1/2)/f_w) = sum_n X_n * s_{k-n} midway between samples, with
s_l = sinc(l + 1/2).  Sums of products of these coefficients up to fourth
order collapse to simple rationals; they are what turns the harvested-power
time average into a closed form.  verify is the one door to the nine
sums: one O(N) pass over the truncation window gives all nine partial sums
at once, and verify reports each next to its constant, so every reduction
can be cross-checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import _integer

__all__ = [
    "SeriesReport",
    "s_coeff",
    "verify",
]

# The nine constants by series id: T0/T1 are the single sums of s_l and
# s_l^3; S0/S5 of s_l^2 and s_l^4; S1, S3, S6 run over pairs with l != k;
# S4 over distinct triples and S2 over distinct quadruples.
_ANALYTIC = {
    "T0": 1.0,
    "T1": 0.5,
    "S0": 1.0,
    "S1": 0.0,
    "S2": 0.0,
    "S3": 2.0 / 3.0,
    "S4": -1.0 / 3.0,
    "S5": 1.0 / 3.0,
    "S6": 1.0 / 6.0,
}


def s_coeff(l):
    """sinc(l + 1/2) = (-1)^l / (pi * (l + 1/2)) for integer l.

    Folds negative indices onto the nonnegative branch so the symmetry
    s(-l-1) == s(l) holds bit-exactly.  Accepts scalars or integer arrays.
    """
    arr = np.asarray(l)
    m = np.where(arr >= 0, arr, -arr - 1)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    vals = sign / (np.pi * (m + 0.5))
    if arr.ndim == 0:
        return float(vals)
    return vals


def _window_sums(n_terms):
    """All nine partial sums over l in [-n_terms, n_terms], keyed by series id,
    for an integer n_terms >= 1.

    The single-index sums of s_l^p, p = 1..4, fold through s(-l-1) = s(l):
    indices pair up as (l, -l-1) for l in [0, N-1] with l = N left over, so
    each is 2*sum_{0..N-1} s_l^p + s_N^p.  Keeping both members of each pair
    inside the window is what makes the alternating p=1 sum converge at
    O(1/N^2) instead of O(1/N).  The multi-index sums are polynomials in
    those four (S2 by Newton's identity for 24*e4), exact on the finite
    window and not just in the limit.
    """
    s = s_coeff(np.arange(n_terms, dtype=np.int64))
    edge = s_coeff(n_terms)
    s2 = s * s
    t0 = float(2.0 * s.sum() + edge)
    t1 = float(2.0 * (s2 * s).sum() + edge**3)
    s0 = float(2.0 * s2.sum() + edge**2)
    s5 = float(2.0 * (s2 * s2).sum() + edge**4)
    return {
        "T0": t0,
        "T1": t1,
        "S0": s0,
        "S1": t0 * t0 - s0,
        "S2": t0**4 - 6.0 * t0 * t0 * s0 + 3.0 * s0 * s0 + 8.0 * t0 * t1 - 6.0 * s5,
        "S3": s0 * s0 - s5,
        "S4": (t0 * t0 - s0) * s0 - 2.0 * t0 * t1 + 2.0 * s5,
        "S5": s5,
        "S6": t0 * t1 - s5,
    }


@dataclass(frozen=True)
class SeriesReport:
    """Partial sum of one series next to its closed form."""

    id: str
    analytic: float
    partial_sum: float
    truncation: int
    abs_error: float


def verify(n_terms=1_000_000):
    """Reports for all nine series over the window l in [-n_terms, n_terms],
    from one O(n_terms) pass, in the order T0, T1, S0, S1, ..., S6."""
    n = _integer(n_terms, "n_terms", 1)
    sums = _window_sums(n)
    return [SeriesReport(sid, exact, sums[sid], n, abs(exact - sums[sid]))
            for sid, exact in _ANALYTIC.items()]

