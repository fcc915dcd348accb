"""Half-sample sinc coefficients and the constants their sums reduce to.

A band-limited symbol stream at rate f_w takes the value
X((k + 1/2)/f_w) = sum_n X_n * s_{k-n} midway between samples, with
s_l = sinc(l + 1/2).  Sums of products of these coefficients up to fourth
order collapse to simple rationals; they are what turns the harvested-power
time average into a closed form.  This module exposes the closed forms next
to their truncated-window evaluation so each reduction can be cross-checked
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SERIES_IDS",
    "SeriesReport",
    "s_coeff",
    "analytic_value",
    "partial_sum",
    "evaluate",
    "verify",
]

#: T0/T1 are the single sums of s_l and s_l^3; S0/S5 of s_l^2 and s_l^4;
#: S1, S3, S6 run over pairs with l != k; S4 over distinct triples and
#: S2 over distinct quadruples.
SERIES_IDS = ("T0", "T1", "S0", "S1", "S2", "S3", "S4", "S5", "S6")

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


def analytic_value(series_id):
    """Closed-form constant for one of the nine series."""
    _check_id(series_id)
    return _ANALYTIC[series_id]


@lru_cache(maxsize=8)
def _power_sums(n_terms):
    """Single-index sums of s_l^p over l in [-N, N], p = 1..4.

    The symmetric window folds through s(-l-1) = s(l): indices pair up as
    (l, -l-1) for l in [0, N-1] with l = N left over, so each sum is
    2*sum_{0..N-1} s_l^p + s_N^p.  Keeping both members of each pair inside
    the window is what makes the alternating p=1 sum converge at O(1/N^2)
    instead of O(1/N).
    """
    idx = np.arange(n_terms, dtype=np.int64)
    s = s_coeff(idx)
    edge = s_coeff(n_terms)
    s2 = s * s
    t0 = 2.0 * s.sum() + edge
    t1 = 2.0 * (s2 * s).sum() + edge**3
    s0 = 2.0 * s2.sum() + edge**2
    s5 = 2.0 * (s2 * s2).sum() + edge**4
    return float(t0), float(t1), float(s0), float(s5)


def partial_sum(series_id, n_terms):
    """Truncated series over the symmetric index window l in [-n_terms, n_terms].

    Multi-index sums are reduced to polynomials in the single-index window
    sums.  The reductions are exact on the finite window (not just in the
    limit), so direct enumeration must agree to rounding error; cost is O(N)
    rather than O(N^4).
    """
    _check_id(series_id)
    n = _integer(n_terms, "n_terms")
    if n < 1:
        raise ValueError("n_terms must be >= 1")
    t0, t1, s0, s5 = _power_sums(n)
    if series_id == "T0":
        return t0
    if series_id == "T1":
        return t1
    if series_id == "S0":
        return s0
    if series_id == "S5":
        return s5
    if series_id == "S1":
        return t0 * t0 - s0
    if series_id == "S3":
        return s0 * s0 - s5
    if series_id == "S6":
        return t0 * t1 - s5
    if series_id == "S4":
        return (t0 * t0 - s0) * s0 - 2.0 * t0 * t1 + 2.0 * s5
    # S2: distinct-quadruple sum; Newton's identity for 24*e4 in the power sums.
    return t0**4 - 6.0 * t0 * t0 * s0 + 3.0 * s0 * s0 + 8.0 * t0 * t1 - 6.0 * s5


@dataclass(frozen=True)
class SeriesReport:
    """Partial sum of one series next to its closed form."""

    id: str
    analytic: float
    partial_sum: float
    truncation: int
    abs_error: float


def evaluate(series_id, n_terms):
    """SeriesReport for one series at the given truncation."""
    value = partial_sum(series_id, n_terms)
    exact = analytic_value(series_id)
    return SeriesReport(series_id, exact, value, _integer(n_terms, "n_terms"),
                        abs(exact - value))


def verify(n_terms=1_000_000):
    """Reports for all nine series at a common truncation."""
    return [evaluate(sid, n_terms) for sid in SERIES_IDS]


def _integer(value, name):
    # Integral floats such as 2e5 are accepted; 2.9 is an error, not 2.
    if isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_id(series_id):
    if series_id not in _ANALYTIC:
        raise ValueError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
