"""Rate / harvested-power frontier for zero-mean Gaussian signalling.

Along the full-budget line P_r + P_i = P_a the information rate is concave
in the split and the harvested power is a quadratic in it,
P(P_i) = pdc_max - 4*(alpha + alpha_tilde)*P_i*(P_a - P_i): maximal when
everything rides one axis and minimal at the even split.  The endpoints,
the solver, the sweep and kkt_check take P_a, and any target P_d, through
rectenna's one budget rule and evaluate its one zero-mean Gaussian
quadratic, kkt_check less its closed-form mean term.  The solver returns
the rate-optimal split meeting a target as its root, the sweep lists the
frontier as RPPoint named tuples (rate, power, P_r, P_i), and kkt_check
solves the stationarity rows for the first-order multipliers at a
candidate point to certify (or falsify) it, as a KktReport named tuple.
Both records are built in C by tuple.__new__, and _asdict() gives either
as a dict.  Every rate takes its SNR slope through one rule: it must be
finite; and a rate past the float range raises ValueError instead of
coming back infinite.

Sweeps at one budget and size share their P_r and P_i floats: see rp_region.
Full budget: rate and power grow in each P_d.  No time-sharing: P(R) is
concave, |dP/dR| growing toward the even split (tests/test_inner_bound.py).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .moments import GaussianZeroMean, _integer
from .rectenna import _budget, _gaussian_power, coeffs

__all__ = [
    "Infeasible",
    "RPPoint",
    "KktReport",
    "rate_gaussian",
    "pdc_min",
    "pdc_max",
    "optimal_allocation",
    "rp_region",
    "kkt_check",
]

_TARGET_TOL = 1e-9  # optimal_allocation's relative headroom above pdc_max
_KKT_TOL = 1e-6  # kkt_check's tightness and sign tolerance
# Below this SNR np.log2(1 + x) is off by more than about 1e-13 relative.
_LOG1P_BELOW = 2.0 ** -10
_LN2 = math.log(2.0)
# The last sweep's split columns P_r, P_i as float lists, keyed by its
# (P_a, n_points): see rp_region.
_grid = (None, None, None)


class Infeasible(ValueError):
    """The requested delivered power exceeds what any allocation can reach."""


class RPPoint(NamedTuple):
    """One frontier sample: rate (bits/s), delivered power and the split."""

    rate: float
    power: float
    P_r: float
    P_i: float


class KktReport(NamedTuple):
    """Multipliers and stationarity residuals at a candidate point, and its primal
    feasibility: the multipliers are complementary and dual feasible by construction.
    A named tuple, so report._asdict() gives the fields as a dict."""

    lambda1: float
    lambda2: float
    zeta_r: float
    zeta_i: float
    stationarity_residual_Pr: float
    stationarity_residual_Pi: float
    stationarity_residual_mu_r: float
    stationarity_residual_mu_i: float
    complementary_slackness_ok: bool


def _snr_gain(ch):
    # The slope rule: the per-dimension SNR slope 2|h|^2 / (f_w * sigma_w2)
    # is finite, else no rate is (a noise product below the float range
    # counts as infinite).  Only the rate uses it.
    noise = ch.f_w * ch.sigma_w2
    a = 2.0 * abs(ch.h) ** 2 / noise if noise else math.inf
    if not math.isfinite(a):
        raise ValueError("the SNR slope 2|h|^2/(f_w*sigma_w2) is not finite on this channel")
    return a


def _log2_1p(x):
    # log2(1 + x) for an array x >= 0, in place.  Forming 1 + x rounds away
    # the digits of x below eps, so x under _LOG1P_BELOW takes log1p(x)/ln 2.
    small = x < _LOG1P_BELOW
    tiny = np.log1p(x[small]) / _LN2
    np.log2(np.add(x, 1.0, out=x), out=x)
    x[small] = tiny
    return x


def _rate(P_r, P_i, ch):
    # elementwise over scalars or arrays of per-dimension powers; a rate
    # past the float range (a*P or f_w times the logs overflowing) raises.
    # Worked in place: on a 1e4-point sweep each extra temporary costs
    # allocator page faults on every call (three more took 116 us against 50).
    a = _snr_gain(ch)
    with np.errstate(over="ignore"):
        rate = _log2_1p(np.asarray(a * P_r, dtype=float))
        rate += _log2_1p(np.asarray(a * P_i, dtype=float))
        rate *= 0.5 * ch.f_w
    if not np.isfinite(rate).all():
        raise ValueError("the rate 0.5*f_w*(log2(1 + a*P_r) + log2(1 + a*P_i)) "
                         "is not finite at these powers")
    return rate


def rate_gaussian(alloc, ch):
    """Information rate (bits/s) of a zero-mean Gaussian input with the given
    per-dimension powers; only the integer-time gain h enters.  A rate past
    the float range raises ValueError."""
    return float(_rate(alloc.P_r, alloc.P_i, ch))


def pdc_min(P_a, ch):
    """Delivered power at the even (max-rate) split of budget P_a.

    The budget rule applies: a P_a that is not positive and finite, or
    whose single-axis delivered power overflows, raises ValueError.
    """
    c = coeffs(ch)
    P_a, _ = _budget(c, P_a)
    return _gaussian_power(c, 0.5 * P_a, 0.5 * P_a)


def pdc_max(P_a, ch):
    """Delivered power with the whole budget on one axis (min-rate corner).

    The budget rule applies: a P_a that is not positive and finite, or
    whose corner power overflows, raises ValueError.
    """
    return _budget(coeffs(ch), P_a)[1]


def optimal_allocation(P_a, P_d, ch):
    """Rate-maximizing split of budget P_a meeting delivered-power target P_d.

    Delivered power decreases strictly as the split evens out, so the best
    feasible point is the most symmetric split still delivering P_d: below
    pdc_min the unconstrained optimum (P_a/2, P_a/2) already qualifies;
    beyond pdc_max * (1 + 1e-9) nothing does (typed Infeasible), and a
    target from pdc_max up to that fixed relative headroom gets the corner;
    in between, P_d = pdc_max - 4A*P_i*(P_a - P_i) with
    A = alpha + alpha_tilde > 0, whose root below P_a/2 is
    P_i = q / (P_a/2 + sqrt((P_d - pdc_min)/(4A))), q = (pdc_max - P_d)/(4A)
    — the form without cancellation near the corner.  Output is
    canonicalized with P_r >= P_i; the mirrored split performs identically.
    A P_a whose single-axis delivered power overflows raises ValueError.
    """
    c = coeffs(ch)
    P_a, power_corner = _budget(c, P_a, P_d)
    power_even = _gaussian_power(c, 0.5 * P_a, 0.5 * P_a)
    if P_d > power_corner * (1.0 + _TARGET_TOL):
        raise Infeasible(
            f"target {P_d!r} exceeds the maximum delivered power {power_corner!r}")
    if P_d <= power_even:
        return GaussianZeroMean(0.5 * P_a, 0.5 * P_a)
    if P_d >= power_corner:
        return GaussianZeroMean(P_a, 0.0)
    four_a = 4.0 * (c.alpha + c.alpha_tilde)
    q = (power_corner - P_d) / four_a
    # with A near the rounding level of pdc_min, the rounding error in
    # pdc_max - pdc_min can push the root past P_a/2
    p_i = min(q / (0.5 * P_a + math.sqrt((P_d - power_even) / four_a)), 0.5 * P_a)
    return GaussianZeroMean(P_a - p_i, p_i)


def rp_region(P_a, ch, n_points):
    """Frontier sweep from the single-axis corner to the even split.

    The n_points splits P_i = linspace(0, P_a/2) are evaluated as arrays, by
    the rate formula of rate_gaussian and the power quadratic of pdc_max and
    pdc_min (the first and last powers), and listed as RPPoint tuples (rate,
    power, P_r, P_i).  Rate is nondecreasing, up to rounding, and power
    nonincreasing along it.
    A P_a whose single-axis delivered power overflows raises ValueError.

    The splits depend on the budget and the size alone, never on the
    channel, so the module keeps the P_r and P_i float lists of its last
    sweep, keyed by the float P_a the budget rule returns and the int
    n_points the size rule returns.  A sweep at the same key lists those
    very floats: its points share them with the earlier sweep's, and only
    `is` can tell.  Keying by value is exact here: P_a is positive and
    finite, and equal positive floats have equal bits, so a hit lists the
    floats a miss would build (channels, whose equal values can differ in
    signed zeros, are never keyed by value).  Only the rates, powers and
    points are new per sweep.  The grid holds one entry, replaced by a
    sweep at another key; until then it keeps its two lists alive, 16 B per
    point, and 64 B per point of floats once the caller drops the points:
    about 0.8 MB at 1e4 points, 80 MB at the CLI's 1e6 bound.
    """
    global _grid
    c = coeffs(ch)
    P_a, _ = _budget(c, P_a)
    n_points = _integer(n_points, "n_points", 2)
    p_i = np.linspace(0.0, 0.5 * P_a, n_points)
    p_r = P_a - p_i
    rates = _rate(p_r, p_i, ch).tolist()
    powers = _gaussian_power(c, p_r, p_i).tolist()
    # Read once and replaced whole, after the rates and powers, so a sweep
    # that raises leaves the grid as it was.
    key, r_list, i_list = _grid
    if key != (P_a, n_points):
        r_list, i_list = p_r.tolist(), p_i.tolist()
        _grid = ((P_a, n_points), r_list, i_list)
    # tuple.__new__ builds the same RPPoints as RPPoint._make, but in C:
    # _make runs a Python frame per point, most of a long sweep's time.
    return list(map(tuple.__new__, repeat(RPPoint), zip(rates, powers, r_list, i_list)))


def kkt_check(alloc, mu_r, mu_i, P_a, P_d, ch):
    """First-order optimality check at a candidate (allocation, mean) point.

    Any slack constraint pins its multiplier at zero, and the two stationarity
    rows rate_d + lambda2*power_d' - lambda1 + zeta_d = 0 are then solved
    directly for the nonnegative multipliers that fit them best:

    * budget slack: every multiplier is 0.  The marginal rates are positive
      and, with k2, k4 >= 0, every other multiplier only adds to them, so
      nothing cancels them;
    * lambda2 free and (rate_i - rate_r)/(grad_r - grad_i) > 0: lambda1 and
      lambda2 from the 2x2 solve, with zero residual, where both are finite
      (a gradient gap near zero can send them past the float range).  Both
      gaps are formed on the inputs, so lambda2 keeps its digits at any
      SNR: subtracting the rounded rates lost them as eps/(a*P);
    * otherwise lambda1 alone: a free zeta on the lower-rate row absorbs the
      gap between the rows, else lambda1 is the mean of the two rates.

    So complementary slackness and dual feasibility hold by construction,
    complementary_slackness_ok is primal feasibility (budget kept and target
    met, within 1e-6), and a point with no valid multipliers keeps a residual.

    The delivered power is closed form: a Gaussian part with mean mu and
    power P = mu^2 + var has Q = Q_tilde = 3*(P_r^2 + P_i^2) + 2*P_r*P_i
    - 2*(mu_r^4 + mu_i^4), so it is rectenna's zero-mean quadratic less
    2*(alpha + alpha_tilde)*(mu_r^4 + mu_i^4): at a fixed power a mean only
    lowers it.  The mean enters the multipliers only through the mu rows,
    which hold that term's derivative and vanish at mu = 0, where optima sit.

    Besides the budget rule, a mean whose square exceeds its part's power by
    more than 1e-6 raises ValueError (the variance is clamped at 0 within
    that), and so does a candidate whose delivered power is not finite: a
    NaN mean, or powers whose fourth moments overflow, whatever k4.  So does
    a channel whose SNR slope is not finite.
    """
    c = coeffs(ch)
    P_a, _ = _budget(c, P_a, P_d)
    a = _snr_gain(ch)
    c1 = 0.5 * ch.f_w / _LN2  # rate in bits
    m2_r, m2_i = mu_r * mu_r, mu_i * mu_i  # by *: float ** raises on overflow
    var_r, var_i = alloc.P_r - m2_r, alloc.P_i - m2_i
    if var_r < -_KKT_TOL or var_i < -_KKT_TOL:
        raise ValueError("mean exceeds power: negative variance")
    var_r, var_i = max(var_r, 0.0), max(var_i, 0.0)

    asum = c.alpha + c.alpha_tilde
    p_del = (_gaussian_power(c, m2_r + var_r, m2_i + var_i)
             - 2.0 * asum * (m2_r * m2_r + m2_i * m2_i))
    if not math.isfinite(p_del):
        raise ValueError(f"candidate P_r = {alloc.P_r!r}, P_i = {alloc.P_i!r}, "
                         f"mu_r = {mu_r!r}, mu_i = {mu_i!r} has no finite delivered power")
    bsum = c.beta + c.beta_tilde
    # d(power)/dP: symmetric in the two dimensions
    grad_r = 2.0 * asum * (3.0 * alloc.P_r + alloc.P_i) + bsum
    grad_i = 2.0 * asum * (3.0 * alloc.P_i + alloc.P_r) + bsum
    rate_r = c1 * a / (1.0 + a * var_r)
    rate_i = c1 * a / (1.0 + a * var_i)

    budget_slack = P_a - (alloc.P_r + alloc.P_i)
    power_slack = p_del - P_d
    # P_a is the budget rule's positive float; P_d may be any finite number
    budget_tol = _KKT_TOL * max(1.0, P_a)
    power_tol = _KKT_TOL * max(1.0, abs(P_d))
    budget_tight = abs(budget_slack) <= budget_tol
    power_tight = abs(power_slack) <= power_tol

    lam1 = lam2 = zeta_r = zeta_i = 0.0
    if budget_tight and power_tight and (rate_i - rate_r) * (grad_r - grad_i) > 0.0:
        # (rate_i - rate_r)/(grad_r - grad_i) with both gaps formed on the
        # inputs, not by subtracting rounded rates, whose relative gap is
        # about a*(var_r - var_i): rate_i - rate_r is
        # rate_r*a*(var_r - var_i)/(1 + a*var_i) and grad_r - grad_i is
        # 4*(alpha + alpha_tilde)*(P_r - P_i).
        gap = 4.0 * asum * (alloc.P_r - alloc.P_i)
        lam2 = rate_r * (a / (1.0 + a * var_i)) * (var_r - var_i) / gap if gap else 0.0
        lam1 = rate_r + lam2 * grad_r
        if not (lam2 > 0.0 and math.isfinite(lam1)):
            # a gradient gap near zero: the solve has no finite multipliers
            lam1 = lam2 = 0.0
    if budget_tight and not lam2:
        if rate_r < rate_i and var_r <= budget_tol:
            lam1, zeta_r = rate_i, rate_i - rate_r
        elif rate_i < rate_r and var_i <= budget_tol:
            lam1, zeta_i = rate_r, rate_r - rate_i
        else:
            lam1 = 0.5 * (rate_r + rate_i)

    res_pr = rate_r + lam2 * grad_r - lam1 + zeta_r
    res_pi = rate_i + lam2 * grad_i - lam1 + zeta_i
    # lambda2 times the mean term's weight 8*(alpha + alpha_tilde); where a
    # subnormal gradient gap sends lambda2 near the float range, 8*lambda2
    # overflows though the product does not, and 8*asum is exact
    mu_weight = 8.0 * lam2 * asum
    if not math.isfinite(mu_weight):
        mu_weight = lam2 * (8.0 * asum)
    res_mu_r = 2.0 * rate_r * mu_r + mu_weight * mu_r**3 + 2.0 * zeta_r * mu_r
    res_mu_i = 2.0 * rate_i * mu_i + mu_weight * mu_i**3 + 2.0 * zeta_i * mu_i

    # bool: with a numpy P_d the comparison gives a numpy bool
    feasible = bool(budget_slack >= -budget_tol and power_slack >= -power_tol)
    # tuple.__new__ builds the report in C, as rp_region builds its points
    return tuple.__new__(KktReport, (lam1, lam2, zeta_r, zeta_i,
                                     res_pr, res_pi, res_mu_r, res_mu_i, feasible))
