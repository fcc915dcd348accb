"""Rate / harvested-power frontier for zero-mean Gaussian signalling.

Along the full-budget line P_r + P_i = P_a the information rate is concave
in the split and the harvested power is a quadratic in it,
P(P_i) = pdc_max - 4*(alpha + alpha_tilde)*P_i*(P_a - P_i): maximal when
everything rides one axis and minimal at the even split.  The solver here
returns the rate-optimal split meeting a power target as the root of that
quadratic, the sweep tabulates the frontier, and kkt_check solves the
stationarity rows for the first-order multipliers at a candidate point to
certify (or falsify) it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import gaussian_profile
from .rectenna import coeffs, delivered_power, delivered_power_gaussian_zero_mean
from .series import _integer
from .simulate import GaussianZeroMean

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


class Infeasible(ValueError):
    """The requested delivered power exceeds what any allocation can reach."""


@dataclass(frozen=True)
class RPPoint:
    """One frontier sample: rate (bits/s), delivered power, and the split."""

    rate: float
    power: float
    allocation: GaussianZeroMean


@dataclass(frozen=True)
class KktReport:
    """Reconstructed multipliers and stationarity residuals at a candidate point."""

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
    # per-dimension SNR slope: 2|h|^2 / (f_w * sigma_w2)
    return 2.0 * abs(ch.h) ** 2 / (ch.f_w * ch.sigma_w2)


def _rate(P_r, P_i, ch):
    # elementwise over scalars or arrays of per-dimension powers
    a = _snr_gain(ch)
    return 0.5 * ch.f_w * (np.log2(1.0 + a * P_r) + np.log2(1.0 + a * P_i))


def rate_gaussian(alloc, ch):
    """Information rate (bits/s) of a zero-mean Gaussian input with the given
    per-dimension powers; only the integer-time gain h enters."""
    return float(_rate(alloc.P_r, alloc.P_i, ch))


def pdc_min(P_a, ch):
    """Delivered power at the even (max-rate) split of budget P_a."""
    c = coeffs(ch)
    return (2.0 * (c.alpha + c.alpha_tilde) * P_a * P_a
            + (c.beta + c.beta_tilde) * P_a + c.gamma)


def pdc_max(P_a, ch):
    """Delivered power with the whole budget on one axis (min-rate corner)."""
    c = coeffs(ch)
    return (3.0 * (c.alpha + c.alpha_tilde) * P_a * P_a
            + (c.beta + c.beta_tilde) * P_a + c.gamma)


def optimal_allocation(P_a, P_d, ch, tol=1e-9):
    """Rate-maximizing split of budget P_a meeting delivered-power target P_d.

    Delivered power decreases strictly as the split evens out, so the best
    feasible point is the most symmetric split still delivering P_d: below
    pdc_min the unconstrained optimum (P_a/2, P_a/2) already qualifies;
    beyond pdc_max * (1 + tol) nothing does (typed Infeasible); in between,
    P_d = pdc_max - 4A*P_i*(P_a - P_i) with A = alpha + alpha_tilde > 0, whose
    root below P_a/2 is P_i = q / (P_a/2 + sqrt((P_d - pdc_min)/(4A))),
    q = (pdc_max - P_d)/(4A) — the form without cancellation near the
    corner.  Output is canonicalized with P_r >= P_i; the mirrored split
    performs identically.
    """
    if not (math.isfinite(P_a) and P_a > 0.0):
        raise ValueError(f"P_a must be positive and finite, got {P_a!r}")
    if not math.isfinite(P_d):
        raise ValueError(f"P_d must be finite, got {P_d!r}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    power_even = pdc_min(P_a, ch)
    power_corner = pdc_max(P_a, ch)
    if P_d > power_corner * (1.0 + tol):
        raise Infeasible(
            f"target {P_d!r} exceeds the maximum delivered power {power_corner!r}")
    if P_d <= power_even:
        return GaussianZeroMean(0.5 * P_a, 0.5 * P_a)
    if P_d >= power_corner:
        return GaussianZeroMean(P_a, 0.0)
    c = coeffs(ch)
    four_a = 4.0 * (c.alpha + c.alpha_tilde)
    q = (power_corner - P_d) / four_a
    # with A near the rounding level of pdc_min, the rounding error in
    # pdc_max - pdc_min can push the root past P_a/2
    p_i = min(q / (0.5 * P_a + math.sqrt((P_d - power_even) / four_a)), 0.5 * P_a)
    return GaussianZeroMean(P_a - p_i, p_i)


def rp_region(P_a, ch, n_points):
    """Frontier sweep from the single-axis corner to the even split.

    The n_points splits P_i = linspace(0, P_a/2) are evaluated as arrays, by
    the rate formula of rate_gaussian and by
    delivered_power_gaussian_zero_mean, and then listed as RPPoints.  Rate
    is nondecreasing and power nonincreasing along the returned list.
    """
    if not (math.isfinite(P_a) and P_a > 0.0):
        raise ValueError(f"P_a must be positive and finite, got {P_a!r}")
    n_points = _integer(n_points, "n_points")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    p_i = np.linspace(0.0, 0.5 * P_a, n_points)
    p_r = P_a - p_i
    rates = _rate(p_r, p_i, ch).tolist()
    powers = delivered_power_gaussian_zero_mean(p_r, p_i, ch).tolist()
    return [RPPoint(rate, power, GaussianZeroMean(pr, pi))
            for rate, power, pr, pi in zip(rates, powers, p_r.tolist(), p_i.tolist())]


def kkt_check(alloc, mu_r, mu_i, P_a, P_d, ch, tol=1e-6):
    """First-order optimality check at a candidate (allocation, mean) point.

    The complementary-slackness pattern is read off the point first — any
    slack constraint pins its multiplier at zero — and the two stationarity
    rows rate_d + lambda2*power_d' - lambda1 + zeta_d = 0 are then solved
    directly for the nonnegative multipliers that fit them best:

    * budget slack: every multiplier is 0.  The marginal rates are positive
      and, with k2, k4 >= 0, every other multiplier only adds to them, so
      nothing cancels them;
    * lambda2 free and (rate_i - rate_r)/(grad_r - grad_i) > 0: lambda1 and
      lambda2 from the 2x2 solve, with zero residual;
    * otherwise lambda1 alone: a free zeta on the lower-rate row absorbs the
      gap between the rows, else lambda1 is the mean of the two rates.

    Dual feasibility is thus built in, and a point admitting no valid
    multipliers surfaces as a nonzero residual rather than a sign violation.
    The mean enters only the falsification equations: optimal points always
    sit at mu = 0, where those equations vanish identically.
    """
    c = coeffs(ch)
    a = _snr_gain(ch)
    c1 = 0.5 * ch.f_w / math.log(2.0)  # rate in bits
    var_r = alloc.P_r - mu_r * mu_r
    var_i = alloc.P_i - mu_i * mu_i
    if var_r < -tol or var_i < -tol:
        raise ValueError("mean exceeds power: negative variance")
    var_r = max(var_r, 0.0)
    var_i = max(var_i, 0.0)

    p_del = delivered_power(gaussian_profile(mu_r, mu_i, var_r, var_i), ch)
    asum = c.alpha + c.alpha_tilde
    bsum = c.beta + c.beta_tilde
    # d(power)/dP: symmetric in the two dimensions
    grad_r = 2.0 * asum * (3.0 * alloc.P_r + alloc.P_i) + bsum
    grad_i = 2.0 * asum * (3.0 * alloc.P_i + alloc.P_r) + bsum
    rate_r = c1 * a / (1.0 + a * var_r)
    rate_i = c1 * a / (1.0 + a * var_i)

    budget_slack = P_a - (alloc.P_r + alloc.P_i)
    power_slack = p_del - P_d
    budget_tight = abs(budget_slack) <= tol * max(1.0, abs(P_a))
    power_tight = abs(power_slack) <= tol * max(1.0, abs(P_d))
    var_r_tight = var_r <= tol * max(1.0, abs(P_a))
    var_i_tight = var_i <= tol * max(1.0, abs(P_a))

    lam1 = lam2 = zeta_r = zeta_i = 0.0
    if budget_tight:
        if power_tight and (rate_i - rate_r) * (grad_r - grad_i) > 0.0:
            lam2 = (rate_i - rate_r) / (grad_r - grad_i)
            lam1 = rate_r + lam2 * grad_r
        elif rate_r < rate_i and var_r_tight:
            lam1, zeta_r = rate_i, rate_i - rate_r
        elif rate_i < rate_r and var_i_tight:
            lam1, zeta_i = rate_r, rate_r - rate_i
        else:
            lam1 = 0.5 * (rate_r + rate_i)

    res_pr = rate_r + lam2 * grad_r - lam1 + zeta_r
    res_pi = rate_i + lam2 * grad_i - lam1 + zeta_i
    res_mu_r = 2.0 * rate_r * mu_r + 8.0 * lam2 * asum * mu_r**3 + 2.0 * zeta_r * mu_r
    res_mu_i = 2.0 * rate_i * mu_i + 8.0 * lam2 * asum * mu_i**3 + 2.0 * zeta_i * mu_i

    scale = max(1.0, rate_r, rate_i)
    cs_ok = (
        budget_slack >= -tol * max(1.0, abs(P_a))
        and power_slack >= -tol * max(1.0, abs(P_d))
        and (budget_tight or lam1 <= tol * scale)
        and (power_tight or lam2 <= tol * scale)
        and (var_r_tight or zeta_r <= tol * scale)
        and (var_i_tight or zeta_i <= tol * scale)
    )
    return KktReport(lam1, lam2, zeta_r, zeta_i,
                     res_pr, res_pi, res_mu_r, res_mu_i, cs_ok)
