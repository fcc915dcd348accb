"""Independent reference implementations the tests check the package against.

None of these is part of the package: each is a slower or differently
derived route to a quantity the package computes in closed form.

* brute_force_double_sum — direct enumeration of the distinct-index series;
* q_tilde_intermediate — the mid-sample fourth moment via pseudo-moments;
* bisection_allocation — the tradeoff split by bisection on the power residual;
* kkt_check_nnls — the first-order certificate with its multipliers fitted
  by nonnegative least squares (SciPy).
"""

import math

import numpy as np

from swipt.moments import derived_moments, gaussian_profile
from swipt.rectenna import coeffs, delivered_power, delivered_power_gaussian_zero_mean
from swipt.series import SERIES_IDS, s_coeff
from swipt.simulate import GaussianZeroMean
from swipt.tradeoff import Infeasible, KktReport, pdc_max, pdc_min

_PAIR_IDS = ("S1", "S3", "S6")
_HIGHER_IDS = ("S2", "S4")
_PAIR_WINDOW_MAX = 2000
_HIGHER_WINDOW_MAX = 200


def brute_force_double_sum(series_id, window):
    """Direct enumeration of the distinct-index sums on [-window, window].

    Independent cross-check for the reductions in partial_sum.  S1/S3/S6
    enumerate every (l, k) pair (window <= 2000).  S4 enumerates a masked
    (k, d) grid per l, and S2 enumerates the (l, k) grid against the exact
    window value of the remaining pair-excluded double sum; both are capped
    at window 200.
    """
    if series_id not in SERIES_IDS:
        raise ValueError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
    w = int(window)
    if w < 1:
        raise ValueError("window must be >= 1")
    if series_id in _PAIR_IDS:
        if w > _PAIR_WINDOW_MAX:
            raise ValueError(
                f"window {w} too large for pair enumeration (max {_PAIR_WINDOW_MAX})")
        s = s_coeff(np.arange(-w, w + 1))
        if series_id == "S1":
            return _pair_sum_distinct(s, s)
        if series_id == "S3":
            return _pair_sum_distinct(s * s, s * s)
        return _pair_sum_distinct(s**3, s)
    if series_id in _HIGHER_IDS:
        if w > _HIGHER_WINDOW_MAX:
            raise ValueError(
                f"window {w} too large for {series_id} (max {_HIGHER_WINDOW_MAX})")
        s = s_coeff(np.arange(-w, w + 1))
        if series_id == "S4":
            return _triple_sum_distinct(s)
        return _quad_sum_distinct(s)
    raise ValueError(f"{series_id} is a single-index sum; use partial_sum")


def _pair_sum_distinct(a, b, block=512):
    # sum over l != k of a_l * b_k, by blocks of rows of the full grid with
    # the diagonal zeroed.
    total = 0.0
    for i in range(0, a.size, block):
        chunk = a[i:i + block, None] * b[None, :]
        rows = np.arange(chunk.shape[0])
        chunk[rows, i + rows] = 0.0
        total += chunk.sum()
    return total


def _triple_sum_distinct(s):
    # sum over l of s_l^2 * (sum over k != d, both != l, of s_k * s_d)
    grid = np.outer(s, s)
    np.fill_diagonal(grid, 0.0)
    total = 0.0
    for li in range(s.size):
        g = grid.copy()
        g[li, :] = 0.0
        g[:, li] = 0.0
        total += s[li] ** 2 * g.sum()
    return total


def _quad_sum_distinct(s):
    # For each ordered pair (l, k), the remaining double sum over distinct
    # d, m excluding both has the exact window value
    # (T0 - s_l - s_k)^2 - (S0 - s_l^2 - s_k^2).
    t0 = s.sum()
    s0 = (s * s).sum()
    sl = s[:, None]
    sk = s[None, :]
    inner = (t0 - sl - sk) ** 2 - (s0 - sl * sl - sk * sk)
    outer = sl * sk * inner
    np.fill_diagonal(outer, 0.0)
    return float(outer.sum())


def q_tilde_intermediate(profile):
    """Same quantity as q_tilde via the complex pseudo-moment route.

    (1/3)[Q + 4P(P - |mu|^2) + 2(|P_bar|^2 - Re{P_bar mu*^2}) + 2 Re{T_bar mu*}]
    — algebraically identical to q_tilde; kept as an independent expression
    so the expansion can be property-tested.
    """
    d = derived_moments(profile)
    mu_c = d.mu.conjugate()
    mu2 = abs(d.mu) ** 2
    pseudo = abs(d.P_bar) ** 2 - (d.P_bar * mu_c * mu_c).real
    third = (d.T_bar * mu_c).real
    return (d.Q + 4.0 * d.P * (d.P - mu2) + 2.0 * pseudo + 2.0 * third) / 3.0


def bisection_allocation(P_a, P_d, ch, tol=1e-9):
    """optimal_allocation by bisection on P_i in [0, P_a/2].

    Same even-split, corner and Infeasible branches; in between, up to 200
    halvings keep the split with the smallest power residual.
    """
    power_even = pdc_min(P_a, ch)
    power_corner = pdc_max(P_a, ch)
    if P_d > power_corner * (1.0 + tol):
        raise Infeasible(
            f"target {P_d!r} exceeds the maximum delivered power {power_corner!r}")
    if P_d <= power_even:
        return GaussianZeroMean(0.5 * P_a, 0.5 * P_a)
    if P_d >= power_corner:
        return GaussianZeroMean(P_a, 0.0)
    lo, hi = 0.0, 0.5 * P_a
    best_pi, best_res = lo, power_corner - P_d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        res = delivered_power_gaussian_zero_mean(P_a - mid, mid, ch) - P_d
        if abs(res) < abs(best_res):
            best_pi, best_res = mid, res
        if res > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * P_a:
            break
    return GaussianZeroMean(P_a - best_pi, best_pi)


def kkt_check_nnls(alloc, mu_r, mu_i, P_a, P_d, ch, tol=1e-6):
    """kkt_check with the multipliers fitted by scipy.optimize.nnls.

    The stationarity system gets one column per multiplier the slackness
    pattern leaves free.  Returns the KktReport and whether that system has
    full column rank, i.e. whether the best-fitting multipliers are unique.
    """
    from scipy.optimize import nnls

    c = coeffs(ch)
    a = 2.0 * abs(ch.h) ** 2 / (ch.f_w * ch.sigma_w2)
    c1 = 0.5 * ch.f_w / math.log(2.0)
    var_r = alloc.P_r - mu_r * mu_r
    var_i = alloc.P_i - mu_i * mu_i
    if var_r < -tol or var_i < -tol:
        raise ValueError("mean exceeds power: negative variance")
    var_r = max(var_r, 0.0)
    var_i = max(var_i, 0.0)

    p_del = delivered_power(gaussian_profile(mu_r, mu_i, var_r, var_i), ch)
    asum = c.alpha + c.alpha_tilde
    bsum = c.beta + c.beta_tilde
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

    free = [name for name, tight in (("lambda1", budget_tight),
                                     ("lambda2", power_tight),
                                     ("zeta_r", var_r_tight),
                                     ("zeta_i", var_i_tight)) if tight]
    col = {name: j for j, name in enumerate(free)}
    system = np.zeros((2, max(len(free), 1)))
    for row, (grad, zeta_name) in enumerate(
            ((grad_r, "zeta_r"), (grad_i, "zeta_i"))):
        if "lambda1" in col:
            system[row, col["lambda1"]] = 1.0
        if "lambda2" in col:
            system[row, col["lambda2"]] = -grad
        if zeta_name in col:
            system[row, col[zeta_name]] = -1.0
    solution, _ = nnls(system, np.array([rate_r, rate_i]))

    def mult(name):
        return float(solution[col[name]]) if name in col else 0.0

    lam1, lam2 = mult("lambda1"), mult("lambda2")
    zeta_r, zeta_i = mult("zeta_r"), mult("zeta_i")
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
    report = KktReport(lam1, lam2, zeta_r, zeta_i,
                       res_pr, res_pi, res_mu_r, res_mu_i, cs_ok)
    return report, np.linalg.matrix_rank(system) == len(free)
