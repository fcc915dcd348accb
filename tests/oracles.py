"""Independent reference implementations the tests check the package against.

None of these is part of the package: each is a slower or differently
derived route to a quantity the package computes in closed form.

* s_coeff — the half-sample sinc coefficient s_l = sinc(l + 1/2) at any
  integer l, from an index array and a sign table: the closed-form
  reference for the taps series._s_first builds in place, which the series
  sums and simulate._kernel use;
* SERIES_IDS, series_sums — the nine series ids in series.verify's order,
  and verify's partial sums keyed by id;
* window_sums_five_arrays — series._window_sums as it was built from an
  integer index array and five length-N arrays, with s_l as
  sign / (pi * (m + 0.5));
* brute_force_double_sum — direct enumeration of the distinct-index series;
* q_tilde_intermediate — the mid-sample fourth moment via pseudo-moments;
* constellation_profile — a finite constellation's moments by numpy's
  vectorised power and pairwise sum;
* empirical_profile, swapped — sample moments of drawn symbols, and a
  profile with its real and imaginary dimensions exchanged;
* rate_mp — the Gaussian input's rate in 50-digit arithmetic (mpmath);
* power_mp — the zero-mean Gaussian input's delivered power, coefficients
  and quadratic, in 50-digit arithmetic (mpmath);
* lambda2_mp — kkt_check's power multiplier at a zero-mean split on the
  frontier, in 50-digit arithmetic (mpmath);
* rp_region_fresh — tradeoff.rp_region with every split float built anew
  per sweep, its points made by RPPoint._make;
* profile_exact, q_tilde_exact, derived_moments_exact — profile_of,
  q_tilde and derived_moments in exact rational arithmetic (fractions)
  from the float inputs as stored;
* bisection_allocation — the tradeoff split by bisection on the power
  residual, each power from the general moment-profile path;
* kkt_check_nnls — the first-order certificate with its multipliers fitted
  by nonnegative least squares (SciPy);
* draw_per_block — the symbol and noise streams drawn block by block, each
  block from its own freshly built substream generator;
* mc_even_fourth_moment, fourth_moment_even — the integer-time channel
  output's fourth moment E[|Y_k|^4], estimated over 1000-symbol blocks and
  in closed form;
* half_sample_value — one mid-sample value as a direct dot product of the
  symbols with the truncated sinc kernel;
* half_samples_one_fft — every mid-sample value by one real-FFT
  convolution covering the whole linear convolution, no frames;
* upsample, mc_oversampled_single_grid — the oversampled Monte-Carlo
  estimator on its whole n*oversample grid, built by one inverse FFT of the
  zero-padded spectrum (a numpy copy of SciPy's even-length `resample`),
  from mid-samples by half_samples_one_fft.
"""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from swipt.moments import (
    DerivedMoments,
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    MomentProfile,
    _check_seed,
    _integer,
    derived_moments,
    gaussian_profile,
)
from swipt.rectenna import _budget, _gaussian_power, coeffs, delivered_power
from swipt.series import verify
from swipt.simulate import (
    _DOM_NOISE_EVEN,
    _DOM_NOISE_ODD,
    _DOM_SYMBOLS,
    McEstimate,
    _blocking,
    _draw_noise,
    _estimate,
    _integrand,
    _kernel,
    _substream,
)
from swipt.tradeoff import Infeasible, KktReport, RPPoint, _rate, pdc_max, pdc_min

SERIES_IDS = ("T0", "T1", "S0", "S1", "S2", "S3", "S4", "S5", "S6")
_PAIR_IDS = ("S1", "S3", "S6")
_HIGHER_IDS = ("S2", "S4")
_PAIR_WINDOW_MAX = 2000
_HIGHER_WINDOW_MAX = 200


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


def series_sums(n_terms):
    """series.verify's nine partial sums over [-n_terms, n_terms], by id."""
    return {r.id: r.partial_sum for r in verify(n_terms)}


def window_sums_five_arrays(n_terms):
    """The four single-index sums T0, T1, S0 and S5 over [-n_terms, n_terms]
    as series._window_sums formed them from fresh arrays: an int64 index
    array, its parity and sign arrays, s, s^2 and the products s^2*s and
    s^2*s^2, 40 B per term at its peak."""
    m = np.arange(n_terms, dtype=np.int64)
    s = np.where(m % 2 == 0, 1.0, -1.0) / (np.pi * (m + 0.5))
    edge = (-1.0 if n_terms % 2 else 1.0) / (np.pi * (n_terms + 0.5))
    s2 = s * s
    return {
        "T0": float(2.0 * s.sum() + edge),
        "T1": float(2.0 * (s2 * s).sum() + edge**3),
        "S0": float(2.0 * s2.sum() + edge**2),
        "S5": float(2.0 * (s2 * s2).sum() + edge**4),
    }


def brute_force_double_sum(series_id, window):
    """Direct enumeration of the distinct-index sums on [-window, window].

    Independent cross-check for the reductions in series.verify.  S1/S3/S6
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
    raise ValueError(f"{series_id} is a single-index sum; use series_sums")


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
    with P, Q the total second and fourth moments, mu the complex mean and
    P_bar = E[X^2], T_bar = E[|X|^2 X] the pseudo-moments, all built here
    from the profile — algebraically identical to q_tilde; kept as an
    independent expression so the expansion can be property-tested.
    """
    p = profile
    total_p = p.P_r + p.P_i
    total_q = p.Q_r + p.Q_i + 2.0 * p.P_r * p.P_i
    mu = complex(p.mu_r, p.mu_i)
    p_bar = complex(p.P_r - p.P_i, 2.0 * p.mu_r * p.mu_i)
    t_bar = complex(p.T_r + p.mu_r * p.P_i, p.P_r * p.mu_i + p.T_i)
    mu_c = mu.conjugate()
    mu2 = abs(mu) ** 2
    pseudo = abs(p_bar) ** 2 - (p_bar * mu_c * mu_c).real
    third = (t_bar * mu_c).real
    return (total_q + 4.0 * total_p * (total_p - mu2) + 2.0 * pseudo + 2.0 * third) / 3.0


def constellation_profile(dist):
    """Moment profile of a FiniteConstellation as sum(p * x**k) over numpy
    arrays of its probabilities and of the real or imaginary parts."""
    pts = np.asarray(dist.points)
    pr = np.asarray(dist.probs)

    def moment(part, k):
        return float(np.sum(pr * part**k))

    re, im = pts.real, pts.imag
    return MomentProfile(
        moment(re, 1), moment(im, 1), moment(re, 2), moment(im, 2),
        moment(re, 3), moment(im, 3), moment(re, 4), moment(im, 4))


ExactProfile = namedtuple("ExactProfile", "mu_r mu_i P_r P_i T_r T_i Q_r Q_i")


def profile_exact(dist, absolute=False):
    """profile_of in exact rational arithmetic, as an ExactProfile of
    Fractions: a constellation's moments from its float points and
    probabilities as stored, a Gaussian's from its float parameters.  With
    absolute=True every part value (a point's, or a Gaussian's mean) counts
    by its magnitude, so each moment is the sum of its terms' magnitudes."""
    part_value = abs if absolute else (lambda x: x)
    if isinstance(dist, FiniteConstellation):
        probs = [Fraction(p) for p in dist.probs]

        def moments(part):
            xs = [part_value(Fraction(x)) for x in part]
            return [sum(p * x**k for p, x in zip(probs, xs)) for k in (1, 2, 3, 4)]

        (mu_r, p_r, t_r, q_r), (mu_i, p_i, t_i, q_i) = (
            moments(x.real for x in dist.points), moments(x.imag for x in dist.points))
        return ExactProfile(mu_r, mu_i, p_r, p_i, t_r, t_i, q_r, q_i)
    if isinstance(dist, GaussianZeroMean):
        params = (0.0, 0.0, dist.P_r, dist.P_i)
    elif isinstance(dist, GaussianGeneral):
        params = (dist.mu_r, dist.mu_i, dist.var_r, dist.var_i)
    else:
        raise TypeError(f"unsupported input distribution: {dist!r}")
    mu_r, mu_i, var_r, var_i = (part_value(Fraction(x)) for x in params)

    def one_dim(mu, var):
        return mu * mu + var, mu**3 + 3 * mu * var, mu**4 + 6 * mu * mu * var + 3 * var * var

    (p_r, t_r, q_r), (p_i, t_i, q_i) = one_dim(mu_r, var_r), one_dim(mu_i, var_i)
    return ExactProfile(mu_r, mu_i, p_r, p_i, t_r, t_i, q_r, q_i)


def _q_tilde_terms(p):
    # three times q_tilde, term by term
    return (p.Q_r, p.Q_i, 2 * p.mu_r * p.T_r, 2 * p.mu_i * p.T_i, 6 * p.P_r * p.P_i,
            6 * p.P_r * p.P_r, -6 * p.P_r * p.mu_r * p.mu_r,
            6 * p.P_i * p.P_i, -6 * p.P_i * p.mu_i * p.mu_i)


def q_tilde_exact(profile, absolute=False):
    """moments.q_tilde of an ExactProfile, exactly; with absolute=True the
    sum of its terms' magnitudes instead."""
    terms = _q_tilde_terms(profile)
    return sum(map(abs, terms) if absolute else terms) / 3


def derived_moments_exact(profile, absolute=False):
    """moments.derived_moments of an ExactProfile as DerivedMoments of
    Fractions; with absolute=True each form is the sum of its terms'
    magnitudes, the scale of its rounding error."""
    p = profile
    total_q = p.Q_r + p.Q_i + 2 * p.P_r * p.P_i
    return DerivedMoments(p.P_r + p.P_i, total_q, q_tilde_exact(p, absolute))


def empirical_profile(samples):
    """Plain sample moments of the real and imaginary parts.

    No bias correction: at the sample sizes used here the difference is
    negligible and the estimator definition stays transparent.
    """
    arr = np.asarray(samples, dtype=complex).ravel()
    if arr.size < 2:
        raise ValueError("need at least 2 samples")
    moments = []
    for part in (arr.real, arr.imag):
        moments.append([float(np.mean(part**p)) for p in (1, 2, 3, 4)])
    (mu_r, p_r, t_r, q_r), (mu_i, p_i, t_i, q_i) = moments
    return MomentProfile(mu_r, mu_i, p_r, p_i, t_r, t_i, q_r, q_i)


def swapped(p):
    """The same input with real and imaginary dimensions exchanged."""
    return MomentProfile(p.mu_i, p.mu_r, p.P_i, p.P_r, p.T_i, p.T_r, p.Q_i, p.Q_r)


def rate_mp(P_r, P_i, ch):
    """tradeoff.rate_gaussian's 0.5*f_w*(log2(1 + a*P_r) + log2(1 + a*P_i)),
    a = 2|h|^2/(f_w*sigma_w2), in 50-digit arithmetic from the exact values
    of the float inputs, rounded to a float once at the end."""
    import mpmath

    with mpmath.workdps(50):
        f_w = mpmath.mpf(ch.f_w)
        a = 2 * (mpmath.mpf(ch.h.real) ** 2 + mpmath.mpf(ch.h.imag) ** 2) / (
            f_w * mpmath.mpf(ch.sigma_w2))
        logs = mpmath.log1p(a * mpmath.mpf(P_r)) + mpmath.log1p(a * mpmath.mpf(P_i))
        return float(f_w * logs / (2 * mpmath.log(2)))


def power_mp(P_r, P_i, ch):
    """rectenna's coefficients and zero-mean Gaussian quadratic
    (alpha + alpha~)*(3*(P_r^2 + P_i^2) + 2*P_r*P_i) + (beta + beta~)*(P_r + P_i)
    + gamma in 50-digit arithmetic from the exact values of the float inputs,
    rounded to a float once at the end."""
    import mpmath

    with mpmath.workdps(50):
        h2 = mpmath.mpf(ch.h.real) ** 2 + mpmath.mpf(ch.h.imag) ** 2
        ht2 = mpmath.mpf(ch.h_tilde.real) ** 2 + mpmath.mpf(ch.h_tilde.imag) ** 2
        f_w, k2, k4 = mpmath.mpf(ch.f_w), mpmath.mpf(ch.k2), mpmath.mpf(ch.k4)
        s2 = mpmath.mpf(ch.sigma_w2)
        asum = 3 * k4 * (h2 * h2 + ht2 * ht2) / (4 * f_w)
        bsum = (k2 + 6 * k4 * s2) * (h2 + ht2) / f_w
        gamma = (k2 * s2 + 3 * k4 * s2 * s2) / f_w
        p_r, p_i = mpmath.mpf(P_r), mpmath.mpf(P_i)
        fourth = 3 * (p_r * p_r + p_i * p_i) + 2 * p_r * p_i
        return float(asum * fourth + bsum * (p_r + p_i) + gamma)


def lambda2_mp(P_r, P_i, ch):
    """kkt_check's lambda2 = (rate_i - rate_r)/(grad_r - grad_i) at a
    zero-mean split, c1*a^2/(4*(alpha + alpha~)*(1 + a*P_r)*(1 + a*P_i))
    with c1 = f_w/(2 ln 2), a = 2|h|^2/(f_w*sigma_w2) and
    alpha + alpha~ = 3*k4*(|h|^4 + |h~|^4)/(4*f_w), in 50-digit arithmetic
    from the exact values of the float inputs, rounded to a float once at
    the end."""
    import mpmath

    with mpmath.workdps(50):
        h2 = mpmath.mpf(ch.h.real) ** 2 + mpmath.mpf(ch.h.imag) ** 2
        ht2 = mpmath.mpf(ch.h_tilde.real) ** 2 + mpmath.mpf(ch.h_tilde.imag) ** 2
        f_w = mpmath.mpf(ch.f_w)
        a = 2 * h2 / (f_w * mpmath.mpf(ch.sigma_w2))
        c1 = f_w / (2 * mpmath.log(2))
        asum = 3 * mpmath.mpf(ch.k4) * (h2 * h2 + ht2 * ht2) / (4 * f_w)
        p_r, p_i = mpmath.mpf(P_r), mpmath.mpf(P_i)
        return float(c1 * a * a / (4 * asum * (1 + a * p_r) * (1 + a * p_i)))


def rp_region_fresh(P_a, ch, n_points):
    """rp_region's sweep from the same arrays, with each split column listed
    anew, so no float is shared with another sweep, and every point made by
    RPPoint._make."""
    c = coeffs(ch)
    P_a, _ = _budget(c, P_a)
    n_points = _integer(n_points, "n_points", 2)
    p_i = np.linspace(0.0, 0.5 * P_a, n_points)
    p_r = P_a - p_i
    rates = _rate(p_r, p_i, ch).tolist()
    powers = _gaussian_power(c, p_r, p_i).tolist()
    return list(map(RPPoint._make, zip(rates, powers, p_r.tolist(), p_i.tolist())))


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
        res = delivered_power(gaussian_profile(0.0, 0.0, P_a - mid, mid), ch) - P_d
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


def _draw_block(dist, n, gen):
    if isinstance(dist, GaussianZeroMean):
        re = gen.standard_normal(n) * math.sqrt(dist.P_r)
        im = gen.standard_normal(n) * math.sqrt(dist.P_i)
        return re + 1j * im
    if isinstance(dist, GaussianGeneral):
        re = dist.mu_r + gen.standard_normal(n) * math.sqrt(dist.var_r)
        im = dist.mu_i + gen.standard_normal(n) * math.sqrt(dist.var_i)
        return re + 1j * im
    if isinstance(dist, FiniteConstellation):
        pts = np.asarray(dist.points)
        idx = gen.choice(pts.size, size=n, p=np.asarray(dist.probs))
        return pts[idx]
    raise TypeError(f"unsupported input distribution: {dist!r}")


def draw_per_block(dist, n, seed, domain, block=1000):
    """The stream simulate._draw produces, built one block at a time.

    Block b comes from a freshly built _substream(seed, domain, b) and always
    consumes a full block of draws, real parts before imaginary parts; a
    short tail is sliced.
    """
    out = np.empty(n, dtype=complex)
    for start in range(0, n, block):
        count = min(block, n - start)
        gen = _substream(seed, domain, start // block)
        out[start:start + count] = _draw_block(dist, block, gen)[:count]
    return out


def mc_even_fourth_moment(dist, ch, n_symbols, seed):
    """Empirical fourth moment E[|Y_k|^4] of the integer-time channel output."""
    n = _integer(n_symbols, "n_symbols", 1000)
    seed = _check_seed(seed)
    symbols = draw_per_block(dist, n, seed, _DOM_SYMBOLS)
    y = ch.h * symbols + _draw_noise(n, ch.sigma_w2, seed, _DOM_NOISE_EVEN)
    power = y.real**2 + y.imag**2
    block_len, n_blocks = _blocking(n)
    vals = (power * power)[:n_blocks * block_len]
    block_means = vals.reshape(n_blocks, block_len).mean(axis=1)
    return _estimate(block_means, n_blocks * block_len, seed)


def fourth_moment_even(profile, ch):
    """Closed-form E[|Y_k|^4] at integer sample times:
    |h|^4*Q + 4*sigma_w2*|h|^2*P + 2*sigma_w2^2."""
    d = derived_moments(profile)
    h2 = abs(ch.h) ** 2
    return h2 * h2 * d.Q + 4.0 * ch.sigma_w2 * h2 * d.P + 2.0 * ch.sigma_w2**2

def half_sample_value(symbols, k, window):
    """Mid-sample value X((k+1/2)/f_w) from the symbols with |n - k| <= window.

    The exact interpolation needs every symbol; the truncated mixture uses
    2*window+1 symbols around k, and k too close to the array edge is
    rejected rather than silently zero-padded.
    """
    symbols = np.asarray(symbols)
    window = _integer(window, "window", 1)
    k = _integer(k, "k")
    if k - window < 0 or k + window >= symbols.size:
        raise ValueError("k too close to the symbol-array edge for this window")
    segment = symbols[k - window:k + window + 1]
    # X~_k = sum_j X_{k+j} s_{-j}: the reversed kernel against the segment.
    return complex(np.dot(segment, _kernel(window)[::-1]))


def half_samples_one_fft(symbols, window):
    """Truncated mid-sample interpolation at every index, as
    simulate._half_samples computes it, by one convolution.

    The kernel is real, so the real and imaginary parts are convolved
    separately by real FFTs, at a power-of-two length covering the full
    linear convolution; entries within `window` of either edge see
    zero-padding.
    """
    n = symbols.size
    size = 1 << (n + 2 * window - 1).bit_length()
    kern_spectrum = np.fft.rfft(s_coeff(np.arange(-window, window + 1)), size)
    out = np.empty(n, dtype=complex)
    for part, dest in ((symbols.real, out.real), (symbols.imag, out.imag)):
        dest[:] = np.fft.irfft(np.fft.rfft(part, size) * kern_spectrum,
                               size)[window:window + n]
    return out


def _pad_spectrum(spectrum, num):
    # The spectrum of an even-length sequence zero-padded to num >= its length
    # and scaled by num / length while it is copied, ready for the inverse
    # FFT.  On a longer grid the unpaired Nyquist bin is split in half between
    # +/- the old Nyquist frequency; it is halved in `spectrum` itself.
    size = spectrum.size
    half = size // 2
    if num > size:
        spectrum[half] /= 2
    scale = size / num
    padded = np.zeros(num, dtype=complex)
    np.divide(spectrum[:half + 1], scale, out=padded[:half + 1])
    np.divide(spectrum[half + 1:], scale, out=padded[num - half + 1:])
    if num > size:
        padded[num - half] = padded[half]
    return padded


def upsample(x, num):
    """Band-limited interpolation of an even-length sequence onto num >= x.size
    points by zero-padding its spectrum; x is left unchanged."""
    padded = _pad_spectrum(np.fft.fft(x), num)
    return np.fft.ifft(padded, out=padded)


def mc_oversampled_single_grid(dist, ch, n_symbols, oversample, seed, window=128):
    """simulate.mc_delivered_power(..., estimator="oversampled") with the
    whole fine grid built: the interleaved 2n-point sequence upsampled onto
    n*oversample points and reduced over blocks of block_len*oversample."""
    n = n_symbols
    lo, hi = window, n - window
    symbols = draw_per_block(dist, n, seed, _DOM_SYMBOLS)
    # `mid` stays named: numpy multiplies an unnamed temporary in place, and
    # that rounds some complex products differently.
    mid = half_samples_one_fft(symbols, window)
    interleaved = np.empty(2 * n, dtype=complex)
    interleaved[0::2] = ch.h * symbols + _draw_noise(n, ch.sigma_w2, seed, _DOM_NOISE_EVEN)
    interleaved[1::2] = ch.h_tilde * mid + _draw_noise(n, ch.sigma_w2, seed, _DOM_NOISE_ODD)
    block_len, n_blocks = _blocking(hi - lo)
    hi = lo + n_blocks * block_len
    fine = upsample(interleaved, n * oversample)
    values = _integrand(fine[lo * oversample:hi * oversample], ch) / ch.f_w
    block_means = values.reshape(n_blocks, block_len * oversample).mean(axis=1)
    mean = float(block_means.mean())
    std_error = float(block_means.std(ddof=1) / math.sqrt(n_blocks))
    return McEstimate(mean, std_error, n_blocks * block_len * oversample, seed)
