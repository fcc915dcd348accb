"""The sweep as the boundary of the zero-mean, independent-parts inner bound.

rp_region lists zero-mean Gaussian inputs with independent parts on the
full-budget line P_r + P_i = P_a, and draws no time-sharing between them.
Two reductions show that nothing off that curve does better, each derived
here in sympy from the package's own power quadratic
(rectenna._gaussian_power, called on symbols) and the rate
0.5*f_w*(log2(1 + a*P_r) + log2(1 + a*P_i)):

* full budget: the delivered power and the rate both increase in each
  per-dimension power, so a split below the budget is dominated;
* no time-sharing: along the budget line dP/dR has a closed form whose
  magnitude grows toward the even split, so P(R) is concave and a mix of
  two points lies on or below the curve.

A third check ties the solver to the frontier: kkt_check's power
multiplier lambda2 is -dR/dP at the solved split, so it times the chord
slope |dP/dR| of the frontier there is 1.  Zero mean and correlated parts,
the other two reductions to the paper's inner bound, are not shown here.
"""

import cmath
import math
from types import SimpleNamespace

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt.moments import GaussianZeroMean
from swipt.rectenna import ChannelParams, _gaussian_power, coeffs
from swipt.tradeoff import (
    _snr_gain,
    kkt_check,
    optimal_allocation,
    pdc_max,
    pdc_min,
    rate_gaussian,
)

P_r, P_i, P_a, a, f_w = sp.symbols("P_r P_i P_a a f_w", positive=True)
alpha, alpha_t, beta, beta_t, gamma = sp.symbols(
    "alpha alpha_tilde beta beta_tilde gamma", nonnegative=True)
COEFFS = SimpleNamespace(alpha=alpha, alpha_tilde=alpha_t, beta=beta,
                         beta_tilde=beta_t, gamma=gamma)
POWER = _gaussian_power(COEFFS, P_r, P_i)
RATE = f_w / 2 * (sp.log(1 + a * P_r) + sp.log(1 + a * P_i)) / sp.log(2)


def test_symbolic_rate_is_the_package_rate():
    """The symbolic rate is rate_gaussian, to 1e-14 relative, at a few
    splits on the default channel and on a complex-gain channel."""
    for ch in (ChannelParams(), ChannelParams(h=0.8 + 0.6j, sigma_w2=0.05, f_w=2.5)):
        for split in ((1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (3.0, 1e-9)):
            got = rate_gaussian(GaussianZeroMean(*split), ch)
            exact = RATE.subs({a: _snr_gain(ch), f_w: ch.f_w, P_r: split[0], P_i: split[1]})
            assert abs(got - float(exact)) <= 1e-14 * got


def test_a_split_below_the_budget_is_dominated():
    """dP/dP_r = (alpha + alpha_tilde)(6 P_r + 2 P_i) + beta + beta_tilde
    >= 0 and dR/dP_r = f_w a / (2 ln 2 (1 + a P_r)) > 0, and the same with
    the roles swapped: raising either power up to the budget loses
    nothing."""
    for mine, other in ((P_r, P_i), (P_i, P_r)):
        d_power = sp.diff(POWER, mine)
        assert sp.expand(d_power - ((alpha + alpha_t) * (6 * mine + 2 * other)
                                    + beta + beta_t)) == 0
        assert d_power.is_nonnegative
        d_rate = sp.diff(RATE, mine)
        assert sp.simplify(d_rate - f_w * a / (2 * sp.log(2) * (1 + a * mine))) == 0
        assert d_rate.is_positive


def test_time_sharing_adds_nothing():
    """On P_r = P_a - P_i, dP/dR = -8(alpha + alpha_tilde) ln 2 (1 + a P_r)
    (1 + a P_i) / (f_w a^2).  Its magnitude's P_i-derivative is that
    magnitude's positive factor times a^2 (P_a - 2 P_i), >= 0 on
    [0, P_a/2], where the rate rises toward the even split; and
    d^2P/dR^2 is negative there, so P(R) is concave."""
    on_line = {P_r: P_a - P_i}
    d_power = sp.diff(POWER, P_i) - sp.diff(POWER, P_r)
    d_rate = sp.diff(RATE, P_i) - sp.diff(RATE, P_r)
    slope = sp.simplify((d_power / d_rate).subs(on_line))
    factor = 8 * (alpha + alpha_t) * sp.log(2) / (f_w * a**2)
    magnitude = factor * (1 + a * (P_a - P_i)) * (1 + a * P_i)
    assert sp.simplify(slope + magnitude) == 0
    assert sp.expand(sp.diff(magnitude, P_i) - factor * a**2 * (P_a - 2 * P_i)) == 0
    assert factor.is_nonnegative
    # the rate rises toward the even split: dR/dP_i on the line is a
    # positive multiple of P_a - 2 P_i
    above_p_i = {P_a: P_i + sp.Symbol("q", positive=True)}  # P_a > P_i
    rate_rise = sp.simplify(d_rate.subs(on_line) / (P_a - 2 * P_i))
    assert sp.simplify(rate_rise.subs(above_p_i)).is_positive
    curvature = sp.simplify(sp.diff(slope, P_i) / d_rate.subs(on_line))
    closed = (-16 * (alpha + alpha_t) * sp.log(2)**2 * (1 + a * (P_a - P_i)) * (1 + a * P_i)
              / (f_w**2 * a**2))
    assert sp.simplify(curvature - closed) == 0
    assert closed.subs(above_p_i).is_nonpositive


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _gain():
    return st.builds(lambda m, phase: m * cmath.exp(1j * phase),
                     _log_uniform(1e-3, 1e3), st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(h=_gain(), h_tilde=_gain(), sigma_w2=_log_uniform(1e-12, 1e2),
       f_w=_log_uniform(1e-3, 1e15), k2=_log_uniform(1e-4, 1e2),
       k4=_log_uniform(1e-4, 1e4), P_a=_log_uniform(1e-6, 1e6),
       share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_lambda2_is_the_inverse_frontier_slope(h, h_tilde, sigma_w2, f_w, k2, k4, P_a,
                                               share):
    """Over the 50-digit properties' ranges with complex gains, at a target
    a drawn share of the way from pdc_min to pdc_max, kkt_check's lambda2
    times the frontier's chord slope |dP/dR| at the solved split, over
    P_i +- 1e-4 min(P_i, P_a/2 - P_i) on the budget line, is 1 within 1e-6.
    Draws whose rate or power step is within 1e-7 of its value, where the
    chord is rounding, or that take no 2x2 solve (lambda2 = 0) check
    nothing."""
    ch = ChannelParams(h=h, h_tilde=h_tilde, sigma_w2=sigma_w2, f_w=f_w, k2=k2, k4=k4)
    low, high = pdc_min(P_a, ch), pdc_max(P_a, ch)
    target = low + share * (high - low)
    alloc = optimal_allocation(P_a, target, ch)
    report = kkt_check(alloc, 0.0, 0.0, P_a, target, ch)
    step = 1e-4 * min(alloc.P_i, 0.5 * P_a - alloc.P_i)
    if report.lambda2 == 0.0 or step == 0.0:
        return
    c = coeffs(ch)
    ends = [(alloc.P_r + step, alloc.P_i - step), (alloc.P_r - step, alloc.P_i + step)]
    rates = [rate_gaussian(GaussianZeroMean(*end), ch) for end in ends]
    powers = [_gaussian_power(c, *end) for end in ends]
    d_rate, d_power = rates[1] - rates[0], powers[1] - powers[0]
    if abs(d_rate) <= 1e-7 * rates[1] or abs(d_power) <= 1e-7 * powers[0]:
        return
    assert abs(report.lambda2 * abs(d_power / d_rate) - 1.0) <= 1e-6
