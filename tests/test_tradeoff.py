"""Rate/power frontier, target solver, and the first-order certificate.

Rate anchors are plain logarithms checked against math.log2; allocation
anchors were frozen from a 1e-6-step grid search run separately.
"""

import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from swipt.moments import derived_moments, gaussian_profile
from swipt.rectenna import ChannelParams, _gaussian_power, coeffs, delivered_power
from swipt.simulate import GaussianZeroMean
from swipt.tradeoff import (
    Infeasible,
    KktReport,
    RPPoint,
    kkt_check,
    optimal_allocation,
    pdc_max,
    pdc_min,
    rate_gaussian,
    rp_region,
)

from oracles import kkt_check_nnls, lambda2_mp, power_mp, rate_mp


CH = ChannelParams(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1.0,
                   k2=0.17, k4=19.145)


def linear_channel():
    """Quartic term switched off: delivered power depends only on the total."""
    return ChannelParams(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1.0,
                         k2=0.17, k4=0.0)


class TestAllocation:
    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            GaussianZeroMean(-0.1, 0.5)


class TestRate:
    def test_even_split_value(self):
        # a = 2|h|^2/(f_w sigma_w2) = 2e4; each dimension sees a*0.5 = 1e4
        rate = rate_gaussian(GaussianZeroMean(0.5, 0.5), CH)
        assert rate == pytest.approx(math.log2(10001.0), rel=1e-14)

    def test_corner_value(self):
        rate = rate_gaussian(GaussianZeroMean(1.0, 0.0), CH)
        assert rate == pytest.approx(0.5 * math.log2(20001.0), rel=1e-14)

    def test_symmetric_under_swap(self):
        assert (rate_gaussian(GaussianZeroMean(0.8, 0.2), CH)
                == rate_gaussian(GaussianZeroMean(0.2, 0.8), CH))

    def test_zero_input_rate(self):
        assert rate_gaussian(GaussianZeroMean(0.0, 0.0), CH) == 0.0


class TestEndpoints:
    """The endpoints are the frontier's array form at the even split and at
    the corner, to the last bit, on random channels and budgets."""

    BUDGETS = (1.0, 0.37, 2.5, 1e-3, 11.0)

    @staticmethod
    def channels():
        rng = np.random.default_rng(2024)
        channels = [CH]
        for _ in range(40):
            h, h_tilde = (complex(*rng.standard_normal(2)) for _ in range(2))
            channels.append(ChannelParams(
                h=h, h_tilde=h_tilde, sigma_w2=10.0 ** rng.uniform(-5.0, -1.0),
                f_w=rng.uniform(0.5, 3.0), k2=rng.uniform(0.0, 1.0),
                k4=rng.uniform(0.0, 40.0)))
        return channels

    def test_min_is_even_split_power(self):
        for ch in self.channels():
            for P_a in self.BUDGETS:
                assert pdc_min(P_a, ch) == rp_region(P_a, ch, 2)[-1].power
        assert pdc_min(1.0, CH) == pytest.approx(57.79799157435, rel=1e-11)

    def test_max_is_corner_power(self):
        for ch in self.channels():
            for P_a in self.BUDGETS:
                assert pdc_max(P_a, ch) == rp_region(P_a, ch, 2)[0].power
        assert pdc_max(1.0, CH) == pytest.approx(86.51549157435, rel=1e-11)

    def test_budget_scaling(self):
        c = coeffs(CH)
        span = pdc_max(2.0, CH) - pdc_min(2.0, CH)
        assert span == pytest.approx((c.alpha + c.alpha_tilde) * 4.0, rel=1e-12)


class TestOptimalAllocation:
    def test_slack_target_gives_even_split(self):
        alloc = optimal_allocation(1.0, 10.0, CH)
        assert alloc == GaussianZeroMean(0.5, 0.5)

    def test_target_at_max_gives_corner(self):
        alloc = optimal_allocation(1.0, pdc_max(1.0, CH), CH)
        assert alloc == GaussianZeroMean(1.0, 0.0)

    def test_unreachable_target_raises_typed_error(self):
        with pytest.raises(Infeasible, match="exceeds the maximum"):
            optimal_allocation(1.0, 100.0, CH)
        assert issubclass(Infeasible, ValueError)

    def test_interior_target_meets_power_and_budget(self):
        target = 70.0
        alloc = optimal_allocation(1.0, target, CH)
        assert alloc.P_r >= alloc.P_i
        assert alloc.P_r + alloc.P_i == pytest.approx(1.0, rel=1e-12)
        back = delivered_power(gaussian_profile(0.0, 0.0, alloc.P_r, alloc.P_i), CH)
        assert back == pytest.approx(target, rel=1e-9)

    def test_interior_target_frozen_split(self):
        alloc = optimal_allocation(1.0, 70.0, CH)
        assert alloc.P_i == pytest.approx(0.174078995824, rel=1e-9)

    def test_harder_targets_are_more_lopsided(self):
        splits = [optimal_allocation(1.0, t, CH).P_i for t in (60.0, 70.0, 80.0)]
        assert splits[0] > splits[1] > splits[2] > 0.0

    def test_rounding_level_quartic_keeps_canonical_order(self):
        """With k4 at rounding level, pdc_max - pdc_min carries an O(1)
        relative error and the raw root just above pdc_min lands past P_a/2."""
        ch = ChannelParams(h=0.22227987264402468, h_tilde=0.6174617438168796,
                           sigma_w2=0.39697913369567167, f_w=1.0,
                           k2=0.5894243564643954, k4=4.085774522499794e-17)
        P_a = 2.0233523941463307
        alloc = optimal_allocation(P_a, math.nextafter(pdc_min(P_a, ch), math.inf), ch)
        assert alloc.P_r >= alloc.P_i

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            optimal_allocation(0.0, 1.0, CH)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_and_target_rejected(self, bad):
        with pytest.raises(ValueError, match="P_a"):
            optimal_allocation(bad, 70.0, CH)
        with pytest.raises(ValueError, match="P_d"):
            optimal_allocation(1.0, bad, CH)
        with pytest.raises(ValueError, match="P_d"):
            kkt_check(GaussianZeroMean(0.5, 0.5), 0.0, 0.0, 1.0, bad, CH)


class TestRegion:
    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="n_points must be >= 2"):
            rp_region(1.0, CH, 1)
        with pytest.raises(ValueError, match="P_a must be positive and finite"):
            rp_region(-1.0, CH, 5)
        for budget in (math.inf, math.nan):
            with pytest.raises(ValueError, match="P_a must be positive and finite"):
                rp_region(budget, CH, 3)

    def test_endpoints(self):
        pts = rp_region(1.0, CH, 11)
        assert (pts[0].P_r, pts[0].P_i) == (1.0, 0.0)
        assert (pts[-1].P_r, pts[-1].P_i) == (0.5, 0.5)
        assert pts[0].power == pytest.approx(pdc_max(1.0, CH), rel=1e-12)
        assert pts[-1].rate == pytest.approx(math.log2(10001.0), rel=1e-12)

    def test_strictly_monotone(self):
        pts = rp_region(1.0, CH, 101)
        for prev, cur in zip(pts, pts[1:]):
            assert cur.rate > prev.rate
            assert cur.power < prev.power

    def test_points_are_self_consistent(self):
        for pt in rp_region(2.0, CH, 7):
            assert pt.rate == pytest.approx(
                rate_gaussian(GaussianZeroMean(pt.P_r, pt.P_i), CH))
            assert pt.power == pytest.approx(delivered_power(
                gaussian_profile(0.0, 0.0, pt.P_r, pt.P_i), CH))

    def test_powers_are_the_solvers_quadratic(self):
        """The sweep, the endpoints and the solver evaluate one quadratic."""
        for ch in TestEndpoints.channels():
            c = coeffs(ch)
            for pt in rp_region(0.37, ch, 51):
                assert pt.power == _gaussian_power(c, pt.P_r, pt.P_i)

    @pytest.mark.parametrize("P_a", [1.0, 0.37, 2.5])
    def test_points_are_named_tuples_of_the_split(self, P_a):
        assert RPPoint._fields == ("rate", "power", "P_r", "P_i")
        pts = rp_region(P_a, CH, 101)
        assert isinstance(pts, list) and pts == rp_region(P_a, CH, 101)
        for pt in pts:
            # exactly RPPoint of Python floats: np.float64 fields would
            # compare equal but print differently
            assert type(pt) is RPPoint
            assert all(type(value) is float for value in pt)
            assert pt.P_r >= pt.P_i >= 0.0
            assert abs(pt.P_r + pt.P_i - P_a) <= math.ulp(P_a)

    def test_sweep_peak_per_point(self):
        """A 1e5-point sweep peaks at no more than 256 B of traced memory
        per point (measured 232; 184 retained): one 4-tuple of floats and
        its list slot, with the array columns and their lists transient."""
        n = 100_000
        rp_region(1.0, CH, n)  # imports and first-call set-up
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            pts = rp_region(1.0, CH, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(pts) == n
        assert peak <= 256 * n


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(h=log_uniform(1e-3, 1e3), h_tilde=log_uniform(1e-3, 1e3),
       sigma_w2=log_uniform(1e-12, 1e2), f_w=log_uniform(1e-3, 1e15),
       k2=log_uniform(1e-4, 1e2), k4=log_uniform(1e-4, 1e4),
       P_a=log_uniform(1e-6, 1e6), n_points=st.integers(2, 41))
@example(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1e12, k2=0.17, k4=19.145,
         P_a=1.0, n_points=3)
@example(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1e16, k2=0.17, k4=19.145,
         P_a=1.0, n_points=3)
@example(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1e20, k2=0.17, k4=19.145,
         P_a=1.0, n_points=3)
def test_frontier_rate_matches_50_digit_oracle(h, h_tilde, sigma_w2, f_w, k2, k4,
                                               P_a, n_points):
    """Over channels and budgets spanning many decades, every sweep rate is
    within 1e-12 relative of the 50-digit rate, down to a per-dimension SNR
    a*P far below the float epsilon, and rate_gaussian gives the same float.
    No step lowers the rate by more than 1e-15 relative: where a*P_a is
    about 1e-10 or less the true rise is below one ulp.  A draw that the
    slope, budget or rate rule rejects is skipped."""
    ch = ChannelParams(h=h, h_tilde=h_tilde, sigma_w2=sigma_w2, f_w=f_w, k2=k2, k4=k4)
    try:
        pts = rp_region(P_a, ch, n_points)
    except ValueError:
        reject()
    for pt in pts:
        exact = rate_mp(pt.P_r, pt.P_i, ch)
        assert abs(pt.rate - exact) <= 1e-12 * exact
    for prev, cur in zip(pts, pts[1:]):
        assert prev.rate - cur.rate <= 1e-15 * prev.rate
    assert rate_gaussian(GaussianZeroMean(pts[-1].P_r, pts[-1].P_i), ch) == pts[-1].rate


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(h=log_uniform(1e-3, 1e3), h_tilde=log_uniform(1e-3, 1e3),
       sigma_w2=log_uniform(1e-12, 1e2), f_w=log_uniform(1e-3, 1e15),
       k2=log_uniform(1e-4, 1e2), k4=log_uniform(1e-4, 1e4),
       P_a=log_uniform(1e-6, 1e6), split=st.floats(0.0, 1.0))
def test_frontier_power_matches_50_digit_oracle(h, h_tilde, sigma_w2, f_w, k2, k4,
                                                P_a, split):
    """Over the rate property's channels and budgets, pdc_min, pdc_max and
    the zero-mean quadratic at a drawn split are each within 2e-15 relative
    of the 50-digit coefficients and quadratic, and the sweep's power is
    nonincreasing.  No draw in these ranges trips the budget or rate rule."""
    ch = ChannelParams(h=h, h_tilde=h_tilde, sigma_w2=sigma_w2, f_w=f_w, k2=k2, k4=k4)
    s = 0.5 * P_a * split
    for got, (P_r, P_i) in [(pdc_min(P_a, ch), (0.5 * P_a, 0.5 * P_a)),
                            (pdc_max(P_a, ch), (P_a, 0.0)),
                            (_gaussian_power(coeffs(ch), P_a - s, s), (P_a - s, s))]:
        exact = power_mp(P_r, P_i, ch)
        assert abs(got - exact) <= 2e-15 * exact
    pts = rp_region(P_a, ch, 21)
    for prev, cur in zip(pts, pts[1:]):
        assert cur.power <= prev.power


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(h=log_uniform(1e-3, 1e3), h_tilde=log_uniform(1e-3, 1e3),
       sigma_w2=log_uniform(1e-12, 1e2), f_w=log_uniform(1e-3, 1e15),
       k2=log_uniform(1e-4, 1e2), k4=log_uniform(1e-4, 1e4),
       P_a=log_uniform(1e-6, 1e6), share=st.floats(0.0, 1.0))
@example(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1e14, k2=0.17, k4=19.145,
         P_a=1.0, share=0.37)
def test_kkt_lambda2_matches_50_digit_oracle(h, h_tilde, sigma_w2, f_w, k2, k4, P_a,
                                             share):
    """Over the rate property's channels and budgets, at a target a drawn
    share of the way from pdc_min to pdc_max, kkt_check's lambda2 at the
    solved split is within 6 ulps of the 50-digit multiplier (measured at
    most 3.96 over 3000 random draws), down to a per-dimension SNR far
    below the float epsilon: subtracting the two rounded marginal rates
    missed it by up to 225%.  Where no 2x2 solve is taken (an even split,
    or marginal rates that round equal) lambda2 is 0 and lambda1 alone
    leaves no residual.  No draw in these ranges trips a rule."""
    ch = ChannelParams(h=h, h_tilde=h_tilde, sigma_w2=sigma_w2, f_w=f_w, k2=k2, k4=k4)
    low, high = pdc_min(P_a, ch), pdc_max(P_a, ch)
    target = low + share * (high - low)
    alloc = optimal_allocation(P_a, target, ch)
    report = kkt_check(alloc, 0.0, 0.0, P_a, target, ch)
    if report.lambda2 == 0.0:
        assert report.stationarity_residual_Pr == report.stationarity_residual_Pi == 0.0
        return
    exact = lambda2_mp(alloc.P_r, alloc.P_i, ch)
    assert abs(report.lambda2 - exact) <= 6 * 2.0**-52 * exact


# Every public door to the budget rule, as a call of (P_a, ch).
BUDGET_CALLS = {
    "rp_region": lambda P_a, ch: rp_region(P_a, ch, 3),
    "optimal_allocation": lambda P_a, ch: optimal_allocation(P_a, 70.0, ch),
    "pdc_min": pdc_min,
    "pdc_max": pdc_max,
    "kkt_check": lambda P_a, ch: kkt_check(GaussianZeroMean(0.5, 0.5), 0.0, 0.0, P_a, 70.0, ch),
}


@pytest.mark.parametrize("h, P_a, ok", [
    (1.0, 1e153, True), (1.0, 1e154, False), (1.0, 1e200, False),
    (1e40, 1e73, True), (1e40, 1e74, False),
    (1.0, -1.0, False), (1.0, 0.0, False), (1.0, math.nan, False), (1.0, math.inf, False),
], ids=repr)
def test_budget_overflowing_the_delivered_power_is_a_value_error(h, P_a, ok):
    """The CLI's budget rule holds for every library door to a budget: a
    P_a that is not positive and finite, or whose single-axis delivered
    power overflows, raises ValueError with the CLI's text, before numpy
    can warn or return inf powers."""
    ch = ChannelParams(h=h)
    expected = (f"P_a = {P_a!r} overflows the delivered power on this channel"
                if 0.0 < P_a < math.inf else f"P_a must be positive and finite, got {P_a!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in BUDGET_CALLS.values():
            if ok:
                call(P_a, ch)
                continue
            with pytest.raises(ValueError) as info:
                call(P_a, ch)
            assert str(info.value) == expected


def _numbers(result):
    # every number a budget call returns, in order
    if isinstance(result, KktReport):
        return list(dataclasses.astuple(result)[:-1])  # the last field is a flag
    if isinstance(result, list):
        return [x for pt in result for x in pt]
    if isinstance(result, GaussianZeroMean):
        return [result.P_r, result.P_i]
    return [result]


@pytest.mark.parametrize("name", BUDGET_CALLS)
def test_numpy_scalar_budget_is_taken_as_a_float(name):
    """The budget rule turns P_a into a Python float: a numpy scalar that
    overflows raises the rule's ValueError with no numpy warning, and one
    that fits gives the Python-float call's plain floats.  A string is
    still a TypeError."""
    call = BUDGET_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call(np.float64(1e200), CH)
        assert str(info.value) == "P_a = 1e+200 overflows the delivered power on this channel"
        numbers = _numbers(call(np.float64(1.0), CH))
    assert numbers == _numbers(call(1.0, CH))
    assert all(type(x) is float for x in numbers)
    with pytest.raises(TypeError):
        call("1.0", CH)


class TestDegenerateQuartic:
    def test_frontier_power_is_constant(self):
        ch = linear_channel()
        pts = rp_region(1.0, ch, 21)
        powers = {round(pt.power, 15) for pt in pts}
        assert len(powers) == 1
        assert pdc_min(1.0, ch) == pytest.approx(pdc_max(1.0, ch), rel=1e-15)

    def test_reachable_target_gives_even_split(self):
        ch = linear_channel()
        alloc = optimal_allocation(1.0, 0.5 * pdc_min(1.0, ch), ch)
        assert alloc == GaussianZeroMean(0.5, 0.5)

    def test_unreachable_target_is_infeasible(self):
        ch = linear_channel()
        with pytest.raises(Infeasible):
            optimal_allocation(1.0, 2.0 * pdc_max(1.0, ch), ch)


class TestKktCheck:
    def test_interior_optimum_certifies(self):
        target = 70.0
        alloc = optimal_allocation(1.0, target, CH)
        report = kkt_check(alloc, 0.0, 0.0, 1.0, target, CH)
        assert report.complementary_slackness_ok
        assert abs(report.stationarity_residual_Pr) < 1e-8
        assert abs(report.stationarity_residual_Pi) < 1e-8
        assert report.stationarity_residual_mu_r == 0.0
        assert report.stationarity_residual_mu_i == 0.0
        assert report.lambda1 == pytest.approx(7.5393, rel=1e-3)
        assert report.lambda2 == pytest.approx(0.043662, rel=1e-3)

    def test_even_split_with_slack_power(self):
        """Below pdc_min the power multiplier must vanish and the budget
        multiplier equals the (common) marginal rate."""
        report = kkt_check(GaussianZeroMean(0.5, 0.5), 0.0, 0.0, 1.0, 10.0, CH)
        assert report.complementary_slackness_ok
        assert report.lambda2 == 0.0
        a = 2e4
        marginal = (0.5 / math.log(2.0)) * a / (1.0 + a * 0.5)
        assert report.lambda1 == pytest.approx(marginal, rel=1e-12)
        assert abs(report.stationarity_residual_Pr) < 1e-12

    def test_corner_certifies(self):
        target = pdc_max(1.0, CH)
        report = kkt_check(GaussianZeroMean(1.0, 0.0), 0.0, 0.0, 1.0, target, CH)
        assert report.complementary_slackness_ok
        assert abs(report.stationarity_residual_Pr) < 1e-8
        assert abs(report.stationarity_residual_Pi) < 1e-8
        assert report.lambda2 == pytest.approx(125.587439, rel=1e-4)

    def test_linear_rectifier_takes_no_2x2_solve(self):
        """At k4 = 0 the power gradient is the same in both dimensions, so
        lambda2 stays 0 at an uneven split with both constraints tight and
        lambda1 alone leaves the rate gap as the residual."""
        ch = linear_channel()
        alloc = GaussianZeroMean(0.8, 0.2)
        own_power = delivered_power(gaussian_profile(0.0, 0.0, 0.8, 0.2), ch)
        report = kkt_check(alloc, 0.0, 0.0, 1.0, own_power, ch)
        assert report.lambda2 == 0.0
        assert report.stationarity_residual_Pr == -report.stationarity_residual_Pi != 0.0

    def test_non_optimal_point_is_falsified(self):
        """Interior budget slack pins lambda1 at zero; no nonnegative lambda2
        can then cancel a positive marginal rate, so the residual survives."""
        alloc = GaussianZeroMean(0.5, 0.3)
        own_power = delivered_power(gaussian_profile(0.0, 0.0, 0.5, 0.3), CH)
        report = kkt_check(alloc, 0.0, 0.0, 1.0, own_power, CH)
        assert report.lambda1 == 0.0
        a = 2e4
        rate_r = (0.5 / math.log(2.0)) * a / (1.0 + a * 0.5)
        assert report.stationarity_residual_Pr == pytest.approx(rate_r, rel=1e-9)
        assert report.stationarity_residual_Pr > 1.0

    def test_nonzero_mean_is_falsified(self):
        report = kkt_check(GaussianZeroMean(0.5, 0.5), 0.3, 0.0, 1.0, 10.0, CH)
        var_r = 0.5 - 0.09
        a = 2e4
        rate_r = (0.5 / math.log(2.0)) * a / (1.0 + a * var_r)
        assert report.stationarity_residual_mu_r == pytest.approx(
            2.0 * rate_r * 0.3, rel=1e-12)
        assert report.stationarity_residual_mu_i == 0.0

    def test_mean_beyond_power_rejected(self):
        with pytest.raises(ValueError, match="negative variance"):
            kkt_check(GaussianZeroMean(0.5, 0.5), 1.0, 0.0, 1.0, 10.0, CH)

    def test_report_dict_keys(self):
        report = kkt_check(GaussianZeroMean(0.5, 0.5), 0.0, 0.0, 1.0, 10.0, CH)
        assert isinstance(report, KktReport)
        assert set(dataclasses.asdict(report)) == {
            "lambda1", "lambda2", "zeta_r", "zeta_i",
            "stationarity_residual_Pr", "stationarity_residual_Pi",
            "stationarity_residual_mu_r", "stationarity_residual_mu_i",
            "complementary_slackness_ok",
        }


@pytest.mark.parametrize("channel", [{"sigma_w2": 1e-200, "f_w": 1e-200},
                                     {"sigma_w2": 1e-320}], ids=repr)
def test_slope_that_is_not_finite_is_a_value_error(channel):
    """Every rate takes the SNR slope 2|h|^2/(f_w*sigma_w2) through one rule:
    a noise product below the float range (no ZeroDivisionError) or a slope
    past it (no NaN multipliers or numpy warning) raises ValueError."""
    ch = ChannelParams(**channel)
    alloc = GaussianZeroMean(0.5, 0.5)
    calls = (lambda: rate_gaussian(alloc, ch), lambda: rp_region(1.0, ch, 3),
             lambda: kkt_check(alloc, 0.0, 0.0, 1.0, 10.0, ch))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="is not finite on this channel"):
                call()


@pytest.mark.parametrize("P_a, channel", [(1000.0, {"sigma_w2": 1e-307}),
                                          (1e6, {"f_w": 1e308, "sigma_w2": 1e-306})],
                         ids=["a-times-power", "f_w-times-logs"])
def test_rate_past_the_float_range_is_a_value_error(P_a, channel):
    """A finite slope can still give a rate past the float range, by a*P or
    by f_w times the logs: rate_gaussian and rp_region raise ValueError
    naming the rate, with no numpy warning first."""
    ch = ChannelParams(**channel)
    calls = (lambda: rate_gaussian(GaussianZeroMean(P_a, 0.0), ch),
             lambda: rp_region(P_a, ch, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=r"the rate 0\.5\*f_w.* is not finite"):
                call()


_NO_FINITE_POWER = {
    "nan-mean": (GaussianZeroMean(0.5, 0.5), math.nan),
    "overflowing-power": (GaussianZeroMean(1e200, 0.0), 0.0),
    "overflowing-mean": (GaussianZeroMean(1e220, 0.0), 1e110),
}


@pytest.mark.parametrize("k4", [19.145, 0.0])
@pytest.mark.parametrize("candidate", _NO_FINITE_POWER)
def test_candidate_without_finite_power_is_a_value_error(candidate, k4):
    """kkt_check's candidate rule: a NaN mean, or powers whose fourth moments
    overflow (1e110^4 by multiplication, where float ** would raise
    OverflowError), raise ValueError; at k4 = 0 too, where the overflowed
    moment times a zero weight is NaN.  No numpy warning comes first."""
    alloc, mu_r = _NO_FINITE_POWER[candidate]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="has no finite delivered power"):
            kkt_check(alloc, mu_r, 0.0, 1.0, 10.0, ChannelParams(k4=k4))


# Powers over the whole float range, and means as a signed share of their
# part's root power, or NaN.
_POWERS = st.floats(0.0, 1e300) | st.floats(0.0, 10.0)
_SHARES = st.floats(-1.0, 1.0) | st.just(math.nan)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(P_r=_POWERS, P_i=_POWERS, share_r=_SHARES, share_i=_SHARES,
       full_budget=st.booleans(), P_d=st.sampled_from([0.0, 10.0]),
       k4=st.sampled_from([19.145, 0.0]))
def test_kkt_check_reports_finite_numbers_or_raises(P_r, P_i, share_r, share_i,
                                                    full_budget, P_d, k4):
    """Any candidate either gets a report of finite numbers or raises
    ValueError: never OverflowError, a numpy warning or a NaN field."""
    alloc = GaussianZeroMean(P_r, P_i)
    P_a = P_r + P_i if full_budget and P_r + P_i > 0.0 else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = kkt_check(alloc, share_r * math.sqrt(P_r), share_i * math.sqrt(P_i),
                               P_a, P_d, ChannelParams(k4=k4))
        except ValueError:
            return
    assert all(math.isfinite(x) for x in dataclasses.astuple(report)[:-1])


def test_kkt_check_with_a_subnormal_gradient_gap():
    """At k2 = 0 and k4 = 1e-320 the gradient gap 4*(alpha + alpha~)*(P_r - P_i)
    is subnormal, so the 2x2 solve's multipliers pass the float range: the
    report falls back to lambda1 alone, finite, with the rate gap left as
    the residual."""
    ch = ChannelParams(k2=0.0, k4=1e-320, sigma_w2=1e-300)
    report = kkt_check(GaussianZeroMean(0.6, 0.4), 0.0, 0.0, 1.0, 0.0, ch)
    assert all(math.isfinite(x) for x in dataclasses.astuple(report)[:-1])
    assert report.lambda2 == 0.0
    assert report.stationarity_residual_Pr == -report.stationarity_residual_Pi != 0.0


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(P_r=_POWERS, P_i=_POWERS, k2=st.sampled_from([0.0, 0.17, 1e10]),
       k4=st.sampled_from([19.145, 1e-300, 1e-320, 0.0]),
       sigma_w2=st.sampled_from([1e-4, 1e-300]))
def test_kkt_check_on_tight_points_reports_finite_numbers_or_raises(P_r, P_i, k2, k4,
                                                                    sigma_w2):
    """With budget and power both tight, where the 2x2 solve is tried, on
    channels whose gradient gap can be subnormal or whose rates differ
    by far more than it: a report of finite numbers or ValueError, never an
    infinite multiplier or a NaN residual."""
    ch = ChannelParams(k2=k2, k4=k4, sigma_w2=sigma_w2)
    alloc = GaussianZeroMean(P_r, P_i)
    P_a = P_r + P_i if P_r + P_i > 0.0 else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = kkt_check(alloc, 0.0, 0.0, P_a, _gaussian_power(coeffs(ch), P_r, P_i), ch)
        except ValueError:
            return
    assert all(math.isfinite(x) for x in dataclasses.astuple(report)[:-1])


def test_gaussian_power_closed_form_symbolic():
    """kkt_check's closed form, from the package's own derived_moments and
    q_tilde fed symbolic Gaussian moments: a part with mean mu and power
    P = mu^2 + v has T = mu^3 + 3*mu*v and Q = mu^4 + 6*mu^2*v + 3*v^2, so
    Q = Q_tilde = 3*(P_r^2 + P_i^2) + 2*P_r*P_i - 2*(mu_r^4 + mu_i^4), whose
    slope in the mean at fixed P is -8*mu^3: the power half of the paper's
    zero-mean claim.  nsimplify reads the code's float literals (2.0, 6.0,
    /3.0) as the rationals they stand for, so each difference is exactly 0."""
    sp = pytest.importorskip("sympy")
    mu_r, mu_i, P_r, P_i = sp.symbols("mu_r mu_i P_r P_i", real=True)

    def third_fourth(mu, P):
        v = P - mu**2
        return mu**3 + 3 * mu * v, mu**4 + 6 * mu**2 * v + 3 * v**2

    (T_r, Q_r), (T_i, Q_i) = third_fourth(mu_r, P_r), third_fourth(mu_i, P_i)
    d = derived_moments(SimpleNamespace(mu_r=mu_r, mu_i=mu_i, P_r=P_r, P_i=P_i,
                                        T_r=T_r, T_i=T_i, Q_r=Q_r, Q_i=Q_i))
    closed = 3 * (P_r**2 + P_i**2) + 2 * P_r * P_i - 2 * (mu_r**4 + mu_i**4)
    assert sp.expand(d.P - (P_r + P_i)) == 0
    for fourth in (sp.nsimplify(d.Q), sp.nsimplify(d.Q_tilde)):
        assert sp.expand(fourth - closed) == 0
        assert sp.expand(sp.diff(fourth, mu_r) + 8 * mu_r**3) == 0


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(P_r=st.floats(0.0, 3.0), P_i=st.floats(0.0, 3.0),
       share_r=st.floats(-1.0, 1.0), share_i=st.floats(-1.0, 1.0),
       h=st.complex_numbers(max_magnitude=2.0), h_tilde=st.complex_numbers(max_magnitude=2.0),
       k2=st.floats(0.0, 1.0), k4=st.floats(0.0, 30.0))
def test_a_mean_never_raises_rate_or_power(P_r, P_i, share_r, share_i, h, h_tilde, k2, k4):
    """At equal per-dimension powers, a Gaussian input with a mean delivers
    no more power (by the profile route, within 1e-14 of rounding) and
    carries no more rate (that of its variances) than the zero-mean one."""
    ch = ChannelParams(h=h, h_tilde=h_tilde, k2=k2, k4=k4)
    mu_r, mu_i = share_r * math.sqrt(P_r), share_i * math.sqrt(P_i)
    var_r, var_i = max(P_r - mu_r * mu_r, 0.0), max(P_i - mu_i * mu_i, 0.0)
    profile = gaussian_profile(mu_r, mu_i, var_r, var_i)
    zero_mean = GaussianZeroMean(profile.P_r, profile.P_i)
    power = delivered_power(gaussian_profile(0.0, 0.0, zero_mean.P_r, zero_mean.P_i), ch)
    assert delivered_power(profile, ch) <= power * (1.0 + 1e-14)
    assert rate_gaussian(GaussianZeroMean(var_r, var_i), ch) <= rate_gaussian(zero_mean, ch)


def random_kkt_inputs(rng, n):
    """Reachable (allocation, mean, budget, target, channel) points covering
    every slackness pattern: budget and power each tight or slack, and each
    variance pinned at zero (no power, or a mean carrying all of it) or not."""
    for _ in range(n):
        ch = ChannelParams(h=complex(*rng.uniform(-2.0, 2.0, 2)),
                           h_tilde=complex(*rng.uniform(-2.0, 2.0, 2)),
                           sigma_w2=10.0 ** rng.uniform(-5.0, -1.0),
                           f_w=1.0, k2=rng.uniform(0.0, 1.0),
                           k4=rng.choice([0.0, rng.uniform(0.0, 30.0)]))
        total = rng.uniform(0.01, 3.0)
        share = rng.choice([0.0, 1.0, 0.5, rng.uniform()])
        alloc = GaussianZeroMean(total * share, total * (1.0 - share))
        mu_r = mu_i = 0.0
        if rng.uniform() < 0.3:
            mu_r, mu_i = (rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)]) * math.sqrt(p)
                          for p in (alloc.P_r, alloc.P_i))
        own = delivered_power(gaussian_profile(
            mu_r, mu_i, max(alloc.P_r - mu_r * mu_r, 0.0),
            max(alloc.P_i - mu_i * mu_i, 0.0)), ch)
        P_a = total * (1.0 if rng.uniform() < 0.6 else rng.uniform(1.01, 2.0))
        P_d = own * (1.0 if rng.uniform() < 0.6 else rng.uniform(0.1, 0.99))
        yield alloc, mu_r, mu_i, P_a, P_d, ch


def test_kkt_check_matches_nnls_reference():
    """Residuals and the slackness verdict agree with a nonnegative
    least-squares fit of the free multipliers everywhere; the multipliers
    themselves wherever that fit is unique."""
    pytest.importorskip("scipy")
    mults = ("lambda1", "lambda2", "zeta_r", "zeta_i")
    residuals = ("stationarity_residual_Pr", "stationarity_residual_Pi",
                 "stationarity_residual_mu_r", "stationarity_residual_mu_i")
    unique_seen = 0
    for args in random_kkt_inputs(np.random.default_rng(41), 4000):
        report = kkt_check(*args)
        ref, unique = kkt_check_nnls(*args)
        scale = max(1.0, *(abs(getattr(ref, f)) for f in mults + residuals))
        assert report.complementary_slackness_ok == ref.complementary_slackness_ok
        for field in residuals:
            assert abs(getattr(report, field) - getattr(ref, field)) <= 1e-12 * scale
        if unique:
            unique_seen += 1
            for field in mults:
                assert abs(getattr(report, field) - getattr(ref, field)) <= 1e-12 * scale
    assert unique_seen > 1000


def test_slackness_flag_is_primal_feasibility():
    """Each multiplier is nonnegative and nonzero only where its constraint
    is tight, so complementary slackness and dual feasibility hold by
    construction, and the flag is primal feasibility: the budget not
    exceeded and the target met, within 1e-6.  Checked on budgets overrun
    and targets missed, by less and by more than that, and on targets at
    the frontier's ends."""
    rng = np.random.default_rng(1801)
    seen = set()
    for alloc, mu_r, mu_i, P_a, P_d, ch in random_kkt_inputs(rng, 4000):
        P_a *= rng.choice([1.0, 1.0 - 1e-8, 1.0 - 1e-4, rng.uniform(0.5, 1.0)])
        P_d = rng.choice([P_d * rng.choice([1.0, 1.0 + 1e-8, 1.0 + 1e-4, 2.0]),
                          pdc_min(P_a, ch), pdc_max(P_a, ch), 0.0])
        report = kkt_check(alloc, mu_r, mu_i, P_a, P_d, ch)
        used = alloc.P_r + alloc.P_i
        var_r, var_i = (max(p - m * m, 0.0) for p, m in ((alloc.P_r, mu_r), (alloc.P_i, mu_i)))
        power = delivered_power(gaussian_profile(mu_r, mu_i, var_r, var_i), ch)
        feasible = bool(used <= P_a + 1e-6 * max(1.0, P_a)
                        and power >= P_d - 1e-6 * max(1.0, abs(P_d)))
        assert report.complementary_slackness_ok is feasible  # a bool for numpy P_d too
        seen.add(feasible)
        for mult, tight in ((report.lambda1, abs(P_a - used) <= 1e-6 * max(1.0, P_a)),
                            (report.lambda2, abs(power - P_d) <= 1e-6 * max(1.0, abs(P_d))),
                            (report.zeta_r, var_r <= 1e-6 * max(1.0, P_a)),
                            (report.zeta_i, var_i <= 1e-6 * max(1.0, P_a))):
            assert mult >= 0.0
            assert tight or mult == 0.0
    assert seen == {True, False}
