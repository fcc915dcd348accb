"""Rate/power frontier, target solver, and the first-order certificate.

Rate anchors are plain logarithms checked against math.log2; allocation
anchors were frozen from a 1e-6-step grid search run separately.
"""

import dataclasses
import math

import numpy as np
import pytest

from swipt.moments import gaussian_profile
from swipt.rectenna import (
    ChannelParams,
    coeffs,
    delivered_power,
    delivered_power_gaussian_zero_mean,
)
from swipt.simulate import GaussianZeroMean
from swipt.tradeoff import (
    Infeasible,
    KktReport,
    kkt_check,
    optimal_allocation,
    pdc_max,
    pdc_min,
    rate_gaussian,
    rp_region,
)

from oracles import kkt_check_nnls


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
    def test_min_is_even_split_power(self):
        direct = delivered_power_gaussian_zero_mean(0.5, 0.5, CH)
        assert pdc_min(1.0, CH) == pytest.approx(direct, rel=1e-14)
        assert pdc_min(1.0, CH) == pytest.approx(57.79799157435, rel=1e-11)

    def test_max_is_corner_power(self):
        direct = delivered_power_gaussian_zero_mean(1.0, 0.0, CH)
        assert pdc_max(1.0, CH) == pytest.approx(direct, rel=1e-14)
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
        back = delivered_power_gaussian_zero_mean(alloc.P_r, alloc.P_i, CH)
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
        with pytest.raises(ValueError):
            optimal_allocation(1.0, 1.0, CH, tol=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_and_target_rejected(self, bad):
        with pytest.raises(ValueError, match="P_a"):
            optimal_allocation(bad, 70.0, CH)
        with pytest.raises(ValueError, match="P_d"):
            optimal_allocation(1.0, bad, CH)


class TestRegion:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            rp_region(1.0, CH, 1)
        with pytest.raises(ValueError):
            rp_region(-1.0, CH, 5)
        for budget in (math.inf, math.nan):
            with pytest.raises(ValueError, match="P_a must be positive and finite"):
                rp_region(budget, CH, 3)

    def test_endpoints(self):
        pts = rp_region(1.0, CH, 11)
        assert pts[0].allocation == GaussianZeroMean(1.0, 0.0)
        assert pts[-1].allocation == GaussianZeroMean(0.5, 0.5)
        assert pts[0].power == pytest.approx(pdc_max(1.0, CH), rel=1e-12)
        assert pts[-1].rate == pytest.approx(math.log2(10001.0), rel=1e-12)

    def test_strictly_monotone(self):
        pts = rp_region(1.0, CH, 101)
        for prev, cur in zip(pts, pts[1:]):
            assert cur.rate > prev.rate
            assert cur.power < prev.power

    def test_points_are_self_consistent(self):
        for pt in rp_region(2.0, CH, 7):
            assert pt.rate == pytest.approx(rate_gaussian(pt.allocation, CH))
            assert pt.power == pytest.approx(delivered_power_gaussian_zero_mean(
                pt.allocation.P_r, pt.allocation.P_i, CH))


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

    def test_non_optimal_point_is_falsified(self):
        """Interior budget slack pins lambda1 at zero; no nonnegative lambda2
        can then cancel a positive marginal rate, so the residual survives."""
        alloc = GaussianZeroMean(0.5, 0.3)
        own_power = delivered_power_gaussian_zero_mean(0.5, 0.3, CH)
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
