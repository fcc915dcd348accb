"""End-to-end acceptance gate.

Nine numbered criteria cover the series constants, Monte-Carlo validation of
the closed-form delivered power and its moment inputs, the frontier
endpoints and sweep, the target solver with its first-order certificate, the
degenerate linear rectenna, and bit-level determinism of the CLI.  Each test
records one PASS/FAIL line that conftest.py replays in the terminal summary,
so the gate can be read off a plain pytest run.
"""

import json
import math
import os
import time

import numpy as np

import _gate
from _support import run_cli
from oracles import (
    SERIES_IDS,
    bisection_allocation,
    brute_force_double_sum,
    fourth_moment_even,
    mc_even_fourth_moment,
    series_sums,
)

from swipt.moments import (
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    profile_of,
    q_tilde,
)
from swipt.rectenna import ChannelParams, coeffs
from swipt.series import verify
from swipt.simulate import (
    ESTIMATORS,
    closed_form_delivered_power,
    mc_delivered_power,
    mc_q_tilde,
)
from swipt.tradeoff import (
    Infeasible,
    kkt_check,
    optimal_allocation,
    pdc_max,
    pdc_min,
    rate_gaussian,
    rp_region,
)


CH = ChannelParams(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1.0,
                   k2=0.17, k4=19.145)
SEED = 12345
N_SYMBOLS = 200_000

FOUR_DISTRIBUTIONS = [
    ("symmetric gaussian", GaussianZeroMean(0.5, 0.5)),
    ("asymmetric gaussian", GaussianZeroMean(1.0, 0.0)),
    ("nonzero-mean gaussian", GaussianGeneral(0.5, 0.0, 0.5, 0.25)),
    ("qpsk", FiniteConstellation.qpsk()),
]


def report(criterion, ok, detail):
    _gate.record(criterion, ok, detail)


def test_criterion_1_series_constants():
    t0 = time.perf_counter()
    reports = verify(1_000_000)
    elapsed = time.perf_counter() - t0
    max_err = max(r.abs_error for r in reports)
    sums = series_sums(1000)
    identity_err = max(
        abs(brute_force_double_sum(sid, 1000) - sums[sid])
        for sid in ("S1", "S3", "S6"))
    ok = (len(reports) == len(SERIES_IDS) and max_err <= 1e-4
          and elapsed < 5.0 and identity_err <= 1e-12)
    report(1, ok,
           f"nine constants at N=1e6: max |error| {max_err:.2e} (<=1e-4) in "
           f"{elapsed:.2f}s (<5s); pair-sum identities vs brute force at "
           f"window 1000: max {identity_err:.2e} (<=1e-12)")
    assert ok


def test_criterion_2_delivered_power_monte_carlo():
    worst_z = 0.0
    worst_rel_se = 0.0
    worst_time = 0.0
    for _, dist in FOUR_DISTRIBUTIONS:
        closed = closed_form_delivered_power(dist, CH)
        for estimator in ESTIMATORS:
            t0 = time.perf_counter()
            est = mc_delivered_power(dist, CH, N_SYMBOLS, 8, SEED,
                                     window=256, estimator=estimator)
            elapsed = time.perf_counter() - t0
            z = (est.mean - closed) / est.std_error
            worst_z = max(worst_z, abs(z))
            worst_rel_se = max(worst_rel_se, est.std_error / est.mean)
            worst_time = max(worst_time, elapsed)
    ok = worst_z <= 4.0 and worst_rel_se <= 0.01 and worst_time < 60.0
    report(2, ok,
           f"four distributions x both estimators at n=2e5: max |z| "
           f"{worst_z:.2f} (<=4), max SE/mean {worst_rel_se:.3%} (<=1%), "
           f"max {worst_time:.1f}s/case (<60s)")
    assert ok


def test_criterion_3_even_sample_fourth_moment():
    worst_z = 0.0
    for _, dist in FOUR_DISTRIBUTIONS:
        est = mc_even_fourth_moment(dist, CH, N_SYMBOLS, SEED)
        closed = fourth_moment_even(profile_of(dist), CH)
        worst_z = max(worst_z, abs(est.mean - closed) / est.std_error)
    ok = worst_z <= 4.0
    report(3, ok,
           f"integer-time |Y|^4 vs |h|^4 Q + 4 sigma^2 |h|^2 P + 2 sigma^4 "
           f"for four distributions: max |z| {worst_z:.2f} (<=4)")
    assert ok


def test_criterion_4_mid_sample_fourth_moment():
    worst_z = 0.0
    for _, dist in FOUR_DISTRIBUTIONS:
        est = mc_q_tilde(dist, 10_000, 128, SEED)
        closed = q_tilde(profile_of(dist))
        worst_z = max(worst_z, abs(est.mean - closed) / est.std_error)
    c = 0.8 + 0.6j
    point = FiniteConstellation((c,), (1.0,))
    errors = []
    deterministic = True
    for w in (32, 128, 512):
        est = mc_q_tilde(point, 100, w, SEED)
        expected = abs(c * series_sums(w)["T0"]) ** 4
        deterministic &= abs(est.mean - expected) <= 1e-12 * expected
        errors.append(abs(est.mean - abs(c) ** 4))
    trend = errors[0] > errors[1] > errors[2] and errors[2] < 1e-5
    ok = worst_z <= 4.0 and deterministic and trend
    report(4, ok,
           f"E|X~|^4 at window 128, 1e4 blocks: max |z| {worst_z:.2f} (<=4); "
           f"one-point input reproduces |c T0(w)|^4 exactly and converges to "
           f"|c|^4 (errors {errors[0]:.1e} > {errors[1]:.1e} > {errors[2]:.1e})")
    assert ok


def test_criterion_5_frontier_endpoints():
    p_min = pdc_min(1.0, CH)
    p_max = pdc_max(1.0, CH)
    rate_even = rate_gaussian(GaussianZeroMean(0.5, 0.5), CH)
    rate_corner = rate_gaussian(GaussianZeroMean(1.0, 0.0), CH)
    ok = (abs(p_min - 57.79799157435) <= 1e-9 * 57.79799157435
          and abs(p_max - 86.51549157435) <= 1e-9 * 86.51549157435
          and abs(rate_even - math.log2(1.0 + 1e4)) <= 1e-12 * rate_even
          and abs(rate_corner - 0.5 * math.log2(1.0 + 2e4)) <= 1e-12 * rate_corner)
    report(5, ok,
           f"unit budget endpoints: even split {p_min:.10f} / corner "
           f"{p_max:.10f} at 1e-9 relative; rates {rate_even:.3f} and "
           f"{rate_corner:.3f} bits/s")
    assert ok


def test_criterion_6_frontier_sweep_and_marked_splits():
    pts = rp_region(1.0, CH, 101)
    monotone = all(b.rate > a.rate and b.power < a.power
                   for a, b in zip(pts, pts[1:]))
    marked = [GaussianZeroMean(0.0, 1.0), GaussianZeroMean(0.03, 0.97),
              GaussianZeroMean(0.2, 0.8), GaussianZeroMean(0.5, 0.5)]
    rates = [rate_gaussian(m, CH) for m in marked]
    powers = [closed_form_delivered_power(m, CH) for m in marked]
    ordered = (rates[0] < rates[1] < rates[2] < rates[3]
               and powers[0] > powers[1] > powers[2] > powers[3])
    # the mirrored canonical splits sit on the 0.005-step sweep grid
    on_frontier = all(
        abs(pts[idx].rate - r) <= 1e-12 * r and abs(pts[idx].power - p) <= 1e-12 * p
        for idx, r, p in zip((0, 6, 40, 100), rates, powers))
    ok = monotone and ordered and on_frontier
    report(6, ok,
           "101-point sweep strictly rate-increasing / power-decreasing; "
           "marked splits (0,1), (0.03,0.97), (0.2,0.8), (0.5,0.5) lie on it "
           "with rate and power ordered oppositely")
    assert ok


def test_criterion_7_solver_vs_grid_oracle():
    rng = np.random.default_rng(2026)
    grid = np.arange(0.0, 0.5 + 1e-6, 1e-6)
    worst_power = 0.0
    worst_split = 0.0
    worst_resid = 0.0
    for _ in range(20):
        h = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        h_tilde = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        ch = ChannelParams(h=complex(h), h_tilde=complex(h_tilde),
                           sigma_w2=1e-4, f_w=1.0, k2=0.17, k4=19.145)
        lo, hi = pdc_min(1.0, ch), pdc_max(1.0, ch)
        target = lo + rng.uniform(0.15, 0.85) * (hi - lo)
        alloc = optimal_allocation(1.0, target, ch)

        back = closed_form_delivered_power(
            GaussianZeroMean(alloc.P_r, alloc.P_i), ch)
        worst_power = max(worst_power, abs(back - target) / target)

        # independent oracle: densely tabulated delivered power on the split
        # axis, taking the most symmetric split still meeting the target
        c = coeffs(ch)
        asum, bsum = c.alpha + c.alpha_tilde, c.beta + c.beta_tilde
        p_r = 1.0 - grid
        power = (asum * (3.0 * p_r**2 + 3.0 * grid**2 + 2.0 * p_r * grid)
                 + bsum + c.gamma)
        feasible = np.nonzero(power >= target)[0]
        oracle_pi = grid[feasible[-1]]
        worst_split = max(worst_split, abs(alloc.P_i - oracle_pi))

        kkt = kkt_check(alloc, 0.0, 0.0, 1.0, target, ch)
        assert kkt.complementary_slackness_ok
        worst_resid = max(worst_resid,
                          abs(kkt.stationarity_residual_Pr),
                          abs(kkt.stationarity_residual_Pi),
                          abs(kkt.stationarity_residual_mu_r),
                          abs(kkt.stationarity_residual_mu_i))
    ok = worst_power <= 1e-9 and worst_split <= 1e-5 and worst_resid <= 1e-6
    report(7, ok,
           f"20 randomized channels/targets: max relative power miss "
           f"{worst_power:.1e} (<=1e-9), max split gap vs 1e-6-step grid "
           f"{worst_split:.1e} (<=1e-5), max stationarity residual "
           f"{worst_resid:.1e} (<=1e-6)")
    assert ok


def test_closed_form_split_matches_bisection_reference():
    """The closed-form root against bisection on the power residual, over
    random channels and budgets, including targets next to both endpoints."""
    rng = np.random.default_rng(2027)
    worst_split = 0.0
    worst_power = 0.0
    for _ in range(3000):
        h = rng.uniform(0.1, 2.0) * np.exp(2j * np.pi * rng.uniform())
        h_tilde = rng.uniform(0.1, 2.0) * np.exp(2j * np.pi * rng.uniform())
        ch = ChannelParams(h=complex(h), h_tilde=complex(h_tilde),
                           sigma_w2=10.0 ** rng.uniform(-5.0, -1.0), f_w=1.0,
                           k2=0.17, k4=rng.uniform(0.1, 30.0))
        P_a = rng.uniform(0.1, 3.0)
        lo, hi = pdc_min(P_a, ch), pdc_max(P_a, ch)
        target = rng.choice([lo + rng.uniform() * (hi - lo), 0.9999995 * hi,
                             lo + 1e-9 * (hi - lo)])
        alloc = optimal_allocation(P_a, target, ch)
        ref = bisection_allocation(P_a, target, ch)
        assert alloc.P_r >= alloc.P_i
        worst_split = max(worst_split, abs(alloc.P_i - ref.P_i) / P_a)
        back = closed_form_delivered_power(
            GaussianZeroMean(alloc.P_r, alloc.P_i), ch)
        worst_power = max(worst_power, abs(back - target) / target)
    assert worst_split <= 1e-9
    assert worst_power <= 2e-15


def test_criterion_8_linear_rectenna_degeneracy():
    ch = ChannelParams(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1.0,
                       k2=0.17, k4=0.0)
    pts = rp_region(1.0, ch, 51)
    powers = [pt.power for pt in pts]
    flat = max(powers) - min(powers) <= 1e-12 * max(powers)
    even = optimal_allocation(1.0, 0.5 * pdc_min(1.0, ch), ch)
    even_ok = even == GaussianZeroMean(0.5, 0.5)
    try:
        optimal_allocation(1.0, 2.0 * pdc_max(1.0, ch), ch)
        raised = False
    except Infeasible:
        raised = True
    ok = flat and even_ok and raised
    report(8, ok,
           "k4=0 frontier is constant-power; a slack target returns the even "
           "split and an unreachable one raises the typed infeasibility error")
    assert ok


def test_criterion_9_byte_identical_under_thread_counts(tmp_path):
    config = {"mc": {"n_symbols": 20_000, "oversample": 4, "window": 64,
                     "seed": 777}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    codes = []
    for threads in ("1", "8"):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = threads
        code, out, _ = run_cli("mc-validate", "--config", str(path), env=env, text=False)
        outputs.append(out)
        codes.append(code)
    ok = outputs[0] == outputs[1] and codes[0] == codes[1] == 0
    report(9, ok,
           f"mc-validate stdout identical under 1 and 8 BLAS/OpenMP threads "
           f"({len(outputs[0])} bytes, exit {codes[0]})")
    assert ok
