"""Moment-profile validation and the interpolated fourth moment.

The q_tilde closed form is checked against an exhaustive enumeration of a
truncated mixture for small discrete alphabets (exact, no Monte Carlo) and
against its alternate pseudo-moment formulation on randomized valid profiles.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from swipt.cli import from_json
from swipt.moments import (
    MomentProfile,
    derived_moments,
    empirical_profile,
    gaussian_profile,
    q_tilde,
)
from swipt.series import partial_sum, s_coeff
from swipt.simulate import FiniteConstellation, draw_symbols, profile_of

from oracles import q_tilde_intermediate


QPSK_PROFILE = MomentProfile(0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.25, 0.25)


class TestProfileValidation:
    def test_valid_profile_roundtrip(self):
        p = gaussian_profile(0.5, -0.2, 1.0, 0.3)
        again = from_json(MomentProfile, dataclasses.asdict(p), "profile")
        assert again == p

    def test_variance_violation(self):
        with pytest.raises(ValueError, match="variance violation"):
            MomentProfile(2.0, 0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0)

    def test_jensen_violation(self):
        with pytest.raises(ValueError, match="Jensen violation"):
            MomentProfile(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.5, 3.0)

    def test_violation_names_the_dimension(self):
        with pytest.raises(ValueError, match="Q_i"):
            MomentProfile(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MomentProfile(math.nan, 0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0)
        with pytest.raises(ValueError):
            MomentProfile(0.0, 0.0, math.inf, 1.0, 0.0, 0.0, 3.0, 3.0)

    def test_deterministic_point_is_accepted(self):
        # P = mu^2 and Q = P^2 exactly: a constant symbol
        p = MomentProfile(2.0, 0.0, 4.0, 0.0, 8.0, 0.0, 16.0, 0.0)
        assert p.P_r == 4.0

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError, match="unknown"):
            from_json(MomentProfile, {**dataclasses.asdict(QPSK_PROFILE), "extra": 1.0},
                      "profile")
        bad = dataclasses.asdict(QPSK_PROFILE)
        del bad["Q_i"]
        with pytest.raises(ValueError, match="missing"):
            from_json(MomentProfile, bad, "profile")

    def test_third_moment_beyond_hankel_bound(self):
        # P*Q < T^2: accepted by the variance and Jensen checks alone, and
        # delivered_power would then return 153.886
        with pytest.raises(ValueError, match="T_r"):
            MomentProfile(0.0, 0.0, 1.0, 1.0, 100.0, 0.0, 1.0, 1.0)

    def test_negative_hankel_determinant(self):
        # every 2x2 principal minor is nonnegative, the 3x3 determinant is -1/4
        with pytest.raises(ValueError, match="determinant in dimension i"):
            MomentProfile(0.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)

    def test_singular_valid_profiles_pass(self):
        bpsk = FiniteConstellation((1.0, -1.0), (0.5, 0.5))
        profiles = [
            QPSK_PROFILE,
            profile_of(FiniteConstellation.qpsk()),
            profile_of(bpsk),
            MomentProfile(2.0, 0.0, 4.0, 0.0, 8.0, 0.0, 16.0, 0.0),
        ]
        for dist in (FiniteConstellation.qpsk(), bpsk):
            profiles.append(empirical_profile(draw_symbols(dist, 10_000, 3)))
        for p in profiles:
            assert from_json(MomentProfile, dataclasses.asdict(p), "profile") == p

    def test_swapped(self):
        p = gaussian_profile(0.5, -0.2, 1.0, 0.3)
        q = p.swapped()
        assert (q.mu_r, q.mu_i) == (p.mu_i, p.mu_r)
        assert (q.Q_r, q.Q_i) == (p.Q_i, p.Q_r)


class TestGaussianProfile:
    def test_moment_values(self):
        p = gaussian_profile(1.0, 0.0, 1.0, 0.0)
        assert p.P_r == pytest.approx(2.0)
        assert p.T_r == pytest.approx(4.0)
        assert p.Q_r == pytest.approx(10.0)
        assert p.P_i == p.T_i == p.Q_i == 0.0

    def test_zero_mean_even_moments(self):
        p = gaussian_profile(0.0, 0.0, 0.7, 0.7)
        assert p.Q_r == pytest.approx(3 * 0.7**2)
        assert p.T_r == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_profile(0.0, 0.0, -0.1, 1.0)


class TestEmpiricalProfile:
    def test_matches_hand_means(self):
        samples = np.array([1.0 + 1.0j, -1.0 + 0.0j, 0.0 + 2.0j, 3.0 - 1.0j])
        p = empirical_profile(samples)
        assert p.mu_r == pytest.approx(np.mean(samples.real))
        assert p.Q_i == pytest.approx(np.mean(samples.imag**4))

    def test_gaussian_draws_converge(self):
        rng = np.random.default_rng(42)
        samples = rng.normal(0.5, 1.0, 200_000) + 1j * rng.normal(0.0, 0.5, 200_000)
        p = empirical_profile(samples)
        exact = gaussian_profile(0.5, 0.0, 1.0, 0.25)
        assert p.mu_r == pytest.approx(exact.mu_r, abs=0.01)
        assert p.Q_r == pytest.approx(exact.Q_r, abs=0.1)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            empirical_profile(np.array([1.0 + 0j]))


def exact_mixture_fourth_moment(points, probs, window):
    """E|sum_n X_n s_n|^4 by exhaustive enumeration over a truncated window.

    Exponential in the window, so keep window tiny; exact otherwise.
    """
    taps = [float(s_coeff(l)) for l in range(-window, window + 1)]
    total = 0.0
    for combo in itertools.product(range(len(points)), repeat=len(taps)):
        prob = math.prod(probs[i] for i in combo)
        value = sum(points[i] * t for i, t in zip(combo, taps))
        total += prob * abs(value) ** 4
    return total


class TestQTilde:
    def test_zero_mean_gaussian_values(self):
        assert q_tilde(gaussian_profile(0, 0, 0.5, 0.5)) == pytest.approx(2.0)
        assert q_tilde(gaussian_profile(0, 0, 1.0, 0.0)) == pytest.approx(3.0)

    def test_qpsk_value(self):
        assert q_tilde(QPSK_PROFILE) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_windowed_enumeration_qpsk(self):
        """Exhaustive truncated mixture vs the same mixture's moment algebra.

        For a zero-mean alphabet with E[X^2] = 0 the only surviving index
        patterns are the all-equal one (weight S5) and the two
        conjugate-pairings (weight S3 each), so the truncated value must be
        S5(w)*Q + 2*S3(w)*P^2 exactly.
        """
        r = 1.0 / math.sqrt(2.0)
        points = [complex(r, r), complex(r, -r), complex(-r, r), complex(-r, -r)]
        probs = [0.25] * 4
        window = 2
        direct = exact_mixture_fourth_moment(points, probs, window)
        s5, s3 = partial_sum("S5", window), partial_sum("S3", window)
        # Q = E|X|^4 = 1 and P = E|X|^2 = 1 for the unit-energy alphabet.
        assert direct == pytest.approx(s5 + 2 * s3, rel=1e-12)

    def test_windowed_enumeration_bpsk(self):
        """BPSK has E[X^2] = P, so the third pairing pattern survives too:
        S5*Q + 3*S3*P^2, which drives q_tilde's 7/3 infinite-window limit."""
        points, probs = [1.0 + 0j, -1.0 + 0j], [0.5, 0.5]
        window = 3
        direct = exact_mixture_fourth_moment(points, probs, window)
        s5, s3 = partial_sum("S5", window), partial_sum("S3", window)
        assert direct == pytest.approx(s5 + 3 * s3, rel=1e-12)
        bpsk = MomentProfile(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        assert q_tilde(bpsk) == pytest.approx(
            1.0 / 3.0 + 3 * (2.0 / 3.0), rel=1e-12)

    def test_intermediate_route_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mu_r, mu_i = rng.normal(size=2)
            var_r, var_i = rng.uniform(0.05, 3.0, size=2)
            p = gaussian_profile(mu_r, mu_i, var_r, var_i)
            a, b = q_tilde(p), q_tilde_intermediate(p)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_intermediate_route_agrees_for_discrete(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pts = rng.normal(size=4) + 1j * rng.normal(size=4)
            w = rng.uniform(0.1, 1.0, size=4)
            w /= w.sum()
            moments = {
                p: (np.sum(w * pts.real**p), np.sum(w * pts.imag**p))
                for p in (1, 2, 3, 4)
            }
            prof = MomentProfile(
                moments[1][0], moments[1][1], moments[2][0], moments[2][1],
                moments[3][0], moments[3][1], moments[4][0], moments[4][1])
            assert q_tilde(prof) == pytest.approx(
                q_tilde_intermediate(prof), rel=1e-10, abs=1e-10)


class TestDerivedMoments:
    def test_totals_and_pseudo_moments(self):
        p = gaussian_profile(0.5, -0.25, 1.0, 0.5)
        d = derived_moments(p)
        assert d.P == pytest.approx(p.P_r + p.P_i)
        assert d.Q == pytest.approx(p.Q_r + p.Q_i + 2 * p.P_r * p.P_i)
        assert d.mu == complex(0.5, -0.25)
        assert d.P_bar == pytest.approx(
            complex(p.P_r - p.P_i, 2 * p.mu_r * p.mu_i))
        assert d.T_bar == pytest.approx(
            complex(p.T_r + p.mu_r * p.P_i, p.P_r * p.mu_i + p.T_i))
        assert d.Q_tilde == pytest.approx(q_tilde(p))

    def test_zero_mean_pseudo_moments(self):
        d = derived_moments(gaussian_profile(0.0, 0.0, 2.0, 1.0))
        assert d.P_bar == complex(1.0, 0.0)
        assert d.T_bar == complex(0.0, 0.0)

    def test_symmetry_under_swap(self):
        p = gaussian_profile(0.3, 0.8, 1.5, 0.4)
        d, ds = derived_moments(p), derived_moments(p.swapped())
        assert ds.P == pytest.approx(d.P)
        assert ds.Q == pytest.approx(d.Q)
        assert ds.Q_tilde == pytest.approx(d.Q_tilde)
