"""Moment-profile validation and the interpolated fourth moment.

The q_tilde closed form is checked against an exhaustive enumeration of a
truncated mixture for small discrete alphabets (exact, no Monte Carlo) and
against its alternate pseudo-moment formulation on randomized valid profiles.
"""

import cmath
import dataclasses
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt.cli import from_json
from swipt.moments import (
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    MomentProfile,
    _integer,
    derived_moments,
    gaussian_profile,
    profile_of,
    q_tilde,
)
from swipt.rectenna import ChannelParams, delivered_power
from swipt.simulate import _DOM_SYMBOLS, _draw, closed_form_delivered_power

from oracles import (
    constellation_profile,
    derived_moments_exact,
    empirical_profile,
    profile_exact,
    q_tilde_intermediate,
    s_coeff,
    series_sums,
    swapped,
)


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
        """Point masses in one or both parts, two-point parts, and flash
        inputs whose rare point lifts Q far above P^2, at any scale of P,
        even where P - mu^2 is within rounding of 0."""
        bpsk = FiniteConstellation((1.0, -1.0), (0.5, 0.5))
        flash = 10.0**0.5 * complex(math.cos(0.3), math.sin(0.3))
        profiles = [
            QPSK_PROFILE,
            profile_of(FiniteConstellation.qpsk()),
            profile_of(bpsk),
            MomentProfile(2.0, 0.0, 4.0, 0.0, 8.0, 0.0, 16.0, 0.0),
            profile_of(GaussianGeneral(1.0, 0.0, 0.0, 0.0)),
            profile_of(GaussianGeneral(1.0, -3.0, 1e-14, 1e-20)),
            profile_of(FiniteConstellation((0.1 + 1j, 0.1 - 1j))),
            profile_of(FiniteConstellation((0.0, flash), (0.9, 0.1))),
            profile_of(FiniteConstellation((0.0, 1e-5), (1.0 - 1e-6, 1e-6))),
            profile_of(FiniteConstellation((0.0, 1e5j), (1.0 - 1e-12, 1e-12))),
            profile_of(FiniteConstellation((1.0, 1e8, -1e8), (1.0, 3e-32, 3e-32))),
            profile_of(FiniteConstellation((1.0, 1e4), (1.0, 4e-24))),
        ]
        for dist in (FiniteConstellation.qpsk(), bpsk):
            profiles.append(empirical_profile(_draw(dist, 10_000, 3, _DOM_SYMBOLS)))
        for p in profiles:
            assert from_json(MomentProfile, dataclasses.asdict(p), "profile") == p

    def test_negative_even_moment(self):
        with pytest.raises(ValueError, match="negative even moment in dimension r"):
            MomentProfile(0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="negative even moment in dimension i"):
            MomentProfile(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, -1.0)

    def test_hankel_terms_past_the_float_range(self):
        """T_r^2 = 1e500 > P_r*Q_r = 1e400: both sides overflow, so only a
        pivot kept in range sees it.  With T_r = 1e200 and Q_r = 1e301 the
        profile is valid, and its delivered power is a float."""
        with pytest.raises(ValueError, match="determinant in dimension r"):
            MomentProfile(0.0, 0.0, 1e100, 0.0, 1e250, 0.0, 1e300, 0.0)
        valid = MomentProfile(0.0, 0.0, 1e100, 0.0, 1e200, 0.0, 1e301, 0.0)
        assert delivered_power(valid, ChannelParams()) == 1.9145000000000002e+302

    @pytest.mark.parametrize("profile, match", [
        ((0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 5.0, 3.0), "P_r = 0 makes dimension r the point 0"),
        ((0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 2.0), "P_i = 0 makes dimension i the point 0"),
        ((1.0, 0.0, 1.0, 1.0, 1.5, 0.0, 3.0, 3.0), "determinant in dimension r"),
    ], ids=["Q_r-at-zero", "Q_i-at-zero", "T_r-at-one"])
    def test_part_without_variance(self, profile, match):
        """P = 0 makes the part the point 0, so its Q is 0, which a
        semidefinite Hankel matrix does not imply; with P = mu^2 = 1 the
        last pivot still ties T to mu*P."""
        with pytest.raises(ValueError, match=match):
            MomentProfile(*profile)

    def test_zero_probability_point_adds_nothing(self):
        """A point never drawn leaves the profile as it is, even one whose
        fourth power overflows (0 * inf would be nan)."""
        for far in (2.0, 1e80):
            dist = FiniteConstellation((1.0, far), (1.0, 0.0))
            assert profile_of(dist) == profile_of(FiniteConstellation((1.0,)))

    def test_swapped(self):
        p = gaussian_profile(0.5, -0.2, 1.0, 0.3)
        q = swapped(p)
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


# Inputs whose moments leave the float range, with the first one that does
# and its value: float ** raises OverflowError there, where * gives inf.
OVERFLOWING = [
    (FiniteConstellation((1e80,)), "Q_r", "inf"),
    (FiniteConstellation((-1e103j,)), "T_i", "-inf"),
    (GaussianGeneral(1e200, 0.0, 0.0, 0.0), "P_r", "inf"),
    (GaussianGeneral(-1e103, 0.0, 0.0, 0.0), "T_r", "-inf"),
    (GaussianGeneral(0.0, 1e80, 0.0, 1.0), "Q_i", "inf"),
]


@pytest.mark.parametrize("dist, moment, value", OVERFLOWING,
                         ids=["point", "negative-point", "mean", "negative-mean", "mean_i"])
def test_overflowing_moment_is_a_value_error_naming_it(dist, moment, value):
    """profile_of, gaussian_profile and closed_form_delivered_power reject
    such an input with the profile's finiteness rule, naming the moment."""
    calls = [lambda: profile_of(dist),
             lambda: closed_form_delivered_power(dist, ChannelParams())]
    if isinstance(dist, GaussianGeneral):
        calls.append(lambda: gaussian_profile(dist.mu_r, dist.mu_i, dist.var_r, dist.var_i))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"moment {moment} must be finite, got {value}"


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
        sums = series_sums(window)
        s5, s3 = sums["S5"], sums["S3"]
        # Q = E|X|^4 = 1 and P = E|X|^2 = 1 for the unit-energy alphabet.
        assert direct == pytest.approx(s5 + 2 * s3, rel=1e-12)

    def test_windowed_enumeration_bpsk(self):
        """BPSK has E[X^2] = P, so the third pairing pattern survives too:
        S5*Q + 3*S3*P^2, which drives q_tilde's 7/3 infinite-window limit."""
        points, probs = [1.0 + 0j, -1.0 + 0j], [0.5, 0.5]
        window = 3
        direct = exact_mixture_fourth_moment(points, probs, window)
        sums = series_sums(window)
        s5, s3 = sums["S5"], sums["S3"]
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
        assert d.Q_tilde == pytest.approx(q_tilde(p))

    def test_symmetry_under_swap(self):
        p = gaussian_profile(0.3, 0.8, 1.5, 0.4)
        d, ds = derived_moments(p), derived_moments(swapped(p))
        assert ds.P == pytest.approx(d.P)
        assert ds.Q == pytest.approx(d.Q)
        assert ds.Q_tilde == pytest.approx(d.Q_tilde)


class TestInteger:
    """_integer reads numpy scalars through the numbers ABCs numpy registers
    with, so a numpy float with a fraction is an error, not truncated."""

    @pytest.mark.parametrize("value", [np.float32(2.5), np.float16(0.5), 2.9,
                                       math.nan, math.inf], ids=repr)
    def test_fractional_or_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="n must be an integer"):
            _integer(value, "n")

    @pytest.mark.parametrize("value, expected", [
        (np.float64(2e5), 200_000), (np.int64(7), 7), (np.float32(3.0), 3),
        (2e5, 200_000), (7, 7),
    ], ids=repr)
    def test_integral_accepted(self, value, expected):
        result = _integer(value, "n")
        assert result == expected and type(result) is int


# Parts away from the underflow range, where a relative bound means little.
_PARTS = st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


class TestConstellationMoments:
    """profile_of's plain-Python sums of p*x**k against numpy's (oracle)."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(symbols=st.lists(st.tuples(_PARTS, _PARTS, st.floats(1e-3, 1.0)),
                            min_size=1, max_size=16),
           equiprobable=st.booleans())
    def test_moments_match_numpy_sums(self, symbols, equiprobable):
        points = [complex(re, im) for re, im, _ in symbols]
        weights = [w for _, _, w in symbols]
        probs = None if equiprobable else [w / math.fsum(weights) for w in weights]
        dist = FiniteConstellation(points, probs)
        got = dataclasses.astuple(profile_of(dist))
        want = dataclasses.astuple(constellation_profile(dist))
        for i, (g, w) in enumerate(zip(got, want)):
            k = 1 + i // 2  # fields run mu_r, mu_i, P_r, P_i, T_r, ..., Q_i
            part = [x.imag if i % 2 else x.real for x in dist.points]
            scale = math.fsum(abs(p * x**k) for p, x in zip(dist.probs, part))
            assert abs(g - w) <= 4.0 * sys.float_info.epsilon * scale

    @pytest.mark.parametrize("dist", [FiniteConstellation.qpsk(),
                                      FiniteConstellation((1.0, -1.0))], ids=["qpsk", "bpsk"])
    def test_qpsk_and_bpsk_bit_equal_to_numpy_sums(self, dist):
        def bits(profile):
            return [v.hex() for v in dataclasses.astuple(profile)]
        assert bits(profile_of(dist)) == bits(constellation_profile(dist))


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# a part value or mean: magnitude log-uniform in 1e-3..1e3, either sign
_SIGNED = st.tuples(_log_uniform(1e-3, 1e3), st.booleans()).map(
    lambda draw: -draw[0] if draw[1] else draw[0])
_VARIANCES = _log_uniform(1e-6, 1e6)


def _constellation(symbols):
    weights = [w for _, _, w in symbols]
    return FiniteConstellation([complex(re, im) for re, im, _ in symbols],
                               [w / math.fsum(weights) for w in weights])


_INPUTS = st.one_of(
    st.lists(st.tuples(_SIGNED, _SIGNED, st.floats(0.0, 1.0)), min_size=1, max_size=8)
    .filter(lambda symbols: any(w > 0.0 for _, _, w in symbols)).map(_constellation),
    st.builds(GaussianGeneral, _SIGNED, _SIGNED, _VARIANCES, _VARIANCES),
    st.builds(GaussianZeroMean, _VARIANCES, _VARIANCES))
_EXACT_BOUND = 4 * Fraction(sys.float_info.epsilon)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(dist=_INPUTS)
def test_moments_match_exact_fractions(dist):
    """Over constellations of at most 8 points, with parts of magnitude
    log-uniform in 1e-3..1e3, either sign and random probabilities, and over
    Gaussians with such means and variances in 1e-6..1e6, each of
    profile_of's eight moments and derived_moments' P, Q and Q_tilde is
    within 4*eps of its exact rational value from the float inputs as
    stored, scaled by the sum of the magnitudes of its terms (measured at
    most 2.48 over 28 000 random draws)."""
    profile = profile_of(dist)
    exact, scale = profile_exact(dist), profile_exact(dist, absolute=True)
    for name in exact._fields:
        error = abs(Fraction(getattr(profile, name)) - getattr(exact, name))
        assert error <= _EXACT_BOUND * getattr(scale, name), name
    got = derived_moments(profile)
    assert got.Q_tilde == q_tilde(profile)
    exact, scale = derived_moments_exact(exact), derived_moments_exact(scale, absolute=True)
    for name in ("P", "Q", "Q_tilde"):
        error = abs(Fraction(getattr(got, name)) - getattr(exact, name))
        assert error <= _EXACT_BOUND * getattr(scale, name), name


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the closed form takes the real and imaginary parts as "
    "independent, which turning a constellation breaks"))
def test_turning_a_constellation_keeps_its_power():
    """Turning every point by one angle turns the symbols, the mid-samples
    and the signal part of each channel output by it, and the noise is
    circularly symmetric, so the delivered power of an i.i.d. input stays
    as it is.  The closed form misses this for inputs whose parts are
    dependent: QPSK turned by pi/4 gives 48.23 against 38.65."""
    ch = ChannelParams()
    inputs = [FiniteConstellation.qpsk(),
              FiniteConstellation([cmath.exp(2j * math.pi * k / 8) for k in range(8)]),
              FiniteConstellation((1.3 + 0.2j, -0.4 + 0.9j, -0.5 - 1.0j), (0.5, 0.3, 0.2))]
    for dist in inputs:
        power = delivered_power(profile_of(dist), ch)
        for theta in (math.pi / 4, 0.3):
            turned = FiniteConstellation([x * cmath.exp(1j * theta) for x in dist.points],
                                         dist.probs)
            assert delivered_power(profile_of(turned), ch) == pytest.approx(power, rel=1e-12)
