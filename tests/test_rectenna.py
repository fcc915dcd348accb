"""Closed-form delivered power: coefficients and end-to-end anchors.

Anchor values were computed independently with exact rational arithmetic
(fractions.Fraction) from the coefficient definitions and frozen here.
"""

import dataclasses
import math

import pytest

from swipt.cli import from_json
from swipt.moments import MomentProfile, gaussian_profile
from swipt.rectenna import (
    ChannelParams,
    coeffs,
    delivered_power,
    delivered_power_gaussian_zero_mean,
)


def reference_channel():
    return ChannelParams(h=1.0 + 0j, h_tilde=1.0 + 0j, sigma_w2=1e-4,
                         f_w=1.0, k2=0.17, k4=19.145)


class TestChannelParams:
    def test_roundtrip(self):
        ch = ChannelParams(h=0.5 - 0.25j, h_tilde=1.0j, sigma_w2=0.01,
                           f_w=2.0, k2=0.1, k4=5.0)
        assert from_json(ChannelParams, dataclasses.asdict(ch), "channel") == ch

    def test_scalar_h_promotes_to_complex(self):
        ch = ChannelParams(h=2, h_tilde=0, sigma_w2=0.01, f_w=1.0,
                           k2=0.1, k4=1.0)
        assert ch.h == 2.0 + 0.0j
        assert isinstance(ch.h, complex)

    def test_rejects_nonpositive_bandwidth_and_noise(self):
        with pytest.raises(ValueError):
            ChannelParams(h=1, h_tilde=1, sigma_w2=-1.0, f_w=1.0, k2=0.1, k4=1.0)
        with pytest.raises(ValueError):
            ChannelParams(h=1, h_tilde=1, sigma_w2=0.01, f_w=0.0, k2=0.1, k4=1.0)

    def test_rejects_negative_quartic_weight(self):
        with pytest.raises(ValueError, match="k4"):
            ChannelParams(k4=-1e-3)
        assert coeffs(ChannelParams(k4=0.0)).alpha == 0.0

    def test_rejects_negative_quadratic_weight(self):
        with pytest.raises(ValueError, match="k2"):
            ChannelParams(k2=-1e-3)
        assert coeffs(ChannelParams(k2=0.0, k4=0.0)).beta == 0.0

    @pytest.mark.parametrize("field, value", [
        ("h", complex(math.nan, 0.0)), ("h_tilde", complex(0.0, math.inf)),
        ("sigma_w2", math.inf), ("f_w", math.nan), ("k2", math.nan),
        ("k4", math.inf)])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelParams(**{field: value})

    def test_from_dict_rejects_unknown_keys(self):
        data = dataclasses.asdict(reference_channel())
        data["gain"] = 3.0
        with pytest.raises(ValueError, match="unknown"):
            from_json(ChannelParams, data, "channel")


class TestCoeffs:
    def test_reference_values(self):
        c = coeffs(reference_channel())
        # exact rationals: 11487/800, 181487/1e6, 351487/2e10
        assert c.alpha == pytest.approx(14.35875, rel=1e-12)
        assert c.alpha_tilde == pytest.approx(14.35875, rel=1e-12)
        assert c.beta == pytest.approx(0.181487, rel=1e-12)
        assert c.beta_tilde == pytest.approx(0.181487, rel=1e-12)
        assert c.gamma == pytest.approx(1.757435e-05, rel=1e-12)

    def test_quartic_channel_scaling(self):
        base = reference_channel()
        c1 = coeffs(base)
        doubled = ChannelParams(h=2.0, h_tilde=1.0, sigma_w2=base.sigma_w2,
                                f_w=base.f_w, k2=base.k2, k4=base.k4)
        c2 = coeffs(doubled)
        assert c2.alpha == pytest.approx(16 * c1.alpha)
        assert c2.alpha_tilde == pytest.approx(c1.alpha_tilde)
        # beta's quadratic piece scales by 4, the noise piece by 4 as well
        # since both carry |h|^2
        assert c2.beta == pytest.approx(4 * c1.beta)
        assert c2.beta_tilde == pytest.approx(c1.beta_tilde)
        assert c2.gamma == pytest.approx(c1.gamma)

    def test_phase_of_h_is_irrelevant(self):
        base = reference_channel()
        rotated = ChannelParams(h=complex(math.cos(1.1), math.sin(1.1)),
                                h_tilde=1.0, sigma_w2=base.sigma_w2,
                                f_w=base.f_w, k2=base.k2, k4=base.k4)
        c1, c2 = coeffs(base), coeffs(rotated)
        assert c2.alpha == pytest.approx(c1.alpha, rel=1e-12)
        assert c2.beta == pytest.approx(c1.beta, rel=1e-12)

    def test_bandwidth_division(self):
        base = reference_channel()
        wide = ChannelParams(h=1.0, h_tilde=1.0, sigma_w2=base.sigma_w2,
                             f_w=4.0, k2=base.k2, k4=base.k4)
        c1, c2 = coeffs(base), coeffs(wide)
        for name in ("alpha", "alpha_tilde", "beta", "beta_tilde", "gamma"):
            assert getattr(c2, name) == pytest.approx(getattr(c1, name) / 4)

    def test_field_names(self):
        d = dataclasses.asdict(coeffs(reference_channel()))
        assert set(d) == {"alpha", "alpha_tilde", "beta", "beta_tilde", "gamma"}


class TestDeliveredPower:
    def test_symmetric_gaussian_anchor(self):
        ch = reference_channel()
        p = gaussian_profile(0.0, 0.0, 0.5, 0.5)
        assert delivered_power(p, ch) == pytest.approx(57.79799157435, rel=1e-11)

    def test_corner_gaussian_anchor(self):
        ch = reference_channel()
        p = gaussian_profile(0.0, 0.0, 1.0, 0.0)
        assert delivered_power(p, ch) == pytest.approx(86.51549157435, rel=1e-11)

    def test_nonzero_mean_gaussian_anchor(self):
        ch = reference_channel()
        p = gaussian_profile(0.5, 0.0, 0.5, 0.25)
        assert delivered_power(p, ch) == pytest.approx(61.38767907435, rel=1e-11)

    def test_qpsk_anchor(self):
        ch = reference_channel()
        qpsk = MomentProfile(0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.25, 0.25)
        assert delivered_power(qpsk, ch) == pytest.approx(38.65299157435,
                                                          rel=1e-11)

    def test_zero_input_gives_noise_only_term(self):
        ch = reference_channel()
        silent = MomentProfile(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert delivered_power(silent, ch) == pytest.approx(coeffs(ch).gamma,
                                                            rel=1e-12)

    def test_zero_mean_shortcut_matches_general_path(self):
        ch = ChannelParams(h=0.8 + 0.3j, h_tilde=0.4 - 0.9j, sigma_w2=0.02,
                           f_w=1.5, k2=0.2, k4=7.0)
        for pr, pi in [(0.5, 0.5), (1.0, 0.0), (0.2, 0.7), (0.0, 0.0)]:
            via_profile = delivered_power(gaussian_profile(0, 0, pr, pi), ch)
            direct = delivered_power_gaussian_zero_mean(pr, pi, ch)
            assert direct == pytest.approx(via_profile, rel=1e-12)

    def test_zero_mean_shortcut_rejects_negative_power(self):
        with pytest.raises(ValueError):
            delivered_power_gaussian_zero_mean(-0.1, 0.5, reference_channel())
