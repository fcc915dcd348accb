"""Closed-form delivered power: coefficients and end-to-end anchors.

Anchor values were computed independently with exact rational arithmetic
(fractions.Fraction) from the coefficient definitions and frozen here.
"""

import copy
import dataclasses
import math
import pickle
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swipt.cli import from_json
from swipt.moments import MomentProfile, gaussian_profile
from swipt.rectenna import (
    ChannelParams,
    _evaluate_coeffs,
    _gaussian_power,
    coeffs,
    delivered_power,
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

    @pytest.mark.parametrize("field, value", [
        ("h", 1e200), ("h_tilde", complex(1e154, 1e154)), ("sigma_w2", 1e155)])
    def test_rejects_fields_whose_square_overflows(self, field, value):
        with pytest.raises(ValueError, match=f"channel field {field} overflows"):
            ChannelParams(**{field: value})
        # the largest value accepted squares to a float, and coeffs takes it
        largest = ChannelParams(**{field: math.sqrt(sys.float_info.max)})
        assert abs(getattr(largest, field)) ** 2 <= sys.float_info.max
        coeffs(largest)

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


def _hex(c):
    return [float.hex(getattr(c, f.name)) for f in dataclasses.fields(c)]


class TestCoeffsPerChannel:
    """coeffs returns the record its channel computed when it was built: the
    formula's floats to the last bit, signed zeros included, never another
    equal channel's record."""

    POSITIVE_ZERO = ChannelParams(k2=0.0, k4=0.0)
    NEGATIVE_ZERO = ChannelParams(k2=-0.0, k4=-0.0)

    def test_signed_zero_channels_keep_their_own_zeros(self):
        assert self.POSITIVE_ZERO == self.NEGATIVE_ZERO
        assert hash(self.POSITIVE_ZERO) == hash(self.NEGATIVE_ZERO)
        assert _hex(coeffs(self.POSITIVE_ZERO)) == ["0x0.0p+0"] * 5
        assert _hex(coeffs(self.NEGATIVE_ZERO)) == ["-0x0.0p+0"] * 5

    def test_one_record_per_channel(self):
        ch = reference_channel()
        assert coeffs(ch) is coeffs(ch)
        assert coeffs(copy.copy(ch)) is coeffs(ch)

    def test_replace_gets_fresh_coefficients(self):
        ch = reference_channel()
        wider = dataclasses.replace(ch, k4=2.0 * ch.k4)
        assert _hex(coeffs(wider)) == _hex(_evaluate_coeffs(wider))
        assert coeffs(wider).alpha == 2.0 * coeffs(ch).alpha
        assert _hex(coeffs(dataclasses.replace(self.POSITIVE_ZERO, k2=-0.0, k4=-0.0))) == (
            _hex(coeffs(self.NEGATIVE_ZERO)))

    @pytest.mark.parametrize("ch", [reference_channel(), POSITIVE_ZERO, NEGATIVE_ZERO],
                             ids=["reference", "positive-zero", "negative-zero"])
    def test_copy_and_pickle_keep_them(self, ch):
        for twin in (copy.copy(ch), copy.deepcopy(ch), pickle.loads(pickle.dumps(ch))):
            assert twin == ch
            assert _hex(coeffs(twin)) == _hex(coeffs(ch))

    def test_fields_alone_make_the_value(self):
        ch = reference_channel()
        names = ("h", "h_tilde", "sigma_w2", "f_w", "k2", "k4")
        assert tuple(f.name for f in dataclasses.fields(ch)) == names
        assert dataclasses.asdict(ch) == {name: getattr(ch, name) for name in names}
        assert hash(ch) == hash(tuple(getattr(ch, name) for name in names))
        assert repr(ch) == ("ChannelParams(h=(1+0j), h_tilde=(1+0j), sigma_w2=0.0001, "
                            "f_w=1.0, k2=0.17, k4=19.145)")
        assert ch == ChannelParams() and ch != ChannelParams(k4=1.0)


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
            direct = _gaussian_power(coeffs(ch), pr, pi)
            assert direct == pytest.approx(via_profile, rel=1e-12)


GAINS = st.floats() | st.complex_numbers()
ZERO_OR_MORE = st.sampled_from([0.0, -0.0]) | st.floats(min_value=0.0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(h=GAINS, h_tilde=GAINS, sigma_w2=st.floats(min_value=0.0, exclude_min=True),
       f_w=st.floats(min_value=0.0, exclude_min=True), k2=ZERO_OR_MORE, k4=ZERO_OR_MORE)
def test_coeffs_never_raise_on_a_channel_that_constructs(**fields):
    """Every range check coeffs relies on is ChannelParams's own: no channel
    that constructs makes coeffs raise, however large its fields.  coeffs
    gives the formula's floats bit for bit, signed zeros and overflowed
    products included, also after a channel equal to it has been built."""
    try:
        ch = ChannelParams(**fields)
    except ValueError:
        assume(False)
    twin = ChannelParams(**{name: value + 0.0 for name, value in fields.items()})
    assert twin == ch
    assert _hex(coeffs(ch)) == _hex(_evaluate_coeffs(ch))
    assert _hex(coeffs(twin)) == _hex(_evaluate_coeffs(twin))
