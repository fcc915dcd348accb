"""Harvester front end: channel parameters, response coefficients, and the
closed-form average delivered power of a fourth-order rectifier model.

The rectifier output k2*y_rf^2 + k4*y_rf^4, averaged over the carrier and
the symbol stream, depends on the input only through P, Q and Q_tilde from
the moments module, weighted by channel-dependent coefficients.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .moments import derived_moments

__all__ = [
    "ChannelParams",
    "RectennaCoeffs",
    "coeffs",
    "delivered_power",
]


@dataclass(frozen=True)
class ChannelParams:
    """Flat-fading gains at the two sampling phases plus noise and rectifier constants.

    h applies at integer symbol times and h_tilde midway between them.  The
    two coincide for a truly flat channel but stay separate inputs because
    they play different roles: information rate sees only h, harvested power
    sees both.  sigma_w2 is the complex noise variance per sample, f_w the
    bandwidth, k2/k4 the rectifier's quadratic/quartic response weights.

    The response coefficients are computed once, when the channel is built,
    and kept on the instance outside the six fields, so ==, hash, repr,
    asdict and replace see only the fields; coeffs returns that record.
    They belong to the instance, not to its value: channels that compare
    equal can differ in signed zeros, and so in their coefficients.
    """

    h: complex = 1.0 + 0.0j
    h_tilde: complex = 1.0 + 0.0j
    sigma_w2: float = 1e-4
    f_w: float = 1.0
    k2: float = 0.17
    k4: float = 19.145

    def __post_init__(self):
        object.__setattr__(self, "h", complex(self.h))
        object.__setattr__(self, "h_tilde", complex(self.h_tilde))
        for name in ("h", "h_tilde", "sigma_w2", "f_w", "k2", "k4"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValueError(f"channel field {name} must be finite, got {value!r}")
        for name in ("h", "h_tilde", "sigma_w2"):
            try:  # as coeffs squares it
                abs(getattr(self, name)) ** 2
            except OverflowError:
                raise ValueError(f"channel field {name} overflows when squared, "
                                 f"got {getattr(self, name)!r}") from None
        if not self.sigma_w2 > 0.0:
            raise ValueError("sigma_w2 must be positive")
        if not self.f_w > 0.0:
            raise ValueError("f_w must be positive")
        if not self.k2 >= 0.0:
            raise ValueError("k2 must be nonnegative")
        if not self.k4 >= 0.0:
            raise ValueError("k4 must be nonnegative")
        object.__setattr__(self, "_coeffs", _evaluate_coeffs(self))


@dataclass(frozen=True)
class RectennaCoeffs:
    """Weights of the delivered-power form alpha*Q + alpha_tilde*Q_tilde
    + (beta + beta_tilde)*P + gamma."""

    alpha: float
    alpha_tilde: float
    beta: float
    beta_tilde: float
    gamma: float


def coeffs(ch):
    """Response coefficients for a channel.

    alpha/alpha_tilde weight the on-sample and mid-sample fourth moments,
    beta/beta_tilde the input power, gamma is the noise-only floor.  The
    record is computed once, when the ChannelParams is built, and returned
    as is.  It is kept per instance, not looked up by the channel's value:
    channels that compare and hash equal can differ in signed zeros, and
    k2 = k4 = -0.0 gives -0.0 coefficients where k2 = k4 = 0.0 gives 0.0.
    """
    return ch._coeffs


def _evaluate_coeffs(ch):
    # the formula behind coeffs, run once per channel by its __post_init__
    h2 = abs(ch.h) ** 2
    ht2 = abs(ch.h_tilde) ** 2
    inv_fw = 1.0 / ch.f_w
    second_order = ch.k2 + 6.0 * ch.k4 * ch.sigma_w2
    return RectennaCoeffs(
        alpha=0.75 * ch.k4 * h2 * h2 * inv_fw,
        alpha_tilde=0.75 * ch.k4 * ht2 * ht2 * inv_fw,
        beta=second_order * h2 * inv_fw,
        beta_tilde=second_order * ht2 * inv_fw,
        gamma=(ch.k2 * ch.sigma_w2 + 3.0 * ch.k4 * ch.sigma_w2**2) * inv_fw,
    )


def delivered_power(profile, ch):
    """Average harvested power for an i.i.d. input given by its moment profile."""
    return _power(coeffs(ch), derived_moments(profile))


def _power(c, d):
    return (c.alpha * d.Q + c.alpha_tilde * d.Q_tilde
            + (c.beta + c.beta_tilde) * d.P + c.gamma)


def _gaussian_power(c, P_r, P_i):
    # Zero-mean Gaussian input under coefficients c: the on-sample and
    # mid-sample fourth moments coincide at 3*(P_r^2 + P_i^2) + 2*P_r*P_i,
    # so the delivered power is one quadratic in the per-dimension powers.
    # Elementwise, so the sweep passes arrays; callers check the powers.
    fourth = 3.0 * (P_r * P_r + P_i * P_i) + 2.0 * P_r * P_i
    return ((c.alpha + c.alpha_tilde) * fourth
            + (c.beta + c.beta_tilde) * (P_r + P_i) + c.gamma)


def _budget(c, P_a, P_d=0.0):
    # The budget rule: P_a is positive and finite, and the delivered power
    # with all of it on one axis, the largest of any split, is a float, so
    # every split's power is; a power target P_d is finite.  Returns P_a as a
    # Python float, so no numpy scalar warns on the way, and the corner power.
    if not (cmath.isfinite(P_a) and P_a > 0.0):
        raise ValueError(f"P_a must be positive and finite, got {P_a!r}")
    P_a = float(P_a)
    corner = _gaussian_power(c, P_a, 0.0)
    if not cmath.isfinite(corner):
        raise ValueError(f"P_a = {P_a!r} overflows the delivered power on this channel")
    if not cmath.isfinite(P_d):
        raise ValueError(f"P_d must be finite, got {P_d!r}")
    return P_a, corner
