"""Harvester front end: channel parameters, response coefficients, and the
closed-form average delivered power of a fourth-order rectifier model.

The rectifier output k2*y_rf^2 + k4*y_rf^4, averaged over the carrier and
the symbol stream, depends on the input only through P, Q and Q_tilde from
the moments module, weighted by channel-dependent coefficients.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .moments import derived_moments

__all__ = [
    "ChannelParams",
    "RectennaCoeffs",
    "coeffs",
    "delivered_power",
    "delivered_power_gaussian_zero_mean",
]


@dataclass(frozen=True)
class ChannelParams:
    """Flat-fading gains at the two sampling phases plus noise and rectifier constants.

    h applies at integer symbol times and h_tilde midway between them.  The
    two coincide for a truly flat channel but stay separate inputs because
    they play different roles: information rate sees only h, harvested power
    sees both.  sigma_w2 is the complex noise variance per sample, f_w the
    bandwidth, k2/k4 the rectifier's quadratic/quartic response weights.
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
        if not self.sigma_w2 > 0.0:
            raise ValueError("sigma_w2 must be positive")
        if not self.f_w > 0.0:
            raise ValueError("f_w must be positive")
        if not self.k2 >= 0.0:
            raise ValueError("k2 must be nonnegative")
        if not self.k4 >= 0.0:
            raise ValueError("k4 must be nonnegative")


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
    beta/beta_tilde the input power, gamma is the noise-only floor.
    """
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
    c = coeffs(ch)
    d = derived_moments(profile)
    return (c.alpha * d.Q + c.alpha_tilde * d.Q_tilde
            + (c.beta + c.beta_tilde) * d.P + c.gamma)


def delivered_power_gaussian_zero_mean(P_r, P_i, ch):
    """Fast path for zero-mean Gaussian inputs.

    There the on-sample and mid-sample fourth moments coincide at
    3*(P_r^2 + P_i^2) + 2*P_r*P_i, so the full profile machinery reduces to
    one quadratic.  Agrees with delivered_power on the matching profile to
    rounding error.  P_r and P_i may be scalars or arrays.
    """
    if np.any(P_r < 0.0) or np.any(P_i < 0.0):
        raise ValueError("powers must be nonnegative")
    c = coeffs(ch)
    fourth = 3.0 * (P_r * P_r + P_i * P_i) + 2.0 * P_r * P_i
    return ((c.alpha + c.alpha_tilde) * fourth
            + (c.beta + c.beta_tilde) * (P_r + P_i) + c.gamma)
