"""Channel-input moment profiles and derived fourth-moment quantities.

Average harvested power for an i.i.d. input depends on the distribution only
through eight numbers: the first through fourth moments of the real and
imaginary parts.  MomentProfile carries those, validates the inequalities any
real distribution must satisfy, and the functions here derive the aggregate
quantities the power formula consumes — including the fourth moment of the
half-sample interpolated stream, which mixes many symbols and therefore
differs from the on-sample fourth moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MomentProfile",
    "DerivedMoments",
    "q_tilde",
    "derived_moments",
    "gaussian_profile",
    "empirical_profile",
]

_FIELDS = ("mu_r", "mu_i", "P_r", "P_i", "T_r", "T_i", "Q_r", "Q_i")
_REL_SLACK = 1e-12  # float headroom for the moment inequalities


@dataclass(frozen=True)
class MomentProfile:
    """Per-dimension moments E[X^p], p = 1..4, of a complex channel input.

    mu/P/T/Q are the first/second/third/fourth moments; the _r/_i suffix
    picks the real or imaginary part.  Construction rejects moment sets no
    distribution can produce, since the downstream formulas silently emit
    garbage for them.
    """

    mu_r: float
    mu_i: float
    P_r: float
    P_i: float
    T_r: float
    T_i: float
    Q_r: float
    Q_i: float

    def __post_init__(self):
        for name in _FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"moment {name} must be finite, got {value!r}")
        # Each dimension's Hankel matrix [[1, mu, P], [mu, P, T], [P, T, Q]]
        # must be positive semidefinite (Curto & Fialkow 1991): all its
        # principal minors are nonnegative, up to float headroom scaled by
        # the size of the terms in each minor.
        for dim, mu, p, t, q in (("r", self.mu_r, self.P_r, self.T_r, self.Q_r),
                                 ("i", self.mu_i, self.P_i, self.T_i, self.Q_i)):
            if p < 0.0 or q < 0.0:
                raise ValueError(f"negative even moment in dimension {dim}")
            if p - mu * mu < -_REL_SLACK * max(1.0, p):
                raise ValueError(
                    f"variance violation: P_{dim} < mu_{dim}^2 ({p} < {mu * mu})")
            if q - p * p < -_REL_SLACK * max(1.0, q):
                raise ValueError(
                    f"Jensen violation: Q_{dim} < P_{dim}^2 ({q} < {p * p})")
            pq, tt = p * q, t * t
            if pq - tt < -_REL_SLACK * max(1.0, pq, tt):
                raise ValueError(
                    f"moment violation: P_{dim}*Q_{dim} < T_{dim}^2 ({pq} < {tt})")
            cross = 2.0 * mu * t * p
            det = pq - tt - mu * mu * q + cross - p * p * p
            if det < -_REL_SLACK * max(1.0, pq, tt, mu * mu * q, abs(cross), p * p * p):
                raise ValueError(
                    f"moment violation: Hankel determinant in dimension {dim} "
                    f"is negative ({det})")

    def swapped(self):
        """The same input with real and imaginary dimensions exchanged."""
        return MomentProfile(self.mu_i, self.mu_r, self.P_i, self.P_r,
                             self.T_i, self.T_r, self.Q_i, self.Q_r)


@dataclass(frozen=True)
class DerivedMoments:
    """Aggregates feeding the power formula.

    P, Q are total second/fourth moments of the complex symbol; mu the
    complex mean; P_bar = E[X^2] and T_bar = E[|X|^2 X] the pseudo-moments;
    Q_tilde the fourth moment of the half-sample interpolated stream.
    """

    P: float
    Q: float
    mu: complex
    P_bar: complex
    T_bar: complex
    Q_tilde: float


def q_tilde(profile):
    """Fourth moment E[|X~|^4] of the half-sample interpolation X~ = sum X_n s_{k-n}.

    For i.i.d. symbols with independent parts the mixture collapses to
    (1/3)[Q_r + Q_i + 2(mu_r T_r + mu_i T_i) + 6 P_r P_i
          + 6 P_r (P_r - mu_r^2) + 6 P_i (P_i - mu_i^2)].
    """
    p = profile
    return (p.Q_r + p.Q_i
            + 2.0 * (p.mu_r * p.T_r + p.mu_i * p.T_i)
            + 6.0 * p.P_r * p.P_i
            + 6.0 * p.P_r * (p.P_r - p.mu_r * p.mu_r)
            + 6.0 * p.P_i * (p.P_i - p.mu_i * p.mu_i)) / 3.0


def derived_moments(profile):
    """DerivedMoments for a valid profile."""
    p = profile
    total_p = p.P_r + p.P_i
    total_q = p.Q_r + p.Q_i + 2.0 * p.P_r * p.P_i
    mu = complex(p.mu_r, p.mu_i)
    p_bar = complex(p.P_r - p.P_i, 2.0 * p.mu_r * p.mu_i)
    t_bar = complex(p.T_r + p.mu_r * p.P_i, p.P_r * p.mu_i + p.T_i)
    return DerivedMoments(total_p, total_q, mu, p_bar, t_bar, q_tilde(p))


def gaussian_profile(mu_r, mu_i, var_r, var_i):
    """Moment profile of a complex Gaussian with independent parts."""
    if var_r < 0.0 or var_i < 0.0:
        raise ValueError("variances must be nonnegative")

    def one_dim(mu, var):
        p = mu * mu + var
        t = mu**3 + 3.0 * mu * var
        q = mu**4 + 6.0 * mu * mu * var + 3.0 * var * var
        return p, t, q

    p_r, t_r, q_r = one_dim(mu_r, var_r)
    p_i, t_i, q_i = one_dim(mu_i, var_i)
    return MomentProfile(mu_r, mu_i, p_r, p_i, t_r, t_i, q_r, q_i)


def empirical_profile(samples):
    """Plain sample moments of the real and imaginary parts.

    No bias correction: at the sample sizes used here the difference is
    negligible and the estimator definition stays transparent.
    """
    arr = np.asarray(samples, dtype=complex).ravel()
    if arr.size < 2:
        raise ValueError("need at least 2 samples")
    moments = []
    for part in (arr.real, arr.imag):
        moments.append([float(np.mean(part**p)) for p in (1, 2, 3, 4)])
    (mu_r, p_r, t_r, q_r), (mu_i, p_i, t_i, q_i) = moments
    return MomentProfile(mu_r, mu_i, p_r, p_i, t_r, t_i, q_r, q_i)
