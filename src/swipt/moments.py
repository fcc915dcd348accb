"""Channel inputs, their moment profiles and derived fourth-moment quantities.

Average harvested power for an i.i.d. input depends on the distribution only
through eight numbers: the first through fourth moments of the real and
imaginary parts.  The input distributions live here with profile_of, their
exact profiles.  MomentProfile carries the eight moments, validates the
inequalities any real distribution must satisfy, and the functions here
derive the aggregate quantities the power formula consumes — including the
fourth moment of the half-sample interpolated stream, which mixes many
symbols and therefore differs from the on-sample fourth moment.

Everything here is plain Python: the closed forms need no numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "GaussianZeroMean",
    "GaussianGeneral",
    "FiniteConstellation",
    "MomentProfile",
    "DerivedMoments",
    "profile_of",
    "q_tilde",
    "derived_moments",
    "gaussian_profile",
]

_FIELDS = ("mu_r", "mu_i", "P_r", "P_i", "T_r", "T_i", "Q_r", "Q_i")
_REL_SLACK = 1e-12  # float headroom for the moment inequalities


@dataclass(frozen=True)
class MomentProfile:
    """Per-dimension moments E[X^p], p = 1..4, of a complex channel input.

    mu/P/T/Q are the first/second/third/fourth moments; the _r/_i suffix
    picks the real or imaginary part.  Construction rejects moment sets no
    distribution can produce, since the downstream formulas silently emit
    garbage for them.  Per dimension, the Hankel matrix [[1, mu, P],
    [mu, P, T], [P, T, Q]] must be positive semidefinite (Curto & Fialkow
    1991): its LDL^T pivots var = P - mu^2 and (Q - P^2) - (T - mu*P)^2/var
    are nonnegative, the last tested as |T - mu*P| <= sqrt(var)*sqrt(Q - P^2),
    whose terms stay finite for any real distribution.  Where P is exactly 0
    the part is the point 0, so Q must be 0 too; a var merely within rounding
    of 0 is not tested so, since a rare point of a real distribution can give
    it a Q far above P^2.  Each rule grants the moments 1e-12 of relative
    headroom.
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
        for dim, mu, p, t, q in (("r", self.mu_r, self.P_r, self.T_r, self.Q_r),
                                 ("i", self.mu_i, self.P_i, self.T_i, self.Q_i)):
            if p < 0.0 or q < 0.0:
                raise ValueError(f"negative even moment in dimension {dim}")
            var, spread = p - mu * mu, q - p * p
            if var < -_REL_SLACK * max(1.0, p):
                raise ValueError(
                    f"variance violation: P_{dim} < mu_{dim}^2 ({p} < {mu * mu})")
            if spread < -_REL_SLACK * max(1.0, q):
                raise ValueError(
                    f"Jensen violation: Q_{dim} < P_{dim}^2 ({q} < {p * p})")
            if p == 0.0 and q > _REL_SLACK:
                raise ValueError(
                    f"moment violation: P_{dim} = 0 makes dimension {dim} the point 0, "
                    f"so Q_{dim} must be 0, got {q}")
            lag = abs(t - mu * p)
            bound = _REL_SLACK * max(1.0, abs(t)) + (
                math.sqrt(var + _REL_SLACK * max(1.0, p))
                * math.sqrt(spread + _REL_SLACK * max(1.0, q)))
            if lag > bound:
                raise ValueError(
                    f"moment violation: Hankel determinant in dimension {dim} is "
                    f"negative: |T_{dim} - mu_{dim}*P_{dim}| = {lag} > {bound}")


@dataclass(frozen=True)
class DerivedMoments:
    """Aggregates feeding the power formula.

    P, Q are total second/fourth moments of the complex symbol; Q_tilde the
    fourth moment of the half-sample interpolated stream.
    """

    P: float
    Q: float
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
    return DerivedMoments(total_p, total_q, q_tilde(p))


def _pow(x, k):
    # x**k, or the inf of a product where ** overflows: MomentProfile names it
    try:
        return x**k
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def gaussian_profile(mu_r, mu_i, var_r, var_i):
    """Moment profile of a complex Gaussian with independent parts."""
    if var_r < 0.0 or var_i < 0.0:
        raise ValueError("variances must be nonnegative")

    def one_dim(mu, var):
        p = mu * mu + var
        t = _pow(mu, 3) + 3.0 * mu * var
        q = _pow(mu, 4) + 6.0 * mu * mu * var + 3.0 * var * var
        return p, t, q

    p_r, t_r, q_r = one_dim(mu_r, var_r)
    p_i, t_i, q_i = one_dim(mu_i, var_i)
    return MomentProfile(mu_r, mu_i, p_r, p_i, t_r, t_i, q_r, q_i)


@dataclass(frozen=True)
class GaussianZeroMean:
    """Zero-mean complex Gaussian, independent parts with powers P_r, P_i."""

    P_r: float
    P_i: float

    def __post_init__(self):
        # chained comparisons: as cheap as a sign check, and false for NaN
        if not (0.0 <= self.P_r < math.inf and 0.0 <= self.P_i < math.inf):
            raise ValueError("powers must be finite and nonnegative")


@dataclass(frozen=True)
class GaussianGeneral:
    """Complex Gaussian with per-dimension means and variances."""

    mu_r: float
    mu_i: float
    var_r: float
    var_i: float

    def __post_init__(self):
        if not (math.isfinite(self.mu_r) and math.isfinite(self.mu_i)):
            raise ValueError("means must be finite")
        if not (0.0 <= self.var_r < math.inf and 0.0 <= self.var_i < math.inf):
            raise ValueError("variances must be finite and nonnegative")


@dataclass(frozen=True)
class FiniteConstellation:
    """Discrete symbol set with probabilities summing to one; probs None
    means equiprobable."""

    points: tuple[complex, ...]
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        if not pts:
            raise ValueError("constellation must be nonempty")
        pr = ((1.0 / len(pts),) * len(pts) if self.probs is None
              else tuple(float(p) for p in self.probs))
        if len(pts) != len(pr):
            raise ValueError("points and probs must have the same length")
        if not all(math.isfinite(p.real) and math.isfinite(p.imag) for p in pts):
            raise ValueError("points must be finite")
        if not all(0.0 <= p < math.inf for p in pr):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(math.fsum(pr) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    @staticmethod
    def qpsk():
        """Unit-power four-point constellation (+-1 +-1j)/sqrt(2), equiprobable."""
        r = 1.0 / math.sqrt(2.0)
        points = (complex(r, r), complex(r, -r), complex(-r, r), complex(-r, -r))
        return FiniteConstellation(points)


def profile_of(dist):
    """Exact moment profile of an input distribution."""
    if isinstance(dist, GaussianZeroMean):
        return gaussian_profile(0.0, 0.0, dist.P_r, dist.P_i)
    if isinstance(dist, GaussianGeneral):
        return gaussian_profile(dist.mu_r, dist.mu_i, dist.var_r, dist.var_i)
    if isinstance(dist, FiniteConstellation):
        re = [x.real for x in dist.points]
        im = [x.imag for x in dist.points]

        def moment(part, k):
            # a point never drawn adds nothing, not 0 * inf = nan
            return sum(p * _pow(x, k) for p, x in zip(dist.probs, part) if p)

        return MomentProfile(
            moment(re, 1), moment(im, 1), moment(re, 2), moment(im, 2),
            moment(re, 3), moment(im, 3), moment(re, 4), moment(im, 4))
    raise TypeError(f"unsupported input distribution: {dist!r}")


def _integer(value, name, lo=-math.inf, hi=math.inf):
    # The one size rule: an integer from lo to hi.  Integral floats such as
    # 2e5 are accepted; 2.9 is an error, not 2.  numpy registers its scalar
    # types with numbers, so np.float32(2.5) is an error too.
    if (isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral)
            and not float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if value > hi:
        raise ValueError(f"{name} must be at most {hi}, got {value}")
    return value


def _check_seed(seed):
    seed = _integer(seed, "seed")
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed
