"""Simultaneous wireless information and power transfer over a flat-fading
complex AWGN channel with a nonlinear (quadratic + quartic) energy harvester.

The library is organized bottom-up:

* :mod:`swipt.series` — half-sample sinc coefficients and the closed-form
  constants their sums collapse to;
* :mod:`swipt.moments` — input moment profiles and the mid-sample fourth
  moment they induce;
* :mod:`swipt.rectenna` — channel/harvester parameters and the delivered-power
  formula;
* :mod:`swipt.simulate` — seeded waveform synthesis and Monte-Carlo estimators
  cross-checking the closed forms;
* :mod:`swipt.tradeoff` — the rate/power frontier, its endpoint formulas, a
  target solver, and a first-order optimality checker;
* :mod:`swipt.cli` — the `swipt` command-line front end.
"""

from .moments import (
    DerivedMoments,
    MomentProfile,
    derived_moments,
    empirical_profile,
    gaussian_profile,
    q_tilde,
)
from .rectenna import (
    ChannelParams,
    RectennaCoeffs,
    coeffs,
    delivered_power,
    delivered_power_gaussian_zero_mean,
)
from .series import (
    SERIES_IDS,
    SeriesReport,
    analytic_value,
    evaluate,
    partial_sum,
    s_coeff,
    verify,
)
from .simulate import (
    ESTIMATORS,
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    McEstimate,
    closed_form_delivered_power,
    draw_symbols,
    fourth_moment_even,
    half_sample_value,
    mc_delivered_power,
    mc_even_fourth_moment,
    mc_q_tilde,
    profile_of,
)
from .tradeoff import (
    Infeasible,
    KktReport,
    PowerAllocation,
    RPPoint,
    kkt_check,
    optimal_allocation,
    pdc_max,
    pdc_min,
    rate_gaussian,
    rp_region,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "SERIES_IDS", "SeriesReport", "s_coeff", "analytic_value", "partial_sum",
    "evaluate", "verify",
    # moments
    "MomentProfile", "DerivedMoments", "q_tilde",
    "derived_moments", "gaussian_profile", "empirical_profile",
    # rectenna
    "ChannelParams", "RectennaCoeffs", "coeffs", "delivered_power",
    "delivered_power_gaussian_zero_mean",
    # simulate
    "ESTIMATORS", "GaussianZeroMean", "GaussianGeneral", "FiniteConstellation",
    "McEstimate", "profile_of", "draw_symbols", "half_sample_value",
    "mc_q_tilde", "mc_delivered_power", "mc_even_fourth_moment",
    "fourth_moment_even", "closed_form_delivered_power",
    # tradeoff
    "Infeasible", "PowerAllocation", "RPPoint", "KktReport", "rate_gaussian",
    "pdc_min", "pdc_max", "optimal_allocation", "rp_region", "kkt_check",
]
