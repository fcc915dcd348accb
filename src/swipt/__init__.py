"""Simultaneous wireless information and power transfer over a flat-fading
complex AWGN channel with a nonlinear (quadratic + quartic) energy harvester.

The library is organized bottom-up; import from the submodules:

* :mod:`swipt.series` — half-sample sinc coefficients and the closed-form
  constants their sums collapse to;
* :mod:`swipt.moments` — input distributions, their moment profiles and the
  mid-sample fourth moment they induce;
* :mod:`swipt.rectenna` — channel/harvester parameters and the delivered-power
  formula;
* :mod:`swipt.simulate` — seeded waveform synthesis and Monte-Carlo
  estimators cross-checking the closed forms;
* :mod:`swipt.tradeoff` — the rate/power frontier, its endpoint formulas, a
  target solver, and a first-order optimality checker;
* :mod:`swipt.cli` — the `swipt` command-line front end.

Only series, simulate and tradeoff, which build arrays, import numpy.
"""

__version__ = "0.1.0"
