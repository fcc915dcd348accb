"""Correctness checks applied to every benchmark operation.

Each check returns a list of problem strings; an empty list means the
operation's output is correct.  `Tally` counts attempted and failed
operations.  Failures the package is known to have are listed in
KNOWN_FAILURES with the z band they fall in: inside that band they still
count as failed, but they do not make a run incorrect, so a later fix shows
up as a drop in the failed count.  The same operation failing any other way
(an exception, a non-finite z, a z outside the band) is a new failure.

This module imports nothing from the package, so the checks can be tested
with hand-made bad values.
"""

from __future__ import annotations

import json
import math

Z_MAX = 4.0             # Monte-Carlo estimate vs closed form, in standard errors
KKT_TOL = 1e-6          # stationarity residuals of the first-order certificate
POWER_MISS_TOL = 1e-9   # relative miss of a solved delivered-power target

_QPSK_BIAS = ((-14.0, -Z_MAX),
              "window-128 sinc truncation biases the QPSK mid-sample fourth moment "
              "(z about -6.7 to -9.1 at n=1e6)")

# Operation name -> (z band of the failure, why it fails at the package's
# current state).
KNOWN_FAILURES = {
    "mc_delivered_power/qpsk/oversampled": _QPSK_BIAS,
    "mc_delivered_power/qpsk/half_rate": _QPSK_BIAS,
    "mc_delivered_power/gaussian_symmetric/oversampled/sigma_w2=0.5":
        ((-270.0, -200.0),
         "noise bookkeeping differs between the estimators and the closed form "
         "(z about -235)"),
}


def z_score(estimate, std_error, closed_form):
    """(estimate - closed_form) / std_error; NaN without a positive std_error."""
    if not std_error > 0.0:
        return math.nan
    return (estimate - closed_form) / std_error


def is_known_failure(op_name, z):
    """True when `op_name` fails as KNOWN_FAILURES says: z inside its band."""
    entry = KNOWN_FAILURES.get(op_name)
    return entry is not None and entry[0][0] <= z <= entry[0][1]


def z_problems(estimate, std_error, closed_form):
    """|z| <= Z_MAX for a Monte-Carlo mean against its closed form."""
    if not std_error > 0.0:
        return [f"standard error {std_error!r} is not positive"]
    z = z_score(estimate, std_error, closed_form)
    if not abs(z) <= Z_MAX:
        return [f"z = {z:.3f} (|z| > {Z_MAX})"]
    return []


def power_miss_problems(delivered, target, may_exceed=False):
    """Delivered power within POWER_MISS_TOL relative of the target.

    With `may_exceed` (a target below the frontier's minimum, met with
    slack) only a shortfall counts.
    """
    miss = (target - delivered if may_exceed else abs(delivered - target)) / abs(target)
    if not miss <= POWER_MISS_TOL:
        return [f"power miss {miss:.3e} relative (> {POWER_MISS_TOL})"]
    return []


def kkt_problems(report):
    """Stationarity residuals within KKT_TOL and complementary slackness."""
    problems = []
    for name in ("stationarity_residual_Pr", "stationarity_residual_Pi",
                 "stationarity_residual_mu_r", "stationarity_residual_mu_i"):
        value = getattr(report, name)
        if not abs(value) <= KKT_TOL:
            problems.append(f"{name} = {value:.3e} (> {KKT_TOL})")
    if report.complementary_slackness_ok is not True:
        problems.append("complementary slackness violated")
    return problems


def sweep_problems(rates, powers):
    """Rate nondecreasing and power nonincreasing along a frontier sweep."""
    problems = []
    if any(b < a for a, b in zip(rates, rates[1:])):
        problems.append("sweep rate decreases")
    if any(b > a for a, b in zip(powers, powers[1:])):
        problems.append("sweep power increases")
    return problems


def infeasible_problems(outcome, infeasible_type):
    """A target above the frontier's maximum must raise `infeasible_type`."""
    if isinstance(outcome, infeasible_type):
        return []
    return [f"expected {infeasible_type.__name__}, got {outcome!r}"]


def cli_problems(returncode, stdout, reference):
    """Exit 0, byte-identical stdout, `pass: true`, and solved region targets.

    `reference` is the stdout of the first run of the same argv in this
    benchmark run, or None for that first run itself.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if reference is not None and stdout != reference:
        problems.append("stdout differs from the first run of the same argv")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if "pass" in payload and payload["pass"] is not True:
        problems.append("pass is not true")
    for target in payload.get("targets", ()):
        if not target.get("feasible"):
            problems.append(f"target {target.get('P_d')!r} reported infeasible")
        else:
            problems += power_miss_problems(target["delivered_power"], target["P_d"])
    return problems


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}       # operation name -> first problems seen
        self.unexpected = set()  # operations that failed other than as known

    def record(self, op_name, problems, known=False):
        """Count one operation; `known` marks its problems as a known failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.setdefault(op_name, problems)
            if not known:
                self.unexpected.add(op_name)

    @property
    def correct(self):
        """True when every failure seen is a known one."""
        return self.attempted > 0 and not self.unexpected
