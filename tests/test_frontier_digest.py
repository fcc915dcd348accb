"""Byte gate for the solver, the certificate and the sweep.

tests/golden/frontier_digests.txt holds one line per channel: its index and
a SHA-256 over float.hex of every number optimal_allocation (P_r, P_i),
kkt_check (its nine fields, the flag as True/False) and rp_region(P_a, ch,
101) return on it, and over the text of each error raised, at budgets 1.0,
0.37 and 2.5 and at perfbench's frontier target mix (15 interior, the
corner, below pdc_min and above pdc_max).  Each sweep runs twice and the
second is hashed, so the gate covers a sweep that lists the split grid
kept by the one before it as well as one that builds it.  The fixture was recorded once and
is never regenerated to make this test pass: any drift in a returned digit
is a regression.  A deliberate change of returned digits regenerates it
(`python tests/test_frontier_digest.py > tests/golden/frontier_digests.txt`)
and records the old and new values in CHANGES.md.
"""

import cmath
import hashlib
import math
from pathlib import Path

import numpy as np

from swipt.rectenna import ChannelParams
from swipt.tradeoff import kkt_check, optimal_allocation, pdc_max, pdc_min, rp_region

FIXTURE = Path(__file__).parent / "golden" / "frontier_digests.txt"
BUDGETS = (1.0, 0.37, 2.5)
SEED = 2027
# read by name, so the gate does not depend on how the report is stored
_REPORT_FIELDS = ("lambda1", "lambda2", "zeta_r", "zeta_i",
                  "stationarity_residual_Pr", "stationarity_residual_Pi",
                  "stationarity_residual_mu_r", "stationarity_residual_mu_i",
                  "complementary_slackness_ok")


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def channels():
    """The default channel, k2 = k4 = -0.0, f_w = 1e20 (a per-dimension SNR
    far below eps), and 29 seeded channels over the 50-digit properties'
    log-uniform ranges with complex gains."""
    rng = np.random.default_rng(SEED)
    out = [ChannelParams(), ChannelParams(k2=-0.0, k4=-0.0), ChannelParams(f_w=1e20)]
    for _ in range(29):
        h, h_tilde = (_log_uniform(rng, 1e-3, 1e3) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                      for _ in range(2))
        out.append(ChannelParams(
            h=h, h_tilde=h_tilde, sigma_w2=_log_uniform(rng, 1e-12, 1e2),
            f_w=_log_uniform(rng, 1e-3, 1e15), k2=_log_uniform(rng, 1e-4, 1e2),
            k4=_log_uniform(rng, 1e-4, 1e4)))
    return out


def _targets(P_a, ch, rng):
    # perfbench's frontier mix
    lo, hi = pdc_min(P_a, ch), pdc_max(P_a, ch)
    targets = [lo + (hi - lo) * (k + rng.uniform()) / 15.0 for k in range(15)]
    return targets + [hi * (1.0 - 5e-7), 0.5 * lo, hi * (1.0 + 1e-3)]


def _channel_tokens(ch, rng):
    for P_a in BUDGETS:
        for target in _targets(P_a, ch, rng):
            yield float.hex(target)
            try:
                alloc = optimal_allocation(P_a, target, ch)
                report = kkt_check(alloc, 0.0, 0.0, P_a, target, ch)
            except ValueError as exc:
                yield f"{type(exc).__name__}: {exc}"
                continue
            yield from map(float.hex, (alloc.P_r, alloc.P_i))
            yield from (str(x) if isinstance(x, bool) else float.hex(x)
                        for x in (getattr(report, name) for name in _REPORT_FIELDS))
        # the first sweep at this budget builds the split grid, the second
        # lists the grid it kept: the second is hashed
        first, second = rp_region(P_a, ch, 101), rp_region(P_a, ch, 101)
        assert second == first
        for pt in second:
            yield from (float.hex(x) for x in (pt.rate, pt.power, pt.P_r, pt.P_i))


def digest_lines():
    rng = np.random.default_rng([SEED, 1])  # the targets' draws
    lines = []
    for index, ch in enumerate(channels()):
        text = "\n".join(_channel_tokens(ch, rng))
        lines.append(f"{index} {hashlib.sha256(text.encode()).hexdigest()}")
    return lines


def test_frontier_digests_match_fixture():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    got = digest_lines()
    assert len(got) == len(expected) == 32
    moved = [e.split()[0] for e, g in zip(expected, got) if e != g]
    assert not moved, f"channels whose returned numbers moved: {moved}"


if __name__ == "__main__":
    print("\n".join(digest_lines()))
