"""Byte gate for the Monte-Carlo estimators and the interpolation kernel.

tests/golden/mc_digests.txt holds one line per case: its name and a SHA-256
over float.hex of the estimate's mean and std_error and the ints n_samples
and seed (for the kernel, over the bytes of _kernel(window)).  The cases
are mc_delivered_power for both estimators at oversample 2, 3, 5 and 8 and
window 1, 16 and 64, for the four criterion-2 inputs on the default
channel and on h = h_tilde = 0.8+0.6j, sigma_w2 = 0.05, f_w = 2.5; the
half-rate estimator on a channel with h != h_tilde; mc_q_tilde at windows
1, 16 and 128; and the kernel at windows 1, 2, 3, 127, 128 and 1000.  The
fixture was recorded once and is never regenerated to make this test pass:
any drift in a returned digit is a regression.  A deliberate change of
returned digits regenerates it
(`python tests/test_mc_digest.py > tests/golden/mc_digests.txt`) and records
the old and new values in CHANGES.md.
"""

import hashlib
from pathlib import Path

from swipt.moments import FiniteConstellation, GaussianGeneral, GaussianZeroMean
from swipt.rectenna import ChannelParams
from swipt.simulate import ESTIMATORS, _kernel, mc_delivered_power, mc_q_tilde

FIXTURE = Path(__file__).parent / "golden" / "mc_digests.txt"
SEED = 2029
N_SYMBOLS = 3001
Q_TILDE_BLOCKS = 200
OVERSAMPLES = (2, 3, 5, 8)
WINDOWS = (1, 16, 64)
Q_TILDE_WINDOWS = (1, 16, 128)
KERNEL_WINDOWS = (1, 2, 3, 127, 128, 1000)

# criterion 2's four inputs
INPUTS = {
    "sym": GaussianZeroMean(0.5, 0.5),
    "asym": GaussianZeroMean(1.0, 0.0),
    "mean": GaussianGeneral(0.5, 0.0, 0.5, 0.25),
    "qpsk": FiniteConstellation.qpsk(),
}
CHANNELS = {
    "default": ChannelParams(),
    "turned": ChannelParams(h=0.8 + 0.6j, h_tilde=0.8 + 0.6j, sigma_w2=0.05, f_w=2.5),
}
TWO_GAINS = ChannelParams(h=1.0, h_tilde=0.5j, sigma_w2=0.05, f_w=2.5)


def _estimate_hash(est):
    text = "\n".join((float.hex(est.mean), float.hex(est.std_error),
                      str(est.n_samples), str(est.seed)))
    return hashlib.sha256(text.encode()).hexdigest()


def cases():
    """(name, digest) for every case, in the fixture's order."""
    for ch_name, ch in CHANNELS.items():
        for estimator in ESTIMATORS:
            for oversample in OVERSAMPLES:
                for window in WINDOWS:
                    for name, dist in INPUTS.items():
                        est = mc_delivered_power(dist, ch, N_SYMBOLS, oversample, SEED,
                                                 window=window, estimator=estimator)
                        yield (f"{estimator}/{ch_name}/os{oversample}/w{window}/{name}",
                               _estimate_hash(est))
    for window in WINDOWS:
        for name, dist in INPUTS.items():
            est = mc_delivered_power(dist, TWO_GAINS, N_SYMBOLS, 2, SEED,
                                     window=window, estimator="half_rate")
            yield f"half_rate/two_gains/w{window}/{name}", _estimate_hash(est)
    for window in Q_TILDE_WINDOWS:
        for name, dist in INPUTS.items():
            est = mc_q_tilde(dist, Q_TILDE_BLOCKS, window, SEED)
            yield f"q_tilde/w{window}/{name}", _estimate_hash(est)
    for window in KERNEL_WINDOWS:
        yield f"kernel/w{window}", hashlib.sha256(_kernel(window).tobytes()).hexdigest()


def digest_lines():
    return [f"{name} {digest}" for name, digest in cases()]


def test_mc_digests_match_fixture():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    got = digest_lines()
    assert len(got) == len(expected) == 222
    moved = [e.split()[0] for e, g in zip(expected, got) if e != g]
    assert not moved, f"cases whose returned numbers moved: {moved}"


if __name__ == "__main__":
    print("\n".join(digest_lines()))
