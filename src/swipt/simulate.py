"""Waveform-level Monte-Carlo checks for the delivered-power formula.

Synthesizes the band-limited baseband signal from i.i.d. symbols, applies
the two-phase channel gains and per-sample noise, and estimates harvested
power and mid-sample fourth moments empirically.

Reproducibility contract: every 1000-draw block gets its own counter-based
substream (Philox keyed by seed XOR a hash of the purpose tag and block
index), and real parts are always drawn before imaginary parts.  Results are
therefore bit-identical no matter how the work is split — prefixes of the
symbol stream are even stable under changes of the total length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentProfile, derived_moments, gaussian_profile
from .rectenna import delivered_power
from .series import _integer, s_coeff

__all__ = [
    "GaussianZeroMean",
    "GaussianGeneral",
    "FiniteConstellation",
    "McEstimate",
    "ESTIMATORS",
    "profile_of",
    "draw_symbols",
    "half_sample_value",
    "mc_q_tilde",
    "mc_delivered_power",
    "mc_even_fourth_moment",
    "fourth_moment_even",
    "closed_form_delivered_power",
]

_BLOCK = 1000
# Blocks per pass of the chunked loops: the Gaussian draws' scaling and the
# fused integrand and block reduction.
_CHUNK_ROWS = 16
# Substream purpose tags; they keep symbol and noise draws independent.
_DOM_SYMBOLS = 0x01
_DOM_NOISE_EVEN = 0x02
_DOM_NOISE_ODD = 0x03
_DOM_QTILDE = 0x04
_MASK64 = (1 << 64) - 1

ESTIMATORS = ("oversampled", "half_rate")


def _mix64(x):
    # SplitMix64 finalizer: consecutive block indices land far apart in key space.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _substream_key(seed, domain, index):
    return seed ^ _mix64(((domain & 0xFF) << 56) ^ index)


def _substream(seed, domain, index):
    return np.random.Generator(np.random.Philox(key=_substream_key(seed, domain, index)))


def _substreams(seed, domain, n_blocks):
    # The generators of blocks 0 .. n_blocks-1, in order.  One Philox is
    # re-keyed through its public state setter into the state a freshly built
    # _substream(seed, domain, b) starts in: zero counter, empty buffer.
    gen = _substream(seed, domain, 0)
    fresh = gen.bit_generator.state
    for b in range(n_blocks):
        if b:
            fresh["state"]["key"][0] = _substream_key(seed, domain, b)
            gen.bit_generator.state = fresh
        yield gen


def _check_seed(seed):
    seed = _integer(seed, "seed")
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed


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
        pts = np.asarray(dist.points)
        pr = np.asarray(dist.probs)

        def moment(part, p):
            return float(np.sum(pr * part**p))

        re, im = pts.real, pts.imag
        return MomentProfile(
            moment(re, 1), moment(im, 1), moment(re, 2), moment(im, 2),
            moment(re, 3), moment(im, 3), moment(re, 4), moment(im, 4))
    raise TypeError(f"unsupported input distribution: {dist!r}")


def _draw(dist, n, seed, domain):
    # Block b of the stream comes from substream (seed, domain, b) and always
    # consumes a full _BLOCK worth of draws (a short tail is sliced), so
    # extending n never disturbs values already produced.  Within a block the
    # real parts are drawn before the imaginary parts.  Gaussian blocks are
    # drawn and scaled _CHUNK_ROWS at a time through one reused buffer.
    n_blocks = -(-n // _BLOCK)
    streams = _substreams(seed, domain, n_blocks)
    out = np.empty((n_blocks, _BLOCK), dtype=complex)
    if isinstance(dist, FiniteConstellation):
        pts, probs = np.asarray(dist.points), np.asarray(dist.probs)
        for row, gen in zip(out, streams):
            row[:] = pts[gen.choice(pts.size, size=_BLOCK, p=probs)]
        return out.reshape(-1)[:n]
    if not isinstance(dist, (GaussianZeroMean, GaussianGeneral)):
        raise TypeError(f"unsupported input distribution: {dist!r}")
    normals = np.empty((_CHUNK_ROWS, 2, _BLOCK))
    for start in range(0, n_blocks, _CHUNK_ROWS):
        chunk = normals[:n_blocks - start]
        for block, gen in zip(chunk, streams):
            gen.standard_normal(out=block)
        if isinstance(dist, GaussianZeroMean):
            re = chunk[:, 0] * math.sqrt(dist.P_r)
            im = chunk[:, 1] * math.sqrt(dist.P_i)
        else:
            re = dist.mu_r + chunk[:, 0] * math.sqrt(dist.var_r)
            im = dist.mu_i + chunk[:, 1] * math.sqrt(dist.var_i)
        out[start:start + len(chunk)] = re + 1j * im
    return out.reshape(-1)[:n]


def draw_symbols(dist, n, seed):
    """n i.i.d. symbols, deterministic in (dist, n, seed) and prefix-stable in n."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _draw(dist, n, _check_seed(seed), _DOM_SYMBOLS)


@functools.cache
def _kernel(window):
    # taps s_{-window} .. s_{window}, convolution-ordered; shared, so read-only
    kern = s_coeff(np.arange(-window, window + 1))
    kern.flags.writeable = False
    return kern


@functools.lru_cache(maxsize=1)
def _kernel_spectrum(window, size):
    spectrum = np.fft.rfft(_kernel(window), size)
    spectrum.flags.writeable = False
    return spectrum


def half_sample_value(symbols, k, window):
    """Mid-sample value X((k+1/2)/f_w) from the symbols with |n - k| <= window.

    The exact interpolation needs every symbol; the truncated mixture uses
    2*window+1 symbols around k, and k too close to the array edge is
    rejected rather than silently zero-padded.
    """
    symbols = np.asarray(symbols)
    window = _integer(window, "window")
    if window < 1:
        raise ValueError("window must be >= 1")
    k = _integer(k, "k")
    if k - window < 0 or k + window >= symbols.size:
        raise ValueError("k too close to the symbol-array edge for this window")
    segment = symbols[k - window:k + window + 1]
    # X~_k = sum_j X_{k+j} s_{-j}: the reversed kernel against the segment.
    return complex(np.dot(segment, _kernel(window)[::-1]))


def _half_samples(symbols, window):
    # Truncated mid-sample interpolation at every index; entries within
    # `window` of either edge see zero-padding and must be discarded by the
    # caller (the guard regions below).  The kernel is real, so the real and
    # imaginary parts are convolved separately by real FFTs, at a power-of-two
    # length covering the full linear convolution.
    n = symbols.size
    size = 1 << (n + 2 * window - 1).bit_length()
    kern_spectrum = _kernel_spectrum(window, size)
    out = np.empty(n, dtype=complex)
    for part, dest in ((symbols.real, out.real), (symbols.imag, out.imag)):
        dest[:] = np.fft.irfft(np.fft.rfft(part, size) * kern_spectrum,
                               size)[window:window + n]
    return out


def _pad_spectrum(spectrum, num):
    # The spectrum of an even-length sequence zero-padded to num >= its length
    # and scaled by num / length while it is copied, ready for the inverse
    # FFT.  On a longer grid the unpaired Nyquist bin is split in half between
    # +/- the old Nyquist frequency; it is halved in `spectrum` itself.
    size = spectrum.size
    half = size // 2
    if num > size:
        spectrum[half] /= 2
    scale = size / num
    padded = np.zeros(num, dtype=complex)
    np.divide(spectrum[:half + 1], scale, out=padded[:half + 1])
    np.divide(spectrum[half + 1:], scale, out=padded[num - half + 1:])
    if num > size:
        padded[num - half] = padded[half]
    return padded


def _upsample(x, num):
    # Band-limited interpolation of an even-length sequence onto num >= x.size
    # points by zero-padding its spectrum; x is left unchanged.
    padded = _pad_spectrum(np.fft.fft(x), num)
    return np.fft.ifft(padded, out=padded)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error over independent blocks."""

    mean: float
    std_error: float
    n_samples: int
    seed: int


def mc_q_tilde(dist, n_blocks, window, seed):
    """Monte-Carlo estimate of the mid-sample fourth moment E[|X~|^4].

    Draws n_blocks*(2*window+1) symbols from the q-tilde stream, which has
    the same block layout as draw_symbols under its own purpose tag, and cuts
    them into consecutive blocks of 2*window+1.  Each block contributes one
    |X~|^4 value, so block values are i.i.d. and the reported standard error
    is exact.
    """
    n_blocks = _integer(n_blocks, "n_blocks")
    if n_blocks < 100:
        raise ValueError("n_blocks must be >= 100")
    window = _integer(window, "window")
    if window < 1:
        raise ValueError("window must be >= 1")
    seed = _check_seed(seed)
    count = 2 * window + 1
    blocks = _draw(dist, n_blocks * count, seed, _DOM_QTILDE).reshape(n_blocks, count)
    values = np.abs(blocks @ _kernel(window)[::-1]) ** 4
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n_blocks))
    return McEstimate(mean, std_error, n_blocks, seed)


def _draw_noise(n, sigma_w2, seed, domain):
    # circularly symmetric complex Gaussian, variance sigma_w2 per sample
    return _draw(GaussianZeroMean(0.5 * sigma_w2, 0.5 * sigma_w2), n, seed, domain)


def _integrand(y, ch):
    # Second-order term counted once per sampling phase (twice the pooled
    # mean), quartic term pooled once: the bookkeeping the closed-form
    # coefficients encode.  See mc_delivered_power for the consequences.
    power = y.real**2 + y.imag**2
    return 2.0 * ch.k2 * power + 1.5 * ch.k4 * power * power


def _integrand_means(y, ch, row_len, f_w=1.0):
    # Row means of _integrand(y) / f_w with y cut into rows of row_len.  The
    # rows are evaluated _CHUNK_ROWS at a time, so no temporary as long as y
    # is built, and each row sees the same operations in the same order as a
    # whole-array evaluation: the means are bit-identical to it.
    n_rows = y.size // row_len
    means = np.empty(n_rows)
    for row in range(0, n_rows, _CHUNK_ROWS):
        values = _integrand(y[row * row_len:(row + _CHUNK_ROWS) * row_len], ch) / f_w
        values.reshape(-1, row_len).mean(axis=1, out=means[row:row + _CHUNK_ROWS])
    return means


def _blocking(interior):
    # Standard-error blocks: 1000 symbols when there is room, else a tenth
    # of the interior so at least ~10 blocks remain.
    if interior >= 10_000:
        block_len = 1000
    else:
        block_len = max(1, interior // 10)
    n_blocks = interior // block_len
    if n_blocks < 2:
        raise ValueError("not enough interior symbols for a standard error")
    return block_len, n_blocks


def mc_delivered_power(dist, ch, n_symbols, oversample, seed,
                       window=128, estimator="oversampled"):
    """Empirical harvested power from a synthesized noisy waveform.

    Integer-time outputs are h*X_k + W_k; mid-sample outputs are
    h_tilde*X~_k + W~_k with X~ the truncated sinc mixture and W~ an
    independent noise draw.  Two estimators of the time average of
    2*k2*|y|^2 + (3/2)*k4*|y|^4, divided by f_w:

    * "half_rate" pools the two sampling phases directly;
    * "oversampled" band-limited-interpolates the interleaved sequence onto
      `oversample` points per symbol and averages there.  oversample >= 4
      keeps the quartic term alias-free; below 2 even the squared envelope
      aliases, so that is rejected.

    The second-order term is weighted once per sampling phase while the
    quartic term is pooled across phases, matching how the closed-form
    coefficients weight input power against the fourth moments.  Two small
    systematic offsets follow and are asserted by the test suite: the
    noise-only floor is (2*k2*sigma_w2 + 3*k4*sigma_w2^2)/f_w, twice the
    closed form's quadratic noise term, and the noise-times-power cross term
    enters at half the closed form's weight; both are O(sigma_w2) relative
    to the signal terms.  Truncating the interpolation to `window` symbols
    per side biases the mid-sample fourth moment by O(1/window).

    A guard of `window` symbols at each end is excluded from the averages so
    sinc truncation and the periodic wrap of the interpolation never touch
    them.  The standard error comes from means over 1000-symbol blocks.

    Memory: the oversampled estimator peaks at one n*oversample complex grid
    (16*n*oversample bytes) plus the FFT's scratch; the symbols, mid-samples
    and both phase sequences are released before the grid's inverse FFT, and
    the integrand is reduced a few blocks at a time.  The half-rate estimator
    holds a few length-n arrays.
    """
    n = _integer(n_symbols, "n_symbols")
    if n < 1000:
        raise ValueError("n_symbols must be >= 1000")
    oversample = _integer(oversample, "oversample")
    if oversample < 2:
        raise ValueError(
            "oversample must be >= 2: the squared envelope has twice the "
            "signal bandwidth")
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    window = _integer(window, "window")
    if window < 1:
        raise ValueError("window must be >= 1")
    seed = _check_seed(seed)
    lo, hi = window, n - window
    if hi - lo < 10:
        raise ValueError("n_symbols too small for the edge guard")

    symbols = draw_symbols(dist, n, seed)
    mid = _half_samples(symbols, window)
    y_even = ch.h * symbols + _draw_noise(n, ch.sigma_w2, seed, _DOM_NOISE_EVEN)
    del symbols
    y_mid = ch.h_tilde * mid + _draw_noise(n, ch.sigma_w2, seed, _DOM_NOISE_ODD)
    del mid

    block_len, n_blocks = _blocking(hi - lo)
    hi = lo + n_blocks * block_len  # whole blocks only

    if estimator == "half_rate":
        even_means = _integrand_means(y_even[lo:hi], ch, block_len)
        mid_means = _integrand_means(y_mid[lo:hi], ch, block_len)
        block_means = 0.5 * (even_means + mid_means) / ch.f_w
        n_used = 2 * n_blocks * block_len
    else:
        interleaved = np.empty(2 * n, dtype=complex)
        interleaved[0::2] = y_even
        interleaved[1::2] = y_mid
        del y_even, y_mid
        # the forward FFT overwrites the interleaved buffer, which is then
        # dropped: the padded grid is the only large array at the inverse FFT
        padded = _pad_spectrum(np.fft.fft(interleaved, out=interleaved), n * oversample)
        del interleaved
        fine = np.fft.ifft(padded, out=padded)
        block_means = _integrand_means(fine[lo * oversample:hi * oversample], ch,
                                       block_len * oversample, ch.f_w)
        n_used = n_blocks * block_len * oversample

    mean = float(block_means.mean())
    std_error = float(block_means.std(ddof=1) / math.sqrt(n_blocks))
    return McEstimate(mean, std_error, n_used, seed)


def mc_even_fourth_moment(dist, ch, n_symbols, seed):
    """Empirical fourth moment E[|Y_k|^4] of the integer-time channel output."""
    n = _integer(n_symbols, "n_symbols")
    if n < 1000:
        raise ValueError("n_symbols must be >= 1000")
    seed = _check_seed(seed)
    symbols = draw_symbols(dist, n, seed)
    y = ch.h * symbols + _draw_noise(n, ch.sigma_w2, seed, _DOM_NOISE_EVEN)
    power = y.real**2 + y.imag**2
    block_len, n_blocks = _blocking(n)
    vals = (power * power)[:n_blocks * block_len]
    block_means = vals.reshape(n_blocks, block_len).mean(axis=1)
    mean = float(block_means.mean())
    std_error = float(block_means.std(ddof=1) / math.sqrt(n_blocks))
    return McEstimate(mean, std_error, n_blocks * block_len, seed)


def fourth_moment_even(profile, ch):
    """Closed-form E[|Y_k|^4] at integer sample times:
    |h|^4*Q + 4*sigma_w2*|h|^2*P + 2*sigma_w2^2."""
    d = derived_moments(profile)
    h2 = abs(ch.h) ** 2
    return h2 * h2 * d.Q + 4.0 * ch.sigma_w2 * h2 * d.P + 2.0 * ch.sigma_w2**2


def closed_form_delivered_power(dist, ch):
    """Delivered power predicted by the coefficient formula for a distribution."""
    return delivered_power(profile_of(dist), ch)
