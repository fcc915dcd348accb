"""Waveform-level Monte-Carlo checks for the delivered-power formula.

Synthesizes the band-limited baseband signal from i.i.d. symbols, applies
the two-phase channel gains and per-sample noise, and estimates harvested
power and mid-sample fourth moments empirically (the integer-time one is
a test oracle).  The input distributions and profile_of are defined in
swipt.moments and imported from there.

Reproducibility contract: every 1000-draw block gets its own counter-based
substream (Philox keyed by seed XOR a hash of the purpose tag and block
index), and real parts are always drawn before imaginary parts.  Results are
therefore bit-identical no matter how the work is split — prefixes of the
symbol stream are even stable under changes of the total length.  Each draw
shares its blocks out over up to two threads, one per usable CPU, and gives
the same bytes at any thread count.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .moments import (
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    _check_seed,
    _integer,
    profile_of,
)
from .rectenna import delivered_power
from .series import _s_first

__all__ = [
    "McEstimate",
    "ESTIMATORS",
    "mc_q_tilde",
    "mc_delivered_power",
    "closed_form_delivered_power",
]

_BLOCK = 1000
# Rows per pass of the chunked loops: blocks in the Gaussian draws' scaling
# and in the fused integrand and block reduction, frames in the mid-sample
# convolution.
_CHUNK_ROWS = 16
# Substream purpose tags; they keep symbol and noise draws independent.
_DOM_SYMBOLS = 0x01
_DOM_NOISE_EVEN = 0x02
_DOM_NOISE_ODD = 0x03
_DOM_QTILDE = 0x04
_MASK64 = (1 << 64) - 1

ESTIMATORS = ("oversampled", "half_rate")

# Threads that share one stream's draws: two at most, one per usable CPU.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


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


def _substreams(seed, domain, n_blocks, start):
    # The generators of blocks start .. start+n_blocks-1, in order.  One
    # Philox is re-keyed through its public state setter into the state a
    # freshly built _substream(seed, domain, b) starts in: zero counter,
    # empty buffer.
    gen = _substream(seed, domain, start)
    fresh = gen.bit_generator.state
    for b in range(start, start + n_blocks):
        if b > start:
            fresh["state"]["key"][0] = _substream_key(seed, domain, b)
            gen.bit_generator.state = fresh
        yield gen


def _fill_constellation(dist, rows, seed, domain, start):
    # Generator.choice with probabilities, inlined: the block's uniforms,
    # drawn by random(), which fills without holding the GIL where choice
    # holds it, searched in the cumulative table choice builds.  The
    # indices are in range, so take may clip instead of buffering.
    pts = np.asarray(dist.points)
    cdf = np.asarray(dist.probs).cumsum()
    cdf /= cdf[-1]
    uniforms = np.empty((_CHUNK_ROWS, _BLOCK))
    streams = _substreams(seed, domain, len(rows), start)
    for first in range(0, len(rows), _CHUNK_ROWS):
        chunk = uniforms[:len(rows) - first]
        for block, gen in zip(chunk, streams):
            gen.random(out=block)
        np.take(pts, cdf.searchsorted(chunk, side="right"), mode="clip",
                out=rows[first:first + len(chunk)])


def _fill_gaussian(dist, rows, seed, domain, start):
    # Real parts before imaginary parts within a block; blocks are drawn
    # _CHUNK_ROWS at a time into one reused buffer, scaled there and
    # combined straight into their rows as 1j*im + re, which rounds and
    # signs its zeros as re + 1j*im does: IEEE sums and products commute.
    normals = np.empty((_CHUNK_ROWS, 2, _BLOCK))
    streams = _substreams(seed, domain, len(rows), start)
    for first in range(0, len(rows), _CHUNK_ROWS):
        chunk = normals[:len(rows) - first]
        for block, gen in zip(chunk, streams):
            gen.standard_normal(out=block)
        re, im = chunk[:, 0], chunk[:, 1]
        if isinstance(dist, GaussianZeroMean):
            re *= math.sqrt(dist.P_r)
            im *= math.sqrt(dist.P_i)
        else:
            re *= math.sqrt(dist.var_r)
            re += dist.mu_r
            im *= math.sqrt(dist.var_i)
            im += dist.mu_i
        target = rows[first:first + len(chunk)]
        np.multiply(im, 1j, out=target)
        target += re


def _run_share(errors, fill, *args):
    # A worker's share; its exception is handed to the caller.
    try:
        fill(*args)
    except BaseException as exc:
        errors.append(exc)


def _draw(dist, n, seed, domain):
    # Block b of the stream comes from substream (seed, domain, b) and always
    # consumes a full _BLOCK worth of draws (a short tail is sliced), so
    # extending n never disturbs values already produced.  The blocks are
    # cut into up to _WORKERS contiguous shares, each filled into its own
    # rows of `out` by its own re-keyed generator: the caller fills the
    # first, one thread each the others (numpy's fills release the GIL).
    # Every block sees the same draws whatever the split, so the bytes are
    # the same at any thread count.  The threads run in a copy of the
    # caller's context, so the caller's numpy error state holds in them,
    # and are joined before the call returns or raises.
    if isinstance(dist, FiniteConstellation):
        fill = _fill_constellation
    elif isinstance(dist, (GaussianZeroMean, GaussianGeneral)):
        fill = _fill_gaussian
    else:
        raise TypeError(f"unsupported input distribution: {dist!r}")
    n_blocks = -(-n // _BLOCK)
    out = np.empty((n_blocks, _BLOCK), dtype=complex)
    shares = min(_WORKERS, n_blocks)
    bounds = [n_blocks * k // shares for k in range(shares + 1)]
    errors, threads = [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(
                target=contextvars.copy_context().run,
                args=(_run_share, errors, fill, dist, out[lo:hi], seed, domain, lo))
            thread.start()
            threads.append(thread)
        fill(dist, out[:bounds[1]], seed, domain, 0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out.reshape(-1)[:n]


def _kernel(window):
    # taps s_{-window} .. s_window in order, by s_{-l} = s_{l-1}: 12 B per tap
    s = _s_first(window + 1)
    return np.concatenate((s[window - 1::-1], s))


def _half_samples(symbols, window):
    # Truncated mid-sample interpolation at every index; entries within
    # `window` of either edge see zero-padding and must be discarded by the
    # caller (the guard regions below).  Overlap-save: frame f holds the
    # zero-padded symbols from f*hop - window on, for a power-of-two frame
    # length F >= 8*window (at least 4096, at most the one length covering
    # the whole linear convolution) and hop = F - 2*window.  Its circular
    # convolution with the kernel is exact past its first 2*window points,
    # which are outputs f*hop onwards.  The frames are cut and transformed
    # _CHUNK_ROWS at a time, so the FFTs stay cache-sized and the
    # temporaries O(F); the layout depends on (n, window) alone.
    n = symbols.size
    size = min(1 << (n + 2 * window - 1).bit_length(),
               max(4096, 1 << (8 * window - 1).bit_length()))
    hop = size - 2 * window
    n_frames = -(-n // hop)
    kern_spectrum = np.fft.fft(_kernel(window), size)
    out = np.empty(n, dtype=complex)
    for row in range(0, n_frames, _CHUNK_ROWS):
        frames = np.zeros((min(_CHUNK_ROWS, n_frames - row), size), dtype=complex)
        for f, frame in enumerate(frames, row):
            first = f * hop - window
            part = symbols[max(first, 0):first + size]
            frame[max(-first, 0):][:part.size] = part
        spectrum = np.fft.fft(frames, out=frames)
        spectrum *= kern_spectrum
        valid = np.fft.ifft(spectrum, out=spectrum)[:, 2 * window:].reshape(-1)
        out[row * hop:(row + len(frames)) * hop] = valid[:n - row * hop]
    return out


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error over independent blocks."""

    mean: float
    std_error: float
    n_samples: int
    seed: int


def _estimate(values, n_used, seed):
    # Mean of i.i.d. block values and its standard error
    std_error = values.std(ddof=1) / math.sqrt(values.size)
    return McEstimate(float(values.mean()), float(std_error), n_used, seed)


@contextmanager
def _float_range():
    # Overflow or an invalid operation raises ValueError, not a numpy warning.
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise ValueError(f"the estimate leaves the float range ({exc})") from None


def mc_q_tilde(dist, n_blocks, window, seed):
    """Monte-Carlo estimate of the mid-sample fourth moment E[|X~|^4].

    Draws n_blocks*(2*window+1) symbols from the q-tilde stream, which has
    the same block layout as the symbol stream under its own purpose tag,
    and cuts them into consecutive blocks of 2*window+1.  Each block
    contributes one |X~|^4 value, so block values are i.i.d. and the
    reported standard error is exact.  A value past the float range raises
    ValueError.
    """
    n_blocks = _integer(n_blocks, "n_blocks", 100)
    window = _integer(window, "window", 1)
    seed = _check_seed(seed)
    count = 2 * window + 1
    with _float_range():
        blocks = _draw(dist, n_blocks * count, seed, _DOM_QTILDE).reshape(n_blocks, count)
        values = np.abs(blocks @ _kernel(window)[::-1]) ** 4
        return _estimate(values, n_blocks, seed)


def _draw_noise(n, sigma_w2, seed, domain):
    # circularly symmetric complex Gaussian, variance sigma_w2 per sample
    return _draw(GaussianZeroMean(0.5 * sigma_w2, 0.5 * sigma_w2), n, seed, domain)


def _integrand(y, ch):
    # Second-order term counted once per sampling phase (twice the pooled
    # mean), quartic term pooled once: the bookkeeping the closed-form
    # coefficients encode.  See mc_delivered_power for the consequences.
    power = y.real**2 + y.imag**2
    return 2.0 * ch.k2 * power + 1.5 * ch.k4 * power * power


def _integrand_means(y, ch, row_len):
    # Row means of _integrand(y) with y cut into rows of row_len.  The
    # rows are evaluated _CHUNK_ROWS at a time, so no temporary as long as y
    # is built, and each row sees the same operations in the same order as a
    # whole-array evaluation: the means are bit-identical to it.
    n_rows = y.size // row_len
    means = np.empty(n_rows)
    for row in range(0, n_rows, _CHUNK_ROWS):
        values = _integrand(y[row * row_len:(row + _CHUNK_ROWS) * row_len], ch)
        values.reshape(-1, row_len).mean(axis=1, out=means[row:row + _CHUNK_ROWS])
    return means


def _four_step_shape(n):
    # n = n1*n2 with n1 the largest divisor of n not above sqrt(n): both
    # factors are near sqrt(n) when n has a divisor there, as round sizes
    # do; a prime has n1 = 1 and is transformed whole.
    n1 = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    return n1, n // n1


def _twiddle(a, sign, shift):
    # a[r, c] *= e^{sign*2*pi*i*r*(c + shift)/n} in place, n = a.size.
    # With r = u*m + v and m = isqrt(rows) the factor is
    # e^{sign*2*pi*i*u*m*(c + shift)/n} times e^{sign*2*pi*i*v*(c + shift)/n}:
    # two tables of about sqrt(rows) rows, applied m rows at a time, so
    # every inner loop runs along a contiguous row.  Row 0 of either table
    # is all ones and is neither built nor applied.
    n1, n2 = a.shape
    m = math.isqrt(n1)
    angles = (sign * 2.0 * math.pi / a.size) * (np.arange(n2) + shift)
    fine = np.exp(1j * np.outer(np.arange(1, m), angles))
    coarse = np.exp(1j * np.outer(np.arange(m, n1, m), angles))
    for u, start in enumerate(range(0, n1, m)):
        block = a[start:start + m]
        block[1:] *= fine[:len(block) - 1]
        if u:
            block *= coarse[u - 1]


def _shift_turns(n2, sign, shift):
    # e^{sign*2*pi*i*k2*shift/n2}, k2 < n2: the part of a shift's phase
    # ramp e^{sign*2*pi*i*k*shift/n} that varies along the rows
    return np.exp((sign * 2.0 * math.pi * shift / n2) * 1j * np.arange(n2))


def _fft_four_step(x, shift):
    # X_k e^{-2 pi i k shift/n} for X the n-point DFT of x, in place: the
    # DFT of x taken as sampled at times j + shift.  n1-point transforms
    # run down the columns and n2-point transforms along the rows of x
    # viewed as (n1, n2) (Bailey 1990), so each transform fits in cache and
    # none needs length-n scratch.  With j = r*n2 + c and k = k1 + n1*k2,
    #   k (j + shift)/n = r k1/n1 + k1 (c + shift)/n + k2 (c + shift)/n2
    # modulo 1, so the shift rides on the twiddle and on one n2-point table.
    # The spectrum comes back in the transposed layout
    # [k1, k2] = X[k1 + n1*k2], as an (n1, n2) view of x.
    a = x.reshape(_four_step_shape(x.size))
    np.fft.fft(a, axis=0, out=a)
    _twiddle(a, -1, shift)
    np.fft.fft(a, axis=1, out=a)
    a *= _shift_turns(a.shape[1], -1, shift)
    return a


def _ifft_four_step(a, shift):
    # The inverse of _fft_four_step, in place: from a spectrum F in the
    # transposed layout, (1/n) sum_k F_k e^{2 pi i k (j + shift)/n} for
    # j = 0 .. n-1, in natural order.  That samples F's periodic
    # interpolant `shift` after each j.
    a *= _shift_turns(a.shape[1], 1, shift)
    np.fft.ifft(a, axis=1, out=a)
    _twiddle(a, 1, shift)
    return np.fft.ifft(a, axis=0, out=a).reshape(-1)


def _spectrum_halves(y_even, y_mid):
    # X[:n]/2 and X[n:]/2 for X the 2n-point DFT of the interleaved sequence
    # y_even[0], y_mid[0], y_even[1], ..., by one decimation-in-time step:
    #   X_k = E_k + B_k,  X_{n+k} = E_k - B_k,  B_k = e^{-i pi k/n} M_k,
    # with E and M the n-point DFTs of y_even and y_mid (Cooley & Tukey
    # 1965).  B is M shifted by half a sample, so _fft_four_step gives it
    # directly.  Both are transformed in place and every later step is
    # elementwise, so the halves stay in the transposed layout.  The first
    # half is returned in y_even's buffer, and y_mid's buffer is left
    # holding B, free for scratch.  Halving is exact; with the inverse
    # transform's 1/n it gives 1/2n.
    low = _fft_four_step(y_even, 0.0)
    mid = _fft_four_step(y_mid, 0.5)
    high = low - mid
    low += mid
    low *= 0.5
    high *= 0.5
    return low, high


def _phase_block_sums(y_even, y_mid, ch, oversample, lo, hi, block_len, on_grid):
    # Sum over phases p = 0, 1, ... of the integrand's block means on symbols
    # [lo, hi), phase p being the periodic band-limited interpolant of the
    # interleaved 2n-point sequence y_even[0], y_mid[0], y_even[1], ...,
    # sampled at m/n + p/L with L = n*oversample (fine-grid point
    # m*oversample + p).  The interpolant passes through the samples it
    # interpolates, the split Nyquist bin included: phase 0 is y_even and,
    # for even oversample, phase oversample/2 is y_mid, so the caller
    # reduces those as they are and passes their means in on_grid, keyed by
    # phase.  For the other phases, with X the sequence's DFT and the
    # Nyquist bin split evenly between k = +-n,
    #   y(m/n + p/L) = (1/2n) sum_{|k|<=n} X_k e^{2 pi i k p/L} e^{2 pi i k m/n},
    # so folding k modulo n leaves one length-n inverse FFT per phase: bin j
    # collects X_j (k = j) and X_{n+j} (k = j - n), both turned by
    # e^{2 pi i j p/L}, the second also by e^{-2 pi i p/oversample}.  The
    # fold is elementwise, so it works in the spectrum's transposed layout;
    # the turn e^{2 pi i j p/L} is a shift of p/oversample samples, which
    # _ifft_four_step applies, returning the phase in natural order.  The
    # spectrum is taken only when such a phase exists (not at oversample 2)
    # and overwrites both buffers.
    if len(on_grid) < oversample:
        low, high = _spectrum_halves(y_even, y_mid)
        folded = y_mid.reshape(low.shape)  # holds B, which the halves no longer need
    sums = np.zeros((hi - lo) // block_len)
    for p in range(oversample):
        if p in on_grid:
            sums += on_grid[p]
            continue
        turn = 2.0 * math.pi * p / oversample
        np.multiply(high, complex(math.cos(turn), -math.sin(turn)), out=folded)
        folded += low
        # both halves of the Nyquist bin, k = +-n, fold onto j = 0
        folded[0, 0] = low[0, 0] + high[0, 0] * math.cos(turn)
        sums += _integrand_means(_ifft_four_step(folded, p / oversample)[lo:hi],
                                 ch, block_len)
    return sums


def _blocking(interior):
    # Standard-error blocks: 1000 symbols when there is room, else a tenth
    # of the interior.  The edge guard leaves an interior of at least 10
    # symbols, so block_len >= 1 and, as block_len <= interior/10, at least
    # 10 blocks remain.
    block_len = 1000 if interior >= 10_000 else interior // 10
    return block_len, interior // block_len


def mc_delivered_power(dist, ch, n_symbols, oversample, seed,
                       window=128, estimator="oversampled"):
    """Empirical harvested power from a synthesized noisy waveform.

    Integer-time outputs are h*X_k + W_k; mid-sample outputs are
    h_tilde*X~_k + W~_k with X~ the truncated sinc mixture and W~ an
    independent noise draw.  Two estimators of the time average of
    2*k2*|y|^2 + (3/2)*k4*|y|^4, divided by f_w:

    * "oversampled" band-limited-interpolates the interleaved sequence onto
      `oversample` points per symbol and averages there.  oversample >= 4
      keeps the quartic term alias-free; below 2 even the squared envelope
      aliases, so that is rejected.  Above 2 it interpolates between the
      two phases, which is a model of the waveform only when they see one
      gain, so h != h_tilde is rejected there (with QPSK at h_tilde = 0.5,
      1j or -1 its mean misses half-rate's by 11-12%).
    * "half_rate" pools the two sampling phases directly: it is the
      oversampled estimator at 2 points per symbol.  `oversample` is still
      checked (it must be an integer >= 2), then ignored.

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
    them.  The standard error comes from means over 1000-symbol blocks.  A
    value past the float range raises ValueError, not a non-finite estimate.

    Memory: the symbol and noise draws are filled straight into their
    arrays, on up to two threads with the same bytes as one, each thread
    through a scratch buffer of a few blocks.  The mid-samples come from
    overlap-save frames of a few thousand points, transformed a few frames
    at a time, and the channel outputs are formed in place.  All of these
    are made and held once per draw: `swipt mc-validate` asks for both
    estimators in one call of the private _mc_delivered_powers, which
    reduces both from the same channel outputs, so its second estimate
    costs no second draw and keeps the bytes this function gives it.  The
    oversampled estimator never builds its n*oversample grid.  Phase 0 is
    the integer-time sequence and, for
    even `oversample`, phase oversample/2 the mid-sample sequence, so those
    are reduced as they are; at oversample 2 that is every phase and no FFT
    runs.  Otherwise the spectrum of the interleaved sequence comes from
    two in-place length-n DFTs, and every other phase takes one in-place
    inverse DFT of length n (oversample-2 of them for even `oversample`,
    oversample-1 for odd) and is reduced into the block means.  Each DFT is
    a four-step transform over an n1 x n2 view of its sequence, n1 the
    largest divisor of n not above sqrt(n): batches of n1- and n2-point
    FFTs, both about sqrt(n) long when n has a divisor near sqrt(n), with
    scratch of their own length only.  Both estimators peak at about 4
    length-n complex arrays (16*n bytes each), the oversampled one
    independently of `oversample`; its time is linear in `oversample`.  The
    integrand is reduced a few blocks at a time.  A size without a divisor
    near sqrt(n), a prime above all, takes one full-length FFT per
    transform, which numpy runs by Bluestein's algorithm with scratch of
    about twice n: on a 2-vCPU Xeon, one oversampled call at n = 999 983
    (oversample 8) takes about 3.6 s and 176 MB more resident memory,
    against 0.65 s and 49 MB at n = 1e6.
    """
    return _mc_delivered_powers(dist, ch, n_symbols, oversample, seed, window,
                                (estimator,))[estimator]


def _mc_delivered_powers(dist, ch, n_symbols, oversample, seed, window, wanted):
    # mc_delivered_power's estimate for each estimator named in `wanted`,
    # by name, from one draw of the symbols and both noises.  The arguments
    # are checked in mc_delivered_power's order, each estimator's rules
    # applying when it is wanted.  Both estimators reduce the same channel
    # outputs: half-rate is (0 + even + mid)/(2*f_w) over the block means of
    # the integer-time and mid-sample outputs, and the oversampled sum adds
    # the same two arrays at phases 0 and oversample/2.  So both means are
    # taken before the oversampled spectrum overwrites the outputs, and
    # each estimate has the bytes of its own mc_delivered_power call.  The
    # estimators are reduced in ESTIMATORS order.
    n = _integer(n_symbols, "n_symbols", 1000)
    oversample = _integer(oversample, "oversample")
    if oversample < 2:
        raise ValueError(
            "oversample must be >= 2: the squared envelope has twice the "
            "signal bandwidth")
    if any(estimator not in ESTIMATORS for estimator in wanted):
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    if "oversampled" in wanted and oversample > 2 and ch.h_tilde != ch.h:
        raise ValueError(
            f"channel.h_tilde must equal channel.h for the oversampled estimator "
            f"at oversample > 2, got h = {ch.h!r}, h_tilde = {ch.h_tilde!r}; "
            f"the half_rate estimator takes any channel")
    window = _integer(window, "window", 1)
    seed = _check_seed(seed)
    lo, hi = window, n - window
    if hi - lo < 10:
        raise ValueError("n_symbols too small for the edge guard")

    block_len, n_blocks = _blocking(hi - lo)
    hi = lo + n_blocks * block_len  # whole blocks only

    # The channel outputs are formed in place in the buffers of the symbols
    # and the mid-samples, which saves a length-n temporary.  numpy rounds
    # some in-place complex products differently from out-of-place ones, so
    # the estimates' last digits depend on this form.
    with _float_range():
        y_even = _draw(dist, n, seed, _DOM_SYMBOLS)
        y_mid = _half_samples(y_even, window)
        y_even *= ch.h
        y_even += _draw_noise(n, ch.sigma_w2, seed, _DOM_NOISE_EVEN)
        y_mid *= ch.h_tilde
        y_mid += _draw_noise(n, ch.sigma_w2, seed, _DOM_NOISE_ODD)
        even = _integrand_means(y_even[lo:hi], ch, block_len)
        if "half_rate" in wanted or oversample % 2 == 0:
            mid = _integrand_means(y_mid[lo:hi], ch, block_len)
        estimates = {}
        for estimator in (name for name in ESTIMATORS if name in wanted):
            phases = 2 if estimator == "half_rate" else oversample
            on_grid = {0: even, phases // 2: mid} if phases % 2 == 0 else {0: even}
            block_means = _phase_block_sums(y_even, y_mid, ch, phases, lo, hi,
                                            block_len, on_grid)
            block_means /= phases * ch.f_w
            estimates[estimator] = _estimate(block_means,
                                             n_blocks * block_len * phases, seed)
        return estimates


def closed_form_delivered_power(dist, ch):
    """Delivered power predicted by the coefficient formula for a distribution."""
    return delivered_power(profile_of(dist), ch)
