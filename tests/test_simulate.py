"""Monte-Carlo waveform validation: symbol streams, mid-sample interpolation,
and the two delivered-power estimators.

Statistical checks use a 4-standard-error gate on seeded runs; structural
checks (determinism, estimator equivalence at the degenerate oversampling
factor) are exact.
"""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from swipt import simulate
from swipt.moments import (
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    gaussian_profile,
    profile_of,
    q_tilde,
)
from swipt.rectenna import ChannelParams
from swipt.series import verify
from swipt.simulate import (
    ESTIMATORS,
    closed_form_delivered_power,
    mc_delivered_power,
    mc_q_tilde,
)
from swipt.simulate import (
    _DOM_NOISE_EVEN,
    _DOM_NOISE_ODD,
    _DOM_QTILDE,
    _DOM_SYMBOLS,
    _draw,
    _fft_four_step,
    _four_step_shape,
    _half_samples,
    _ifft_four_step,
    _kernel,
    _spectrum_halves,
    _substream,
    _substreams,
)

from swipt.tradeoff import rp_region

from oracles import (
    draw_per_block,
    fourth_moment_even,
    half_sample_value,
    half_samples_one_fft,
    mc_even_fourth_moment,
    mc_oversampled_single_grid,
    s_coeff,
    series_sums,
    upsample,
)


CH = ChannelParams(h=1.0, h_tilde=1.0, sigma_w2=1e-4, f_w=1.0,
                   k2=0.17, k4=19.145)
SEED = 12345


class TestDistributions:
    def test_qpsk_profile_is_exact(self):
        p = profile_of(FiniteConstellation.qpsk())
        assert (p.mu_r, p.mu_i) == (0.0, 0.0)
        assert p.P_r == pytest.approx(0.5, rel=1e-15)
        assert p.Q_r == pytest.approx(0.25, rel=1e-15)
        assert p.T_r == pytest.approx(0.0, abs=1e-16)

    def test_constellation_validation(self):
        with pytest.raises(ValueError):
            FiniteConstellation((), ())
        with pytest.raises(ValueError):
            FiniteConstellation((1.0, -1.0), (0.7, 0.7))
        with pytest.raises(ValueError):
            FiniteConstellation((1.0, -1.0), (0.5,))
        with pytest.raises(ValueError):
            FiniteConstellation((1.0, -1.0), (1.5, -0.5))

    def test_gaussian_rejects_negative_spread(self):
        with pytest.raises(ValueError):
            GaussianZeroMean(-0.1, 0.5)
        with pytest.raises(ValueError):
            GaussianGeneral(0.0, 0.0, 1.0, -1.0)

    @pytest.mark.parametrize("fields", [
        (GaussianZeroMean, (math.nan, 1.0)),
        (GaussianZeroMean, (1.0, math.inf)),
        (GaussianGeneral, (math.nan, 0.0, 1.0, 1.0)),
        (GaussianGeneral, (0.0, -math.inf, 1.0, 1.0)),
        (GaussianGeneral, (0.0, 0.0, math.inf, 1.0)),
        (GaussianGeneral, (0.0, 0.0, 1.0, math.nan)),
        (FiniteConstellation, ((1.0, -1.0), (math.nan, math.nan))),
        (FiniteConstellation, ((1.0, -1.0), (math.inf, -math.inf))),
        (FiniteConstellation, ((1.0, complex(math.inf, 0.0)), (0.5, 0.5))),
        (FiniteConstellation, ((1.0, complex(0.0, math.nan)), (0.5, 0.5))),
    ], ids=repr)
    def test_non_finite_fields_rejected(self, fields):
        kind, args = fields
        with pytest.raises(ValueError, match="finite"):
            kind(*args)

    def test_boundary_spreads_accepted(self):
        GaussianZeroMean(0.0, 0.0)
        GaussianZeroMean(1.0, 0.0)
        GaussianGeneral(-2.0, 3.0, 0.0, 0.0)

    def test_profile_of_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            profile_of("qpsk")


class TestDrawSymbols:
    def test_deterministic(self):
        dist = GaussianZeroMean(0.5, 0.5)
        a = _draw(dist, 5000, SEED, _DOM_SYMBOLS)
        b = _draw(dist, 5000, SEED, _DOM_SYMBOLS)
        assert np.array_equal(a, b)

    def test_prefix_stable_across_lengths(self):
        """Extending a run must not disturb the symbols already drawn."""
        dist = GaussianGeneral(0.3, -0.1, 1.0, 0.5)
        short = _draw(dist, 1500, 7, _DOM_SYMBOLS)
        long = _draw(dist, 2500, 7, _DOM_SYMBOLS)
        assert np.array_equal(long[:1500], short)

    def test_single_point_constellation_is_constant(self):
        dist = FiniteConstellation((0.5 + 0.25j,), (1.0,))
        out = _draw(dist, 300, 99, _DOM_SYMBOLS)
        assert np.all(out == 0.5 + 0.25j)

    def test_empirical_moments_match_profile(self):
        dist = GaussianGeneral(0.5, 0.0, 0.5, 0.25)
        samples = _draw(dist, 1_000_000, 2024, _DOM_SYMBOLS)
        exact = profile_of(dist)
        assert np.mean(samples.real) == pytest.approx(exact.mu_r, abs=0.005)
        assert np.mean(samples.real**2) == pytest.approx(exact.P_r, abs=0.01)
        assert np.mean(samples.imag**4) == pytest.approx(exact.Q_i, abs=0.01)


class TestIntegralArguments:
    """Sizes and seeds that int() would truncate are errors; integral floats
    such as 2e3 are accepted and mean the same as the integer.  The series
    truncation and the frontier's point count follow the same rule."""

    DIST = GaussianZeroMean(0.5, 0.5)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda d: mc_delivered_power(d, CH, 2000.5, 4, SEED),
                     id="mc_delivered_power-n_symbols-2000.5"),
        pytest.param(lambda d: mc_delivered_power(d, CH, np.float32(2.5), 4, SEED),
                     id="mc_delivered_power-n_symbols-float32-2.5"),
        pytest.param(lambda d: mc_delivered_power(d, CH, 2000, 4.5, SEED),
                     id="mc_delivered_power-oversample-4.5"),
        pytest.param(lambda d: mc_delivered_power(d, CH, 2000, 4, SEED, window=16.5),
                     id="mc_delivered_power-window-16.5"),
        pytest.param(lambda d: mc_delivered_power(d, CH, 2000, 4, 1.5),
                     id="mc_delivered_power-seed-1.5"),
        pytest.param(lambda d: mc_q_tilde(d, 200.5, 16, SEED),
                     id="mc_q_tilde-n_blocks-200.5"),
        pytest.param(lambda d: mc_q_tilde(d, 200, 16.5, SEED),
                     id="mc_q_tilde-window-16.5"),
        pytest.param(lambda d: mc_q_tilde(d, 200, 16, np.float64(0.5)),
                     id="mc_q_tilde-seed-float64-0.5"),
        pytest.param(lambda d: mc_q_tilde(d, 200, 16, math.nan),
                     id="mc_q_tilde-seed-nan"),
        pytest.param(lambda d: mc_q_tilde(d, 200, 16, math.inf),
                     id="mc_q_tilde-seed-inf"),
        pytest.param(lambda d: mc_even_fourth_moment(d, CH, 5000.5, SEED),
                     id="mc_even_fourth_moment-n_symbols-5000.5"),
        pytest.param(lambda d: half_sample_value(np.ones(10, dtype=complex), 5.5, 3),
                     id="half_sample_value-k-5.5"),
        pytest.param(lambda d: half_sample_value(np.ones(10, dtype=complex), 5, 3.5),
                     id="half_sample_value-window-3.5"),
        pytest.param(lambda d: verify(2.9),
                     id="verify-n_terms-2.9"),
        pytest.param(lambda d: verify(np.float64(2.9)),
                     id="verify-n_terms-float64-2.9"),
        pytest.param(lambda d: rp_region(1.0, CH, 2.9),
                     id="rp_region-n_points-2.9"),
    ])
    def test_non_integral_rejected(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call(self.DIST)

    def test_integral_floats_accepted(self):
        d = self.DIST
        assert (mc_delivered_power(d, CH, 2e3, 4.0, float(SEED), window=16.0)
                == mc_delivered_power(d, CH, 2000, 4, SEED, window=16))
        assert mc_q_tilde(d, 2e2, 16.0, SEED) == mc_q_tilde(d, 200, 16, SEED)
        assert verify(2e2) == verify(200)
        assert rp_region(1.0, CH, 3.0) == rp_region(1.0, CH, 3)


class TestStreamLayout:
    """The vectorised drawer against the block-by-block oracle, compared as
    bytes so that signed zeros count too."""

    DISTS = [
        GaussianZeroMean(0.5, 0.5),
        GaussianZeroMean(1.0, 0.0),
        GaussianZeroMean(0.0, 1.0),
        GaussianGeneral(0.3, -0.1, 1.0, 0.5),
        GaussianGeneral(-1.0, 2.0, 0.0, 0.25),
        FiniteConstellation.qpsk(),
        FiniteConstellation((0.0, 1.0 - 2.0j, -0.5j), (0.2, 0.5, 0.3)),
    ]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("dist", DISTS, ids=repr)
    def test_bit_identical_to_per_block_oracle(self, dist, seed):
        for n in (1, 999, 1000, 1001, 12345):
            for domain in (_DOM_SYMBOLS, _DOM_QTILDE):
                ours = _draw(dist, n, seed, domain)
                assert ours.shape == (n,) and ours.dtype == complex
                assert ours.tobytes() == draw_per_block(dist, n, seed, domain).tobytes()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rekeyed_generator_matches_fresh_substream(self, seed):
        def plain(state):
            return {key: plain(value) if isinstance(value, dict) else np.asarray(value).tolist()
                    for key, value in state.items()}

        for b, gen in enumerate(_substreams(seed, _DOM_NOISE_ODD, 6, 0)):
            fresh = _substream(seed, _DOM_NOISE_ODD, b)
            assert plain(gen.bit_generator.state) == plain(fresh.bit_generator.state)
            assert gen.standard_normal(7).tobytes() == fresh.standard_normal(7).tobytes()
            # leave a half-used buffer and a cached 32-bit word for the re-key to clear
            gen.integers(0, 10, size=3, dtype=np.uint32)

    def test_upsample_leaves_its_input_unchanged(self):
        waveform = _draw(GaussianZeroMean(0.7, 0.3), 2000, SEED, _DOM_SYMBOLS)
        before = waveform.copy()
        upsample(waveform, 8000)
        assert waveform.tobytes() == before.tobytes()


class TestDrawThreads:
    """The blocks of a draw are shared out over up to _WORKERS threads: the
    bytes are the same at any thread count, the caller's numpy error state
    holds in every share, and no thread outlives the call."""

    DOMAINS = (_DOM_SYMBOLS, _DOM_NOISE_EVEN, _DOM_NOISE_ODD, _DOM_QTILDE)

    @pytest.mark.parametrize("dist", TestStreamLayout.DISTS, ids=repr)
    def test_same_bytes_at_any_thread_count(self, monkeypatch, dist):
        """1, 2 and 3 threads against the per-block oracle, down to one
        block, fewer than the threads."""
        for n in (1, 999, 1001, 12345):
            for domain in self.DOMAINS:
                expected = draw_per_block(dist, n, SEED, domain).tobytes()
                for workers in (1, 2, 3):
                    monkeypatch.setattr(simulate, "_WORKERS", workers)
                    assert _draw(dist, n, SEED, domain).tobytes() == expected

    def test_same_bytes_with_more_threads_than_cores_switching_fast(self, monkeypatch):
        """Five threads on 50 blocks of each kind, switching every
        microsecond: a share written into another's rows, or an update
        lost between them, would change the bytes."""
        monkeypatch.setattr(simulate, "_WORKERS", 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for dist in (GaussianGeneral(0.3, -0.1, 1.0, 0.5), FiniteConstellation.qpsk()):
                ours = _draw(dist, 50_000, SEED, _DOM_NOISE_EVEN)
                assert ours.tobytes() == draw_per_block(dist, 50_000, SEED,
                                                        _DOM_NOISE_EVEN).tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dist", [GaussianGeneral(0.3, -0.1, 1.0, 0.5),
                                      FiniteConstellation.qpsk()], ids=repr)
    def test_estimates_equal_at_one_and_two_threads(self, monkeypatch, dist):
        def estimates():
            return ([mc_delivered_power(dist, CH, 20_000, 4, SEED, window=32,
                                        estimator=estimator) for estimator in ESTIMATORS],
                    mc_q_tilde(dist, 200, 16, SEED))

        monkeypatch.setattr(simulate, "_WORKERS", 1)
        one = estimates()
        monkeypatch.setattr(simulate, "_WORKERS", 2)
        assert estimates() == one

    def test_each_share_has_its_own_thread(self, monkeypatch):
        """13 blocks on 3 threads: contiguous shares of 4, 4 and 5 blocks,
        the first filled by the caller."""
        fill, shares = simulate._fill_gaussian, []

        def recording(dist, rows, seed, domain, start):
            shares.append((start, len(rows), threading.current_thread()))
            fill(dist, rows, seed, domain, start)

        monkeypatch.setattr(simulate, "_fill_gaussian", recording)
        monkeypatch.setattr(simulate, "_WORKERS", 3)
        _draw(GaussianZeroMean(0.5, 0.5), 12345, SEED, _DOM_SYMBOLS)
        shares.sort(key=lambda share: share[0])
        assert [share[:2] for share in shares] == [(0, 4), (4, 4), (8, 5)]
        assert shares[0][2] is threading.current_thread()
        assert len({id(share[2]) for share in shares}) == 3

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_overflow_in_a_share_is_a_value_error(self, monkeypatch, failing):
        """An overflow in either share raises the float-range ValueError in
        the caller, with no numpy warning: a thread that dropped the
        caller's error state would only warn, and under this test's filter
        raise RuntimeWarning instead.  No thread is left running."""
        fill = simulate._fill_gaussian

        def overflowing(dist, rows, seed, domain, start):
            fill(dist, rows, seed, domain, start)
            if (start > 0) == (failing == "worker"):
                rows[0, 0] = np.float64(1e308) * 10.0

        monkeypatch.setattr(simulate, "_fill_gaussian", overflowing)
        monkeypatch.setattr(simulate, "_WORKERS", 2)
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the estimate leaves the float range"):
                mc_q_tilde(GaussianZeroMean(0.5, 0.5), 100, 16, SEED)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_draw(self, monkeypatch):
        monkeypatch.setattr(simulate, "_WORKERS", 2)
        before = threading.active_count()
        _draw(FiniteConstellation.qpsk(), 12345, SEED, _DOM_SYMBOLS)
        assert threading.active_count() == before


class TestHalfSampleValue:
    def test_unit_spike_gives_center_tap(self):
        w = 8
        symbols = np.zeros(2 * w + 1, dtype=complex)
        symbols[w] = 1.0
        assert half_sample_value(symbols, w, w) == pytest.approx(2.0 / math.pi,
                                                                 rel=1e-14)

    def test_constant_stream_sums_the_kernel(self):
        w = 20
        c = 0.7 - 0.3j
        symbols = np.full(2 * w + 1, c)
        expected = c * series_sums(w)["T0"]
        assert half_sample_value(symbols, w, w) == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_matches_direct_sinc_sum(self):
        """Independent oracle: numpy's sinc evaluated at k + 1/2 - n."""
        rng = np.random.default_rng(3)
        symbols = rng.normal(size=64) + 1j * rng.normal(size=64)
        w, k = 15, 30
        n = np.arange(k - w, k + w + 1)
        oracle = np.sum(symbols[n] * np.sinc(k + 0.5 - n))
        assert half_sample_value(symbols, k, w) == pytest.approx(oracle,
                                                                 rel=1e-12)

    def test_edge_indices_rejected(self):
        symbols = np.ones(10, dtype=complex)
        with pytest.raises(ValueError, match="edge"):
            half_sample_value(symbols, 1, 3)
        with pytest.raises(ValueError, match="edge"):
            half_sample_value(symbols, 8, 3)
        with pytest.raises(ValueError):
            half_sample_value(symbols, 5, 0)


class TestKernel:
    @pytest.mark.parametrize("window", [1, 2, 3, 127, 128, 1000, 499_000])
    def test_kernel_is_the_closed_form_taps(self, window):
        """The kernel mirrors s_0 .. s_window through s_{-l} = s_{l-1} and
        has the closed-form taps s_{-window} .. s_window bit for bit."""
        expected = s_coeff(np.arange(-window, window + 1))
        assert _kernel(window).tobytes() == expected.tobytes()


class TestOverlapSave:
    """The framed mid-sample convolution against one convolution of the whole
    sequence: the same linear convolution, so only rounding differs."""

    @pytest.mark.parametrize("n, window", [
        (1000, 16),      # shorter than one frame
        (1001, 128),     # one frame, odd n
        (1000, 1),       # the shortest kernel, one frame
        (12345, 1),      # the shortest kernel, 4 frames of 4096
        (4097, 128),     # 2 frames of 4096, the second nearly empty
        (12345, 128),    # 4 frames, n not a multiple of the hop
        (1000, 495),     # the largest window mc accepts at n = 1000
        (20000, 1000),   # frames of 8192 > 4096
        (100_000, 128),  # 27 frames: the last row batch is partial
    ])
    def test_matches_one_transform(self, n, window):
        symbols = _draw(GaussianGeneral(0.3, -0.2, 0.5, 0.25), n, SEED, _DOM_SYMBOLS)
        ours = _half_samples(symbols, window)
        ref = half_samples_one_fft(symbols, window)
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestDecimationInTime:
    """The oversampled estimator's spectrum comes from two four-step n-point
    transforms, whose spectra sit in the transposed layout
    [k1, k2] = X[k1 + n1*k2], and no transform in it is longer than about
    sqrt(n) when n has a divisor near sqrt(n)."""

    # (n, n1): 1009 is prime, so n1 = 1 and one length-n transform runs;
    # 1056 = 32*33 fills the twiddle tables' rows exactly
    SHAPES = [(1000, 25), (1001, 13), (1009, 1), (1056, 32), (12345, 15)]

    @staticmethod
    def _natural(spectrum):
        # the transposed layout back in natural order
        return spectrum.T.reshape(-1)

    @pytest.mark.parametrize("n, n1", SHAPES)
    def test_four_step_matches_numpy(self, n, n1):
        """The forward transform is numpy's DFT of x sampled `shift`
        later, X_k e^{-2 pi i k shift/n}; the inverse is numpy's inverse DFT
        with the opposite ramp."""
        assert _four_step_shape(n) == (n1, n // n1)
        x = _draw(GaussianGeneral(0.3, -0.2, 0.5, 0.25), n, SEED, _DOM_SYMBOLS)
        for shift in (0.0, 0.375):
            ramp = np.exp(2j * np.pi * shift * np.arange(n) / n)
            ref = np.fft.fft(x) / ramp
            ours = self._natural(_fft_four_step(x.copy(), shift))
            assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))

            ref = np.fft.ifft(x * ramp)
            transposed = x.reshape(n // n1, n1).T.copy()  # [k1, k2] = x[k1 + n1*k2]
            ours = _ifft_four_step(transposed, shift)
            assert ours.shape == ref.shape
            assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [n for n, _ in SHAPES])
    def test_matches_interleaved_fft(self, n):
        interleaved = _draw(GaussianGeneral(0.3, -0.2, 0.5, 0.25), 2 * n, SEED, _DOM_SYMBOLS)
        ref = np.fft.fft(interleaved)
        low, high = _spectrum_halves(interleaved[0::2].copy(), interleaved[1::2].copy())
        ours = 2.0 * np.concatenate([self._natural(low), self._natural(high)])
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("oversample, n_four_step", [
        (2, 0),  # every phase on the grid: no spectrum, no inverse transform
        (7, 2 + 6),  # two forward transforms, phases 1..6
        (8, 2 + 6),  # phases 0 and 4 on the grid
    ])
    def test_no_transform_longer_than_n(self, monkeypatch, oversample, n_four_step):
        """At n = 1e5 = 250*400 each four-step transform runs one batch of
        250-point and one of 400-point transforms, and no transform has
        length n.  The other transforms are the overlap-save frames, which
        the half-rate estimator runs as well."""
        n_symbols = 100_000
        lengths = []

        def recorded(transform):
            def wrapper(a, n=None, axis=-1, norm=None, out=None):
                lengths.append(np.shape(a)[axis] if n is None else n)
                return transform(a, n, axis, norm, out)
            return wrapper

        def transform_lengths(estimator):
            lengths.clear()
            mc_delivered_power(GaussianZeroMean(0.5, 0.5), CH, n_symbols, oversample,
                               SEED, estimator=estimator)
            return Counter(lengths)

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, recorded(getattr(np.fft, name)))
        frames = transform_lengths("half_rate")
        ours = transform_lengths("oversampled")
        assert set(frames) == {4096}
        assert ours - frames == Counter({250: n_four_step, 400: n_four_step})
        assert n_symbols not in ours


class TestScipyOracles:
    """The numpy FFT interpolation and upsampling against the SciPy routines
    they stand for."""

    @pytest.mark.parametrize("n, window", [(1000, 1), (1001, 16), (50_000, 128)])
    def test_interpolation_matches_fftconvolve(self, n, window):
        signal = pytest.importorskip("scipy.signal")
        symbols = _draw(GaussianGeneral(0.3, -0.2, 0.5, 0.25), n, SEED, _DOM_SYMBOLS)
        ours = _half_samples(symbols, window)
        ref = signal.fftconvolve(symbols, _kernel(window))[window:window + n]
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("oversample", [2, 4, 8])
    def test_upsampler_is_bit_identical_to_resample(self, oversample):
        signal = pytest.importorskip("scipy.signal")
        n = 5000
        waveform = _draw(GaussianZeroMean(0.7, 0.3), 2 * n, SEED, _DOM_SYMBOLS)
        ours = upsample(waveform, n * oversample)
        assert np.array_equal(ours, signal.resample(waveform, n * oversample))


class TestMcQTilde:
    def test_deterministic(self):
        dist = GaussianZeroMean(0.5, 0.5)
        a = mc_q_tilde(dist, 200, 16, SEED)
        b = mc_q_tilde(dist, 200, 16, SEED)
        assert a == b

    def test_argument_validation(self):
        dist = GaussianZeroMean(0.5, 0.5)
        with pytest.raises(ValueError, match="n_blocks must be >= 100"):
            mc_q_tilde(dist, 99, 16, SEED)
        with pytest.raises(ValueError, match="window must be >= 1"):
            mc_q_tilde(dist, 200, 0, SEED)
        with pytest.raises(TypeError, match="unsupported input distribution"):
            mc_q_tilde(object(), 200, 16, SEED)

    def test_past_the_float_range_is_a_value_error(self):
        """|X~|^4 near 1e160 squares past the float range in the standard
        error: one ValueError, and no numpy warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the estimate leaves the float range"):
                mc_q_tilde(GaussianZeroMean(1e80, 1e80), 100, 1, 0)

    def test_constant_symbol_is_noise_free(self):
        """A one-point alphabet makes |X~|^4 deterministic: |c*T0(w)|^4."""
        c = 0.8 + 0.6j
        dist = FiniteConstellation((c,), (1.0,))
        for w in (4, 32):
            est = mc_q_tilde(dist, 150, w, SEED)
            expected = abs(c * series_sums(w)["T0"]) ** 4
            assert est.mean == pytest.approx(expected, rel=1e-12)
            # identical block values; only averaging round-off survives
            assert est.std_error < 1e-14

    def test_constant_symbol_window_trend(self):
        c = 0.8 + 0.6j
        target = abs(c) ** 4
        errors = []
        for w in (4, 16, 64):
            est = mc_q_tilde(FiniteConstellation((c,), (1.0,)), 100, w, 1)
            errors.append(abs(est.mean - target))
        assert errors[0] > errors[1] > errors[2]

    def test_symmetric_gaussian_within_four_se(self):
        """The truncated mixture of a zero-mean Gaussian is again Gaussian
        with each part's variance scaled by S0(window), so its fourth moment
        is known exactly and independently of the estimator."""
        w = 64
        s0 = series_sums(w)["S0"]
        expected = q_tilde(gaussian_profile(0.0, 0.0, 0.5 * s0, 0.5 * s0))
        est = mc_q_tilde(GaussianZeroMean(0.5, 0.5), 3000, w, SEED)
        assert abs(est.mean - expected) <= 4.0 * est.std_error

    def test_qpsk_within_four_se(self):
        w = 64
        sums = series_sums(w)
        expected = sums["S5"] + 2.0 * sums["S3"]
        est = mc_q_tilde(FiniteConstellation.qpsk(), 3000, w, SEED)
        assert abs(est.mean - expected) <= 4.0 * est.std_error


class TestMcDeliveredPowerStructure:
    def test_argument_validation(self):
        dist = GaussianZeroMean(0.5, 0.5)
        with pytest.raises(ValueError, match="n_symbols must be >= 1000"):
            mc_delivered_power(dist, CH, 999, 4, SEED)
        with pytest.raises(ValueError, match="squared envelope"):
            mc_delivered_power(dist, CH, 2000, 1, SEED)
        with pytest.raises(ValueError, match="estimator"):
            mc_delivered_power(dist, CH, 2000, 4, SEED, estimator="exact")
        with pytest.raises(ValueError, match="window must be >= 1"):
            mc_delivered_power(dist, CH, 2000, 4, SEED, window=0)
        with pytest.raises(ValueError, match="edge guard"):
            mc_delivered_power(dist, CH, 1000, 4, SEED, window=500)
        with pytest.raises(TypeError, match="unsupported input distribution"):
            mc_delivered_power(object(), CH, 2000, 4, SEED)

    def test_deterministic(self):
        dist = FiniteConstellation.qpsk()
        for estimator in ESTIMATORS:
            a = mc_delivered_power(dist, CH, 4000, 4, SEED, window=32,
                                   estimator=estimator)
            b = mc_delivered_power(dist, CH, 4000, 4, SEED, window=32,
                                   estimator=estimator)
            assert a == b

    def test_oversample_two_reduces_to_phase_pooling(self):
        """At two points per symbol the band-limited regridding is the
        identity, so the two estimators must agree to rounding."""
        dist = GaussianZeroMean(0.5, 0.5)
        half = mc_delivered_power(dist, CH, 3000, 2, SEED, window=32,
                                  estimator="half_rate")
        fine = mc_delivered_power(dist, CH, 3000, 2, SEED, window=32,
                                  estimator="oversampled")
        assert fine.mean == pytest.approx(half.mean, rel=1e-10)
        assert fine.std_error == pytest.approx(half.std_error, rel=1e-8)

    def test_oversample_two_is_half_rate_bit_for_bit(self):
        """At oversample 2 both phases are on the grid, so the oversampled
        estimator takes no spectrum and returns the half-rate estimate exactly,
        complex gains and f_w != 1 included.  The half-rate estimator is the
        oversampled one at 2 points per symbol whatever `oversample` it is
        given."""
        ch = ChannelParams(h=0.8 + 0.6j, h_tilde=-0.3 + 0.9j, sigma_w2=0.05,
                           f_w=2.5, k2=0.17, k4=19.145)
        dist = GaussianGeneral(0.3, -0.1, 1.0, 0.5)
        fine = mc_delivered_power(dist, ch, 5003, 2, SEED, window=64,
                                  estimator="oversampled")
        for oversample in (2, 3, 8):
            half = mc_delivered_power(dist, ch, 5003, oversample, SEED, window=64,
                                      estimator="half_rate")
            assert fine.mean.hex() == half.mean.hex()
            assert fine.std_error.hex() == half.std_error.hex()
            assert (fine.n_samples, fine.seed) == (half.n_samples, half.seed)

    def test_estimators_agree_within_combined_se(self):
        dist = GaussianZeroMean(0.7, 0.3)
        a = mc_delivered_power(dist, CH, 20_000, 4, SEED, window=64,
                               estimator="half_rate")
        b = mc_delivered_power(dist, CH, 20_000, 4, SEED, window=64,
                               estimator="oversampled")
        gap = abs(a.mean - b.mean)
        assert gap <= 4.0 * math.hypot(a.std_error, b.std_error)


class TestSingleGridOracle:
    """The per-phase oversampled estimator against the whole-grid oracle:
    the same interpolant at the same points, so only rounding differs.  The
    channel is complex with h = h_tilde, the only channel the estimator
    takes above oversample 2."""

    CH = ChannelParams(h=0.8 + 0.6j, h_tilde=0.8 + 0.6j, sigma_w2=0.05,
                       f_w=2.5, k2=0.17, k4=19.145)

    @pytest.mark.parametrize("dist", [GaussianZeroMean(0.7, 0.3),
                                      FiniteConstellation.qpsk()], ids=repr)
    @pytest.mark.parametrize("n, oversample, window", [
        (1000, 2, 16), (1001, 3, 32), (5003, 5, 64), (12345, 7, 128),
        (20000, 8, 100), (4000, 32, 50)])
    def test_matches_single_grid_estimator(self, dist, n, oversample, window):
        ours = mc_delivered_power(dist, self.CH, n, oversample, SEED, window=window)
        ref = mc_oversampled_single_grid(dist, self.CH, n, oversample, SEED, window)
        assert ours.n_samples == ref.n_samples
        assert ours.seed == ref.seed
        assert ours.mean == pytest.approx(ref.mean, rel=1e-12, abs=0.0)
        assert ours.std_error == pytest.approx(ref.std_error, rel=1e-12, abs=0.0)


class TestOversampledChannel:
    """Above oversample 2 the oversampled estimator interpolates between
    the two sampling phases, so it takes only channels with h = h_tilde."""

    @pytest.mark.parametrize("h_tilde", [0.5, 1j, -1.0, -0.3 + 0.9j])
    def test_rejects_two_gains(self, h_tilde):
        ch = ChannelParams(h=1.0, h_tilde=h_tilde)
        for oversample in (3, 4, 8):
            with pytest.raises(ValueError, match="channel.h_tilde"):
                mc_delivered_power(FiniteConstellation.qpsk(), ch, 2000, oversample,
                                   SEED, window=16)
        for estimator in ESTIMATORS:  # oversample 2 interpolates nothing
            mc_delivered_power(FiniteConstellation.qpsk(), ch, 2000, 2, SEED,
                               window=16, estimator=estimator)
        mc_delivered_power(FiniteConstellation.qpsk(), ch, 2000, 8, SEED,
                           window=16, estimator="half_rate")


class TestMcDeliveredPowerValues:
    def test_symmetric_gaussian_anchor(self):
        dist = GaussianZeroMean(0.5, 0.5)
        expected = closed_form_delivered_power(dist, CH)
        assert expected == pytest.approx(57.79799157435, rel=1e-11)
        for estimator in ESTIMATORS:
            est = mc_delivered_power(dist, CH, 20_000, 4, SEED, window=64,
                                     estimator=estimator)
            assert abs(est.mean - expected) <= 4.0 * est.std_error

    def test_corner_gaussian_anchor(self):
        dist = GaussianZeroMean(1.0, 0.0)
        expected = closed_form_delivered_power(dist, CH)
        assert expected == pytest.approx(86.51549157435, rel=1e-11)
        est = mc_delivered_power(dist, CH, 20_000, 4, SEED, window=64)
        assert abs(est.mean - expected) <= 4.0 * est.std_error

    def test_zero_input_noise_floor(self):
        """With no signal both estimators average the rectified noise alone.
        The second-order term is counted once per phase, so the floor is
        (2*k2*sigma_w2 + 3*k4*sigma_w2^2)/f_w rather than the closed form's
        noise-only coefficient."""
        silent = FiniteConstellation((0.0,), (1.0,))
        floor = (2.0 * CH.k2 * CH.sigma_w2 + 3.0 * CH.k4 * CH.sigma_w2**2) / CH.f_w
        for estimator in ESTIMATORS:
            est = mc_delivered_power(silent, CH, 20_000, 4, SEED, window=32,
                                     estimator=estimator)
            assert abs(est.mean - floor) <= 4.0 * est.std_error

    def test_result_metadata(self):
        est = mc_delivered_power(GaussianZeroMean(0.5, 0.5), CH, 2000, 4, 77,
                                 window=16)
        assert est.seed == 77
        assert est.n_samples > 0
        assert est.std_error > 0.0
        assert set(dataclasses.asdict(est)) == {"mean", "std_error", "n_samples", "seed"}


class TestMemory:
    """Peaks in traced memory at n = 1e5, in length-n complex arrays (16*n
    bytes).  numpy reports its array allocations to tracemalloc; the FFT
    library's scratch is not traced, so the bounds cover the estimators'
    arrays, and a fresh process's resident peak covers the rest."""

    N = 100_000

    @staticmethod
    def _traced_peak(run):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()

    def test_kernel_peak_per_tap(self):
        """_kernel(499 000) peaks at no more than 16 B of traced memory per
        tap (measured 12; 40 from index arrays and a sign table): the
        window + 1 taps it mirrors, and the kernel."""
        window = 499_000
        _kernel(16)  # first-call set-up
        peak = self._traced_peak(lambda: _kernel(window))
        assert peak <= 16 * (2 * window + 1)

    @pytest.mark.parametrize("oversample", [8, 32])
    def test_oversampled_peak_is_independent_of_oversample(self, oversample):
        """An oversampled run peaks at no more than 4 arrays at both
        oversample 8 and 32 (measured 3.72, the half-rate run's peak), so
        the n*oversample grid and the 2n-point spectrum are never built."""
        dist = GaussianZeroMean(0.5, 0.5)
        mc_delivered_power(dist, CH, 2000, oversample, SEED)  # imports and caches
        peak = self._traced_peak(
            lambda: mc_delivered_power(dist, CH, self.N, oversample, SEED))
        assert peak <= 4 * 16 * self.N

    def test_half_rate_peak(self):
        """A half-rate run peaks at no more than 4 arrays (measured 3.72):
        the symbols, the mid-samples with their zero-padded frame source and
        the noise draws, with the channel products formed in place and no
        whole-sequence transform."""
        dist = GaussianZeroMean(0.5, 0.5)
        mc_delivered_power(dist, CH, 2000, 2, SEED, estimator="half_rate")
        peak = self._traced_peak(
            lambda: mc_delivered_power(dist, CH, self.N, 2, SEED, estimator="half_rate"))
        assert peak <= 4 * 16 * self.N

    def test_no_kernel_spectrum_retained(self):
        """At n = 20 000 and window 5000 the mid-samples take one
        32768-point frame, whose kernel spectrum is 512 KiB.  Nothing of it,
        nor of the 10001-tap kernel, is held once the call returns."""
        dist = GaussianZeroMean(0.5, 0.5)
        mc_delivered_power(dist, CH, 2000, 8, SEED, window=16)  # imports
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mc_delivered_power(dist, CH, 20_000, 8, SEED, window=5000)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert retained <= 16 * 1024

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the resident high-water mark from /proc")
    def test_fresh_process_resident_peak(self):
        """After a warm-up call, one oversampled call at n = 1e6 raises a
        fresh process's resident high-water mark by no more than 4 arrays
        (64 MB; measured 50 MB, and 79 MB with whole-sequence FFTs): the
        four-step transforms need no length-n scratch, which tracemalloc
        cannot see.  The mark is the process's own VmHWM: ru_maxrss would
        start at the test runner's resident set, which it keeps through
        fork and exec."""
        code = textwrap.dedent("""
            from swipt.moments import GaussianZeroMean
            from swipt.rectenna import ChannelParams
            from swipt.simulate import mc_delivered_power

            def peak_kib():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))

            dist, ch = GaussianZeroMean(0.5, 0.5), ChannelParams()
            mc_delivered_power(dist, ch, 10_000, 8, 1)
            before = peak_kib()
            mc_delivered_power(dist, ch, 1_000_000, 8, 1)
            print(peak_kib() - before)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert int(proc.stdout) * 1024 <= 4 * 16 * 1_000_000


class TestEvenFourthMoment:
    """The integer-time fourth-moment oracles agree with each other."""

    def test_closed_form_anchor(self):
        p = gaussian_profile(0.0, 0.0, 0.5, 0.5)
        # |h|^4*Q + 4*sigma^2*|h|^2*P + 2*sigma^4 = 2 + 4e-4 + 2e-8
        assert fourth_moment_even(p, CH) == pytest.approx(2.00040002,
                                                          rel=1e-12)

    def test_monte_carlo_matches_closed_form(self):
        cases = [
            GaussianZeroMean(0.5, 0.5),
            GaussianZeroMean(1.0, 0.0),
            GaussianGeneral(0.5, 0.0, 0.5, 0.25),
            FiniteConstellation.qpsk(),
        ]
        for dist in cases:
            est = mc_even_fourth_moment(dist, CH, 50_000, SEED)
            expected = fourth_moment_even(profile_of(dist), CH)
            assert abs(est.mean - expected) <= 4.0 * est.std_error, dist

    def test_deterministic(self):
        dist = FiniteConstellation.qpsk()
        a = mc_even_fourth_moment(dist, CH, 5000, SEED)
        b = mc_even_fourth_moment(dist, CH, 5000, SEED)
        assert a == b

    def test_count_validation(self):
        with pytest.raises(ValueError):
            mc_even_fourth_moment(GaussianZeroMean(0.5, 0.5), CH, 999, SEED)
