"""Monte-Carlo waveform validation: symbol streams, mid-sample interpolation,
and the two delivered-power estimators.

Statistical checks use a 4-standard-error gate on seeded runs; structural
checks (determinism, estimator equivalence at the degenerate oversampling
factor) are exact.
"""

import dataclasses
import math

import numpy as np
import pytest

from swipt.moments import gaussian_profile, q_tilde
from swipt.rectenna import ChannelParams
from swipt.series import partial_sum
from swipt.simulate import (
    ESTIMATORS,
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    closed_form_delivered_power,
    draw_symbols,
    fourth_moment_even,
    half_sample_value,
    mc_delivered_power,
    mc_even_fourth_moment,
    mc_q_tilde,
    profile_of,
)
from swipt.simulate import _half_samples, _kernel, _upsample


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

    def test_profile_of_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            profile_of("qpsk")


class TestDrawSymbols:
    def test_deterministic(self):
        dist = GaussianZeroMean(0.5, 0.5)
        a = draw_symbols(dist, 5000, SEED)
        b = draw_symbols(dist, 5000, SEED)
        assert np.array_equal(a, b)

    def test_prefix_stable_across_lengths(self):
        """Extending a run must not disturb the symbols already drawn."""
        dist = GaussianGeneral(0.3, -0.1, 1.0, 0.5)
        short = draw_symbols(dist, 1500, 7)
        long = draw_symbols(dist, 2500, 7)
        assert np.array_equal(long[:1500], short)

    def test_seed_and_count_validation(self):
        dist = GaussianZeroMean(1.0, 0.0)
        with pytest.raises(ValueError):
            draw_symbols(dist, 0, SEED)
        with pytest.raises(ValueError):
            draw_symbols(dist, 100, -1)

    def test_single_point_constellation_is_constant(self):
        dist = FiniteConstellation((0.5 + 0.25j,), (1.0,))
        out = draw_symbols(dist, 300, 99)
        assert np.all(out == 0.5 + 0.25j)

    def test_empirical_moments_match_profile(self):
        dist = GaussianGeneral(0.5, 0.0, 0.5, 0.25)
        samples = draw_symbols(dist, 1_000_000, 2024)
        exact = profile_of(dist)
        assert np.mean(samples.real) == pytest.approx(exact.mu_r, abs=0.005)
        assert np.mean(samples.real**2) == pytest.approx(exact.P_r, abs=0.01)
        assert np.mean(samples.imag**4) == pytest.approx(exact.Q_i, abs=0.01)


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
        expected = c * partial_sum("T0", w)
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


class TestScipyOracles:
    """The numpy FFT interpolation and upsampling against the SciPy routines
    they stand for."""

    @pytest.mark.parametrize("n, window", [(1000, 1), (1001, 16), (50_000, 128)])
    def test_interpolation_matches_fftconvolve(self, n, window):
        signal = pytest.importorskip("scipy.signal")
        symbols = draw_symbols(GaussianGeneral(0.3, -0.2, 0.5, 0.25), n, SEED)
        ours = _half_samples(symbols, window)
        ref = signal.fftconvolve(symbols, _kernel(window))[window:window + n]
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("oversample", [2, 4, 8])
    def test_upsampler_is_bit_identical_to_resample(self, oversample):
        signal = pytest.importorskip("scipy.signal")
        n = 5000
        waveform = draw_symbols(GaussianZeroMean(0.7, 0.3), 2 * n, SEED)
        ours = _upsample(waveform, n * oversample)
        assert np.array_equal(ours, signal.resample(waveform, n * oversample))


class TestMcQTilde:
    def test_deterministic(self):
        dist = GaussianZeroMean(0.5, 0.5)
        a = mc_q_tilde(dist, 200, 16, SEED)
        b = mc_q_tilde(dist, 200, 16, SEED)
        assert a == b

    def test_argument_validation(self):
        dist = GaussianZeroMean(0.5, 0.5)
        with pytest.raises(ValueError):
            mc_q_tilde(dist, 99, 16, SEED)
        with pytest.raises(ValueError):
            mc_q_tilde(dist, 200, 0, SEED)

    def test_constant_symbol_is_noise_free(self):
        """A one-point alphabet makes |X~|^4 deterministic: |c*T0(w)|^4."""
        c = 0.8 + 0.6j
        dist = FiniteConstellation((c,), (1.0,))
        for w in (4, 32):
            est = mc_q_tilde(dist, 150, w, SEED)
            expected = abs(c * partial_sum("T0", w)) ** 4
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
        s0 = partial_sum("S0", w)
        expected = q_tilde(gaussian_profile(0.0, 0.0, 0.5 * s0, 0.5 * s0))
        est = mc_q_tilde(GaussianZeroMean(0.5, 0.5), 3000, w, SEED)
        assert abs(est.mean - expected) <= 4.0 * est.std_error

    def test_qpsk_within_four_se(self):
        w = 64
        expected = partial_sum("S5", w) + 2.0 * partial_sum("S3", w)
        est = mc_q_tilde(FiniteConstellation.qpsk(), 3000, w, SEED)
        assert abs(est.mean - expected) <= 4.0 * est.std_error


class TestMcDeliveredPowerStructure:
    def test_argument_validation(self):
        dist = GaussianZeroMean(0.5, 0.5)
        with pytest.raises(ValueError):
            mc_delivered_power(dist, CH, 999, 4, SEED)
        with pytest.raises(ValueError, match="squared envelope"):
            mc_delivered_power(dist, CH, 2000, 1, SEED)
        with pytest.raises(ValueError, match="estimator"):
            mc_delivered_power(dist, CH, 2000, 4, SEED, estimator="exact")
        with pytest.raises(ValueError):
            mc_delivered_power(dist, CH, 2000, 4, SEED, window=0)
        with pytest.raises(ValueError, match="edge guard"):
            mc_delivered_power(dist, CH, 1000, 4, SEED, window=500)

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

    def test_estimators_agree_within_combined_se(self):
        dist = GaussianZeroMean(0.7, 0.3)
        a = mc_delivered_power(dist, CH, 20_000, 4, SEED, window=64,
                               estimator="half_rate")
        b = mc_delivered_power(dist, CH, 20_000, 4, SEED, window=64,
                               estimator="oversampled")
        gap = abs(a.mean - b.mean)
        assert gap <= 4.0 * math.hypot(a.std_error, b.std_error)


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


class TestEvenFourthMoment:
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
