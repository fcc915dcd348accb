"""Tests for the half-sample sinc coefficient series.

The closed-form constants are cross-checked three ways: against slow
pure-Python enumeration written here (independent of the package's folded
vectorized sums), against the vectorized brute-force enumerator in
oracles.py, and against the analytic limits as the truncation window grows.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from swipt.series import _s_first, _window_sums, verify

from oracles import (
    SERIES_IDS,
    brute_force_double_sum,
    s_coeff,
    series_sums,
    window_sums_five_arrays,
)

ANALYTIC = {
    "T0": 1.0, "T1": 0.5, "S0": 1.0, "S1": 0.0, "S2": 0.0,
    "S3": 2.0 / 3.0, "S4": -1.0 / 3.0, "S5": 1.0 / 3.0, "S6": 1.0 / 6.0,
}


def sinc_half(l):
    # independent route: sin(pi*x)/(pi*x) at x = l + 1/2, no sign folding
    x = l + 0.5
    return math.sin(math.pi * x) / (math.pi * x)


class TestCoefficients:
    def test_known_values(self):
        assert s_coeff(0) == pytest.approx(2.0 / math.pi, rel=1e-15)
        assert s_coeff(1) == pytest.approx(-2.0 / (3.0 * math.pi), rel=1e-15)
        assert s_coeff(-1) == s_coeff(0)
        assert s_coeff(2) == pytest.approx(2.0 / (5.0 * math.pi), rel=1e-15)

    def test_matches_direct_sinc(self):
        for l in range(-40, 40):
            assert s_coeff(l) == pytest.approx(sinc_half(l), rel=1e-13)

    def test_symmetry_is_exact(self):
        """s(-l-1) == s(l) must hold bit-for-bit, not just approximately."""
        l = np.arange(0, 5000)
        assert np.array_equal(s_coeff(-l - 1), s_coeff(l))

    def test_array_and_scalar_forms(self):
        arr = s_coeff(np.array([0, 1, 2]))
        assert arr.shape == (3,)
        assert isinstance(s_coeff(3), float)
        assert arr[1] == s_coeff(1)


class TestAnalyticValues:
    def test_all_nine(self):
        reports = verify(1)
        assert [r.id for r in reports] == list(SERIES_IDS)
        for r in reports:
            assert r.analytic == ANALYTIC[r.id]


class TestPartialSums:
    def test_convergence_at_1e5(self):
        # alternating single sums converge fast; squared sums have a 2/(pi^2 N) tail
        sums = series_sums(100_000)
        assert abs(sums["T0"] - 1.0) < 1e-9
        assert abs(sums["T1"] - 0.5) < 1e-12
        assert abs(sums["S5"] - 1.0 / 3.0) < 1e-12
        s0_err = abs(sums["S0"] - 1.0)
        tail = 2.0 / (math.pi**2 * 100_000)
        assert 0.5 * tail < s0_err < 2.0 * tail

    def test_errors_shrink_with_window(self):
        coarse_sums, fine_sums = series_sums(100), series_sums(10_000)
        for sid in SERIES_IDS:
            exact = ANALYTIC[sid]
            coarse = abs(coarse_sums[sid] - exact)
            fine = abs(fine_sums[sid] - exact)
            assert fine <= coarse

    def test_small_window_has_right_sign_ordering(self):
        # even at N=10 every partial sum is closer to its own limit than to 0
        # once the limit is nonzero, and keeps its sign
        sums = series_sums(10)
        for sid in ("T0", "T1", "S0", "S3", "S5", "S6"):
            value = sums[sid]
            exact = ANALYTIC[sid]
            assert value == pytest.approx(exact, abs=0.05)
            assert math.copysign(1.0, value) == math.copysign(1.0, exact)
        assert sums["S4"] == pytest.approx(-1.0 / 3.0, abs=0.05)

    def test_rejects_bad_truncation(self):
        for n_terms in (0, -5):
            with pytest.raises(ValueError, match="n_terms must be >= 1"):
                verify(n_terms)


def pure_python_sums(window):
    """Direct nested-loop enumeration of all five multi-index series.

    Deliberately naive — separate code path from both series.verify (windowed
    identities) and brute_force_double_sum (vectorized grids).
    """
    idx = range(-window, window + 1)
    s = {l: sinc_half(l) for l in idx}
    s1 = sum(s[l] * s[k] for l in idx for k in idx if k != l)
    s3 = sum(s[l] ** 2 * s[k] ** 2 for l in idx for k in idx if k != l)
    s6 = sum(s[l] ** 3 * s[k] for l in idx for k in idx if k != l)
    s4 = sum(
        s[l] ** 2 * s[k] * s[d]
        for l in idx for k in idx for d in idx
        if k != l and d != l and d != k)
    return s1, s3, s4, s6


class TestWindowedIdentities:
    """verify's finite-window values must equal true enumeration."""

    def test_pair_sums_against_pure_python(self):
        s1, s3, s4, s6 = pure_python_sums(24)
        sums = series_sums(24)
        assert sums["S1"] == pytest.approx(s1, abs=1e-13)
        assert sums["S3"] == pytest.approx(s3, abs=1e-13)
        assert sums["S4"] == pytest.approx(s4, abs=1e-13)
        assert sums["S6"] == pytest.approx(s6, abs=1e-13)

    def test_quadruple_sum_against_pure_python(self):
        window = 8
        idx = range(-window, window + 1)
        s = {l: sinc_half(l) for l in idx}
        s2 = sum(
            s[l] * s[k] * s[d] * s[m]
            for l in idx for k in idx for d in idx for m in idx
            if k != l and d != l and d != k and m != l and m != k and m != d)
        assert series_sums(window)["S2"] == pytest.approx(s2, abs=1e-13)

    def test_brute_force_matches_identities(self):
        for sid, window in [("S1", 500), ("S3", 500), ("S6", 500),
                            ("S4", 120), ("S2", 120)]:
            brute = brute_force_double_sum(sid, window)
            ident = series_sums(window)[sid]
            assert brute == pytest.approx(ident, abs=1e-12)

    def test_brute_force_caps(self):
        with pytest.raises(ValueError):
            brute_force_double_sum("S1", 2001)
        with pytest.raises(ValueError):
            brute_force_double_sum("S2", 201)
        with pytest.raises(ValueError):
            brute_force_double_sum("S4", 201)

    def test_brute_force_rejects_single_index_series(self):
        for sid in ("T0", "T1", "S0", "S5"):
            with pytest.raises(ValueError):
                brute_force_double_sum(sid, 100)


class TestReports:
    def test_verify_covers_all_series(self):
        reports = verify(10_000)
        assert [r.id for r in reports] == list(SERIES_IDS)
        assert all(r.abs_error < 1e-2 for r in reports)
        for r in reports:
            assert r.analytic == ANALYTIC[r.id]
            assert r.truncation == 10_000
            assert r.abs_error == abs(r.analytic - r.partial_sum)
            assert set(dataclasses.asdict(r)) == {
                "id", "analytic", "partial_sum", "truncation", "abs_error"}


# Sizes where a pairwise sum's blocking or the parity of the last term changes.
TWO_ARRAY_SIZES = [*range(1, 301),
                   *(2**k + d for k in range(2, 21) for d in (-1, 1)),
                   99_991, 1_000_000]


class TestTwoArraySums:
    """_window_sums holds two length-N arrays where it held five, and keeps
    every bit of every sum."""

    def test_sums_match_the_five_array_form_bitwise(self):
        for n in TWO_ARRAY_SIZES:
            sums = _window_sums(n)
            for sid, value in window_sums_five_arrays(n).items():
                assert sums[sid].hex() == value.hex(), (n, sid)

    @pytest.mark.parametrize("n", [1, 2, 7, 4097, 99_991, 1_000_000])
    def test_coefficients_built_in_place_are_s_coeff(self, n):
        """The sums' s array, built from a float arange with the odd entries
        negated, has s_coeff's bits: the two are one definition of s_l."""
        assert np.array_equal(_s_first(n).view(np.int64),
                              s_coeff(np.arange(n)).view(np.int64))

    def test_peak_per_term(self):
        """_window_sums(1e6) peaks at no more than 17 B of traced memory per
        term (measured 16.0; 40.0 with five arrays): s and s^2, with s^3 and
        s^4 formed over them in place."""
        n = 1_000_000
        _window_sums(1000)  # first-call set-up
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _window_sums(n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 17 * n
