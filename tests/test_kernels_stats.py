import math

import numpy as np
import pytest

from pagecast import kernels
from pagecast.stats import (
    chebyshev_halfwidth,
    gaussian_halfwidth,
    norm_ppf,
    norm_ppf_array,
)


class TestNormPpf:
    def test_known_quantiles(self):
        assert norm_ppf(0.5) == pytest.approx(0.0, abs=1e-12)
        assert norm_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert norm_ppf(0.84134474606854293) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3, 0.45):
            assert norm_ppf(p) == pytest.approx(-norm_ppf(1 - p), abs=1e-12)

    def test_tails(self):
        assert norm_ppf(1e-12) == pytest.approx(-7.034, abs=1e-2)
        assert norm_ppf(0.0) == -math.inf
        assert norm_ppf(1.0) == math.inf

    def test_roundtrip_through_cdf(self):
        for p in (1e-6, 0.01, 0.2, 0.5, 0.9, 0.999999):
            x = norm_ppf(p)
            back = 0.5 * math.erfc(-x / math.sqrt(2))
            assert back == pytest.approx(p, rel=1e-9, abs=1e-15)

    def test_array_variant_close_to_scalar(self):
        p = np.linspace(1e-9, 1 - 1e-9, 2001)
        arr = norm_ppf_array(p)
        scal = np.array([norm_ppf(v) for v in p])
        np.testing.assert_allclose(arr, scal, atol=2e-8)


class TestHalfwidths:
    def test_gaussian_95(self):
        assert gaussian_halfwidth(1.0, 95.0) == pytest.approx(1.95996, abs=1e-4)

    def test_chebyshev_95(self):
        assert chebyshev_halfwidth(1.0, 95.0) == pytest.approx(4.47214, abs=1e-4)

    @pytest.mark.parametrize("c, exact", [
        (1.0, 0.012533469508069274),
        (50.0, 0.6744897501960817),
        (95.0, 1.9599639845400538),
        (99.0, 2.5758293035489004),
        (99.9, 3.290526731491926),
        (99.99, 3.890591886412582),
        (99.999, 4.417173413467606),
    ])
    def test_gaussian_quantile_exact_to_4_ulp(self, c, exact):
        # exact: the correctly rounded quantile of p = 0.5 + c/200, from
        # mpmath at 60 digits
        assert abs(gaussian_halfwidth(1.0, c) - exact) <= 4 * math.ulp(exact)

    def test_chebyshev_wider_everywhere(self):
        for c in (1.0, 10.0, 50.0, 90.0, 99.0, 99.9):
            assert chebyshev_halfwidth(1.0, c) > gaussian_halfwidth(1.0, c)


def _ar_recurrence_loop(seed, beta, steps):
    w = len(beta)
    buf = np.empty(w + steps, dtype=np.float64)
    buf[:w] = seed
    for i in range(steps):
        acc = 0.0
        for j in range(w):
            acc += buf[i + j] * beta[j]
        buf[w + i] = acc
    return buf[w:]


def _reconstruct_points_loop(U, s, V, rows, cols):
    out = np.empty(len(rows), dtype=np.float64)
    for i in range(len(rows)):
        acc = 0.0
        for j in range(len(s)):
            acc += U[rows[i], j] * s[j] * V[cols[i], j]
        out[i] = acc
    return out


class TestKernels:
    """The kernels against plain loops; summation order differs, so they
    agree to rounding, not bit for bit."""

    def test_variants_agree_ar(self):
        rng = np.random.default_rng(0)
        beta = rng.normal(size=12)
        beta /= np.abs(beta).sum() * 1.1
        seed = rng.normal(size=12)
        np.testing.assert_allclose(kernels.ar_recurrence(seed, beta, 50),
                                   _ar_recurrence_loop(seed, beta, 50),
                                   rtol=1e-12, atol=1e-15)

    def test_ar_recurrence_matches_manual(self):
        beta = np.array([0.25, 0.75])
        seed = np.array([1.0, 2.0])
        out = kernels.ar_recurrence(seed, beta, 3)
        x1 = 0.25 * 1.0 + 0.75 * 2.0
        x2 = 0.25 * 2.0 + 0.75 * x1
        x3 = 0.25 * x1 + 0.75 * x2
        np.testing.assert_allclose(out, [x1, x2, x3], rtol=1e-15)

    def test_variants_agree_reconstruct(self):
        rng = np.random.default_rng(1)
        U = rng.normal(size=(8, 3))
        s = np.abs(rng.normal(size=3))
        V = rng.normal(size=(20, 3))
        rows = rng.integers(0, 8, size=30)
        cols = rng.integers(0, 20, size=30)
        np.testing.assert_allclose(
            kernels.reconstruct_points(U, s, V, rows, cols),
            _reconstruct_points_loop(U, s, V, rows, cols), rtol=1e-12)
