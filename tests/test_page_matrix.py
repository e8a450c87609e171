import numpy as np
import pytest

import pagecast as pc
from pagecast.errors import InvalidL


def _raw(values):
    values = np.asarray(values, dtype=float)
    return values[None, :] if values.ndim == 1 else values


def _noisy_raw(seed, n_series, n_steps):
    """Normal values with about a fifth of the entries missing (NaN)."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_series, n_steps))
    raw[rng.random(raw.shape) < 0.2] = np.nan
    return raw


class TestBuild:
    def test_single_series_layout(self):
        page = pc.build_stacked_page(_raw([1, 2, 3, 4]), L=2)
        np.testing.assert_array_equal(page, [[1, 3], [2, 4]])
        assert page.flags.f_contiguous

    def test_two_series_column_order(self):
        page = pc.build_stacked_page(_raw([[1, 2, 3, 4], [5, 6, 7, 8]]), L=2)
        # columns: s0-col0, s1-col0, s0-col1, s1-col1 (column N*j + n)
        np.testing.assert_array_equal(page, [[1, 5, 3, 7], [2, 6, 4, 8]])

    def test_zero_fill_and_trailing_drop(self):
        page = pc.build_stacked_page(_raw([1, np.nan, 3]), L=2)
        np.testing.assert_array_equal(page, [[1], [0]])

    def test_invalid_L(self):
        with pytest.raises(InvalidL):
            pc.build_stacked_page(_raw([1, 2, 3]), L=0)
        with pytest.raises(InvalidL):
            # no complete column fits
            pc.build_stacked_page(_raw([1, 2, 3]), L=4)


class TestCoords:
    def test_identity_case(self):
        assert pc.cells(0, 0, L=2, N=1) == (0, 0)

    def test_direct_cases(self):
        assert pc.cells(2, 0, L=2, N=1) == (0, 1)
        assert pc.cells(2, 0, L=2, N=2) == (0, 2)
        assert pc.cells(3, 1, L=2, N=2) == (1, 3)
        rows, cols = pc.cells(np.arange(6), 2, L=3, N=4)
        np.testing.assert_array_equal(rows, [0, 1, 2, 0, 1, 2])
        np.testing.assert_array_equal(cols, [2, 2, 2, 6, 6, 6])

    def test_roundtrip_against_layout(self):
        for n_series, L in [(2, 1), (2, 4), (3, 5), (4, 7)]:
            raw = _noisy_raw(L, n_series, 30)
            page = pc.build_stacked_page(raw, L)
            span = L * (30 // L)
            zero_filled = np.where(np.isnan(raw), 0.0, raw)
            for n in range(n_series):
                local = np.arange(span)
                np.testing.assert_array_equal(
                    page[pc.cells(local, n, L, n_series)],
                    zero_filled[n, :span])


class TestUnstack:
    def test_inverts_build(self):
        for n_series, L in [(1, 3), (2, 1), (3, 4), (5, 6)]:
            raw = _noisy_raw(n_series, n_series, 29)
            span = L * (29 // L)
            steps = pc.unstack(pc.build_stacked_page(raw, L), n_series)
            np.testing.assert_array_equal(
                steps, np.where(np.isnan(raw), 0.0, raw)[:, :span])


class TestRankProperties:
    def test_single_harmonic_rank_two(self):
        t = np.arange(1, 601, dtype=float)
        for L in (5, 12, 24):
            f = np.cos(0.23 * t + 0.4)
            page = pc.build_stacked_page(_raw(f), L=L)
            s = np.linalg.svd(page, compute_uv=False)
            assert np.count_nonzero(s > 1e-8 * s[0]) <= 2

    def test_lrf_rank_bound(self):
        for seed, K, R_max, N in [(0, 1, 2, 1), (1, 3, 2, 4), (2, 2, 3, 2)]:
            truth = pc.gen_lrf(K, R_max, N, 800, seed=seed)
            page = pc.build_stacked_page(truth.observations.values, L=20)
            s = np.linalg.svd(page, compute_uv=False)
            rank = np.count_nonzero(s > 1e-8 * s[0])
            assert rank <= K * R_max, (seed, K, R_max, N, rank)
