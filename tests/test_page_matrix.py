import numpy as np
import pytest

import pagecast as pc
from pagecast.errors import InvalidL, OutOfRange, TooFewRows


def _batch(values, observed=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    if observed is None:
        observed = np.isfinite(values)
    names = [f"s{i}" for i in range(values.shape[0])]
    return pc.TimeSeriesBatch(names, values, observed)


class TestBuild:
    def test_single_series_layout(self):
        page = pc.build_stacked_page(_batch([1, 2, 3, 4]), L=2)
        np.testing.assert_array_equal(page.data, [[1, 3], [2, 4]])
        assert page.L == 2 and page.P == 2 and page.N == 1

    def test_two_series_column_order(self):
        page = pc.build_stacked_page(_batch([[1, 2, 3, 4], [5, 6, 7, 8]]), L=2)
        # columns: s0-col0, s0-col1, s1-col0, s1-col1
        np.testing.assert_array_equal(page.data,
                                      [[1, 3, 5, 7], [2, 4, 6, 8]])

    def test_zero_fill_and_trailing_drop(self):
        page = pc.build_stacked_page(_batch([1, np.nan, 3]), L=2)
        np.testing.assert_array_equal(page.data, [[1], [0]])

    def test_invalid_L(self):
        with pytest.raises(InvalidL):
            pc.build_stacked_page(_batch([1, 2, 3]), L=0)
        with pytest.raises(InvalidL):
            # no complete column fits
            pc.build_stacked_page(_batch([1, 2, 3]), L=4)


class TestCoords:
    def test_identity_case(self):
        assert pc.coords_of(1, 1, L=2, P=2) == (1, 1)

    def test_direct_cases(self):
        assert pc.coords_of(3, 1, L=2, P=2) == (1, 2)
        assert pc.coords_of(4, 2, L=2, P=2) == (2, 4)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            pc.coords_of(5, 1, L=2, P=2)
        with pytest.raises(OutOfRange):
            pc.coords_of(0, 1, L=2, P=2)

    def test_roundtrip_against_layout(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(3, 20))
        batch = _batch(values)
        L = 4
        page = pc.build_stacked_page(batch, L=L)
        for n in range(1, 4):
            for t in range(1, L * page.P + 1):
                row, col = pc.coords_of(t, n, L, page.P)
                assert page.data[row - 1, col - 1] == values[n - 1, t - 1]


class TestDropLastRow:
    def test_basic(self):
        page = pc.build_stacked_page(_batch([1, 2, 3, 4]), L=2)
        z, last = pc.drop_last_row(page)
        np.testing.assert_array_equal(z, [[1, 3]])
        np.testing.assert_array_equal(last, [2, 4])

    def test_too_few_rows(self):
        page = pc.build_stacked_page(_batch([1, 2, 3, 4]), L=1)
        with pytest.raises(TooFewRows):
            pc.drop_last_row(page)

    def test_zeros(self):
        batch = _batch(np.zeros((1, 6)))
        page = pc.build_stacked_page(batch, L=3)
        z, last = pc.drop_last_row(page)
        assert np.all(z == 0) and np.all(last == 0)
        assert z.shape == (2, 2) and last.shape == (2,)


class TestRankProperties:
    def test_single_harmonic_rank_two(self):
        t = np.arange(1, 601, dtype=float)
        for L in (5, 12, 24):
            f = np.cos(0.23 * t + 0.4)
            page = pc.build_stacked_page(_batch(f), L=L)
            s = np.linalg.svd(page.data, compute_uv=False)
            assert np.count_nonzero(s > 1e-8 * s[0]) <= 2

    def test_lrf_rank_bound(self):
        for seed, K, R_max, N in [(0, 1, 2, 1), (1, 3, 2, 4), (2, 2, 3, 2)]:
            truth = pc.gen_lrf(K, R_max, N, 800, seed=seed)
            page = pc.build_stacked_page(truth.observations, L=20)
            s = np.linalg.svd(page.data, compute_uv=False)
            rank = np.count_nonzero(s > 1e-8 * s[0])
            assert rank <= K * R_max, (seed, K, R_max, N, rank)
