import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pagecast as pc
import pagecast.svd_engine as svd_engine
from pagecast.errors import EmptySpectrum, NonFiniteInput, RankOutOfRange, ShapeMismatch
from pagecast.svd_engine import _sign_fix, svd_with_spectrum


def _jacobi_gram_singular_values(m: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Independent oracle: eigenvalues of m^T m by cyclic Jacobi iteration."""
    a = m.T @ m
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-14:
                    continue
                off += a[p, q] ** 2
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-24:
            break
    return np.sqrt(np.clip(np.sort(np.diag(a))[::-1], 0, None))


class TestTruncatedSvd:
    def test_rank_one_matrix_exact(self):
        m = np.ones((2, 3))
        svd = pc.truncated_svd(m, 1)
        np.testing.assert_allclose(svd.reconstruct(), m, atol=1e-12)
        assert svd.s[0] == pytest.approx(np.sqrt(6.0))

    def test_diagonal_case(self):
        svd = pc.truncated_svd(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(svd.reconstruct(), np.diag([3.0, 0.0]),
                                   atol=1e-12)

    def test_full_rank_matches_jacobi_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 8))
        svd = pc.truncated_svd(m, 5)
        err = np.linalg.norm(svd.reconstruct() - m) / np.linalg.norm(m)
        assert err < 1e-10
        oracle = _jacobi_gram_singular_values(m.T)  # 5x5 gram via transpose
        np.testing.assert_allclose(svd.s, oracle[:5], rtol=1e-8)

    def test_validation(self):
        with pytest.raises(NonFiniteInput):
            pc.truncated_svd(np.array([[np.nan, 1.0]]), 1)
        with pytest.raises(RankOutOfRange):
            pc.truncated_svd(np.eye(3), 0)
        with pytest.raises(RankOutOfRange):
            pc.truncated_svd(np.eye(3), 4)

    @pytest.mark.parametrize("k", [2.0, True, 1.5, "2", None], ids=repr)
    def test_rank_must_be_an_integer(self, k):
        # Refused by both factorisations, not read as a slice bound.
        svd = pc.truncated_svd(np.eye(3), 2)
        with pytest.raises(RankOutOfRange):
            pc.truncated_svd(np.eye(3), k)
        with pytest.raises(RankOutOfRange):
            pc.append_columns(svd, np.ones((3, 1)), k)

    def test_numpy_int_rank(self):
        m = np.random.default_rng(4).normal(size=(4, 6))
        svd = pc.truncated_svd(m, np.int64(2))
        assert svd.rank == 2
        assert pc.append_columns(svd, m[:, :2], np.int32(2)).rank == 2

    def test_eckart_young_monotone(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(8, 15))
        errs = [np.linalg.norm(m - pc.truncated_svd(m, k).reconstruct())
                for k in range(1, 9)]
        assert all(errs[i] >= errs[i + 1] - 1e-12 for i in range(7))

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(6, 10))
        svd = pc.truncated_svd(m, 4)
        assert svd.orthogonality_error() < 1e-10

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 9))
        a = pc.truncated_svd(m, 3)
        b = pc.truncated_svd(m.copy(), 3)
        np.testing.assert_array_equal(a.U, b.U)
        for j in range(3):
            col = a.U[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_sign_fix_matches_column_loop(self):
        rng = np.random.default_rng(5)
        U = rng.normal(size=(7, 5))
        U[[1, 4], 2] = [-3.0, 3.0]  # tie: the first largest entry decides
        U[[0, 6], 3] = [3.0, -3.0]
        V = rng.normal(size=(9, 5))
        want_u, want_v = U.copy(), V.copy()
        for j in range(U.shape[1]):
            col = want_u[:, j]
            if col[np.argmax(np.abs(col))] < 0:
                want_u[:, j] = -col
                want_v[:, j] = -want_v[:, j]
        _sign_fix(U, V)
        assert U.tobytes() == want_u.tobytes() and V.tobytes() == want_v.tobytes()
        assert U[1, 2] == 3.0 and U[0, 3] == 3.0


class TestSelectRank:
    def test_square_shape_omega(self):
        # beta = 1: omega = 0.56 - 0.95 + 1.82 + 1.43 = 2.86
        s = np.array([10.0, 1.0, 1.0, 1.0, 1.0])
        # median 1.0, threshold 2.86 -> only the 10 passes
        assert pc.select_rank(s, 5, 5) == 1

    def test_elongated_shape(self):
        s = np.array([100.0, 1.0, 0.9, 0.8, 0.7])
        # beta = 0.05: omega = 1.518695, tau = 0.9 * omega = 1.3668
        assert pc.select_rank(s, 5, 100) == 1

    def test_clamp_to_one(self):
        assert pc.select_rank(np.array([5.0]), 1, 1) == 1

    def test_empty(self):
        with pytest.raises(EmptySpectrum):
            pc.select_rank(np.array([]), 3, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrum_refused(self, bad):
        for s in ([bad, 1.0, 0.5], [1.0, 0.5, bad]):
            with pytest.raises(NonFiniteInput):
                pc.select_rank(np.array(s), 3, 3)

    @pytest.mark.parametrize("L, cols", [(0, 0), (0, 3), (3, 0), (-1, 3)])
    def test_shape_without_entries_refused(self, L, cols):
        with pytest.raises(RankOutOfRange):
            pc.select_rank(np.array([1.0]), L, cols)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.integers(min_value=2, max_value=30),
           st.integers(min_value=2, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance(self, c, rows, cols):
        rng = np.random.default_rng(rows * 31 + cols)
        s = np.sort(np.abs(rng.normal(size=min(rows, cols))))[::-1]
        assert pc.select_rank(s, rows, cols) == pc.select_rank(c * s, rows, cols)


class TestAppendColumns:
    def test_zero_column_append(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 7))
        svd = pc.truncated_svd(m, 3)
        out = pc.append_columns(svd, np.zeros((5, 2)), 3)
        np.testing.assert_allclose(out.s, svd.s, rtol=1e-12)
        np.testing.assert_allclose(out.V[-2:], 0.0, atol=1e-12)

    def test_rank_one_exact(self):
        a = np.ones((3, 2))
        svd = pc.truncated_svd(a, 1)
        out = pc.append_columns(svd, np.ones((3, 1)), 1)
        assert out.s[0] == pytest.approx(3.0)
        np.testing.assert_allclose(out.reconstruct(), np.ones((3, 3)),
                                   atol=1e-12)

    def test_in_span_matches_batch(self):
        rng = np.random.default_rng(9)
        basisL = rng.normal(size=(4, 2))
        coef = rng.normal(size=(2, 6))
        a = basisL @ coef
        b = basisL @ rng.normal(size=(2, 3))
        svd = pc.truncated_svd(a, 2)
        inc = pc.append_columns(svd, b, 2)
        batch = pc.truncated_svd(np.hstack([a, b]), 2)
        angle = np.linalg.norm(inc.U @ inc.U.T - batch.U @ batch.U.T)
        assert angle < 1e-8
        np.testing.assert_allclose(inc.s, batch.s, rtol=1e-9)

    def test_shape_mismatch(self):
        svd = pc.truncated_svd(np.eye(3), 2)
        with pytest.raises(ShapeMismatch):
            pc.append_columns(svd, np.zeros((4, 1)), 2)
        with pytest.raises(RankOutOfRange):
            pc.append_columns(svd, np.zeros((3, 1)), 9)

    def test_orthonormality_after_many_appends(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(6, 3))
        svd = pc.truncated_svd(rng.normal(size=(6, 8)), 3)
        for _ in range(1000):
            col = base @ rng.normal(size=(3, 1)) + 1e-3 * rng.normal(size=(6, 1))
            svd = pc.append_columns(svd, col, 3)
        assert svd.orthogonality_error() < 1e-10
        assert svd.V.shape == (1008, 3)

    def test_drifted_factors_are_reorthogonalized(self, monkeypatch):
        rng = np.random.default_rng(14)
        svd = pc.truncated_svd(rng.normal(size=(20, 60)), 8)
        drifted = pc.TruncatedSVD(svd.U + 1e-6 * rng.normal(size=svd.U.shape),
                                  svd.s,
                                  svd.V + 1e-6 * rng.normal(size=svd.V.shape))
        assert 1e-6 < drifted.orthogonality_error() < 1e-4
        calls = []
        real = svd_engine._reorthogonalize
        monkeypatch.setattr(svd_engine, "_reorthogonalize",
                            lambda Q: calls.append(Q.shape) or real(Q))
        out = pc.append_columns(drifted, rng.normal(size=(20, 5)), 8)
        assert calls == [(20, 8), (65, 8)]  # U, then V
        assert out.orthogonality_error() <= 1e-12
        assert out.V.shape == (65, 8)

    def test_growing_noisy_stream_tracks_batch_values(self):
        rng = np.random.default_rng(13)
        cols = [rng.normal(size=(5, 4))]
        svd = pc.truncated_svd(cols[0], 4)
        for _ in range(30):
            b = rng.normal(size=(5, 2))
            cols.append(b)
            svd = pc.append_columns(svd, b, 4)
        full = np.hstack(cols)
        batch = pc.truncated_svd(full, 4)
        # incremental truncation loses the discarded tail, so compare loosely
        np.testing.assert_allclose(svd.s[0], batch.s[0], rtol=0.05)


class TestSvdWithSpectrum:
    def test_gram_route_matches_dense(self):
        rng = np.random.default_rng(21)
        low = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 400))
        noise = 0.01 * rng.normal(size=(200, 400))
        m = low + noise
        exact = pc.truncated_svd(m, 4)
        fast, spectrum = svd_with_spectrum(m, 4)
        assert m.shape[0] > 160  # exercises the gram path
        np.testing.assert_allclose(fast.s, exact.s, rtol=1e-8)
        gap = np.linalg.norm(fast.U @ fast.U.T - exact.U @ exact.U.T)
        assert gap < 1e-6
        dense_spec = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(spectrum[:20], dense_spec[:20], rtol=1e-6)

    def test_auto_rank_selection(self):
        rng = np.random.default_rng(22)
        low = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 90))
        m = low + 0.01 * rng.normal(size=(40, 90))
        svd, spectrum = svd_with_spectrum(m, None)
        assert svd.rank == 3
        assert len(spectrum) == 40
