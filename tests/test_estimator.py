import numpy as np
import pytest

import pagecast as pc
from pagecast.errors import LengthMismatch
from pagecast.estimator import _degenerate, pcr_coefficients
from pagecast.ingestion import zero_filled


def _batch(values, observed=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    if observed is None:
        observed = np.isfinite(values)
    else:
        observed = np.asarray(observed, dtype=bool)
        if observed.ndim == 1:
            observed = observed[None, :]
    names = [f"s{i}" for i in range(values.shape[0])]
    return pc.TimeSeriesBatch(names, values, observed)


def _closed_form_rank1(m):
    """2x2 rank-1 truncation via the quadratic formula on the Gram matrix."""
    g = m.T @ m
    tr, det = g[0, 0] + g[1, 1], g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    lam = (tr + np.sqrt(tr * tr - 4 * det)) / 2
    # right singular vector for the top eigenvalue
    if abs(g[0, 1]) > 1e-15:
        v = np.array([g[0, 1], lam - g[0, 0]])
    else:
        v = np.array([1.0, 0.0]) if g[0, 0] >= g[1, 1] else np.array([0.0, 1.0])
    v = v / np.linalg.norm(v)
    s1 = np.sqrt(lam)
    u = m @ v / s1
    return s1 * np.outer(u, v)


class TestImputeMean:
    def test_exact_recovery_noiseless_low_rank(self):
        rng = np.random.default_rng(0)
        t = np.arange(1, 1201, dtype=float)
        f = (1.4 * np.cos(2 * np.pi * t / 37 + 0.3)
             + 0.8 * np.cos(2 * np.pi * t / 11 + 1.1))
        batch = _batch(f)
        out = pc.impute_mean(batch, L=30, k=4)
        span = out.in_model[0]
        assert np.abs(out.values[0, span] - f[span]).max() < 1e-8

    def test_noisy_harmonic_nrmse(self):
        rng = np.random.default_rng(1)
        t = np.arange(1, 6001, dtype=float)
        f = np.cos(2 * np.pi * t / 97)
        x = f + 0.1 * rng.normal(size=len(t))
        out = pc.impute_mean(_batch(x), L=77, k=2)
        span = out.in_model[0]
        assert pc.nrmse(out.values[0, span], f[span]) < 0.1

    def test_masked_constant_matches_closed_form(self):
        c = 3.7
        batch = _batch([c, c, np.nan, c])
        out = pc.impute_mean(batch, L=2, k=1)
        m = np.array([[c, 0.0], [c, c]])
        expected = _closed_form_rank1(m)
        # page layout: t=1..4 -> (row, col) = (1,1),(2,1),(1,2),(2,2)
        got = np.array([[out.values[0, 0], out.values[0, 2]],
                        [out.values[0, 1], out.values[0, 3]]])
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_trailing_passthrough(self):
        batch = _batch([1.0, 2.0, 3.0, 4.0, 99.0])
        out = pc.impute_mean(batch, L=2, k=1)
        assert not out.in_model[0, 4]
        assert out.values[0, 4] == 99.0

    def test_idempotent_on_low_rank(self):
        truth = pc.gen_lrf(2, 2, 3, 600, seed=5)
        out = pc.impute_mean(truth.observations, L=20, k=4)
        span = out.in_model[0]
        err = np.abs(out.values[:, span] - truth.latent_mean[:, span]).max()
        assert err < 1e-8


class TestFitForecaster:
    def test_constant_series_min_norm_beta(self):
        c = 2.5
        batch = _batch(np.full(60, c))
        fm = pc.SegmentFit().fit(batch.values, 3, 1)
        np.testing.assert_allclose(fm.beta_mean, [0.5, 0.5], atol=1e-10)
        assert pc.forecast_mean(fm, np.array([c, c])) == pytest.approx(c)

    def test_alternating_series(self):
        a, b = 1.0, -2.0
        x = np.array([a, b] * 40)
        fm = pc.SegmentFit().fit(_batch(x).values, 3, 2)
        # history (.., a, b) -> next is a; (.., b, a) -> next is b
        assert pc.forecast_mean(fm, np.array([a, b])) == pytest.approx(a, abs=1e-8)
        assert pc.forecast_mean(fm, np.array([b, a])) == pytest.approx(b, abs=1e-8)

    def test_zero_matrix_degenerate(self):
        fm = pc.SegmentFit().fit(_batch(np.zeros(30)).values, 3)
        assert fm.degenerate
        np.testing.assert_array_equal(fm.beta_mean, 0.0)

    def test_linear_trend_forecast(self):
        t = np.arange(1, 401, dtype=float)
        fm = pc.SegmentFit().fit(_batch(t).values, 20, 2)
        hist = t[-19:]
        pred = pc.forecast_mean(fm, hist)
        assert abs(pred - 401.0) / 401.0 < 1e-6

    def test_pcr_consistency_exact_rank(self):
        rng = np.random.default_rng(8)
        left = rng.normal(size=(9, 3))
        right = rng.normal(size=(3, 40))
        z = left @ right  # 9 x 40, exact rank 3
        svd = pc.truncated_svd(z[:-1], 3)
        beta = pcr_coefficients(svd, z[-1])
        assert not _degenerate(svd)
        resid = np.linalg.norm(z[-1] - svd.reconstruct().T @ beta)
        assert resid < 1e-8

    def test_forecast_linearity(self):
        rng = np.random.default_rng(9)
        fm = pc.SegmentFit().fit(_batch(rng.normal(size=100)).values, 5, 3)
        h1, h2 = rng.normal(size=4), rng.normal(size=4)
        a, b = 1.7, -0.3
        lhs = pc.forecast_mean(fm, a * h1 + b * h2)
        rhs = a * pc.forecast_mean(fm, h1) + b * pc.forecast_mean(fm, h2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_history_length_checked(self):
        batch = _batch(np.arange(40.0))
        fit = pc.SegmentFit().fit(batch.values, 4, 2)
        with pytest.raises(LengthMismatch):
            pc.forecast_mean(fit, np.zeros(7))
        for width in (1, 7):
            with pytest.raises(LengthMismatch):
                pc.forecast_variance(fit, np.zeros(width))


class TestVariance:
    def test_noiseless_variance_is_zero(self):
        t = np.arange(1, 1001, dtype=float)
        f = np.cos(2 * np.pi * t / 50)
        out = pc.impute_variance(_batch(f), L=20, k1=2, k2=4)
        span = out.in_model[0]
        assert np.all(out.values[0, span] >= 0.0)
        assert out.values[0, span].max() < 1e-6

    def test_bernoulli_variance(self):
        # multivariate Bernoulli arm: estimated variance tracks p(1-p)
        data = pc.gen_synthetic_II(seed=0, T=3000)[("bernoulli", "har")]
        batch = data.observations
        x = zero_filled(batch.values)
        n_series, t_len = x.shape
        L = int(np.sqrt(n_series * t_len / 10))
        out = pc.impute_variance(batch, L=L)
        span = out.in_model[0]
        pred = out.values[:, span]
        truth = data.latent_var[:, span]
        assert np.all(pred >= 0.0)
        # per-series error scaled by the observed series' spread, pooled
        per = [np.mean((pred[n] - truth[n]) ** 2) / x[n, span].std() ** 2
               for n in range(n_series)]
        assert np.sqrt(np.mean(per)) < 0.04

    def test_poisson_variance_tracks_mean(self):
        data = pc.gen_synthetic_III(T=40000, seed=4)["poisson"]
        batch = data.observations
        var = pc.impute_variance(batch, L=63)
        mean = pc.impute_mean(batch, L=63)
        span = var.in_model[0]
        v = var.values[0, span]
        m = mean.values[0, span]
        sel = m > 0.2
        ratio = np.median(v[sel] / m[sel])
        assert 0.7 <= ratio <= 1.3

    def test_variance_forecast_constant_is_zero(self):
        vf = pc.SegmentFit().fit(_batch(np.full(60, 4.0)).values, 3, 1, 1)
        assert pc.forecast_variance(vf, np.array([4.0, 4.0])) == pytest.approx(
            0.0, abs=1e-8)

    def test_variance_forecast_gaussian_noise_level(self):
        rng = np.random.default_rng(11)
        t = np.arange(1, 12001, dtype=float)
        f = np.cos(2 * np.pi * t / 200)
        sigma2 = 0.25
        x = f + np.sqrt(sigma2) * rng.normal(size=len(t))
        train = x[:-100]
        vf = pc.SegmentFit().fit(_batch(train).values, 34)
        w = len(vf.beta_mean)
        preds = []
        for i in range(100):
            hist = x[len(train) + i - w:len(train) + i]
            preds.append(pc.forecast_variance(vf, hist))
        assert abs(np.mean(preds) - sigma2) < 0.1


def test_every_exported_name_resolves():
    missing = [name for name in pc.__all__ if not hasattr(pc, name)]
    assert missing == []
