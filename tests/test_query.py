import copy
import tracemalloc

import numpy as np
import pytest

import pagecast as pc
from pagecast.errors import (InvalidConfidence, OutOfRange, UnknownSeries,
                             UnstableForecast)
from pagecast.query import MAX_HORIZON


def _model(n_steps=2000, n_series=1, seed=0, noise=0.1, hp=None):
    rng = np.random.default_rng(seed)
    t = np.arange(1, n_steps + 1, dtype=float)
    f = np.cos(2 * np.pi * t / 150) + 0.5 * np.cos(2 * np.pi * t / 41)
    vals = np.vstack([(1 + 0.2 * i) * f for i in range(n_series)])
    vals += noise * rng.normal(size=vals.shape)
    batch = pc.TimeSeriesBatch([f"s{i}" for i in range(n_series)], vals,
                               np.ones(vals.shape, bool))
    hp = hp or pc.HyperParams(T0=100, Tprime=1_000_000)
    return pc.create_model(batch, hp), vals, f


class TestPredictionInterval:
    def test_gaussian_95(self):
        lo, hi = pc.prediction_interval(0.0, 1.0, 95.0, "gaussian")
        assert lo == pytest.approx(-1.95996, abs=1e-4)
        assert hi == pytest.approx(1.95996, abs=1e-4)

    def test_chebyshev_95(self):
        lo, hi = pc.prediction_interval(0.0, 1.0, 95.0, "chebyshev")
        assert hi == pytest.approx(4.47214, abs=1e-4)

    def test_zero_sigma_collapses(self):
        assert pc.prediction_interval(3.0, 0.0, 95.0) == (3.0, 3.0)

    def test_nesting(self):
        for method in ("gaussian", "chebyshev"):
            lo1, hi1 = pc.prediction_interval(0.0, 1.0, 50.0, method)
            lo2, hi2 = pc.prediction_interval(0.0, 1.0, 95.0, method)
            assert lo2 < lo1 < hi1 < hi2

    def test_chebyshev_contains_gaussian(self):
        for c in (5.0, 30.0, 60.0, 95.0, 99.0):
            g = pc.prediction_interval(0.0, 2.0, c, "gaussian")
            ch = pc.prediction_interval(0.0, 2.0, c, "chebyshev")
            assert ch[0] < g[0] and g[1] < ch[1]

    def test_invalid_confidence(self):
        with pytest.raises(InvalidConfidence):
            pc.prediction_interval(0.0, 1.0, 0.0)
        with pytest.raises(InvalidConfidence):
            pc.prediction_interval(0.0, 1.0, 100.0)


class TestImputationQueries:
    def test_single_submodel_exact_reconstruction(self):
        model, vals, _ = _model()
        sm = model.submodels[0]
        t = 500
        local = (t - 1) - sm.start_step
        row, col_j = local % sm.L, local // sm.L
        pos = sm.col_position(0, col_j)
        expected = float((sm.mean_svd.U[row] * sm.mean_svd.s)
                         @ sm.mean_svd.V[pos])
        r = pc.predict_point(model, "s0", t)
        assert r.mean == expected
        assert r.kind == "imputed" and not r.fallback

    def test_overlap_averages_two_submodels(self):
        hp = pc.HyperParams(T0=60, Tprime=1000, gamma=0.5)
        model, vals, _ = _model(n_steps=1400, hp=hp)
        t = 1100  # covered by segments 1 (500..1500) and 2 (1000..2000)
        step = t - 1
        segs = [sm for sm in model.segments_for_step(step)
                if sm.covers_local_step(step - sm.start_step)]
        assert len(segs) == 2
        expected = []
        for sm in segs:
            local = step - sm.start_step
            pos = sm.col_position(0, local // sm.L)
            expected.append(float((sm.mean_svd.U[local % sm.L] * sm.mean_svd.s)
                                  @ sm.mean_svd.V[pos]))
        r = pc.predict_point(model, "s0", t)
        assert r.mean == pytest.approx(np.mean(expected), rel=1e-14)

    def test_denoises_toward_truth(self):
        model, vals, f = _model(noise=0.3, seed=3)
        errs = [abs(pc.predict_point(model, "s0", t).mean - f[t - 1])
                for t in range(100, 1900, 50)]
        assert np.mean(errs) < 0.15  # well under the 0.3 noise level

    def test_variance_nonnegative_and_interval_ordered(self):
        model, _, _ = _model(noise=0.4, seed=4)
        for t in (10, 500, 1500, 2300):
            r = pc.predict_point(model, "s0", t, confidence=90.0)
            assert r.variance >= 0.0
            assert r.lo <= r.mean <= r.hi

    def test_no_uq_skips_variance(self):
        model, _, _ = _model()
        r = pc.predict_point(model, "s0", 100, with_uq=False)
        assert r.variance is None and r.lo is None and r.hi is None

    def test_unknown_series(self):
        model, _, _ = _model()
        with pytest.raises(UnknownSeries):
            pc.predict_point(model, "nope", 10)
        with pytest.raises(UnknownSeries):
            pc.predict_point(model, 5, 10)

    def test_invalid_args(self):
        model, _, _ = _model()
        with pytest.raises(OutOfRange):
            pc.predict_point(model, "s0", 0)
        with pytest.raises(InvalidConfidence):
            pc.predict_point(model, "s0", 5, confidence=101.0)
        with pytest.raises(InvalidConfidence):
            pc.predict_point(model, "s0", 5, method="bogus")


class TestForecastQueries:
    def test_constant_series_forecast(self):
        vals = np.full((1, 400), 2.5)
        batch = pc.TimeSeriesBatch(["a"], vals, np.ones_like(vals, bool))
        model = pc.create_model(batch, pc.HyperParams(T0=50, Tprime=10_000))
        r = pc.predict_point(model, "a", 405)
        assert r.kind == "forecast"
        assert r.mean == pytest.approx(2.5, rel=1e-6)
        assert r.variance == pytest.approx(0.0, abs=1e-6)
        assert r.hi - r.lo < 1e-2

    def test_harmonic_forecast_tracks_truth(self):
        model, _, f = _model(n_steps=3000, noise=0.05, seed=5,
                             hp=pc.HyperParams(T0=100, Tprime=1_000_000, L=40))
        t_future = np.arange(3001, 3031, dtype=float)
        truth = (np.cos(2 * np.pi * t_future / 150)
                 + 0.5 * np.cos(2 * np.pi * t_future / 41))
        preds = [pc.predict_point(model, "s0", int(t)).mean for t in t_future]
        assert np.sqrt(np.mean((np.array(preds) - truth) ** 2)) < 0.2

    def test_averaged_coefficients_identity_and_window(self):
        hp = pc.HyperParams(T0=60, Tprime=1000, gamma=0.5)
        model, _, _ = _model(n_steps=1800, hp=hp)
        fitted = [sm for sm in model.submodels if sm.beta_mean is not None]
        assert len(fitted) >= 2
        bm, bv = model.averaged_coefficients(1)
        last = fitted[-1]
        np.testing.assert_array_equal(bm[-len(last.beta_mean):], last.beta_mean)
        bm10, _ = model.averaged_coefficients(10)
        width = max(len(sm.beta_mean) for sm in fitted[-10:])
        manual = np.zeros(width)
        for sm in fitted[-10:]:
            manual[width - len(sm.beta_mean):] += sm.beta_mean
        manual /= len(fitted[-10:])
        np.testing.assert_allclose(bm10, manual, rtol=1e-12)

    def test_two_submodel_average_simple(self):
        model, _, _ = _model(n_steps=400, hp=pc.HyperParams(T0=50, Tprime=10_000))
        sm = model.submodels[0]
        w = len(sm.beta_mean)
        sm.beta_mean = np.zeros(w)
        sm.beta_mean[0] = 1.0
        other = copy.deepcopy(sm)
        other.beta_mean = np.zeros(w)
        other.beta_mean[1] = 1.0
        model.submodels.append(other)
        model._coeff_cache.clear()
        bm, _ = model.averaged_coefficients(10)
        expected = np.zeros(w)
        expected[0] = expected[1] = 0.5
        np.testing.assert_allclose(bm, expected)


    @pytest.mark.parametrize("with_uq", [True, False])
    def test_divergent_recurrence_raises(self, with_uq):
        # lags summing to 2 double the forecast every few steps, so far
        # enough out the paths overflow to inf and then nan
        model, _, _ = _model()
        for sm in model.submodels:
            sm.beta_mean = np.full_like(sm.beta_mean, 2.0 / len(sm.beta_mean))
            sm.beta_var = np.full_like(sm.beta_var, 2.0 / len(sm.beta_var))
        model._coeff_cache.clear()
        pc.predict_point(model, 0, model.n_steps + 10, with_uq=with_uq)
        far = model.n_steps + 50_000
        with pytest.raises(UnstableForecast):
            pc.predict_point(model, 0, far, with_uq=with_uq)
        with pytest.raises(UnstableForecast):
            pc.predict_range(model, 0, far - 1, far, with_uq=with_uq)


class TestPredictRange:
    def test_width_one_matches_point(self):
        model, _, _ = _model()
        a = pc.predict_range(model, "s0", 42, 42)[0]
        b = pc.predict_point(model, "s0", 42)
        assert a.mean == b.mean and a.variance == b.variance

    def test_straddles_training_boundary(self):
        model, _, _ = _model(n_steps=1000)
        out = pc.predict_range(model, "s0", 998, 1003)
        kinds = [r.kind for r in out]
        assert kinds == ["imputed", "imputed", "imputed",
                         "forecast", "forecast", "forecast"]
        # forecast values must agree with the per-point path
        for r in out[3:]:
            assert r.mean == pytest.approx(
                pc.predict_point(model, "s0", r.t).mean, rel=1e-12)

    def test_full_segment_noiseless_reconstruction(self):
        truth = pc.gen_lrf(2, 2, 1, 1200, seed=6)
        model = pc.create_model(truth.observations,
                                pc.HyperParams(T0=100, Tprime=1_000_000))
        sm = model.submodels[0]
        span = sm.L * sm.P
        out = pc.predict_range(model, "s0", 1, span, with_uq=False)
        errs = [abs(r.mean - truth.latent_mean[0, r.t - 1]) for r in out]
        assert max(errs) < 1e-8

    def test_bad_range(self):
        model, _, _ = _model()
        with pytest.raises(OutOfRange):
            pc.predict_range(model, "s0", 10, 5)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_forecast_range_checks_interval_args(self, fallback):
        model, _, _ = _model(n_steps=50 if fallback else 2000)
        assert model.in_fallback == fallback
        t = model.n_steps + 1
        for with_uq in (True, False):
            for bad in ({"confidence": 150.0}, {"method": "bogus"}):
                with pytest.raises(InvalidConfidence):
                    pc.predict_point(model, "s0", t, with_uq=with_uq, **bad)
                with pytest.raises(InvalidConfidence):
                    pc.predict_range(model, "s0", t, t + 2, with_uq=with_uq,
                                     **bad)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_horizon_beyond_limit_raises_before_allocating(self, fallback):
        model, _, _ = _model(n_steps=50 if fallback else 2000)
        assert model.in_fallback == fallback
        t = model.n_steps + MAX_HORIZON + 1
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange):
                pc.predict_point(model, "s0", t)
            with pytest.raises(OutOfRange):
                pc.predict_range(model, "s0", model.n_steps + 1, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLatencyShape:
    def test_factor_touches_independent_of_length(self):
        counts = {}
        for steps in (2000, 20000):
            model, _, _ = _model(n_steps=steps,
                                 hp=pc.HyperParams(T0=100, Tprime=10_000_000,
                                                   k1=4, k2=4))
            model.query_stats["factor_entries"] = 0
            pc.predict_point(model, "s0", steps // 2)
            counts[steps] = model.query_stats["factor_entries"]
        assert counts[2000] == counts[20000]

    def test_empirical_coverage_gaussian_noise(self):
        rng = np.random.default_rng(11)
        n_steps = 6000
        t = np.arange(1, n_steps + 1, dtype=float)
        f = np.cos(2 * np.pi * t / 300) + 0.4 * np.cos(2 * np.pi * t / 77)
        x = f + 0.5 * rng.normal(size=n_steps)
        batch = pc.TimeSeriesBatch(["a"], x[None, :], np.ones((1, n_steps), bool))
        model = pc.create_model(batch, pc.HyperParams(T0=100, Tprime=10_000_000))
        covered = 0
        total = 0
        for tt in range(50, n_steps, 10):
            r = pc.predict_point(model, "a", tt, confidence=95.0)
            total += 1
            covered += (r.lo <= f[tt - 1] <= r.hi)
        assert covered / total >= 0.88
