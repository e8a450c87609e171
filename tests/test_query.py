import copy
import math
import tracemalloc

import numpy as np
import pytest

import pagecast as pc
from pagecast import query
from pagecast.errors import (InvalidConfidence, NonFiniteInput, OutOfRange,
                             UnknownSeries, UnstableForecast)
from pagecast.estimator import zero_filled
from pagecast.kernels import ar_recurrence, reconstruct_points
from pagecast.query import MAX_HORIZON, QUERY_CHUNK


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

    @pytest.mark.parametrize("method", ["gaussian", "chebyshev"])
    def test_sigma_nan_or_negative_refused(self, method):
        # a NaN sigma gave the silent interval (nan, nan)
        with pytest.raises(InvalidConfidence):
            pc.prediction_interval(0.0, math.nan, 95.0, method)
        with pytest.raises(InvalidConfidence):
            pc.prediction_interval(0.0, -1.0, 95.0, method)
        assert pc.prediction_interval(0.0, math.inf, 95.0, method) == (
            -math.inf, math.inf)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("method", ["gaussian", "chebyshev"])
    def test_non_finite_mean_refused(self, mean, method):
        # a NaN mean gave the silent interval (nan, nan)
        with pytest.raises(NonFiniteInput):
            pc.prediction_interval(mean, 1.0, 95.0, method)


class TestImputationQueries:
    def test_single_submodel_exact_reconstruction(self):
        model, vals, _ = _model()
        sm = model.submodels[0]
        t = 500
        local = (t - 1) - sm.start_step
        row, col_j = local % sm.L, local // sm.L
        pos = model.N * col_j  # series 0
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
        segs = [sm for sm in model.segments_for_steps(step, step)
                if step in range(*sm.covered_steps())]
        assert len(segs) == 2
        expected = []
        for sm in segs:
            local = step - sm.start_step
            pos = model.N * (local // sm.L)  # series 0
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

    @pytest.mark.parametrize("series", [1.7, 0.2, True, np.bool_(False),
                                        None])
    def test_series_neither_name_nor_index_refused(self, series):
        # int() made 1.7 and True series 1 and 0.2 series 0
        model, _, _ = _model(n_series=2)
        with pytest.raises(UnknownSeries):
            pc.predict_point(model, series, 10)
        with pytest.raises(UnknownSeries):
            pc.predict_range(model, series, 10, 20)

    def test_numpy_ints_are_indices_and_times(self):
        model, _, _ = _model(n_series=2)
        got = pc.predict_point(model, np.int64(1), np.int32(10))
        assert got == pc.predict_point(model, "s1", 10)
        assert type(got.t) is int

    @pytest.mark.parametrize("t1, t2", [(100.0, 100.0), (10, 20.0),
                                        (10.0, 20), (True, True), ("5", "5")])
    def test_times_must_be_integers(self, t1, t2):
        model, _, _ = _model()
        with pytest.raises(OutOfRange):
            pc.predict_range(model, "s0", t1, t2)
        if t1 == t2:
            with pytest.raises(OutOfRange):
                pc.predict_point(model, "s0", t1)

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
        model.hp.coeff_window = 1
        bm, bv = model.averaged_coefficients()
        last = fitted[-1]
        np.testing.assert_array_equal(bm[-len(last.beta_mean):], last.beta_mean)
        model.hp.coeff_window = 10
        bm10, _ = model.averaged_coefficients()
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
        model.hp.coeff_window = 10
        bm, _ = model.averaged_coefficients()
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


def _reference_range(model, n, t1, t2, confidence, method, with_uq):
    """The per-point algorithm, kept as the reference for predict_range:
    each t averages (np.mean) one single-point reconstruction per covering
    sub-model and factor set; a forecast reads one sequential trajectory of
    the averaged coefficients from the zero-filled tail of the data."""
    T = model.n_steps
    if t2 > T and not model.in_fallback:
        beta_mean, beta_var = model.averaged_coefficients()
        seed = zero_filled(model.raw.tail(len(beta_mean))[n])
        g_mean = ar_recurrence(seed, beta_mean, t2 - T)
        g_second = ar_recurrence(seed * seed, beta_var, t2 - T)
    out = []
    for t in range(t1, t2 + 1):
        kind = "imputed" if t <= T else "forecast"
        means, seconds = [], []
        if model.in_fallback:
            pass
        elif kind == "forecast":
            means.append(float(g_mean[t - T - 1]))
            seconds.append(float(g_second[t - T - 1]))
        else:
            for sm in model.segments_for_steps(t - 1, t - 1):
                local = t - 1 - sm.start_step
                if t - 1 not in range(*sm.covered_steps()):
                    continue
                row = np.array([local % sm.L], dtype=np.int64)
                col = np.array([model.N * (local // sm.L) + n],
                               dtype=np.int64)
                factor_sets = ((sm.mean_svd, means), (sm.var_svd, seconds))
                for svd, acc in factor_sets[:2 if with_uq else 1]:
                    model.query_stats["factor_entries"] += 3 * svd.rank
                    acc.append(float(reconstruct_points(
                        svd.U, svd.s, svd.V, row, col)[0]))
        name = model.names[n]
        if not means:
            mean, var = model.fallback_mean, model.fallback_var
            out.append(pc.PredictionResult(
                name, t, mean, var if with_uq else None,
                -math.inf if with_uq else None, math.inf if with_uq else None,
                kind, confidence, method, fallback=True))
            continue
        mean = float(np.mean(means))
        if not with_uq:
            out.append(pc.PredictionResult(name, t, mean, None, None, None,
                                           kind, confidence, method))
            continue
        var = max(0.0, float(np.mean(seconds)) - mean * mean)
        lo, hi = pc.prediction_interval(mean, math.sqrt(var), confidence,
                                        method)
        out.append(pc.PredictionResult(name, t, mean, var, lo, hi, kind,
                                       confidence, method))
    return out


def _multi_segment_model():
    truth = pc.gen_synthetic_I(n=1, m=3, T=2500, r=3, seed=2,
                               preset="scaling")
    batch = pc.corrupt(truth, sigma=0.2, p_obs=0.8, seed=3).observations
    return pc.create_model(batch, pc.HyperParams(T0=60, Tprime=3000))


def _query_mix_model(steps=20_000, hp=None):
    truth = pc.gen_synthetic_I(n=2, m=5, T=steps, r=4, seed=0,
                               preset="scaling")
    batch = pc.corrupt(truth, sigma=0.2, p_obs=0.9, seed=1).observations
    return pc.create_model(batch, hp)


def _fallback_model():
    return _model(n_steps=50)[0]


class TestOneQueryPath:
    """predict_range answers exactly as the per-point reference does."""

    @staticmethod
    def _landmarks(model):
        """Steps where the answer changes regime: the start and end of each
        sub-model's covered cells (overlaps and the unfinished-column tail)
        and the end of the data."""
        marks = {1, model.n_steps, model.n_steps + 1}
        for sm in model.submodels:
            a, b = sm.covered_steps()
            marks |= {a + 1, b, b + 1}
        return sorted(marks)

    @pytest.mark.parametrize("build", [_multi_segment_model, _query_mix_model,
                                       _fallback_model])
    def test_matches_reference(self, build):
        model = build()
        rng = np.random.default_rng(17)
        spans = []
        for mark in self._landmarks(model):
            before = int(rng.integers(0, QUERY_CHUNK + 300))
            after = int(rng.integers(0, 40))
            spans.append((max(1, mark - before),
                          min(model.n_steps + 40, mark + after)))
        spans.append((1, min(model.n_steps, 2 * QUERY_CHUNK + 7)))
        configs = [(95.0, "gaussian", True), (80.0, "chebyshev", True),
                   (95.0, "gaussian", False)]
        for i, (t1, t2) in enumerate(spans):
            confidence, method, with_uq = configs[i % len(configs)]
            n = i % model.N
            model.query_stats["factor_entries"] = 0
            got = pc.predict_range(model, n, t1, t2, confidence, method,
                                   with_uq)
            entries = model.query_stats["factor_entries"]
            model.query_stats["factor_entries"] = 0
            want = _reference_range(model, n, t1, t2, confidence, method,
                                    with_uq)
            assert entries == model.query_stats["factor_entries"]
            assert got == want, (t1, t2)
            point = int(rng.integers(t1, t2 + 1))
            assert pc.predict_point(model, n, point, confidence, method,
                                    with_uq) == want[point - t1]

    def test_spans_cross_every_regime(self):
        model = _multi_segment_model()
        assert any(
            sm.P > (sm.retrain_history[-1] // sm.N - sm.start_step) // sm.L
            for sm in model.trained_submodels())
        kinds = {(r.kind, r.fallback) for r in pc.predict_range(
            model, 0, 1, model.n_steps + 5)}
        assert kinds == {("imputed", False), ("imputed", True),
                         ("forecast", False)}
        older, newer = model.submodels[:2]
        assert older.covered_steps()[1] > newer.covered_steps()[0]

    @pytest.mark.parametrize("method", ["gaussian", "chebyshev"])
    def test_interval_quantile_once_per_call(self, monkeypatch, method):
        # A range works out its interval quantile once, not per point.
        model = _multi_segment_model()
        calls = []
        for name in ("gaussian_halfwidth", "chebyshev_halfwidth"):
            original = getattr(query, name)
            monkeypatch.setattr(query, name, lambda *a, f=original:
                                calls.append(a) or f(*a))
        out = pc.predict_range(model, 1, 1, model.n_steps + 20, 90.0, method)
        assert sum(r.lo is not None and not r.fallback for r in out) > 2000
        assert len(calls) <= 1

    @pytest.mark.parametrize("call, error", [
        (dict(t1=0, t2=0), OutOfRange),
        (dict(t1=0, t2=5), OutOfRange),
        (dict(t1=9, t2=8), OutOfRange),
        (dict(t1=2000 + MAX_HORIZON + 1, t2=2000 + MAX_HORIZON + 1),
         OutOfRange),
        (dict(t1=1, t2=2000 + MAX_HORIZON + 1), OutOfRange),
        (dict(series="nope"), UnknownSeries),
        (dict(series=7), UnknownSeries),
        (dict(confidence=0.0), InvalidConfidence),
        (dict(confidence=100.0), InvalidConfidence),
        (dict(method="bogus"), InvalidConfidence),
    ])
    def test_invalid_input_errors(self, call, error):
        model, _, _ = _model()
        args = dict(series="s0", t1=5, t2=9, confidence=95.0,
                    method="gaussian")
        args.update(call)
        point_too = "t2" not in call or call["t1"] == call["t2"]
        for with_uq in (True, False):
            with pytest.raises(error):
                pc.predict_range(model, args["series"], args["t1"],
                                 args["t2"], args["confidence"],
                                 args["method"], with_uq)
            if point_too:
                with pytest.raises(error):
                    pc.predict_point(model, args["series"], args["t1"],
                                     args["confidence"], args["method"],
                                     with_uq)


class TestQueryMemory:
    def test_range_memory_does_not_grow_with_length(self):
        # Peak memory of a call beyond what its answers keep: the factor
        # rows gathered per chunk, not per range.
        model = _query_mix_model(steps=24_000, hp=pc.HyperParams(k2=32))
        assert model.submodels[0].k2 >= 20
        transient = {}
        for steps in (2000, 20000):
            tracemalloc.start()
            try:
                out = pc.predict_range(model, 3, 1, steps)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(out) == steps and not any(r.fallback for r in out)
            del out
            transient[steps] = peak - held
        assert transient[20000] - transient[2000] < 1 << 20
