import tracemalloc

import numpy as np
import pytest

import pagecast as pc
from pagecast.errors import InvalidParams
from pagecast.ingestion import zero_filled
from pagecast.stats import norm_ppf_array
from pagecast.synth import (DRAW_BLOCK, STREAM_MASK, STREAM_OBS_GAUSS,
                            PhiloxStream)


class TestPhiloxStream:
    def test_deterministic(self):
        a = PhiloxStream(42, 3).uniforms(100)
        b = PhiloxStream(42, 3).uniforms(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = PhiloxStream(42, 0).uniforms(100)
        b = PhiloxStream(42, 1).uniforms(100)
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        u = PhiloxStream(1, 0).uniforms(200000)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_normals_moments(self):
        z = PhiloxStream(7, 2).normals(200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_poisson_moments(self):
        lam = np.full(200000, 0.7)
        x = PhiloxStream(9, 5).poisson(lam)
        assert abs(x.mean() - 0.7) < 0.01
        assert abs(x.var() - 0.7) < 0.02
        assert np.all(x == np.floor(x)) and np.all(x >= 0)

    def test_bernoulli_support(self):
        p = PhiloxStream(3, 1).uniforms(10000)
        x = PhiloxStream(3, 2).bernoulli(p)
        assert set(np.unique(x)) <= {0.0, 1.0}
        assert abs(x.mean() - p.mean()) < 0.02


class TestSyntheticI:
    def test_default_dimensions(self):
        truth = pc.gen_synthetic_I(T=500, seed=1)
        assert truth.observations.values.shape == (400, 500)
        np.testing.assert_array_equal(truth.latent_var, 0.0)

    def test_rank_one_grid_identical_series(self):
        truth = pc.gen_synthetic_I(n=1, m=1, T=300, r=1, seed=2)
        assert truth.observations.values.shape == (1, 300)

    def test_r1_series_proportional(self):
        truth = pc.gen_synthetic_I(n=2, m=3, T=400, r=1, seed=5)
        vals = truth.observations.values
        # one temporal component: every pair of series is collinear
        c = np.corrcoef(vals)
        assert np.all(np.abs(np.abs(c) - 1.0) < 1e-10)

    def test_determinism(self):
        a = pc.gen_synthetic_I(n=3, m=3, T=200, seed=9)
        b = pc.gen_synthetic_I(n=3, m=3, T=200, seed=9)
        np.testing.assert_array_equal(a.observations.values,
                                      b.observations.values)

    def test_presets_differ(self):
        a = pc.gen_synthetic_I(n=2, m=2, T=200, seed=0, preset="default")
        b = pc.gen_synthetic_I(n=2, m=2, T=200, seed=0, preset="scaling")
        assert not np.array_equal(a.observations.values, b.observations.values)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            pc.gen_synthetic_I(n=0, seed=1)
        with pytest.raises(InvalidParams):
            pc.gen_synthetic_I(preset="bogus", seed=1)


@pytest.fixture(scope="module")
def synth2_data():
    return pc.gen_synthetic_II(seed=4, T=600, grid=4)


@pytest.fixture(scope="module")
def synth3_data():
    return pc.gen_synthetic_III(T=100000, seed=11)


class TestSyntheticII:

    def test_nine_sets(self, synth2_data):
        assert len(synth2_data) == 9
        assert {k[0] for k in synth2_data} == {"gaussian", "bernoulli", "poisson"}
        assert {k[1] for k in synth2_data} == {"har", "har_trend", "har_ar_trend"}

    def test_bernoulli_support(self, synth2_data):
        for dyn in ("har", "har_trend", "har_ar_trend"):
            obs = synth2_data[("bernoulli", dyn)].observations.values
            assert set(np.unique(obs)) <= {0.0, 1.0}

    def test_poisson_support(self, synth2_data):
        obs = synth2_data[("poisson", "har")].observations.values
        assert np.all(obs >= 0) and np.all(obs == np.floor(obs))

    def test_latents_normalized(self, synth2_data):
        for dyn in ("har", "har_trend", "har_ar_trend"):
            fq = synth2_data[("poisson", dyn)].latent_mean
            assert fq.min() >= 0.0 and fq.max() <= 1.0

    def test_variance_laws(self, synth2_data):
        bern = synth2_data[("bernoulli", "har")]
        f = bern.latent_mean
        np.testing.assert_allclose(bern.latent_var, f * (1 - f), atol=1e-12)
        pois = synth2_data[("poisson", "har_trend")]
        np.testing.assert_array_equal(pois.latent_var, pois.latent_mean)

    def test_gaussian_mean_is_harmonics_tensor(self, synth2_data):
        har_mean = synth2_data[("gaussian", "har")].latent_mean
        trend_mean = synth2_data[("gaussian", "har_trend")].latent_mean
        np.testing.assert_array_equal(har_mean, trend_mean)

    @pytest.mark.parametrize("kwargs", [
        {"T": 0}, {"T": -5}, {"T": 2.5}, {"T": True}, {"grid": 0},
        {"grid": 2.0}], ids=["T0", "T_negative", "T_float", "T_bool", "grid0",
                             "grid_float"])
    def test_counts_must_be_integers_of_at_least_one(self, kwargs):
        # T=0 and grid=0 raised a bare numpy ValueError
        with pytest.raises(InvalidParams):
            pc.gen_synthetic_II(**{"T": 20, "grid": 2, **kwargs})

    def test_smallest_counts(self):
        sets = pc.gen_synthetic_II(T=1, grid=1)
        assert sets[("poisson", "har")].observations.values.shape == (1, 1)


class TestSyntheticIII:

    def test_shared_latent(self, synth3_data):
        f = synth3_data["gaussian"].latent_mean
        np.testing.assert_array_equal(synth3_data["bernoulli"].latent_mean, f)
        np.testing.assert_array_equal(synth3_data["poisson"].latent_mean, f)
        assert f.min() >= 0.0 and f.max() <= 1.0

    def test_supports(self, synth3_data):
        gauss = synth3_data["gaussian"].observations.values
        assert not np.all(gauss == np.floor(gauss))
        pois = synth3_data["poisson"].observations.values
        assert np.all(pois >= 0) and np.all(pois == np.floor(pois))
        bern = synth3_data["bernoulli"].observations.values
        assert set(np.unique(bern)) <= {0.0, 1.0}

    def test_poisson_mean_near_half_band(self, synth3_data):
        f = synth3_data["poisson"].latent_mean[0]
        x = synth3_data["poisson"].observations.values[0]
        band = np.abs(f - 0.5) < 0.02
        assert band.sum() > 500
        assert abs(x[band].mean() - f[band].mean()) < 0.02

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        # nan raised a misleading UnparseableValue; -1.0 gave variance 1.0
        with pytest.raises(InvalidParams):
            pc.gen_synthetic_III(T=200, sigma=sigma)

    @pytest.mark.parametrize("T", [0, -5, 2.5, True, None])
    def test_T_must_be_an_integer_of_at_least_one(self, T):
        # T=0 raised a bare numpy ValueError
        with pytest.raises(InvalidParams):
            pc.gen_synthetic_III(T=T)

    def test_one_step(self):
        sets = pc.gen_synthetic_III(T=np.int64(1))
        assert sets["gaussian"].observations.values.shape == (1, 1)

    def test_sample_moments_match_latent_variance(self, synth3_data):
        for arm in ("gaussian", "bernoulli", "poisson"):
            st = synth3_data[arm]
            resid = st.observations.values[0] - st.latent_mean[0]
            expected = st.latent_var[0].mean()
            tol = 3.0 / np.sqrt(st.latent_mean.shape[1])
            assert abs(resid.var() - expected) < max(tol, 0.05 * expected), arm


class TestSyntheticTruth:
    @pytest.mark.parametrize("mean_shape, var_shape, var_fill", [
        ((2, 4), (2, 5), 0.0), ((2, 5), (1, 5), 0.0), ((2, 5), (2, 5), -1.0)],
        ids=["mean shape", "variance shape", "negative variance"])
    def test_inconsistent_latents_refused(self, mean_shape, var_shape,
                                          var_fill):
        batch = pc.TimeSeriesBatch(["a", "b"], np.zeros((2, 5)))
        with pytest.raises(InvalidParams, match="shape|nonnegative"):
            pc.SyntheticTruth(batch, np.zeros(mean_shape),
                              np.full(var_shape, var_fill))


class TestGenLrf:
    def test_rank_bounds_sweep(self):
        for seed, (K, R_max, N) in enumerate([(1, 2, 1), (2, 2, 3), (3, 1, 2),
                                              (1, 4, 1), (4, 4, 10)]):
            truth = pc.gen_lrf(K, R_max, N, 900, seed=seed)
            page = pc.build_stacked_page(truth.observations.values, L=25)
            s = np.linalg.svd(page, compute_uv=False)
            rank = int(np.count_nonzero(s > 1e-8 * s[0]))
            assert rank <= K * R_max

    def test_zero_theta(self):
        truth = pc.gen_lrf(2, 2, 3, 100, seed=0, theta=np.zeros((3, 2)))
        np.testing.assert_array_equal(truth.observations.values, 0.0)

    @pytest.mark.parametrize("args", [
        (2.0, 2, 3, 50), (2, 2, None, 50), (2, 2.5, 3, 50), (True, 2, 3, 50),
        (2, 2, 3, 50.0), (2, 2, 3, True), (0, 2, 3, 50), (2, 2, 3, 1)],
        ids=lambda args: "K={!r},R_max={!r},N={!r},T={!r}".format(*args))
    def test_counts_must_be_integers(self, args):
        with pytest.raises(InvalidParams):
            pc.gen_lrf(*args)

    def test_theta_of_wrong_shape_refused(self):
        with pytest.raises(InvalidParams, match=r"theta must have shape \(3, 2\)"):
            pc.gen_lrf(2, 2, 3, 100, seed=0, theta=np.zeros((2, 3)))

    def test_numpy_int_counts(self):
        a = pc.gen_lrf(np.int64(2), np.int32(2), np.int64(3), np.int64(50))
        b = pc.gen_lrf(2, 2, 3, 50)
        np.testing.assert_array_equal(a.observations.values,
                                      b.observations.values)

    def test_determinism(self):
        a = pc.gen_lrf(2, 3, 2, 200, seed=8)
        b = pc.gen_lrf(2, 3, 2, 200, seed=8)
        np.testing.assert_array_equal(a.observations.values,
                                      b.observations.values)


class TestCorrupt:
    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        # a NaN sigma added no noise and gave a NaN latent variance
        truth = pc.gen_synthetic_I(n=2, m=2, T=100, seed=3)
        with pytest.raises(InvalidParams):
            pc.corrupt(truth, sigma=sigma)

    def test_masking_fraction(self):
        truth = pc.gen_synthetic_I(n=4, m=4, T=2000, seed=3)
        out = pc.corrupt(truth, p_obs=0.6, seed=1)
        frac = out.observations.observed.mean()
        assert abs(frac - 0.6) < 0.02

    def test_noise_added_to_variance(self):
        truth = pc.gen_synthetic_I(n=2, m=2, T=500, seed=3)
        out = pc.corrupt(truth, sigma=0.5, seed=1)
        np.testing.assert_allclose(out.latent_var, 0.25)
        resid = out.observations.values - truth.observations.values
        assert abs(resid.std() - 0.5) < 0.02

    def test_arrays_shared_and_owned(self):
        # The generator's batch holds its own copy of the latent mean;
        # corrupt passes the unchanged latent mean through and its batch
        # keeps the one observation array corrupt made.
        truth = pc.gen_synthetic_I(n=2, m=2, T=500, seed=3)
        assert not np.shares_memory(truth.observations.values,
                                    truth.latent_mean)
        before = truth.observations.values.copy()
        out = pc.corrupt(truth, sigma=0.5, p_obs=0.7, seed=1)
        assert out.latent_mean is truth.latent_mean
        assert not np.shares_memory(out.observations.values,
                                    truth.observations.values)
        assert truth.observations.values.tobytes() == before.tobytes()
        obs = out.observations
        assert np.isnan(obs.values[~obs.observed]).all()
        assert np.isfinite(obs.values[obs.observed]).all()


def test_batches_keep_no_array_but_values():
    truths = [pc.gen_synthetic_I(n=2, m=2, T=50, seed=1),
              *pc.gen_synthetic_II(seed=1, T=50, grid=2).values(),
              *pc.gen_synthetic_III(T=50, seed=1).values(),
              pc.gen_lrf(2, 2, 3, 50, seed=1)]
    truths.append(pc.corrupt(truths[0], sigma=0.1, p_obs=0.5, seed=2))
    for truth in truths:
        batch = truth.observations
        assert [k for k, v in vars(batch).items()
                if isinstance(v, np.ndarray)] == ["values"]
    assert np.isnan(truths[-1].observations.values).any()


def _one_shot_normals(seed, stream, n):
    """The normal sampler drawing all n uniforms at once: the reference
    for the blocked sampler."""
    raw = PhiloxStream(seed, stream)._bg.random_raw(n)
    u = np.clip((raw >> np.uint64(11)) * 2.0**-53, 2.0**-53, None)
    return norm_ppf_array(u)


def _one_shot_corrupt(truth, sigma, p_obs, seed):
    """corrupt's observations with every draw made at once (the reference)."""
    base = truth.observations
    values = zero_filled(base.values)
    obs = base.observed.copy()
    if sigma > 0.0:
        z = _one_shot_normals(seed, STREAM_OBS_GAUSS + 1000, values.size)
        values = values + sigma * z.reshape(values.shape)
    if p_obs < 1.0:
        raw = PhiloxStream(seed, STREAM_MASK)._bg.random_raw(values.size)
        u = ((raw >> np.uint64(11)) * 2.0**-53).reshape(values.shape)
        obs &= u < p_obs
    return pc.TimeSeriesBatch(list(base.names), values, obs)


class TestDrawBlocks:
    """Drawing in blocks of DRAW_BLOCK changes no value."""

    SIZES = [1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1,
             2 * DRAW_BLOCK + 5]

    @pytest.mark.parametrize("n", SIZES)
    def test_normals_match_one_shot(self, n):
        got = PhiloxStream(4, 9).normals(n)
        assert got.tobytes() == _one_shot_normals(4, 9, n).tobytes()

    @pytest.mark.parametrize("grid", [(1, 1, DRAW_BLOCK - 1),
                                      (1, 2, DRAW_BLOCK // 2),
                                      (3, 1, DRAW_BLOCK // 3 + 1)])
    @pytest.mark.parametrize("sigma, p_obs", [(0.3, 0.8), (0.0, 0.5),
                                              (1.5, 1.0)])
    def test_corrupt_matches_one_shot(self, grid, sigma, p_obs):
        n, m, T = grid
        truth = pc.gen_synthetic_I(n=n, m=m, T=T, r=2, seed=5,
                                   preset="scaling")
        truth = pc.corrupt(truth, p_obs=0.9, seed=2)
        got = pc.corrupt(truth, sigma=sigma, p_obs=p_obs, seed=7)
        want = _one_shot_corrupt(truth, sigma, p_obs, seed=7)
        obs = got.observations
        assert obs.values.tobytes() == want.values.tobytes()
        assert obs.observed.tobytes() == want.observed.tobytes()
        assert got.latent_mean.tobytes() == truth.latent_mean.tobytes()


class TestGeneratorMemory:
    def test_corrupted_synthetic_i_peak(self):
        # The query_mix input (N=10 x 5e4).  Peak memory beyond what the
        # result keeps is 0.72x the result's bytes; it was 2.34x with the
        # noise and mask drawn in one shot and the values copied twice more,
        # and 1.36x with the values and the latent mean copied once more.
        tracemalloc.start()
        try:
            truth = pc.corrupt(pc.gen_synthetic_I(n=2, m=5, T=50_000, r=4,
                                                  seed=0, preset="scaling"),
                               sigma=0.2, p_obs=0.9, seed=1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (truth.observations.values,
                                      truth.observations.observed,
                                      truth.latent_mean, truth.latent_var))
        assert (peak - held) < 1.75 * kept

    def test_caller_keeps_batch_and_latent_mean(self):
        # The same input as a caller that keeps the observations and the
        # latent mean uses it (8.5 MB).  The whole generation peaks at 2.5x
        # that; it was 3.5x when the batches copied the values they were
        # given and corrupt copied the latent mean.
        tracemalloc.start()
        try:
            truth = pc.corrupt(pc.gen_synthetic_I(n=2, m=5, T=50_000, r=4,
                                                  seed=0, preset="scaling"),
                               sigma=0.2, p_obs=0.9, seed=1)
            batch, latent = truth.observations, truth.latent_mean
            del truth
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.values.nbytes + latent.nbytes == 8_000_000
        assert peak <= 3 * held
