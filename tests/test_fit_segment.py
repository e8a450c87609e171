"""The one segment fit: the model that answers queries is the batch
estimator, and both refuse a window below two rows or that is not an
integer, and a rank that is not an integer >= 1."""

import math

import numpy as np
import pytest

import pagecast as pc
from pagecast import estimator, page_matrix, svd_engine
from pagecast.errors import InvalidL, RankOutOfRange
from pagecast.ingestion import zero_filled


def test_batch_functions_refuse_L_below_2():
    values = np.cos(np.arange(40.0))[None, :]
    batch = pc.TimeSeriesBatch(["a"], values, np.ones(values.shape, bool))
    for fn in (pc.impute_mean, pc.impute_variance):
        with pytest.raises(InvalidL):
            fn(batch, L=1)
    with pytest.raises(InvalidL):
        pc.SegmentFit().fit(batch.values, 1)


def _cosine():
    return np.cos(2 * np.pi * np.arange(200) / 25)[None, :]


@pytest.mark.parametrize("call, error", [
    # a float or string rank raised a bare TypeError; True, 0 and -3 fitted
    # rank 1 silently
    (dict(k1=2.0), RankOutOfRange),
    (dict(k1="2"), RankOutOfRange),
    (dict(k1=True), RankOutOfRange),
    (dict(k1=0), RankOutOfRange),
    (dict(k1=-3), RankOutOfRange),
    (dict(k2=2.0), RankOutOfRange),
    (dict(k2=0), RankOutOfRange),
    # a float or string window raised a bare TypeError
    (dict(L=10.0), InvalidL),
    (dict(L=np.float64(10)), InvalidL),
    (dict(L="10"), InvalidL),
])
def test_fit_refuses_a_bad_parameter(call, error):
    args = dict(L=10, k1=None, k2=None) | call
    with pytest.raises(error):
        pc.SegmentFit().fit(_cosine(), args["L"], args["k1"], args["k2"])


@pytest.mark.parametrize("L", [4.0, True, "4"])
def test_page_build_refuses_a_window_that_is_not_an_integer(L):
    with pytest.raises(InvalidL):
        page_matrix.build_stacked_page(_cosine(), L)


def test_fit_caps_rank_at_the_page_matrix():
    fit = pc.SegmentFit().fit(_cosine(), 10, 500, np.int64(500))
    assert (fit.k1, fit.k2) == (10, 10)
    assert fit.fc_mean_svd.rank == fit.fc_var_svd.rank == 9


def test_served_model_equals_batch():
    """One sub-model that fully retrains once, at the last step, holds the
    batch fit bit for bit and answers as the batch functions do, one-step
    forecasts included; its variance meets criterion 4's bound with L fixed
    as the criterion fixes it."""
    data = pc.gen_synthetic_II(seed=0, T=3000)[("gaussian", "har")]
    batch = data.observations
    n_series, t_len = batch.values.shape
    L = int(math.sqrt(n_series * t_len / 10))
    model = pc.create_model(batch, pc.HyperParams(
        T0=n_series * t_len, Tprime=2 * n_series * t_len, L=L))
    [sm] = model.submodels
    assert len(sm.retrain_history) == 1
    assert sm.P == (sm.retrain_history[-1] // sm.N - sm.start_step) // sm.L

    fit = pc.SegmentFit().fit(batch.values, L)
    for name in ("mean_svd", "var_svd", "fc_mean_svd", "fc_var_svd"):
        for part in ("U", "s", "V"):
            np.testing.assert_array_equal(getattr(getattr(sm, name), part),
                                          getattr(getattr(fit, name), part))
    np.testing.assert_array_equal(sm.beta_mean, fit.beta_mean)
    np.testing.assert_array_equal(sm.beta_var, fit.beta_var)

    mean = pc.impute_mean(batch, L=L)
    var = pc.impute_variance(batch, L=L)
    span = mean.in_model[0]
    steps = int(span.sum())
    served_mean = np.empty((n_series, steps))
    served_var = np.empty((n_series, steps))
    for n in range(n_series):
        answers = pc.predict_range(model, n, 1, steps)
        served_mean[n] = [r.mean for r in answers]
        served_var[n] = [r.variance for r in answers]
    np.testing.assert_allclose(served_mean, mean.values[:, span],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(served_var, var.values[:, span],
                               rtol=0, atol=1e-12)

    # The one-step forecast is the batch forecast of the last L-1 raw values.
    fm = pc.SegmentFit().fit(batch.values, L)
    vf = pc.SegmentFit().fit(batch.values, L)
    for n in range(n_series):
        ahead = pc.predict_point(model, n, t_len + 1)
        history = batch.values[n, t_len - (L - 1):]
        assert ahead.mean == pc.forecast_mean(fm, history)
        assert ahead.variance == pc.forecast_variance(vf, history)

    x = zero_filled(batch.values)
    truth = data.latent_var[:, span]
    per = [np.mean((served_var[n] - truth[n]) ** 2) / x[n, span].std() ** 2
           for n in range(n_series)]
    assert np.sqrt(np.mean(per)) <= 2 * 0.076


def test_extend_reads_the_stacked_page(monkeypatch):
    """An append's new block is the last N columns of the stacked Page
    matrix of the segment's steps so far, and the betas are refitted
    against its last row (squared for the variance sets)."""
    rng = np.random.default_rng(5)
    n_series, L, P = 3, 5, 6
    raw = np.cos(np.arange(L * (P + 1)) / 4.0) + 0.1 * rng.normal(
        size=(n_series, L * (P + 1)))
    raw[rng.random(raw.shape) < 0.2] = np.nan
    fit = pc.SegmentFit().fit(raw[:, :L * P], L, 2, 2)

    blocks, last_rows = [], []
    append, pcr = svd_engine.append_columns, estimator.pcr_coefficients

    def record_append(svd, B, k):
        blocks.append(B.copy())
        return append(svd, B, k)

    def record_pcr(svd, last_row):
        last_rows.append(last_row.copy())
        return pcr(svd, last_row)

    monkeypatch.setattr(svd_engine, "append_columns", record_append)
    monkeypatch.setattr(estimator, "pcr_coefficients", record_pcr)
    fit.extend(raw)

    page = pc.build_stacked_page(raw, L)
    block = page[:, -n_series:]
    for got, want in zip(blocks, (block, block**2, block[:-1], block[:-1]**2)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(last_rows[0], page[-1])
    np.testing.assert_array_equal(last_rows[1], page[-1] ** 2)
    assert len(blocks) == 4 and len(last_rows) == 2
