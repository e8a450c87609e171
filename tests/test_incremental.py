import copy
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pagecast as pc
import pagecast.incremental as inc
import pagecast.svd_engine as svd_engine
from pagecast.errors import (InvalidParams, NonFiniteInput, UntrainedModel,
                             WidthMismatch)
from pagecast.incremental import q0_limit, q_limit, retrain_thresholds
from pagecast.svd_engine import GRAM_PATH_MIN_ROWS


def _stream(n_steps, n_series=1, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    t = np.arange(1, n_steps + 1, dtype=float)
    base = np.cos(2 * np.pi * t / 120) + 0.4 * np.cos(2 * np.pi * t / 31 + 0.7)
    vals = np.vstack([(1.0 + 0.1 * i) * base for i in range(n_series)])
    vals = vals + noise * rng.normal(size=vals.shape)
    return pc.TimeSeriesBatch([f"s{i}" for i in range(n_series)], vals,
                              np.ones(vals.shape, bool))


class TestScheduleFormulas:
    def test_default_limits(self):
        hp = pc.HyperParams()
        assert q0_limit(hp) == 24  # floor(ln(25000)/ln 1.5)
        assert q_limit(hp) == 1    # floor(ln 2 / ln 1.5)

    def test_retrain_points_gamma_half(self):
        hp = pc.HyperParams(T0=100, Tprime=100_000, gamma=0.5)
        pts = retrain_thresholds(hp, first_segment=True)
        assert pts[:6] == [100, 150, 225, 337, 506, 759]

    @pytest.mark.parametrize("L", [None, 2, 7, 50, 150])
    @pytest.mark.parametrize("n_series", [1, 2, 3, 10, 400])
    def test_next_retrain_matches_window_rule(self, n_series, L):
        # The window rule as it was written before the closed form: the
        # window for t steps, and whether the stacked matrix is wide enough.
        def feasible(t):
            if L is None:
                w = max(2, min(int(math.floor(math.sqrt(n_series * t / 10.0))), t))
            else:
                w = L
            return w <= t and w <= n_series * (t // w)

        ts = range(1, 3001)
        first = (L or 2) * -(-(L or 2) // n_series)
        assert [feasible(t) for t in ts] == [t >= first for t in ts]
        model = pc.PredictionModel([f"s{i}" for i in range(n_series)],
                                   pc.HyperParams(T0=1, L=L))
        # a threshold at every observation count
        last = 3000 * n_series + 5
        model._thresholds = ((), range(1, last + 1))
        sm = inc.SubModel(0, 0, n_series)
        assert model._next_retrain(sm) == first
        sm.retrain_history = [last]
        assert model._next_retrain(sm) is None
        for t in ts:
            # the next threshold is first crossed at t steps
            sm.retrain_history = [(t - 1) * n_series]
            assert model._next_retrain(sm) == max(t, first), t

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("L", [None, 4])
    @pytest.mark.parametrize("n_series", [1, 2, 3, 5, 10])
    def test_history_schedule_matches_pending_rule(self, n_series, L, gamma):
        # The schedule as it was kept before the retrain history alone
        # fixed it: a pending list per sub-model, its segment's thresholds
        # at first and after each retrain those above the sub-model's
        # observations; the next retrain at the first step count that
        # crosses the lowest pending threshold and has a Page window.
        hp = pc.HyperParams(T0=7, Tprime=240, gamma=gamma, L=L)
        vals = _stream(5 * 120 // n_series + 7, n_series, seed=n_series).values
        vals[np.random.default_rng(1).random(vals.shape) < 0.1] = np.nan
        model = pc.PredictionModel([f"s{i}" for i in range(n_series)], hp)
        L0 = L or 2
        pending, seen = [], []

        def due(sm):
            if not pending[sm.index]:
                return None
            t = max(-(-min(pending[sm.index]) // n_series),
                    L0 * -(-L0 // n_series))
            return t if t <= 2 * model.half_steps else None

        for j in range(vals.shape[1]):
            model.insert(vals[:, j])
            for sm in model.submodels[len(pending):]:
                pending.append(retrain_thresholds(hp, sm.index == 0))
                seen.append(0)
            for sm in model.segments_for_steps(j, j):
                steps = model.n_steps - sm.start_step
                fired = due(sm) is not None and steps >= due(sm)
                assert len(sm.retrain_history) == seen[sm.index] + fired
                if fired:
                    seen[sm.index] += 1
                    pending[sm.index] = [th for th in pending[sm.index]
                                         if th > steps * n_series]
            for sm in model.submodels:
                assert model._next_retrain(sm) == due(sm), (j, sm.index)
        assert len(model.submodels) >= 5 and max(seen) >= 2

    def test_first_retrain_with_override_waits_for_window(self):
        # With L=150 at N=1 a window needs 150 columns: 22 500 steps, far
        # past the first threshold (T0 = 100 observations).
        hp = pc.HyperParams(T0=100, Tprime=30_000, L=150)
        vals = _stream(22_500, seed=2).values
        model = pc.PredictionModel(["a"], hp)
        model.insert_many(vals[:, :-1])
        assert model.in_fallback
        model.insert(vals[:, -1])
        sm = model.submodels[0]
        assert sm.retrain_history == [22_500] and (sm.L, sm.P) == (150, 150)
        # the thresholds it crossed are behind it: the next is 100 * 1.5^14
        assert model._next_retrain(sm) == 29_192
        # a segment of 22 000 steps ends before the window arrives
        short = pc.PredictionModel(["a"], pc.HyperParams(T0=100, Tprime=22_000,
                                                         L=150))
        assert short._next_retrain(inc.SubModel(0, 0, 1)) is None

    def test_hyperparam_validation(self):
        with pytest.raises(InvalidParams):
            pc.HyperParams(T0=0)
        with pytest.raises(InvalidParams):
            pc.HyperParams(T0=100, Tprime=150)
        with pytest.raises(InvalidParams):
            pc.HyperParams(gamma=0.0)
        with pytest.raises(InvalidParams):
            pc.HyperParams(gamma=1.5)
        for ranks in ({"k1": 0}, {"k2": -3}, {"k1": 0, "k2": -3}):
            with pytest.raises(InvalidParams):
                pc.HyperParams(**ranks)
        for L in (1, 0):
            with pytest.raises(InvalidParams, match="L override"):
                pc.HyperParams(L=L)

    @pytest.mark.parametrize("value", [True, 3.0, 2.5, "3"])
    @pytest.mark.parametrize("name", ["T0", "Tprime", "L", "k1", "k2",
                                      "coeff_window"])
    def test_int_knob_refuses_other_types(self, name, value):
        # 3.0 and 2.5 passed the range checks and failed at the first
        # retrain; True trained and saved a store that load refused
        with pytest.raises(InvalidParams):
            pc.HyperParams(**{name: value})

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_gamma_refuses_other_types(self, value):
        with pytest.raises(InvalidParams):
            pc.HyperParams(gamma=value)

    def test_numpy_numbers_become_python_numbers(self):
        hp = pc.HyperParams(T0=np.int64(3), Tprime=np.int32(300),
                            gamma=np.float32(0.5), L=np.int64(3),
                            k1=np.uint8(3), k2=np.int64(3),
                            coeff_window=np.int16(3))
        assert hp == pc.HyperParams(T0=3, Tprime=300, gamma=0.5, L=3, k1=3,
                                    k2=3, coeff_window=3)
        assert type(hp.gamma) is float
        assert all(type(getattr(hp, name)) is int
                   for name in ("T0", "Tprime", "L", "k1", "k2", "coeff_window"))

    def test_repeated_series_names_refused(self):
        # a query by name could reach only the first of two series "a"
        with pytest.raises(InvalidParams):
            pc.PredictionModel(["a", "b", "a"])
        batch = pc.TimeSeriesBatch(["a", "a"], np.ones((2, 10)),
                                   np.ones((2, 10), bool))
        with pytest.raises(InvalidParams):
            pc.create_model(batch)


class TestFallbackAndFirstTrain:
    def test_below_t0_uses_running_mean(self):
        batch = _stream(50)
        model = pc.create_model(batch, pc.HyperParams(T0=100, Tprime=1000))
        assert model.in_fallback
        r = pc.predict_point(model, "s0", 10)
        assert r.fallback
        assert r.mean == pytest.approx(batch.values.mean())
        assert r.lo == -math.inf and r.hi == math.inf

    def test_first_train_at_t0(self):
        batch = _stream(100)
        model = pc.create_model(batch, pc.HyperParams(T0=100, Tprime=1000))
        assert not model.in_fallback
        assert model.submodels[0].retrain_history == [100]

    def test_missing_values_excluded_from_mean(self):
        vals = np.array([[1.0, np.nan, 3.0]])
        batch = pc.TimeSeriesBatch(["a"], vals, np.isfinite(vals))
        model = pc.create_model(batch, pc.HyperParams(T0=100, Tprime=1000))
        assert model.fallback_mean == pytest.approx(2.0)

    def test_all_missing_stream_falls_back_to_zero(self):
        vals = np.full((2, 30), np.nan)
        batch = pc.TimeSeriesBatch(["a", "b"], vals, np.zeros(vals.shape, bool))
        model = pc.create_model(batch, pc.HyperParams(T0=100, Tprime=1000))
        assert model.obs_cnt == 0
        assert model.fallback_mean == 0.0 and model.fallback_var == 0.0
        r = pc.predict_point(model, "b", 5)
        assert r.fallback and (r.mean, r.variance) == (0.0, 0.0)

    def test_untrained_model_has_no_averaged_coefficients(self):
        model = pc.create_model(_stream(50), pc.HyperParams(T0=100, Tprime=1000))
        with pytest.raises(UntrainedModel):
            model.averaged_coefficients()


class TestScheduleSimulation:
    @pytest.mark.slow
    def test_criterion_style_schedule(self):
        hp = pc.HyperParams(T0=100, gamma=0.5, Tprime=10_000)
        batch = _stream(50_000, seed=1)
        model = pc.create_model(batch, hp)

        # segments open every Tprime/2 observations
        assert len(model.submodels) == 10
        for sm in model.submodels:
            assert sm.start_obs == sm.index * hp.Tprime // 2

        # first segment follows the q0 ladder while it owns the stream
        lvl = q0_limit(hp)
        assert lvl == math.floor(math.log(100) / math.log(1.5))
        expected0 = [math.floor(100 * 1.5 ** i) for i in range(lvl + 1)]
        assert model.submodels[0].retrain_history == expected0

        # later segments retrain twice, 100 and 150 observations in
        for sm in model.submodels[1:]:
            expected = [sm.start_obs + 100, sm.start_obs + 150]
            assert sm.retrain_history == expected, sm.index

    def test_segments_opened_after_4_tprime(self):
        hp = pc.HyperParams(T0=50, gamma=0.5, Tprime=1000)
        model = pc.create_model(_stream(4000, seed=2), hp)
        assert len(model.submodels) == 8  # indices 0..7

    def test_overlap_half_span(self):
        hp = pc.HyperParams(T0=50, gamma=0.5, Tprime=1000)
        model = pc.create_model(_stream(3000, seed=3), hp)
        starts = [sm.start_obs for sm in model.submodels]
        assert all(b - a == 500 for a, b in zip(starts, starts[1:]))

    def test_bounded_retrains(self):
        hp = pc.HyperParams(T0=50, gamma=0.5, Tprime=1000)
        total = 4000
        model = pc.create_model(_stream(total, seed=4), hp)
        events = sum(len(sm.retrain_history) for sm in model.submodels)
        bound = (q0_limit(hp) + 1) + (q_limit(hp) + 1) * math.ceil(
            2 * total / hp.Tprime)
        assert events <= bound

    def test_multiseries_crossing_never_skips(self):
        # with N=3 the counter advances 3 per step and cannot hit 100 exactly
        hp = pc.HyperParams(T0=100, gamma=0.5, Tprime=2000)
        model = pc.create_model(_stream(900, n_series=3, seed=5), hp)
        hist = model.submodels[0].retrain_history
        # schedule points 100,150,225,...: each triggered at first crossing
        assert hist[0] in (100, 101, 102)
        assert len(hist) >= 6


class TestInsertEquivalence:
    def test_create_equals_sequential_insert(self):
        hp = pc.HyperParams(T0=60, gamma=0.5, Tprime=800)
        batch = _stream(2000, n_series=2, seed=6)
        created = pc.create_model(batch, hp)

        streamed = pc.PredictionModel(batch.names, hp)
        for step in range(batch.n_steps):
            streamed.insert(batch.values[:, step], batch.observed[:, step])

        assert created.n_steps == streamed.n_steps
        assert len(created.submodels) == len(streamed.submodels)
        for a, b in zip(created.submodels, streamed.submodels):
            assert a.retrain_history == b.retrain_history
            assert a.L == b.L and a.P == b.P and a.k1 == b.k1
            np.testing.assert_array_equal(a.beta_mean, b.beta_mean)
        for t in (1, 500, 1500, 2000, 2100):
            ra = pc.predict_point(created, "s1", t)
            rb = pc.predict_point(streamed, "s1", t)
            assert ra.mean == rb.mean
            assert ra.variance == rb.variance
        _assert_same_state(created, streamed)

    def test_width_mismatch(self):
        model = pc.PredictionModel(["a", "b"], pc.HyperParams(T0=10, Tprime=100))
        with pytest.raises(WidthMismatch):
            model.insert(np.array([1.0]))
        with pytest.raises(WidthMismatch):
            model.insert(np.array([1.0, 2.0]), np.array([True]))
        assert model.n_steps == 0

    def test_insert_into_fallback_updates_mean_only(self):
        model = pc.PredictionModel(["a"], pc.HyperParams(T0=100, Tprime=1000))
        model.insert(np.array([4.0]))
        model.insert(np.array([8.0]))
        assert model.fallback_mean == pytest.approx(6.0)
        assert not model.submodels[0].trained

    def test_moments_do_not_depend_on_when_they_are_read(self):
        # The moments are folded in from the raw window when read and before
        # a prune; reading them after every block, after some blocks or only
        # at the end gives the bits of a step-by-step loop of row sums.
        hp = pc.HyperParams(T0=20, Tprime=300)
        vals = _stream(1000, 3, seed=8).values
        vals[np.random.default_rng(8).random(vals.shape) < 0.2] = np.nan
        total = total_sq = 0.0
        for row in np.where(np.isfinite(vals), vals, 0.0).T:
            total += float(row.sum())
            total_sq += float((row * row).sum())
        for read_every in (1, 170, None):
            model = pc.PredictionModel(["a", "b", "c"], hp)
            for j in range(0, vals.shape[1], 50):
                model.insert_many(vals[:, j:j + 50])
                if read_every and j % read_every < 50:
                    model.fallback_var
            assert model.raw.start_step > 0  # the window was pruned
            assert (model.obs_sum.hex(), model.obs_sumsq.hex()) == (
                total.hex(), total_sq.hex())
            assert model.obs_cnt == np.count_nonzero(np.isfinite(vals))

    def test_window_policy_recomputed_at_retrain(self):
        hp = pc.HyperParams(T0=64, gamma=1.0, Tprime=100_000)
        model = pc.create_model(_stream(4000, seed=7), hp)
        sm = model.submodels[0]
        # last retrain at 4096 > stream end: latest applied retrain is 2048
        last_applied = max(h for h in sm.retrain_history)
        assert sm.L == max(2, int(math.sqrt(last_applied / 10.0)))

    def test_L_override_respected(self):
        hp = pc.HyperParams(T0=60, Tprime=1000, L=7)
        model = pc.create_model(_stream(500, seed=8), hp)
        assert all(sm.L == 7 for sm in model.trained_submodels())


def _assert_same_state(a, b):
    """Bit-for-bit equality of everything training reads or writes: the
    digest, and the raw window's buffer, which the digest leaves out."""
    ra, rb = a.raw, b.raw
    assert (ra._lo, ra._hi, ra._vals.shape) == (rb._lo, rb._hi, rb._vals.shape)
    assert a.digest() == b.digest()


def _answers(model):
    ts = np.linspace(1, model.n_steps + 40, 9).astype(int).tolist()
    return [(r.mean, r.variance, r.lo, r.hi, r.kind)
            for n in range(model.N) for t in ts
            for r in [pc.predict_point(model, n, t)]]


def _chunk_stream(n_series, L=None):
    """Block, mask, hyper-parameters and a step-by-step reference model.

    N=1 runs several segments with 10 % missing values (NaN, no mask);
    N=3 and N=10 add a mask that also flags some NaN entries: ``insert``
    takes it, and ``insert_many`` gets the block with NaN where it is
    False.  N=10 rows are long enough for numpy to sum them pairwise, so
    their summation order shows.  With an L override, N=3 lowers T0 to 60,
    so every sub-model's first retrain waits past its first thresholds for
    the window.
    """
    rng = np.random.default_rng(40 + n_series)
    n_steps = {1: 1400, 3: 800, 10: 400}[n_series]
    vals = _stream(n_steps, n_series, seed=n_series).values.copy()
    vals[rng.random(vals.shape) < 0.1] = np.nan
    if n_series == 1:
        hp = pc.HyperParams(T0=200, gamma=0.5, Tprime=800)
        mask = None
    else:
        hp = pc.HyperParams(T0=300 if L is None else 60, gamma=0.5,
                            Tprime=400 * n_series, L=L)
        mask = rng.random(vals.shape) < 0.85
    return vals, mask, hp


@functools.lru_cache(maxsize=None)
def _reference(n_series, L=None):
    """Step-by-step model, the cut points around its events, its answers,
    and its (step, sub-model index) retrain and append events."""
    vals, mask, hp = _chunk_stream(n_series, L)
    model = pc.PredictionModel([f"s{i}" for i in range(n_series)], hp)
    cuts = set()
    kinds = {"retrain": [], "append": []}

    def marks():
        return (len(model.submodels),
                [(len(sm.retrain_history), sm.P) for sm in model.submodels])

    for j in range(vals.shape[1]):
        before = marks()
        model.insert(vals[:, j], None if mask is None else mask[:, j])
        after = marks()
        if after != before:  # new sub-model, retrain or append at step j
            cuts.update((j, j + 1))
        for i, (old, new) in enumerate(zip(before[1], after[1])):
            if new[0] != old[0]:
                kinds["retrain"].append((j, i))
            elif new[1] != old[1]:
                kinds["append"].append((j, i))
    return model, sorted(cuts), _answers(model), kinds


def _check_chunked(n_series, cuts, stepwise, L=None):
    vals, mask, hp = _chunk_stream(n_series, L)
    ref, _, answers, _ = _reference(n_series, L)
    model = pc.PredictionModel(ref.names, hp)
    block = vals if mask is None else np.where(mask, vals, np.nan)
    edges = [0] + sorted(cuts) + [vals.shape[1]]
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        if stepwise[i % len(stepwise)]:
            for j in range(a, b):
                model.insert(vals[:, j], None if mask is None else mask[:, j])
        else:
            model.insert_many(block[:, a:b])
    _assert_same_state(model, ref)
    assert _answers(model) == answers


def _superseding_cuts(n_series):
    """Three chunkings from the reference run.  ``split`` cuts each run of
    appends that a retrain supersedes right after its middle append, so the
    appends before the cut are kept and those after it skipped;
    ``on_retrain`` ends a block exactly on every retrain step and
    ``before_retrain`` just before it."""
    kinds = _reference(n_series)[3]
    split, on_retrain, before_retrain, last = [], [], [], {}
    for j, i in kinds["retrain"]:
        run = [a for a, k in kinds["append"] if k == i and last.get(i, -1) < a < j]
        if len(run) >= 2:
            split.append(run[len(run) // 2] + 1)
        on_retrain.append(j + 1)
        before_retrain.append(j)
        last[i] = j
    return split, on_retrain, before_retrain


def _count_appends(monkeypatch):
    calls = []
    real = svd_engine.append_columns

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(svd_engine, "append_columns", counting)
    return calls


def _chunkings(n_series, L=None):
    n_steps = _chunk_stream(n_series, L)[0].shape[1]
    events = _reference(n_series, L)[1]
    cut = st.one_of(st.sampled_from(events), st.integers(0, n_steps))
    return st.lists(cut, max_size=12), st.lists(st.booleans(), min_size=1,
                                                  max_size=4)


class TestInsertMany:
    """insert_many over any chunking equals step-by-step insert, bit for bit.

    Chunk edges are drawn both at random and on the steps where the
    reference run retrained, appended or opened a sub-model (just before
    and just after each); repeated edges give 0-step blocks, and some
    chunks go through insert instead.
    """

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_univariate_multi_segment(self, data):
        cuts, flags = _chunkings(1)
        _check_chunked(1, data.draw(cuts), data.draw(flags))

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_multivariate_masked_nonfinite(self, data):
        cuts, flags = _chunkings(3)
        _check_chunked(3, data.draw(cuts), data.draw(flags))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_window_defers_first_retrain(self, data):
        # L=20 at N=3: the first threshold is crossed at 20 steps, but the
        # stacked matrix is wide enough only from 20 * 7 = 140 steps on
        ref = _reference(3, 20)[0]
        assert len(ref.submodels) == 4
        assert [sm.retrain_history[0] - sm.start_obs
                for sm in ref.submodels] == [420] * 4
        cuts, flags = _chunkings(3, 20)
        _check_chunked(3, data.draw(cuts), data.draw(flags), 20)

    @pytest.mark.parametrize("n_series", [1, 3])
    def test_cuts_around_superseding_retrains(self, n_series, monkeypatch):
        split, on_retrain, before_retrain = _superseding_cuts(n_series)
        stepwise = 4 * len(_reference(n_series)[3]["append"])
        assert len(split) >= 3
        calls = _count_appends(monkeypatch)
        _check_chunked(n_series, [], [False])
        whole = len(calls)
        _check_chunked(n_series, split, [False])
        assert whole < len(calls) - whole < stepwise
        del calls[:]
        _check_chunked(n_series, on_retrain, [False])
        assert len(calls) < stepwise
        _check_chunked(n_series, before_retrain, [False])

    def test_unreached_threshold_supersedes_nothing(self):
        # hp gives the first segment thresholds 301, 602 and 1204, but the
        # sub-model sees only 2 * 200 steps (1200 observations): its last
        # threshold never fires, so its appends must all be kept
        hp = pc.HyperParams(T0=301, gamma=1.0, Tprime=1205)
        vals = _stream(700, 3, seed=5).values
        ref = pc.PredictionModel(["a", "b", "c"], hp)
        for j in range(vals.shape[1]):
            ref.insert(vals[:, j])
        assert ref.submodels[0].retrain_history == [303, 603]
        assert ref._next_retrain(ref.submodels[0]) is None
        model = pc.PredictionModel(ref.names, hp)
        model.insert_many(vals)
        _assert_same_state(model, ref)

    def test_overdue_retrain_fires_at_next_step(self):
        # New thresholds reach a model trained on old ones (a store keeps
        # only the retrain histories), so a sub-model's next retrain can lie
        # behind the steps it has; both insert paths retrain it at the next.
        hp = pc.HyperParams(T0=61, Tprime=600)
        vals = _stream(675, 3, seed=6).values
        models = []
        for bulk in (False, True):
            model = pc.PredictionModel(["a", "b", "c"], hp)
            model.insert_many(vals[:, :525])
            sm = model.submodels[5]
            assert sm.retrain_history == [1563]
            model._thresholds[0] = [61, 64, 91]
            assert model._next_retrain(sm) == 22 < model._seg_steps(sm) == 25
            if bulk:
                model.insert_many(vals[:, 525:])
            else:
                for j in range(525, 675):
                    model.insert(vals[:, j])
            assert sm.retrain_history == [1563, 1578, 1593]
            models.append(model)
        _assert_same_state(*models)

    @pytest.mark.slow
    def test_add_steps_once_per_piece(self, monkeypatch):
        # Later sub-models freeze at L=2 and append every other step; the
        # block is still added in pieces cut only at BULK_STEPS and at the
        # step that opens each sub-model, that step a piece of its own.
        hp = pc.HyperParams(T0=50, gamma=0.3, Tprime=6000)
        vals = _stream(20_000, 3, seed=4).values
        ref = pc.PredictionModel(["a", "b", "c"], hp)
        for j in range(vals.shape[1]):
            ref.insert(vals[:, j])
        calls = []
        real = inc.PredictionModel._add_steps

        def counting(model, *args):
            calls.append(1)
            return real(model, *args)

        monkeypatch.setattr(inc.PredictionModel, "_add_steps", counting)
        model = pc.PredictionModel(ref.names, hp)
        model.insert_many(vals)
        opened = len(model.submodels)
        assert opened == 20 and {sm.L for sm in model.submodels[1:]} == {2}
        assert len(calls) <= -(-vals.shape[1] // inc.BULK_STEPS) + 2 * opened
        _assert_same_state(model, ref)

    def test_bulk_insert_refits_beta_once_per_catch_up(self, monkeypatch):
        # Later sub-models freeze at L=2, so a 1024-step piece completes
        # hundreds of Page columns; one extend folds them all in and refits
        # the betas once, where a step at a time refits them per column.
        hp = pc.HyperParams(T0=50, gamma=0.3, Tprime=3000)
        vals = _stream(5000, 3, seed=4).values
        pcr_calls, extends = [], []
        pcr, extend = pc.estimator.pcr_coefficients, inc.SubModel.extend
        monkeypatch.setattr(pc.estimator, "pcr_coefficients",
                            lambda *a: pcr_calls.append(1) or pcr(*a))
        monkeypatch.setattr(inc.SubModel, "extend", lambda sm, raw: (
            extends.append(raw.shape[1] // sm.L - sm.P) or extend(sm, raw)))
        model = pc.PredictionModel(["a", "b", "c"], hp)
        model.insert_many(vals)
        retrains = sum(len(sm.retrain_history) for sm in model.submodels)
        assert len(pcr_calls) == 2 * (retrains + len(extends))
        pieces = -(-vals.shape[1] // inc.BULK_STEPS) + len(model.submodels)
        assert len(extends) <= 2 * pieces  # a piece reaches two sub-models
        assert sum(extends) > 20 * len(extends)  # Page columns folded in

    def test_reference_spans_several_segments(self):
        ref, events = _reference(1)[:2]
        assert len(ref.submodels) == 4 and len(events) > 100
        assert ref.obs_cnt < ref.n_steps * ref.N
        ref3 = _reference(3)[0]
        assert len(ref3.submodels) == 4 and ref3.obs_cnt < ref3.n_steps * ref3.N

    def test_single_block(self):
        for n_series in (1, 3, 10):
            _check_chunked(n_series, [], [False])

    def test_wide_rows_random_cuts(self):
        rng = np.random.default_rng(3)
        _check_chunked(10, rng.integers(0, 401, 6).tolist(), [False, True])

    def test_empty_block_is_noop(self):
        model = pc.create_model(_stream(300), pc.HyperParams(T0=60, Tprime=1000))
        before = pc.create_model(_stream(300), pc.HyperParams(T0=60, Tprime=1000))
        model.insert_many(np.empty((1, 0)))
        _assert_same_state(model, before)

    def test_mask_acts_as_nan(self):
        # finite entries that insert's mask calls missing leave the model
        # that NaN at those entries does, across segments
        hp = pc.HyperParams(T0=100, Tprime=1600)
        vals = _stream(2600, 2, seed=9).values
        mask = np.random.default_rng(9).random(vals.shape) < 0.8
        masked = pc.PredictionModel(["a", "b"], hp)
        for j in range(vals.shape[1]):
            masked.insert(vals[:, j], mask[:, j])
        nan = pc.PredictionModel(["a", "b"], hp)
        nan.insert_many(np.where(mask, vals, np.nan))
        assert len(nan.submodels) > 2 and nan.obs_cnt < vals.size
        _assert_same_state(masked, nan)

    def test_shape_checks(self):
        model = pc.PredictionModel(["a", "b"], pc.HyperParams(T0=10, Tprime=100))
        with pytest.raises(WidthMismatch):
            model.insert_many(np.zeros((3, 5)))
        with pytest.raises(WidthMismatch):
            model.insert_many(np.zeros(2))


class TestDigest:
    """``PredictionModel.digest()`` fingerprints the training state: bulk
    and step-wise inserts agree on it, a store keeps it, a step moves it."""

    @staticmethod
    def _bulk(n_series):
        vals, mask, hp = _chunk_stream(n_series)
        model = pc.PredictionModel([f"s{i}" for i in range(n_series)], hp)
        model.insert_many(vals if mask is None else np.where(mask, vals, np.nan))
        return model

    @pytest.mark.parametrize("n_series", [1, 3, 10])
    def test_one_block_equals_one_insert_per_step(self, n_series):
        ref = _reference(n_series)[0]
        assert len(ref.trained_submodels()) >= 2
        assert self._bulk(n_series).digest() == ref.digest()

    @pytest.mark.parametrize("n_series", [1, 3])
    def test_equal_across_save_and_load(self, n_series, tmp_path):
        model = self._bulk(n_series)
        pc.save_model(model, tmp_path / "m")
        assert pc.load_model(tmp_path / "m").digest() == model.digest()

    def test_changes_after_one_more_step(self):
        model = self._bulk(3)
        before = model.digest()
        assert model.digest() == before
        model.insert(np.full(3, np.nan))
        assert model.digest() != before

    def test_moves_with_any_entry_of_the_window_or_an_array(self):
        model = self._bulk(3)
        before = model.digest()
        arrays = [arr for sm in model.submodels for _, arr in sm.arrays()]
        assert len(arrays) == 14 * len(model.trained_submodels())
        for arr in [model.raw.rows(), *arrays]:
            index = (-1,) * arr.ndim
            old = arr[index]
            arr[index] = np.nan_to_num(old) + 1.0
            assert model.digest() != before
            arr[index] = old
        assert model.digest() == before


class TestOverflowingSquares:
    """A value whose square overflows would make every retrain of its
    sub-models fail, so inserts refuse it, +-inf included, before changing
    any state; NaN stays missing."""

    HP = pc.HyperParams(T0=20, Tprime=1000)

    def _fed(self, n_steps):
        model = pc.PredictionModel(["a", "b"], self.HP)
        model.insert_many(_stream(n_steps, n_series=2, seed=3).values)
        return model

    def test_insert_refuses_before_any_change(self):
        model = self._fed(9)
        with pytest.raises(NonFiniteInput, match=r"'b'.*t=10"):
            model.insert(np.array([1.0, 1e200]))
        clean = self._fed(9)
        _assert_same_state(model, clean)
        rows = _stream(300, n_series=2, seed=4).values
        rows[0, 5], rows[1, 7] = np.nan, np.nan
        for j in range(rows.shape[1]):
            model.insert(rows[:, j])
            clean.insert(rows[:, j])
        assert model.submodels[0].trained
        _assert_same_state(model, clean)

    def test_insert_many_checks_whole_block_first(self):
        model = self._fed(9)
        block = _stream(300, n_series=2, seed=4).values
        block[0, 250] = -2e154
        with pytest.raises(NonFiniteInput, match=r"'a'.*t=260"):
            model.insert_many(block)
        _assert_same_state(model, self._fed(9))
        block[0, 250] = np.nan
        model.insert_many(block)
        assert model.submodels[0].trained

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinity_refused(self, bad):
        model = self._fed(9)
        with pytest.raises(NonFiniteInput,
                           match=r"'a' at t=10: \|-?inf\| is infinite"):
            model.insert(np.array([bad, 1.0]))
        with pytest.raises(NonFiniteInput, match=r"'b' at t=10: .*infinite"):
            model.insert(np.array([1.0, bad]), np.array([True, True]))
        block = _stream(3 * inc.BULK_STEPS, n_series=2, seed=4).values
        for j in (0, inc.BULK_STEPS + 7, 3 * inc.BULK_STEPS - 1):
            hit = block.copy()
            hit[1, j] = bad
            with pytest.raises(NonFiniteInput,
                               match=rf"'b' at t={j + 10}: .*infinite"):
                model.insert_many(hit)
        _assert_same_state(model, self._fed(9))

    def test_create_model_raises_before_training(self, monkeypatch):
        calls = []
        real = inc.SubModel.fit
        monkeypatch.setattr(inc.SubModel, "fit",
                            lambda *a: calls.append(1) or real(*a))
        batch = _stream(300, n_series=2, seed=5)
        batch.values[1, 200] = 1e200
        with pytest.raises(NonFiniteInput):
            pc.create_model(batch, self.HP)
        assert calls == []


class TestValueBound:
    """Values up to VALUE_MAX train with finite answers on both SVD routes;
    larger ones, whose sums of powers would overflow inside training, are
    refused before any state changes."""

    HP = pc.HyperParams(T0=20, Tprime=1000)

    @staticmethod
    def _scaled(n_series, n_steps, top):
        vals = _stream(n_steps, n_series=n_series, seed=6).values
        return vals * (top / np.abs(vals).max())

    def test_near_max_square_stream_refused(self):
        model = pc.PredictionModel(["a"], self.HP)
        model.insert_many(_stream(9, seed=3).values)
        t = np.arange(400)
        block = (7.5e153 + 2.5e153 * np.cos(t / 7.0))[None, :]
        with pytest.raises(NonFiniteInput, match=r"'a'.*t=10"):
            model.insert_many(block)
        with pytest.raises(NonFiniteInput):
            model.insert(block[:, 0])
        clean = pc.PredictionModel(["a"], self.HP)
        clean.insert_many(_stream(9, seed=3).values)
        _assert_same_state(model, clean)

    def test_gram_route_batch_refused(self):
        batch = _stream(12_000, n_series=10, seed=7)
        batch.values[4, 9000] = 1e80
        with pytest.raises(NonFiniteInput, match=r"'s4'.*t=9001"):
            pc.create_model(batch)
        model = pc.PredictionModel(batch.names)
        model.insert_many(batch.values[:, :100])
        clean = copy.deepcopy(model)
        with pytest.raises(NonFiniteInput):
            model.insert_many(batch.values[:, 100:])
        _assert_same_state(model, clean)

    @pytest.mark.parametrize("n_series, n_steps, hp, gram", [
        (1, 400, HP, False), (10, 12_000, None, True)])
    def test_largest_values_train_finite(self, n_series, n_steps, hp, gram):
        vals = self._scaled(n_series, n_steps, 1.7e72)
        batch = pc.TimeSeriesBatch([f"s{i}" for i in range(n_series)], vals,
                                   np.ones(vals.shape, bool))
        model = pc.create_model(batch, hp)
        assert (model.submodels[0].L >= GRAM_PATH_MIN_ROWS) == gram
        assert math.isfinite(model.fallback_var)
        for t in (1, n_steps // 2, n_steps, n_steps + 1, n_steps + 20):
            r = pc.predict_point(model, 0, t)
            assert math.isfinite(r.mean) and math.isfinite(r.variance)
            assert not r.fallback or t == n_steps


class TestRawWindowContract:
    """Sub-models keep no copy of the stream: the step count, the unfinished
    Page column and the last Page row are read from the raw window, so it
    must still hold every step of every sub-model that is being fed."""

    @pytest.mark.slow
    @settings(max_examples=30, deadline=None)
    @given(n_series=st.sampled_from([1, 3]), T0=st.integers(5, 40),
           span=st.integers(2, 6), L=st.sampled_from([None, 2, 5]),
           calls=st.lists(st.tuples(st.booleans(), st.integers(0, 150)),
                          min_size=1, max_size=12),
           seed=st.integers(0, 2**16))
    def test_fed_submodels_stay_in_raw_window(self, n_series, T0, span, L,
                                              calls, seed):
        hp = pc.HyperParams(T0=T0, Tprime=span * T0, gamma=0.5, L=L)
        model = pc.PredictionModel([f"s{i}" for i in range(n_series)], hp)
        rng = np.random.default_rng(seed)
        for bulk, n in calls:
            vals = rng.normal(size=(n_series, n))
            vals[rng.random(vals.shape) < 0.1] = np.nan
            if bulk:
                model.insert_many(vals)
            else:
                for j in range(n):
                    model.insert(vals[:, j])
            raw = model.raw
            assert raw.start_step + raw.n_cols == model.n_steps
            for sm in model.submodels:
                if model.n_steps - sm.start_step < 2 * model.half_steps:
                    assert raw.start_step <= sm.start_step, (sm.index, sm.L)


    def test_pruned_step_refused(self):
        model = pc.create_model(_stream(1000, 3, seed=8),
                                pc.HyperParams(T0=20, Tprime=300))
        start = model.raw.start_step
        assert start > 0  # the window was pruned
        with pytest.raises(InvalidParams, match="already pruned"):
            model.raw.slice_steps(start - 1, start + 1)
        assert model.raw.slice_steps(start, start + 1).shape == (3, 1)

    def test_tail_of_one_series(self):
        # A forecast seed reads one row: the same floats, padding included,
        # as that row of the all-series tail.
        model = pc.PredictionModel(["a", "b", "c"])
        vals = np.arange(15.0).reshape(3, 5)
        vals[1, 3] = np.nan
        model.insert_many(vals)
        for width in (1, 4, 5, 9):
            whole = model.raw.tail(width)
            assert whole.shape == (3, width)
            for n in range(3):
                np.testing.assert_array_equal(model.raw.tail(width, n),
                                              whole[n])
        np.testing.assert_array_equal(
            model.raw.tail(7, 2), [np.nan, np.nan, 10, 11, 12, 13, 14])


class TestWorkingMemory:
    def test_create_model_holds_one_working_copy(self):
        # Peak memory of training beyond what the model keeps, on the
        # query_mix input (N=10 x 5e4, one sub-model, 4 MB of raw steps).
        # A full retrain holds its Page matrix once (4 MB), zero-filled
        # and then squared in place: 6.8 MB in all, against 14.7 MB when
        # it also held a zero-filled copy of the segment and the squared
        # matrix.
        truth = pc.gen_synthetic_I(n=2, m=5, T=50_000, r=4, seed=0,
                                   preset="scaling")
        batch = pc.corrupt(truth, sigma=0.2, p_obs=0.9, seed=1).observations
        del truth
        tracemalloc.start()
        try:
            model = pc.create_model(batch)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.raw.n_cols == 50_000
        assert peak - held < 10e6


class TestSupersededAppends:
    def test_create_appends_only_after_last_retrain(self, monkeypatch):
        # N=10 x 5e4 Synthetic-I in one sub-model: the last retrain is at
        # step 49879, and only the one block completed after it is appended
        truth = pc.gen_synthetic_I(n=2, m=5, T=50_000, r=4, seed=0,
                                   preset="scaling")
        batch = pc.corrupt(truth, sigma=0.2, p_obs=0.9, seed=1).observations
        calls = _count_appends(monkeypatch)
        model = pc.create_model(batch)
        assert [sm.retrain_history[-1] for sm in model.submodels] == [498_790]
        kept = sum(
            sm.P - (sm.retrain_history[-1] // sm.N - sm.start_step) // sm.L
            for sm in model.submodels)
        assert len(calls) == 4 * kept == 4

    def test_block_ending_on_retrain_appends_nothing(self, monkeypatch):
        # N=3 in one sub-model: it retrains at 171 steps (L=7, P=24) and next
        # at 256, and completes Page columns at 175, 182, ..., 252 between
        hp = pc.HyperParams(T0=30, Tprime=3000)
        vals = _stream(256, 3, seed=4).values
        calls = _count_appends(monkeypatch)
        for end, event, shape in ((256, (256, True), (8, 32, 9)),
                                  (255, (175, False), (7, 36, 8))):
            model = pc.PredictionModel(["a", "b", "c"], hp)
            model.insert_many(vals[:, :171])
            sm = model.submodels[0]
            assert (sm.L, sm.P, model._next_retrain(sm)) == (7, 24, 256)
            assert model._next_event(sm, end - 1) == event
            del calls[:]
            model.insert_many(vals[:, 171:end])
            assert len(model.submodels) == 1
            assert (sm.L, sm.P, len(sm.retrain_history)) == shape
            # four factor sets per appended column, or none when superseded
            assert len(calls) == (0 if event[1] else 4 * (36 - 24))

    def test_untrained_short_segment_has_no_event(self):
        # L=60 at N=3 needs 60 * 20 = 1200 steps, more than a segment's 1000
        hp = pc.HyperParams(T0=30, Tprime=3000, L=60)
        model = pc.PredictionModel(["a", "b", "c"], hp)
        model.insert_many(_stream(600, 3, seed=4).values)
        assert len(model.submodels) == 2 and model.in_fallback
        for sm in model.submodels:
            assert model._next_event(sm, 10_000) is None


class TestDegenerate:
    """A sub-model reports whether its PCR fit is degenerate (all-zero first
    L-1 Page rows) the same way fresh, after appends and after a load."""

    HP = pc.HyperParams(T0=20, Tprime=1000)

    @pytest.mark.parametrize("zero", [True, False])
    def test_fresh_appended_and_loaded_agree(self, tmp_path, monkeypatch, zero):
        batch = _stream(500, n_series=2, seed=7)
        if zero:
            batch.values[:] = 0.0
        model = pc.create_model(
            pc.TimeSeriesBatch(batch.names, batch.values[:, :400],
                               batch.observed[:, :400]), self.HP)

        def reports():
            flags = [sm.degenerate for sm in model.trained_submodels()]
            assert flags and all(type(f) is bool for f in flags)
            return set(flags)

        assert reports() == {zero}
        calls = _count_appends(monkeypatch)
        model.insert_many(batch.values[:, 400:])
        assert calls
        assert reports() == {zero}
        pc.save_model(model, tmp_path / "m")
        model = pc.load_model(tmp_path / "m")
        assert reports() == {zero}
        assert not inc.SubModel(0, 0, 2).degenerate


class TestGoldenAnswers:
    """Imputations and forecasts pinned to the last bit.

    The model has L=99, so its retrains take the Gram route of
    ``svd_with_spectrum``, whose last bits depend on the memory order of the
    Page matrix as well as on the arithmetic.  A multi-threaded BLAS sums in
    an order that depends on its thread count, so the answers are computed
    in a child process with every BLAS at one thread, the setting perfbench
    runs at.  The hex values come from the numpy/OpenBLAS build the suite
    runs on; another build may differ in the last bits.  To re-pin them,
    print the rows :meth:`answers` computes, from ``tests/``::

        PYTHONPATH=../src python -c "import test_incremental as m
        print(*m.TestGoldenAnswers.answers()[1], sep=chr(10))"
    """

    GOLDEN = [
        (0, 1, "0x1.5b67b045d5bfdp-1", "0x1.96f51e4b46b24p-4"),
        (3, 5000, "-0x1.80fc9f2af4687p+0", "0x1.e55f7167c14c0p-5"),
        (7, 11000, "0x1.14b4bd61a0c72p-2", "0x1.62f71ffe60e56p-4"),
        (9, 12000, "-0x1.09ccf772ee2d0p-4", "0x1.179eca1bd2932p+0"),
        (2, 12001, "-0x1.2a7a1e8de6351p-1", "0x0.0p+0"),
        (5, 12100, "0x1.5eb1385a3d582p-3", "0x0.0p+0"),
        (8, 13000, "-0x1.42fcd3010c007p-4", "0x1.58a54ec26f41fp-8"),
    ]

    SCRIPT = """
import json, sys
import pagecast as pc
truth = pc.corrupt(pc.gen_synthetic_I(1, 10, 12000, 4, 1, preset="scaling"),
                   sigma=0.2, p_obs=0.9, seed=1)
model = pc.create_model(truth.observations)
got = [[sm.L for sm in model.submodels]]
for series, t in json.load(sys.stdin):
    r = pc.predict_point(model, series, t)
    got.append([series, t, r.mean.hex(), r.variance.hex()])
print(json.dumps(got))
"""

    @classmethod
    def answers(cls) -> tuple[list, list]:
        """The sub-models' windows and the SCRIPT's rows for GOLDEN's
        queries, computed in a child process with every BLAS at one thread."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(pc.__file__)))
        queries = [[series, t] for series, t, _, _ in cls.GOLDEN]
        proc = subprocess.run([sys.executable, "-c", cls.SCRIPT], env=env,
                              input=json.dumps(queries), capture_output=True,
                              text=True, timeout=300, check=True)
        windows, *got = json.loads(proc.stdout)
        return windows, [tuple(row) for row in got]

    def test_create_model_answers(self):
        windows, got = self.answers()
        assert windows == [99]
        assert got == self.GOLDEN


class TestStatisticalStability:
    def test_accuracy_does_not_degrade_with_volume(self):
        hp = pc.HyperParams(T0=100, gamma=0.5, Tprime=4000)
        rng = np.random.default_rng(9)
        n_steps = 12_000
        t = np.arange(1, n_steps + 1, dtype=float)
        f = np.cos(2 * np.pi * t / 97) + 0.5 * np.cos(2 * np.pi * t / 23)
        x = f + 0.2 * rng.normal(size=n_steps)

        def one_step_nrmse(upto):
            model = pc.PredictionModel(["a"], hp)
            for i in range(upto):
                model.insert(np.array([x[i]]))
            errs = []
            window = 400
            for i in range(upto - window, upto):
                model_pred = pc.predict_point(model, "a", i + 1).mean
                errs.append(model_pred - f[i])
            # the model saw x[i] already; this measures reconstruction at the
            # same horizon for both checkpoints, which is what must not degrade
            return np.sqrt(np.mean(np.square(errs))) / f.std()

        early = one_step_nrmse(hp.Tprime)
        late = one_step_nrmse(3 * hp.Tprime)
        assert abs(late - early) / early < 0.2
