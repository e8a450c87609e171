import hashlib
import itertools
import json
import os
import pathlib
import re
import shutil
import tracemalloc

import numpy as np
import pytest

import pagecast as pc
from pagecast import persistence
from pagecast.errors import ChecksumMismatch, CorruptManifest, VersionUnsupported
from pagecast.estimator import pcr_coefficients
from pagecast.incremental import retrain_thresholds

DATA = pathlib.Path(__file__).parent / "data"


def _model(n_steps=900, n_series=2, seed=0, hp=None):
    rng = np.random.default_rng(seed)
    t = np.arange(1, n_steps + 1, dtype=float)
    vals = np.vstack([np.cos(2 * np.pi * t / (60 + 17 * i)) for i in range(n_series)])
    vals += 0.1 * rng.normal(size=vals.shape)
    mask = rng.random(vals.shape) < 0.9
    batch = pc.TimeSeriesBatch([f"s{i}" for i in range(n_series)], vals, mask)
    return pc.create_model(batch, hp or pc.HyperParams(T0=80, Tprime=600))


def _probe(model, n_steps):
    out = []
    for series in model.names:
        for t in (1, n_steps // 3, n_steps, n_steps + 7):
            r = pc.predict_point(model, series, t)
            out.append((r.mean, r.variance, r.lo, r.hi, r.kind))
    return out


def _encode(arr):
    """The bytes of a ``.f64`` file holding ``arr`` (a vector as one column),
    written out with its copies: the shape as two little-endian uint64, then
    the column-major little-endian float64 values."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    header = np.array(arr.shape, dtype="<u8").tobytes()
    return header + np.asfortranarray(arr).astype("<f8").tobytes(order="F")


def _put(store, manifest, relpath, arr):
    """Write ``arr`` as ``relpath`` of ``store`` and record its checksum."""
    data = _encode(arr)
    (store / relpath).write_bytes(data)
    manifest[f"checksum.{relpath}"] = hashlib.sha256(data).hexdigest()


def _old_rows(sm):
    """Where store formats 1-4 kept each V row: they laid the R columns
    per series of the last retrain out series-major, column j < R of series
    n at row n*R + j, and appended columns at N*j + n as format 5 does."""
    R = (sm.retrain_history[-1] // sm.N - sm.start_step) // sm.L
    j, n = np.arange(sm.P)[:, None], np.arange(sm.N)
    return np.where(j < R, n * R + j, sm.N * j + n).ravel()


def _pending(model, sm):
    """The thresholds store formats 1-5 kept as ``sub<i>.pending``: those
    above the observations of the sub-model's last retrain."""
    done = sm.retrain_history[-1] - sm.start_obs if sm.retrain_history else 0
    return [th for th in retrain_thresholds(model.hp, sm.index == 0)
            if th > done]


def _as_format(model, store, manifest, version):
    """Rewrite the current-format save of ``model`` in ``store``, whose
    manifest is ``manifest``, into the layout of store format ``version``
    (1-5): the keys n_series, n_steps, submodel_count and each sub-model's
    pending list are written; for formats 1-4 the V rows of the retrain
    columns also go back to series-major, the sub-model keys start_step,
    trained, L, P, P0, k1 and k2 are written and the checksums recomputed.
    Updates ``manifest`` in place; the caller adds what else that format
    held and writes it with :func:`_write_manifest`."""
    manifest.update(format_version=str(version), n_series=str(model.N),
                    n_steps=str(model.n_steps),
                    submodel_count=str(len(model.submodels)))
    for sm in model.submodels:
        pre = f"sub{sm.index}."
        manifest[pre + "pending"] = json.dumps(_pending(model, sm))
        if version == 5:
            continue
        manifest[pre + "start_step"] = str(sm.start_step)
        manifest[pre + "trained"] = "1" if sm.trained else "0"
        if not sm.trained:
            continue
        P0 = (sm.retrain_history[-1] // sm.N - sm.start_step) // sm.L
        for key, value in (("L", sm.L), ("P", sm.P), ("P0", P0),
                           ("k1", sm.k1), ("k2", sm.k2)):
            manifest[pre + key] = str(value)
        for stem, V in sm.arrays():
            if stem.startswith("V"):  # a factor set's V, row i to _old_rows[i]
                _put(store, manifest, f"sub_{sm.index}/{stem}.f64",
                     V[np.argsort(_old_rows(sm))])


def _write_manifest(store, manifest):
    (store / "manifest.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in manifest.items()))


def _assert_loads_like(model, tmp_path):
    """The old-format store in ``tmp_path / "m"``, saved from ``model``,
    answers like it and, after the same insert, saves the same bytes."""
    loaded = pc.load_model(tmp_path / "m")
    assert _probe(loaded, loaded.n_steps) == _probe(model, model.n_steps)

    rng = np.random.default_rng(7)
    block = np.cos(np.arange(400.0) / 9)[None, :] * np.ones((2, 1))
    block[rng.random(block.shape) < 0.1] = np.nan
    for m, d in ((model, "a"), (loaded, "b")):
        m.insert_many(block)
        pc.save_model(m, tmp_path / d)
    files = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").rglob("*.*"))
    assert files == sorted(p.relative_to(tmp_path / "b")
                           for p in (tmp_path / "b").rglob("*.*"))
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == \
               (tmp_path / "b" / f).read_bytes(), f
    assert _probe(loaded, loaded.n_steps) == _probe(model, model.n_steps)


class TestRoundTrip:
    def test_bit_identical_predictions(self, tmp_path):
        model = _model()
        before = _probe(model, model.n_steps)
        pc.save_model(model, tmp_path / "m")
        loaded = pc.load_model(tmp_path / "m")
        after = _probe(loaded, loaded.n_steps)
        assert before == after  # bit-for-bit

    def test_state_fields_roundtrip(self, tmp_path):
        model = _model(seed=3)
        pc.save_model(model, tmp_path / "m")
        loaded = pc.load_model(tmp_path / "m")
        assert loaded.names == model.names
        assert loaded.n_steps == model.n_steps
        assert loaded.obs_sum == model.obs_sum
        assert loaded.hp == model.hp
        assert len(loaded.submodels) == len(model.submodels)
        for a, b in zip(model.submodels, loaded.submodels):
            assert (a.L, a.P, a.k1, a.k2) == (b.L, b.P, b.k1, b.k2)
            assert a.retrain_history == b.retrain_history
            assert model._next_retrain(a) == loaded._next_retrain(b)
            if a.trained:
                np.testing.assert_array_equal(a.mean_svd.U, b.mean_svd.U)
                np.testing.assert_array_equal(a.beta_var, b.beta_var)

    def test_fallback_model_roundtrip(self, tmp_path):
        vals = np.array([[1.0, 2.0, 4.0]])
        batch = pc.TimeSeriesBatch(["a"], vals, np.isfinite(vals))
        model = pc.create_model(batch, pc.HyperParams(T0=100, Tprime=1000))
        pc.save_model(model, tmp_path / "m")
        loaded = pc.load_model(tmp_path / "m")
        assert loaded.in_fallback
        assert loaded.fallback_mean == model.fallback_mean
        r = pc.predict_point(loaded, "a", 2)
        assert r.fallback and r.mean == pytest.approx(7.0 / 3.0)

    def test_empty_model_roundtrip(self, tmp_path):
        # no steps: the raw file is its header alone
        model = pc.PredictionModel(["a", "b"])
        pc.save_model(model, tmp_path / "m")
        assert (tmp_path / "m" / "raw_values.f64").read_bytes() == \
            _encode(np.empty((2, 0)))
        loaded = pc.load_model(tmp_path / "m")
        assert (loaded.names, loaded.n_steps, loaded.submodels) == \
            (["a", "b"], 0, [])
        block = np.cos(np.arange(300.0) / 9)[None, :] * np.ones((2, 1))
        for m in (model, loaded):
            m.insert_many(block)
        assert _probe(loaded, 300) == _probe(model, 300)

    def test_insert_after_load_matches_uninterrupted(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.arange(1, 1501, dtype=float)
        x = np.cos(2 * np.pi * t / 90) + 0.05 * rng.normal(size=1500)
        hp = pc.HyperParams(T0=80, Tprime=600)

        straight = pc.PredictionModel(["a"], hp)
        for v in x:
            straight.insert(np.array([v]))

        partial = pc.PredictionModel(["a"], hp)
        for v in x[:1000]:
            partial.insert(np.array([v]))
        pc.save_model(partial, tmp_path / "m")
        resumed = pc.load_model(tmp_path / "m")
        for v in x[1000:]:
            resumed.insert(np.array([v]))

        for t_q in (10, 700, 1400, 1510):
            a = pc.predict_point(straight, "a", t_q)
            b = pc.predict_point(resumed, "a", t_q)
            assert a.mean == pytest.approx(b.mean, rel=1e-12, abs=1e-12)

    def test_format_1_store_loads(self, tmp_path):
        # format 1 also stored coeff_avg.f64 and half_steps; both are
        # derived state that load now ignores
        model = _model()
        manifest = pc.save_model(model, tmp_path / "m")
        assert "half_steps" not in manifest
        assert not (tmp_path / "m" / "coeff_avg.f64").exists()
        _as_format(model, tmp_path / "m", manifest, 1)
        _put(tmp_path / "m", manifest, "coeff_avg.f64",
             np.vstack(model.averaged_coefficients()))
        manifest["half_steps"] = str(model.half_steps)
        _write_manifest(tmp_path / "m", manifest)
        loaded = pc.load_model(tmp_path / "m")
        assert loaded.half_steps == model.half_steps
        assert _probe(loaded, loaded.n_steps) == _probe(model, model.n_steps)

    def test_format_2_store_loads(self, tmp_path):
        # format 2 also stored each sub-model's step count, its unfinished
        # Page column (buf, N x L, the first buf_len columns in use) and its
        # last Page row; load now derives them from n_steps and the raw window
        model = _model()
        manifest = pc.save_model(model, tmp_path / "m")
        assert not any(k.endswith((".steps", ".buf_len")) for k in manifest)
        assert not list((tmp_path / "m").glob("sub_*/buf.f64"))
        _as_format(model, tmp_path / "m", manifest, 2)
        rebuilt = 0
        for sm in model.submodels:
            steps = min(model.n_steps - sm.start_step, 2 * model.half_steps)
            manifest[f"sub{sm.index}.steps"] = str(steps)
            if not sm.trained:
                continue
            buf_len = steps - sm.L * sm.P
            manifest[f"sub{sm.index}.buf_len"] = str(buf_len)
            # sub-models whose steps are pruned keep these placeholders
            buf = np.zeros((model.N, sm.L))
            last = np.full(model.N * sm.P, np.nan)
            if sm.start_step >= model.raw.start_step:
                # V's row order, read through the mapping queries use
                vals = model.raw.slice_steps(sm.start_step, model.n_steps)
                zf = np.where(np.isfinite(vals), vals, 0.0)
                buf[:, :buf_len] = zf[:, sm.L * sm.P:]
                for n in range(model.N):
                    for j in range(sm.P):
                        last[model.N * j + n] = zf[n, (j + 1) * sm.L - 1]
                fitted = (pcr_coefficients(sm.fc_mean_svd, last),
                          pcr_coefficients(sm.fc_var_svd, last * last))
                assert fitted[0].tobytes() == sm.beta_mean.tobytes()
                assert fitted[1].tobytes() == sm.beta_var.tobytes()
                rebuilt += 1
            # the row in that store's V order
            last[_old_rows(sm)] = last.copy()
            for name, arr in (("buf", buf), ("last_row_mean", last),
                              ("last_row_var", last * last)):
                _put(tmp_path / "m", manifest, f"sub_{sm.index}/{name}.f64", arr)
        assert rebuilt >= 2
        _write_manifest(tmp_path / "m", manifest)
        _assert_loads_like(model, tmp_path)

    def test_format_3_store_loads(self, tmp_path):
        # format 3 also stored the raw window's observation mask, which is
        # exactly where raw_values.f64 is finite; load now derives it
        model = _model()
        manifest = pc.save_model(model, tmp_path / "m")
        assert manifest["format_version"] == str(persistence.FORMAT_VERSION)
        assert not (tmp_path / "m" / "raw_mask.f64").exists()
        _as_format(model, tmp_path / "m", manifest, 3)
        raw = model.raw.rows().T
        assert not np.isfinite(raw).all()
        _put(tmp_path / "m", manifest, "raw_mask.f64",
             np.isfinite(raw).astype(np.float64))
        _write_manifest(tmp_path / "m", manifest)
        _assert_loads_like(model, tmp_path)

    def test_loaded_window_has_spare_capacity(self, tmp_path):
        # the first step after a load must not copy the whole raw window;
        # with nothing pruned the loaded window is as wide as the saved one
        for hp in (None, pc.HyperParams(T0=80, Tprime=10_000)):
            model = _model(hp=hp)
            pc.save_model(model, tmp_path / "m")
            loaded = pc.load_model(tmp_path / "m")
            window = loaded.raw._vals
            if model.raw.start_step == 0:
                assert window.shape == model.raw._vals.shape
            loaded.insert(np.array([0.5, -0.5]))
            assert loaded.raw._vals is window

    def test_many_random_roundtrips(self, tmp_path):
        for seed in range(10):
            model = _model(n_steps=300 + 40 * seed, seed=seed,
                           hp=pc.HyperParams(T0=60, Tprime=400))
            before = _probe(model, model.n_steps)
            pc.save_model(model, tmp_path / f"m{seed}")
            after = _probe(pc.load_model(tmp_path / f"m{seed}"), model.n_steps)
            assert before == after, seed

    def test_format_4_and_5_stores_load(self, tmp_path):
        # generated stores; data/format4 and data/format5 are stores those
        # formats' own code wrote
        for version in (4, 5):
            model = _model()
            manifest = pc.save_model(model, tmp_path / "m")
            _as_format(model, tmp_path / "m", manifest, version)
            _write_manifest(tmp_path / "m", manifest)
            _assert_loads_like(model, tmp_path)

    def test_submodel_entry_is_history_and_checksums(self, tmp_path):
        # a sub-model's first step, whether it is trained, its shapes and
        # its pending thresholds are derived at load, and so are the series,
        # step and sub-model counts: format 6 stores none of them
        model = _model()
        manifest = pc.save_model(model, tmp_path / "m")
        keys = {k for k in manifest if re.match(r"sub\d+\.", k)}
        assert keys == {f"sub{sm.index}.retrain_history"
                        for sm in model.submodels}
        assert not {"n_series", "n_steps", "submodel_count"} & set(manifest)
        assert model.trained_submodels()
        for sm in model.trained_submodels():
            assert f"checksum.sub_{sm.index}/V.f64" in manifest

    def test_version_counter_monotone(self, tmp_path):
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        m1 = pc.save_model(model, tmp_path / "m")
        m2 = pc.save_model(model, tmp_path / "m")
        assert int(m2["model_version"]) == int(m1["model_version"]) + 1


def _fixture_answers(model, last=520):
    """The queries of data/format4_answers.json (every fourth step up to
    ``last`` of each series), answered by ``model``."""
    out = []
    for n in range(model.N):
        rows = pc.predict_range(model, n, 1, last)
        out += [[n, t, rows[t - 1].mean.hex(), rows[t - 1].variance.hex()]
                for t in range(1, last + 1, 4)]
    return out


class TestFormat4Store:
    """data/format4/, written in store format 4 by the code that last
    saved it (data/make_format4.py): three series, five sub-models, each
    retrained and then extended by appended Page columns."""

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(DATA / "format4", tmp_path / "m")
        return tmp_path / "m"

    @staticmethod
    def _edit(store, key, value):
        manifest = persistence._read_manifest(str(store))
        assert key in manifest
        manifest[key] = value
        _write_manifest(store, manifest)

    def test_answers_bit_for_bit(self, store):
        model = pc.load_model(store)
        assert len(model.trained_submodels()) == 5
        for sm in model.trained_submodels():
            assert sm.P > (sm.retrain_history[-1] // sm.N - sm.start_step) // sm.L
        want = json.loads((DATA / "format4_answers.json").read_text())
        assert _fixture_answers(model) == want

    def test_resaved_answers_as_in_memory(self, store, tmp_path):
        model = pc.load_model(store)
        rng = np.random.default_rng(11)
        block = np.cos(np.arange(150.0) / 7)[None, :] * np.ones((3, 1))
        block[rng.random(block.shape) < 0.1] = np.nan
        model.insert_many(block)
        manifest = pc.save_model(model, tmp_path / "m5")
        assert manifest["format_version"] == str(persistence.FORMAT_VERSION)
        reloaded = pc.load_model(tmp_path / "m5")
        assert _fixture_answers(reloaded) == _fixture_answers(model)
        assert _probe(reloaded, model.n_steps) == _probe(model, model.n_steps)

    def test_stored_shape_keys_are_not_read(self, store):
        # sub0 has L=6; an edited L once changed its answers
        self._edit(store, "sub0.L", "5")
        want = json.loads((DATA / "format4_answers.json").read_text())
        assert _fixture_answers(pc.load_model(store)) == want

    def test_P_disagreeing_with_V_refused(self, store):
        self._edit(store, "sub0.P", "34")
        with pytest.raises(CorruptManifest):
            pc.load_model(store)


class TestFormat5Store:
    """data/format5/, written in store format 5 by the code that last
    saved it (data/make_format5.py): three series and six sub-models, the
    newest retrained once with a threshold still pending.  Format 5 also
    stored n_series, n_steps, submodel_count and each sub-model's pending
    thresholds, which load now derives."""

    _edit = staticmethod(TestFormat4Store._edit)

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(DATA / "format5", tmp_path / "m")
        return tmp_path / "m"

    @pytest.fixture(scope="class")
    def want(self):
        return json.loads((DATA / "format5_answers.json").read_text())

    @staticmethod
    def _block():
        """data/make_format5.py's block(): 150 steps, 10 % missing."""
        rng = np.random.default_rng(11)
        vals = np.cos(np.arange(150.0) / 7)[None, :] * np.ones((3, 1))
        vals[rng.random(vals.shape) < 0.1] = np.nan
        return vals

    def _check(self, store, want):
        """The store answers as the fixture's code did, and after the same
        block it has retrained and answers as that code did."""
        model = pc.load_model(store)
        assert (model.n_steps, len(model.submodels)) == (525, 6)
        assert _fixture_answers(model, 540) == want["answers"]
        model.insert_many(self._block())
        after = want["after_block"]
        assert [sm.retrain_history for sm in model.submodels] == \
            after["retrain_history"]
        assert _fixture_answers(model, 690) == after["answers"]

    def test_answers_and_continues_bit_for_bit(self, store, want):
        manifest = persistence._read_manifest(str(store))
        assert manifest["format_version"] == "5"
        assert manifest["sub5.pending"] == "[91]"
        model = pc.load_model(store)
        # 63 of the sub-model's observations are in; 91 is first crossed
        # at 31 steps
        assert model.submodels[5].retrain_history == [1563]
        assert model._next_retrain(model.submodels[5]) == 31
        self._check(store, want)

    @pytest.mark.parametrize("key, value", [
        ("n_steps", "500"), ("n_series", "2"), ("submodel_count", "5"),
        ("sub5.pending", "[10000]")])
    def test_legacy_keys_are_not_read(self, store, want, key, value):
        self._edit(store, key, value)
        self._check(store, want)

    @pytest.mark.parametrize("key, value", [
        ("names", '["a", "b"]'),             # 3 series in raw_values.f64
        ("sub1.retrain_history", "[]"),      # its factor files are listed
        ("sub5.retrain_history", "[1593]"),  # L=3 at 31 steps, its U has 2
        ("raw_start", "410")],               # sub5 would have P=17, not 12
        ids=["names", "empty_history", "history", "raw_start"])
    def test_disagreeing_edit_refused(self, store, key, value):
        self._edit(store, key, value)
        with pytest.raises(CorruptManifest):
            pc.load_model(store)

    def test_history_without_factor_files_refused(self, store):
        manifest = persistence._read_manifest(str(store))
        _write_manifest(store, {k: v for k, v in manifest.items()
                                if not k.startswith("checksum.sub_5/")})
        with pytest.raises(CorruptManifest):
            pc.load_model(store)


class TestArrayEncoding:
    def test_saved_files_match_reference(self, tmp_path):
        # Every file of a multi-segment store holds the reference encoding
        # of the array it stores, and the manifest its sha256.
        model = _model()
        assert len(model.trained_submodels()) >= 2
        expect = {"raw_values.f64": model.raw.rows().T}
        for sm in model.trained_submodels():
            for stem, arr in sm.arrays():
                expect[f"sub_{sm.index}/{stem}.f64"] = arr
        manifest = pc.save_model(model, tmp_path / "m")
        files = {p.relative_to(tmp_path / "m").as_posix()
                 for p in (tmp_path / "m").rglob("*.f64")}
        assert files == set(expect)
        for relpath, arr in expect.items():
            want = _encode(arr)
            assert (tmp_path / "m" / relpath).read_bytes() == want, relpath
            assert manifest[f"checksum.{relpath}"] == \
                hashlib.sha256(want).hexdigest()


@pytest.fixture(scope="module")
def window_model():
    """A one-segment N=10 x 5e4 model, whose raw window is 4 MB."""
    rng = np.random.default_rng(3)
    t = np.arange(50_000.0)
    vals = np.cos(t / 40.0 + np.arange(10)[:, None]) \
        + 0.1 * rng.normal(size=(10, t.size))
    batch = pc.TimeSeriesBatch([f"s{i}" for i in range(10)], vals,
                               rng.random(vals.shape) < 0.9)
    model = pc.create_model(batch)
    assert model.raw.rows().nbytes == 4_000_000
    assert model.trained_submodels()
    return model


class TestSaveMemory:
    def test_save_holds_one_copy_of_the_raw_window(self, tmp_path,
                                                   window_model):
        # Saving writes the raw window from the model's own buffer, so it
        # holds no copy of it: 0.02x the window's bytes beyond what the
        # model keeps, against 1.0x when the window was encoded into one
        # buffer and 3.0x when it was also copied out and joined.
        tracemalloc.start()
        try:
            pc.save_model(window_model, tmp_path / "m")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 0.25 * 4_000_000


class TestLoadMemory:
    def test_load_reads_the_raw_window_in_place(self, tmp_path,
                                                window_model):
        # Loading reads the raw file straight into the new window's
        # buffer: 0.01x the window's bytes beyond what the loaded model
        # keeps, against 0.95x when the file was read into bytes, decoded
        # into a copy and copied again into the window.
        pc.save_model(window_model, tmp_path / "m")
        tracemalloc.start()
        try:
            loaded = pc.load_model(tmp_path / "m")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.raw.n_cols == 50_000
        assert peak - held < 0.25 * 4_000_000


class TestValidation:
    @staticmethod
    def _damage(store, relpath, how):
        victim = store / relpath
        data = victim.read_bytes()
        if how == "missing":
            victim.unlink()
        elif how == "truncated":
            victim.write_bytes(data[:-8])
        elif how == "one_byte_long":
            victim.write_bytes(data + b"\0")
        elif how == "flipped":
            pos = 16 + (len(data) - 16) // 2
            victim.write_bytes(data[:pos] + bytes([data[pos] ^ 1])
                               + data[pos + 1:])
        else:  # a file that disagrees with its header, its checksum recorded
            if how == "huge_header":  # claims 2**40 rows
                data = np.array([2**40], dtype="<u8").tobytes() + data[8:]
            else:  # "length_vs_header": one value short
                data = data[:-8]
            victim.write_bytes(data)
            manifest = store / "manifest.txt"
            lines = [f"checksum.{relpath}={hashlib.sha256(data).hexdigest()}"
                     if line.startswith(f"checksum.{relpath}=") else line
                     for line in manifest.read_text().splitlines()]
            manifest.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("how, error", [
        ("truncated", ChecksumMismatch), ("one_byte_long", ChecksumMismatch),
        ("flipped", ChecksumMismatch), ("missing", ChecksumMismatch),
        ("length_vs_header", CorruptManifest),
        ("huge_header", CorruptManifest)])
    @pytest.mark.parametrize("relpath", ["sub_0/U.f64", "raw_values.f64"],
                             ids=["U", "raw"])
    def test_damaged_array_file(self, tmp_path, relpath, how, error):
        # The raw window is refused as every other array file is, and a
        # header's claim is not allocated before the file's length bears
        # it out.
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        pc.save_model(model, tmp_path / "m")
        self._damage(tmp_path / "m", relpath, how)
        tracemalloc.start()
        try:
            with pytest.raises(error):
                pc.load_model(tmp_path / "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_future_version_rejected(self, tmp_path):
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        pc.save_model(model, tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.txt"
        text = manifest.read_text().replace(
            f"format_version={persistence.FORMAT_VERSION}",
            f"format_version={persistence.FORMAT_VERSION + 1}")
        manifest.write_text(text)
        with pytest.raises(VersionUnsupported):
            pc.load_model(tmp_path / "m")

    @pytest.mark.parametrize("key, value", [
        ("hp.L", '"x"'), ("hp.L", "3.0"), ("hp.k1", "true"), ("hp.T0", "60.0"),
        ("names", "5"), ("sub0.retrain_history", "3")])
    def test_wrongly_typed_value(self, tmp_path, key, value):
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        manifest = pc.save_model(model, tmp_path / "m")
        manifest[key] = value
        _write_manifest(tmp_path / "m", manifest)
        with pytest.raises(CorruptManifest):
            pc.load_model(tmp_path / "m")

    @pytest.mark.parametrize("key, value", [
        ("hp.T0", "0"), ("hp.gamma", "0x1.0000000000000p+1"),
        ("hp.coeff_window", "0"), ("names", "[]"), ("names", '["s0", "s0"]')])
    def test_refused_parameters_are_corrupt(self, tmp_path, key, value):
        # values a new model refuses make the store corrupt; the readable
        # primary is refused, not replaced by its backup
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        manifest = pc.save_model(model, tmp_path / "m")
        shutil.copytree(tmp_path / "m", tmp_path / "m.bak")
        manifest[key] = value
        _write_manifest(tmp_path / "m", manifest)
        with pytest.raises(CorruptManifest):
            pc.load_model(tmp_path / "m")

    @pytest.mark.parametrize("damage", ["line_without_equals",
                                        "no_format_version"])
    def test_unreadable_manifest_falls_back_to_backup(self, tmp_path, damage):
        hp = pc.HyperParams(T0=60, Tprime=400)
        pc.save_model(_model(n_steps=300, hp=hp), tmp_path / "old")
        manifest = pc.save_model(_model(n_steps=350, hp=hp), tmp_path / "m")
        shutil.copytree(tmp_path / "old", tmp_path / "m.bak")
        if damage == "no_format_version":
            del manifest["format_version"]
            _write_manifest(tmp_path / "m", manifest)
        else:
            with open(tmp_path / "m" / "manifest.txt", "a") as fh:
                fh.write("no separator here\n")
        assert pc.load_model(tmp_path / "m").n_steps == 300
        shutil.rmtree(tmp_path / "m.bak")
        with pytest.raises(CorruptManifest, match="no loadable model"):
            pc.load_model(tmp_path / "m")

    @pytest.mark.parametrize("relpath", ["sub_0/U.f64", "raw_values.f64"])
    def test_unlisted_array_file(self, tmp_path, relpath):
        # the file is there and intact, but the manifest has no checksum
        # for it; a readable primary is refused, not replaced by its backup
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        manifest = pc.save_model(model, tmp_path / "m")
        shutil.copytree(tmp_path / "m", tmp_path / "m.bak")
        del manifest[f"checksum.{relpath}"]
        _write_manifest(tmp_path / "m", manifest)
        with pytest.raises(CorruptManifest, match=f"lacks checksum for {relpath}"):
            pc.load_model(tmp_path / "m")

    def test_non_utf8_manifest_is_unreadable(self, tmp_path):
        # such a primary is not the live copy: load reads the backup, and
        # without one refuses the store
        hp = pc.HyperParams(T0=60, Tprime=400)
        pc.save_model(_model(n_steps=300, hp=hp), tmp_path / "old")
        pc.save_model(_model(n_steps=350, hp=hp), tmp_path / "m")
        shutil.copytree(tmp_path / "old", tmp_path / "m.bak")
        with open(tmp_path / "m" / "manifest.txt", "ab") as fh:
            fh.write(b"\xff\xfe")
        assert pc.load_model(tmp_path / "m").n_steps == 300
        shutil.rmtree(tmp_path / "m.bak")
        with pytest.raises(CorruptManifest, match="no loadable model"):
            pc.load_model(tmp_path / "m")

    def test_trailing_separator_names_the_same_store(self, tmp_path):
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        store = str(tmp_path / "m")
        pc.save_model(model, store + os.sep)
        manifest = pc.save_model(model, store + os.sep)
        assert manifest["model_version"] == "2"
        assert os.listdir(tmp_path) == ["m"]
        for path in (store, store + os.sep):
            assert _probe(pc.load_model(path), 300) == _probe(model, 300)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(CorruptManifest):
            pc.load_model(tmp_path / "nope")

    def test_garbled_manifest(self, tmp_path):
        d = tmp_path / "m"
        d.mkdir()
        (d / "manifest.txt").write_text("format_version=1\nmodel_version=1\n"
                                        "n_series=oops\nn_steps=3\n")
        with pytest.raises(CorruptManifest):
            pc.load_model(d)


class TestHyperParamKeys:
    def test_every_knob_set_is_stored_as_text(self, tmp_path):
        hp = pc.HyperParams(T0=60, Tprime=1000, gamma=0.3, L=5, k1=2, k2=3,
                            coeff_window=4)
        pc.save_model(_model(n_steps=300, hp=hp), tmp_path / "m")
        lines = (tmp_path / "m" / "manifest.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("hp.")] == [
            "hp.T0=60", "hp.Tprime=1000", "hp.gamma=0x1.3333333333333p-2",
            "hp.L=5", "hp.k1=2", "hp.k2=3", "hp.coeff_window=4"]
        assert pc.load_model(tmp_path / "m").hp == hp

    def test_numpy_int_knobs_save_and_load(self, tmp_path):
        # json.dumps refused the np.int64 rank the model trained with
        hp = pc.HyperParams(T0=np.int64(60), Tprime=np.int64(400),
                            k2=np.int64(3))
        model = _model(n_steps=300, hp=hp)
        pc.save_model(model, tmp_path / "m")
        loaded = pc.load_model(tmp_path / "m")
        assert loaded.hp == pc.HyperParams(T0=60, Tprime=400, k2=3)
        assert _probe(loaded, 300) == _probe(model, 300)


class TestCrashSafety:
    def _crash_at_call(self, monkeypatch, target_name, crash_index):
        calls = {"n": 0}
        original = getattr(persistence, target_name)

        def wrapper(*args, **kwargs):
            if calls["n"] == crash_index:
                raise OSError("injected crash")
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(persistence, target_name, wrapper)
        return calls

    @pytest.mark.parametrize("target,idx", [
        ("_write_bytes", 0), ("_write_bytes", 3), ("_write_bytes", 10**9),
        ("_rename", 0), ("_rename", 1),
    ])
    def test_interrupted_resave_keeps_previous(self, tmp_path, monkeypatch,
                                               target, idx):
        model = _model(n_steps=300, seed=1, hp=pc.HyperParams(T0=60, Tprime=400))
        pc.save_model(model, tmp_path / "m")
        expected = _probe(pc.load_model(tmp_path / "m"), model.n_steps)

        model.insert(np.array([0.5, -0.5]))
        if idx < 10**8:
            self._crash_at_call(monkeypatch, target, idx)
            with pytest.raises(OSError):
                pc.save_model(model, tmp_path / "m")
            monkeypatch.undo()
            loaded = pc.load_model(tmp_path / "m")
            # previous version is intact (new insert not visible)
            assert _probe(loaded, 300) == expected
        else:
            pc.save_model(model, tmp_path / "m")
            loaded = pc.load_model(tmp_path / "m")
            assert loaded.n_steps == 301

    def _each_interrupted_save(self, monkeypatch, model, family, targets):
        """Save ``model`` as ``m`` in a copy of the directory ``family``,
        interrupted at each call of each primitive in ``targets`` in turn,
        and yield each copy; a save that makes fewer calls is not kept.  A
        save writes no file in place, so the copy's files are hard links."""
        for target in targets:
            for idx in itertools.count():
                copy = family.with_name(f"{family.name}-{target}{idx}")
                shutil.copytree(family, copy, copy_function=os.link)
                self._crash_at_call(monkeypatch, target, idx)
                try:
                    pc.save_model(model, copy / "m")
                    interrupted = False
                except OSError:
                    interrupted = True
                monkeypatch.undo()
                if not interrupted:
                    shutil.rmtree(copy)
                    break
                yield copy

    @pytest.mark.parametrize("target", ["_write_bytes", "_rename",
                                        "_fsync_dir"])
    def test_twice_interrupted_save_keeps_a_committed_version(
            self, tmp_path, monkeypatch, target):
        # A resave interrupted at any call of ``target``, then a save of the
        # model loaded after it interrupted at any call of any primitive,
        # each leave the previous or the new version loadable.
        model = _model(n_steps=100, n_series=1, seed=1,
                       hp=pc.HyperParams(T0=60, Tprime=400))
        pc.save_model(model, tmp_path / "v1" / "m")
        versions = [_probe(model, 100)]
        model.insert(np.array([0.5]))
        versions.append(_probe(model, 100))
        every = ("_write_bytes", "_rename", "_fsync_dir")
        for first in self._each_interrupted_save(monkeypatch, model,
                                                 tmp_path / "v1", [target]):
            live = pc.load_model(first / "m")
            assert _probe(live, 100) in versions
            committed = [_probe(live, 100)]
            live.insert(np.array([0.25]))
            committed.append(_probe(live, 100))
            for second in self._each_interrupted_save(monkeypatch, live,
                                                      first, every):
                assert _probe(pc.load_model(second / "m"), 100) in committed
                shutil.rmtree(second)

    def test_raw_window_is_the_first_file_written(self, tmp_path,
                                                  monkeypatch):
        # The crash indices above count from the raw window's write.
        paths = []
        write = persistence._write_bytes
        monkeypatch.setattr(persistence, "_write_bytes",
                            lambda path, *chunks: paths.append(path)
                            or write(path, *chunks))
        pc.save_model(_model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400)),
                      tmp_path / "m")
        assert os.path.basename(paths[0]) == "raw_values.f64"
        assert os.path.basename(paths[-1]) == "manifest.txt"

    def test_save_fsyncs_files_and_directories(self, tmp_path, monkeypatch):
        # for a save to survive power loss, every file and directory of the
        # new store is fsynced before the commit renames and the parent
        # directory after them
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        pc.save_model(model, tmp_path / "m")
        events = []
        fsync, rename = os.fsync, persistence._rename

        def record_fsync(fd):
            events.append(os.fstat(fd).st_ino)
            fsync(fd)

        def record_rename(src, dst):
            rename(src, dst)
            events.append("rename")

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(persistence, "_rename", record_rename)
        pc.save_model(model, tmp_path / "m")
        monkeypatch.undo()
        assert events.count("rename") == 2
        first = events.index("rename")
        last = len(events) - 1 - events[::-1].index("rename")
        store = [tmp_path / "m", *(tmp_path / "m").rglob("*")]
        assert {p.stat().st_ino for p in store} <= set(events[:first])
        assert tmp_path.stat().st_ino in events[last:]

    def test_initial_save_crash_leaves_nothing_loadable(self, tmp_path,
                                                        monkeypatch):
        model = _model(n_steps=300, seed=2, hp=pc.HyperParams(T0=60, Tprime=400))
        self._crash_at_call(monkeypatch, "_write_bytes", 2)
        with pytest.raises(OSError):
            pc.save_model(model, tmp_path / "m")
        monkeypatch.undo()
        with pytest.raises(CorruptManifest):
            pc.load_model(tmp_path / "m")
        # and a clean retry succeeds
        pc.save_model(model, tmp_path / "m")
        pc.load_model(tmp_path / "m")

    def test_file_at_the_path_refused_before_staging(self, tmp_path):
        # a full m.staging was written, then the commit failed on the file
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        path = tmp_path / "m"
        path.write_text("not a store")
        with pytest.raises(NotADirectoryError, match=re.escape(repr(str(path)))):
            pc.save_model(model, path)
        assert path.read_text() == "not a store"
        assert sorted(os.listdir(tmp_path)) == ["m"]

    @pytest.mark.parametrize("suffix", [".bak", ".staging"])
    def test_file_beside_the_store_refused_before_staging(self, tmp_path,
                                                          suffix):
        # with a file at m.bak, a full m.staging was written, then the
        # commit failed on the file
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        pc.save_model(model, tmp_path / "m")
        stored = {p: p.read_bytes() for p in (tmp_path / "m").rglob("*")
                  if p.is_file()}
        stray = tmp_path / f"m{suffix}"
        stray.write_text("not a store")
        with pytest.raises(NotADirectoryError, match=re.escape(repr(str(stray)))):
            pc.save_model(model, tmp_path / "m")
        assert stray.read_text() == "not a store"
        assert sorted(os.listdir(tmp_path)) == ["m", f"m{suffix}"]
        assert stored == {p: p.read_bytes() for p in (tmp_path / "m").rglob("*")
                          if p.is_file()}

    def test_directory_of_other_files_refused_before_staging(self, tmp_path):
        # it was deleted and replaced by the new store
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        path = tmp_path / "m"
        (path / "sub").mkdir(parents=True)
        (path / "notes.txt").write_text("not a store")
        (path / "sub" / "data.bin").write_bytes(b"\x00\x01")
        before = {p: p.read_bytes() if p.is_file() else None
                  for p in path.rglob("*")}
        with pytest.raises(OSError, match=re.escape(repr(str(path)))):
            pc.save_model(model, path)
        assert before == {p: p.read_bytes() if p.is_file() else None
                          for p in path.rglob("*")}
        assert sorted(os.listdir(tmp_path)) == ["m"]

    def test_empty_directory_is_replaced(self, tmp_path):
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        (tmp_path / "m").mkdir()
        assert pc.save_model(model, tmp_path / "m")["model_version"] == "1"
        assert pc.load_model(tmp_path / "m").n_steps == model.n_steps

    def test_dead_primary_with_live_backup_is_replaced(self, tmp_path):
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        path = tmp_path / "m"
        pc.save_model(model, path)
        pc.save_model(model, path)
        shutil.copytree(path, tmp_path / "m.bak")
        (path / "manifest.txt").write_bytes(b"\xff not a manifest\n")
        assert pc.save_model(model, path)["model_version"] == "3"
        assert sorted(os.listdir(tmp_path)) == ["m"]
        assert pc.load_model(path).n_steps == model.n_steps

    def test_readonly_parent_raises_oserror(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root bypasses permission bits")
        model = _model(n_steps=300, hp=pc.HyperParams(T0=60, Tprime=400))
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o500)
        with pytest.raises(OSError):
            pc.save_model(model, ro / "m")
