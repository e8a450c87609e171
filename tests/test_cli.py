import argparse
import csv
import io
import os
from dataclasses import fields
from datetime import datetime, timedelta

import numpy as np
import pytest

import pagecast as pc
from pagecast.cli import build_parser, main
from pagecast.ingestion import AGG_FUNCTIONS
from pagecast.query import MAX_HORIZON


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_series_csv(path, n_steps=400, n_series=2, seed=0, noise=0.05,
                      first_t=1, stride=1):
    rng = np.random.default_rng(seed)
    t = first_t + stride * np.arange(n_steps, dtype=float)
    rows = [["t"] + [f"s{i}" for i in range(n_series)]]
    for i, ti in enumerate(t):
        vals = [np.cos(2 * np.pi * ti / 80) * (1 + 0.1 * j)
                + noise * rng.normal() for j in range(n_series)]
        rows.append([int(ti)] + [f"{v:.8f}" for v in vals])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestCreatePredict:
    def test_create_then_predict(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data)
        model_dir = tmp_path / "model"
        code, out, err = _run(capsys, [
            "create", "--input", str(data), "--model", str(model_dir),
            "--T0", "80", "--Tprime", "100000"])
        assert code == 0
        assert model_dir.is_dir()
        assert "us/record" in err
        read_line = err.splitlines()[0]
        assert read_line.startswith(f"read 2 series x 400 steps from {data} in ")

        code, out, err = _run(capsys, [
            "predict", "--model", str(model_dir), "--series", "s0",
            "--t", "500", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["kind"] == "forecast"
        assert float(rows[0]["lo"]) <= float(rows[0]["mean"]) <= float(rows[0]["hi"])

    def test_predict_range_and_no_uq(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        code, out, _ = _run(capsys, [
            "predict", "--model", str(model_dir), "--series", "s1",
            "--range", "10:12", "--no-uq", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert "variance" not in rows[0]
        assert all(r["kind"] == "imputed" for r in rows)

    def test_t_and_range_mutually_exclusive(self, tmp_path, capsys):
        code, _, err = _run(capsys, [
            "predict", "--model", str(tmp_path / "x"), "--series", "a",
            "--t", "3", "--range", "1:5"])
        assert code == 1 and "exactly one" in err

    def test_create_empty_csv_fails(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("t,a\n")
        code, _, err = _run(capsys, [
            "create", "--input", str(data), "--model", str(tmp_path / "m")])
        assert code == 1
        assert "EmptyFile" in err

    def test_create_row_without_time_cell_exits_1(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("a,t\n5,1\n6\n7,3\n")
        code, out, err = _run(capsys, [
            "create", "--input", str(data), "--model", str(tmp_path / "m"),
            "--time-col", "t"])
        assert code == 1 and out == ""
        assert "error: UnparseableTimestamp" in err and "line 3" in err
        assert "Traceback" not in err

    def test_create_tick_keeps_on_grid_rows(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("t,a\n" + "".join(
            f"{k / 10!r},{np.cos(k / 8):.8f}\n" for k in range(1, 301)))
        model_dir = tmp_path / "model"
        code, _, err = _run(capsys, ["create", "--input", str(data), "--model",
                                     str(model_dir), "--T0", "80",
                                     "--tick", "0.1"])
        assert code == 0, err
        model = pc.load_model(model_dir)
        assert model.n_steps == 300 and model.obs_cnt == 300

    def test_iso_sub_second_tick_create_then_insert(self, tmp_path, capsys):
        # with this start and length the model's next step, t0 + 333 * 0.1,
        # and the insert CSV's first epoch stamp differ by one float spacing
        # (2.4e-7 s), far above 1e-9 * step
        start = datetime(2024, 1, 1, 0, 0, 0, 100_000)

        def write(path, first, count):
            path.write_text("t,a\n" + "".join(
                f"{(start + timedelta(milliseconds=100 * k)).isoformat()},"
                f"{np.cos(k / 8):.8f}\n" for k in range(first, first + count)))

        write(tmp_path / "data.csv", 0, 333)
        model_dir = tmp_path / "model"
        code, _, err = _run(capsys, ["create", "--input",
                                     str(tmp_path / "data.csv"), "--model",
                                     str(model_dir), "--T0", "80",
                                     "--tick", "0.1"])
        assert code == 0, err
        write(tmp_path / "late.csv", 334, 50)
        code, _, err = _run(capsys, ["insert", "--input",
                                     str(tmp_path / "late.csv"), "--model",
                                     str(model_dir)])
        assert code == 1 and "GridMismatch" in err
        write(tmp_path / "more.csv", 333, 50)
        code, _, err = _run(capsys, ["insert", "--input",
                                     str(tmp_path / "more.csv"), "--model",
                                     str(model_dir)])
        assert code == 0, err
        model = pc.load_model(model_dir)
        assert model.n_steps == 383 and model.obs_cnt == 383

    def test_no_overwrite_without_flag(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=200)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "50"])[0] == 0
        code, _, err = _run(capsys, ["create", "--input", str(data),
                                     "--model", str(model_dir)])
        assert code == 1 and "exists" in err
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "50", "--overwrite"])[0] == 0

    @pytest.mark.parametrize("flags", [[], ["--overwrite"]])
    def test_create_refuses_a_file_at_the_model_path(self, tmp_path, capsys,
                                                     flags):
        # with --overwrite it trained, then failed and left m.staging
        data = tmp_path / "data.csv"
        _write_series_csv(data)
        path = tmp_path / "m"
        path.write_text("not a store")
        code, _, err = _run(capsys, ["create", "--input", str(data),
                                     "--model", str(path), *flags])
        assert code == 1 and err.startswith("error: ") and str(path) in err
        assert "read " not in err  # refused before the CSV is read
        assert path.read_text() == "not a store"
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "m"]

    def test_create_refuses_a_store_live_only_in_backup(self, tmp_path,
                                                        capsys):
        # what a save interrupted between its two renames leaves
        data = tmp_path / "data.csv"
        _write_series_csv(data)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "50"])[0] == 0
        os.rename(model_dir, tmp_path / "model.bak")
        _write_series_csv(data, n_steps=300)
        code, _, err = _run(capsys, ["create", "--input", str(data),
                                     "--model", str(model_dir), "--T0", "50"])
        assert code == 1 and "model.bak exists" in err
        assert pc.load_model(model_dir).n_steps == 400

    def test_trailing_separator_names_the_store(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        more = tmp_path / "more.csv"
        _write_series_csv(more, n_steps=50, seed=9, first_t=301)
        m1, m2 = str(tmp_path / "m1"), str(tmp_path / "m2")
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             m1 + os.sep, "--T0", "80"])[0] == 0
        assert _run(capsys, ["create", "--input", str(data), "--model", m2,
                             "--T0", "80"])[0] == 0
        assert _run(capsys, ["insert", "--input", str(more), "--model",
                             m2 + os.sep])[0] == 0
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "m1", "m2",
                                                "more.csv"]
        assert ".staging" not in os.listdir(m2)
        assert pc.load_model(m1).n_steps == 300
        assert pc.load_model(m2).n_steps == 350

    def test_predict_on_non_utf8_manifest_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        with open(model_dir / "manifest.txt", "ab") as fh:
            fh.write(b"\xff\xfe")
        code, _, err = _run(capsys, ["predict", "--model", str(model_dir),
                                     "--series", "s0", "--t", "5"])
        assert code == 1
        assert err.startswith("error: CorruptManifest: no loadable model")

    def test_create_on_non_utf8_csv_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes("t,café\n1,5\n2,6\n".encode("latin-1"))
        code, _, err = _run(capsys, ["create", "--input", str(data),
                                     "--model", str(tmp_path / "model")])
        assert code == 1
        assert err.startswith(f"error: InvalidEncoding: {data}: byte 0xe9")
        assert not (tmp_path / "model").exists()

    def test_insert_extends_model(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        more = tmp_path / "more.csv"
        _write_series_csv(more, n_steps=50, seed=9, first_t=301)
        code, _, err = _run(capsys, ["insert", "--input", str(more), "--model",
                                     str(model_dir)])
        assert code == 0
        read_line = err.splitlines()[0]
        assert read_line.startswith(f"read 2 series x 50 steps from {more} in ")
        model = pc.load_model(model_dir)
        assert model.n_steps == 350

    @pytest.mark.parametrize("first_t", [1, 250, 300, 302])
    def test_insert_off_grid_rejected(self, tmp_path, capsys, first_t):
        # a 300-step model from t=1 continues at t=301 only
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        more = tmp_path / "more.csv"
        _write_series_csv(more, n_steps=50, seed=9, first_t=first_t)
        code, _, err = _run(capsys, ["insert", "--input", str(more),
                                     "--model", str(model_dir)])
        assert code == 1
        assert "GridMismatch" in err and "301" in err
        assert pc.load_model(model_dir).n_steps == 300

    @pytest.mark.parametrize("step", [1, 2])
    def test_insert_gaps_become_missing_steps(self, tmp_path, capsys, step):
        # t = 301, 303, ..., 399 on a unit grid (or its double on a step-2
        # grid) is 99 steps with every other one missing, not 50 steps
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300, first_t=step, stride=step)
        model_dir = tmp_path / "model"
        tick = [] if step == 1 else ["--tick", str(step)]
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"] + tick)[0] == 0
        more = tmp_path / "more.csv"
        _write_series_csv(more, n_steps=50, seed=9, first_t=301 * step,
                          stride=2 * step)
        assert _run(capsys, ["insert", "--input", str(more), "--model",
                             str(model_dir)])[0] == 0
        model = pc.load_model(model_dir)
        assert model.n_steps == 399
        observed = np.isfinite(model.raw.tail(99))
        assert observed.tolist() == [[j % 2 == 0 for j in range(99)]] * 2

    def test_predict_beyond_max_horizon_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        code, out, err = _run(capsys, ["predict", "--model", str(model_dir),
                                       "--series", "s0",
                                       "--t", str(300 + MAX_HORIZON + 1)])
        assert code == 1 and "OutOfRange" in err and out == ""

    def test_divergent_forecast_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        model = pc.load_model(model_dir)
        for sm in model.submodels:
            sm.beta_mean = np.full_like(sm.beta_mean, 2.0 / len(sm.beta_mean))
        pc.save_model(model, model_dir)
        code, out, err = _run(capsys, ["predict", "--model", str(model_dir),
                                       "--series", "s0", "--t", "50000"])
        assert code == 1 and "UnstableForecast" in err and out == ""

    def test_range_forecast_bad_confidence_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        code, out, err = _run(capsys, ["predict", "--model", str(model_dir),
                                       "--series", "s0", "--range", "301:303",
                                       "--confidence", "150", "--no-uq"])
        assert code == 1 and "InvalidConfidence" in err and out == ""

    def test_create_refuses_values_training_cannot_sum(self, tmp_path,
                                                       capsys):
        data = tmp_path / "data.csv"
        t = np.arange(1, 401)
        vals = (7.5e153 + 2.5e153 * np.cos(t / 7.0)).tolist()
        rows = ["t,s0"] + [f"{i},{v!r}" for i, v in zip(t, vals)]
        data.write_text("\n".join(rows) + "\n")
        model_dir = tmp_path / "model"
        code, out, err = _run(capsys, ["create", "--input", str(data),
                                       "--model", str(model_dir),
                                       "--T0", "20", "--Tprime", "1000"])
        assert code == 1 and "NonFiniteInput" in err and out == ""
        assert not model_dir.exists()

    @pytest.mark.parametrize("interval", ["0", "-4"])
    def test_create_refuses_aggregate_below_1(self, tmp_path, capsys,
                                              interval):
        data = tmp_path / "data.csv"
        _write_series_csv(data)
        model_dir = tmp_path / "model"
        code, out, err = _run(capsys, ["create", "--input", str(data),
                                       "--model", str(model_dir),
                                       "--aggregate", interval])
        assert code == 1 and "error: InvalidInterval" in err and out == ""
        assert not model_dir.exists()

    def test_create_checks_flags_before_reading(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        code, out, err = _run(capsys, [
            "create", "--input", str(tmp_path / "absent.csv"),
            "--model", str(model_dir), "--k1", "0"])
        assert code == 1 and out == ""
        assert "error: InvalidParams" in err and "absent.csv" not in err
        assert "read " not in err
        assert not model_dir.exists()

    def test_create_below_T0_warns_of_fallback(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=50)
        model_dir = tmp_path / "model"
        code, _, err = _run(capsys, ["create", "--input", str(data), "--model",
                                     str(model_dir), "--T0", "500"])
        assert code == 0
        assert "warning: fewer observations than --T0" in err
        assert "fallback mode" in err
        assert pc.load_model(model_dir).in_fallback

    def test_predict_table_is_the_default_format(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        code, out, _ = _run(capsys, ["predict", "--model", str(model_dir),
                                     "--series", "s0", "--range", "10:12"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["t", "series", "mean", "variance", "lo",
                                    "hi", "kind"]
        assert set(lines[1].replace(" ", "")) == {"-"}
        assert [line.split()[0] for line in lines[2:]] == ["10", "11", "12"]
        assert all(line.split()[-1] == "imputed" for line in lines[2:])
        # each column starts where its header starts
        starts = [lines[0].index(h) for h in ("series", "mean", "kind")]
        for line in lines[2:]:
            assert all(line[i - 2:i] == "  " and line[i] != " " for i in starts)

    def test_predict_bad_range_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=200)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "50"])[0] == 0
        code, out, err = _run(capsys, ["predict", "--model", str(model_dir),
                                       "--series", "s0", "--range", "5-9"])
        assert code == 1 and out == ""
        assert "error: bad range '5-9', expected A:B" in err

    def test_insert_refuses_other_columns(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        more = tmp_path / "more.csv"
        _write_series_csv(more, n_steps=50, seed=9, first_t=301)
        code, _, err = _run(capsys, ["insert", "--input", str(more), "--model",
                                     str(model_dir), "--value-cols", "s1,s0"])
        assert code == 1
        assert "do not match model series ['s0', 's1']" in err
        assert pc.load_model(model_dir).n_steps == 300

    def test_insert_tick_must_match_model_step(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300, first_t=2, stride=2)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80", "--tick", "2"])[0] == 0
        more = tmp_path / "more.csv"
        _write_series_csv(more, n_steps=50, seed=9, first_t=602, stride=2)
        code, _, err = _run(capsys, ["insert", "--input", str(more), "--model",
                                     str(model_dir), "--tick", "1"])
        assert code == 1 and "GridMismatch" in err
        assert pc.load_model(model_dir).n_steps == 300
        assert _run(capsys, ["insert", "--input", str(more), "--model",
                             str(model_dir), "--tick", "2"])[0] == 0
        assert pc.load_model(model_dir).n_steps == 350

    def test_insert_refuses_nan_tick(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, ["create", "--input", str(data), "--model",
                             str(model_dir), "--T0", "80"])[0] == 0
        more = tmp_path / "more.csv"
        _write_series_csv(more, n_steps=50, seed=9, first_t=301)
        code, _, err = _run(capsys, ["insert", "--input", str(more), "--model",
                                     str(model_dir), "--tick", "nan"])
        assert code == 1 and "GridMismatch" in err
        assert pc.load_model(model_dir).n_steps == 300


class TestSynthCli:
    def test_synth1_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "synth"
        code, _, err = _run(capsys, [
            "synth", "--preset", "synth1", "--out", str(out_dir),
            "--T", "200", "--n", "2", "--m", "2", "--seed", "5"])
        assert code == 0
        for tag in ("obs", "mean", "var"):
            assert (out_dir / f"synth1_{tag}.csv").is_file()
        batch = pc.load_csv(out_dir / "synth1_obs.csv", "t")
        assert batch.values.shape == (4, 200)

    @pytest.mark.parametrize("flag, value", [("--p-obs", "1.5"),
                                             ("--sigma", "-1"),
                                             ("--sigma", "nan"),
                                             ("--sigma", "inf")])
    def test_synth1_refuses_bad_corruption(self, tmp_path, capsys, flag,
                                           value):
        out_dir = tmp_path / "synth"
        code, _, err = _run(capsys, [
            "synth", "--preset", "synth1", "--out", str(out_dir),
            "--T", "200", "--n", "2", "--m", "2", flag, value])
        assert code == 1 and "error: InvalidParams" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("preset, tag, shape", [
        ("synth2", "synth2_poisson_har_ar_trend", (400, 30)),
        ("synth3", "synth3_gaussian", (1, 30))])
    def test_synth2_and_synth3_write_files(self, tmp_path, capsys, preset,
                                           tag, shape):
        out_dir = tmp_path / "synth"
        code, _, _ = _run(capsys, [
            "synth", "--preset", preset, "--out", str(out_dir), "--T", "30"])
        assert code == 0
        for part in ("obs", "mean", "var"):
            assert (out_dir / f"{tag}_{part}.csv").is_file()
        batch = pc.load_csv(out_dir / f"{tag}_obs.csv", "t")
        assert batch.values.shape == shape

    @pytest.mark.parametrize("preset", ["synth2", "synth3"])
    def test_synth2_and_synth3_refuse_zero_steps(self, tmp_path, capsys,
                                                 preset):
        out_dir = tmp_path / "synth"
        code, _, err = _run(capsys, [
            "synth", "--preset", preset, "--out", str(out_dir), "--T", "0"])
        assert code == 1 and "error: InvalidParams" in err
        assert not out_dir.exists()

    def test_lrf_preset(self, tmp_path, capsys):
        out_dir = tmp_path / "lrf"
        code, _, _ = _run(capsys, [
            "synth", "--preset", "lrf", "--out", str(out_dir),
            "--T", "300", "--n", "3", "--K", "2", "--R-max", "2"])
        assert code == 0
        batch = pc.load_csv(out_dir / "lrf_obs.csv", "t")
        assert batch.values.shape == (3, 300)


class TestParser:
    def test_commands(self, capsys):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == ["create", "eval", "insert", "predict",
                                       "synth"]
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "1e4"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_create_hyper_flags_are_the_hyperparams_fields(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in sub.choices["create"]._actions}
        knobs = fields(pc.HyperParams)
        assert set(actions) == {f.name for f in knobs} | {
            "help", "input", "model", "time_col", "value_cols", "tick",
            "aggregate", "agg_fn", "overwrite"}
        for f in knobs:
            action = actions[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.type is (float if f.name == "gamma" else int)
            assert action.default == f.default
        assert actions["agg_fn"].choices == AGG_FUNCTIONS

    def test_create_flags_set_every_knob(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_series_csv(data, n_steps=300)
        model_dir = tmp_path / "model"
        assert _run(capsys, [
            "create", "--input", str(data), "--model", str(model_dir),
            "--T0", "60", "--Tprime", "1000", "--gamma", "0.3", "--L", "5",
            "--k1", "2", "--k2", "3", "--coeff-window", "4"])[0] == 0
        assert pc.load_model(model_dir).hp == pc.HyperParams(
            T0=60, Tprime=1000, gamma=0.3, L=5, k1=2, k2=3, coeff_window=4)


class TestEvalCli:
    def test_wbc_table(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=(1, 60))
        ones = np.ones_like(truth, dtype=bool)
        pc.write_csv(pc.TimeSeriesBatch(["a"], truth, ones),
                     tmp_path / "truth.csv")
        pc.write_csv(pc.TimeSeriesBatch(["a"], truth + 0.01, ones),
                     tmp_path / "good.csv")
        pc.write_csv(pc.TimeSeriesBatch(["a"], truth + 1.0, ones),
                     tmp_path / "bad.csv")
        manifest = tmp_path / "exp.csv"
        manifest.write_text(
            "algorithm,experiment,pred,truth\n"
            "good,x1,good.csv,truth.csv\n"
            "bad,x1,bad.csv,truth.csv\n")
        code, out, _ = _run(capsys, ["eval", "--manifest", str(manifest),
                                     "--format", "csv"])
        assert code == 0
        rows = {r["algorithm"]: r for r in csv.DictReader(io.StringIO(out))}
        assert float(rows["good"]["wbc"]) > 0.9
        assert float(rows["good"]["wbc"]) + float(rows["bad"]["wbc"]) == pytest.approx(1.0)

    @staticmethod
    def _pair_files(tmp_path):
        truth = np.random.default_rng(0).normal(size=(1, 60))
        ones = np.ones_like(truth, dtype=bool)
        for name, pred in (("truth", truth), ("good", truth + 0.01),
                           ("bad", truth + 5.0)):
            pc.write_csv(pc.TimeSeriesBatch(["a"], pred, ones),
                         tmp_path / f"{name}.csv")

    def test_manifest_with_byte_order_mark(self, tmp_path, capsys):
        self._pair_files(tmp_path)
        manifest = tmp_path / "exp.csv"
        manifest.write_text("algorithm,experiment,pred,truth\n"
                            "good,x1,good.csv,truth.csv\n"
                            "bad,x1,bad.csv,truth.csv\n", encoding="utf-8-sig")
        code, out, _ = _run(capsys, ["eval", "--manifest", str(manifest),
                                     "--format", "csv"])
        assert code == 0
        assert [r["algorithm"] for r in csv.DictReader(io.StringIO(out))] == [
            "bad", "good"]

    def test_repeated_pair_refused(self, tmp_path, capsys):
        # the later row used to replace the earlier one silently
        self._pair_files(tmp_path)
        manifest = tmp_path / "exp.csv"
        manifest.write_text("algorithm,experiment,pred,truth\n"
                            "A,e1,bad.csv,truth.csv\n"
                            "B,e1,bad.csv,truth.csv\n"
                            "A,e1,good.csv,truth.csv\n")
        code, out, err = _run(capsys, ["eval", "--manifest", str(manifest)])
        assert code == 1 and out == ""
        assert err == ("error: manifest lists algorithm 'A' on experiment "
                       "'e1' 2 times\n")

    @staticmethod
    def _score(tmp_path, capsys, pred, truth):
        """Exit code, NRMSE and stderr of eval on one (pred, truth) pair,
        each a (names, values, t0[, step]) written as CSV; the truth scored
        against itself is the second algorithm that WBC needs."""
        for tag, (names, values, *grid) in (("pred", pred), ("truth", truth)):
            pc.write_csv(pc.TimeSeriesBatch(names, values, None, *grid),
                         tmp_path / f"{tag}.csv")
        manifest = tmp_path / "exp.csv"
        manifest.write_text("algorithm,experiment,pred,truth\n"
                            "A,e1,pred.csv,truth.csv\n"
                            "B,e1,truth.csv,truth.csv\n")
        code, out, err = _run(capsys, ["eval", "--manifest", str(manifest),
                                       "--format", "csv"])
        rows = {r["algorithm"]: r["e1"] for r in csv.DictReader(io.StringIO(out))}
        return code, rows.get("A"), err

    def test_columns_matched_by_name(self, tmp_path, capsys):
        truth = np.random.default_rng(1).normal(size=(2, 50))
        pred = truth + [[0.1], [2.0]]
        want = self._score(tmp_path, capsys, (["a", "b"], pred, 1),
                           (["a", "b"], truth, 1))
        swapped = self._score(tmp_path, capsys, (["b", "a"], pred[::-1], 1),
                              (["a", "b"], truth, 1))
        assert want[0] == swapped[0] == 0 and want[1] == swapped[1]

    @pytest.mark.parametrize("pred_names, pred_t0, pred_steps", [
        (["x", "y"], 500, 200),   # it scored this pair 0.0141
        (["a", "x"], 1, 200),
        (["a", "b", "c"], 1, 200),
        (["b", "a"], 2, 200),
        (["a", "b"], 1, 199)],
        ids=["other_names_and_start", "a_name_missing", "an_extra_name",
             "other_start", "other_length"])
    def test_misaligned_pair_refused(self, tmp_path, capsys, pred_names,
                                     pred_t0, pred_steps):
        t = np.arange(200)
        truth = np.vstack([np.cos(t / 9), np.sin(t / 13)])
        pred = np.resize(truth + 0.01, (len(pred_names), pred_steps))
        code, score, err = self._score(
            tmp_path, capsys, (pred_names, pred, pred_t0),
            (["a", "b"], truth, 1))
        assert code == 1 and score is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "pred.csv") in err
        assert str(tmp_path / "truth.csv") in err

    def test_timestamps_compared_row_by_row(self, tmp_path, capsys):
        # without a tick both files load as steps 1, 2, ..., so this pair of
        # equal values on other timestamps scored NRMSE 0.0
        truth = np.random.default_rng(2).normal(size=(1, 50))
        code, score, err = self._score(tmp_path, capsys, (["a"], truth, 1, 4),
                                       (["a"], truth, 1))
        assert code == 1 and score is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "row 2: timestamp 5 differs from 2" in err
        assert str(tmp_path / "pred.csv") in err
        assert str(tmp_path / "truth.csv") in err

    def test_bad_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "exp.csv"
        manifest.write_text("foo,bar\n1,2\n")
        code, _, err = _run(capsys, ["eval", "--manifest", str(manifest)])
        assert code == 1 and "columns" in err
