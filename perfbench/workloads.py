"""The four benchmark workloads.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  A workload builds its inputs from the seed in
``setup``, runs a fixed script of operations in ``run_pass`` (the timed
part; ``reset`` restores the starting state between passes, untimed), and
checks the program's outputs in ``verify``.  pagecast is reached only
through module attributes looked up at call time (``pc.predict_point``,
``pc.cli.main``, ``model.insert``), so the traced run's wrappers see every
call the benchmark makes.
"""

import io
import math
import os
import shutil
import statistics
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import pagecast as pc
import pagecast.cli  # noqa: F401  (makes pc.cli available)

# Accuracy ceilings of the correctness gate, against the generator's latent
# mean.  An NRMSE of 1 is what predicting the series mean would score.
IMPUTE_NRMSE_MAX = 0.35
FORECAST_NRMSE_MAX = 0.5

CONFIDENCE = 95.0


class Recorder:
    """Latencies per operation kind plus attempted / failed counts."""

    def __init__(self, tracer=None):
        self.lat: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}
        self.intervals = 0
        self.zero_width = 0
        self.tracer = tracer

    def op(self, kind: str, fn, *args):
        """Run and time one operation; an exception counts it as failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the program failed this operation
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.lat[kind].append(perf_counter() - t0)
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One verification of the run's outputs, counted as an operation."""
        self.attempted += 1
        self.checks[name] = bool(ok)
        if not ok:
            self.fail(f"check {name} failed: {detail}")

    def check_result(self, r) -> None:
        """Per-answer gate: finite mean, finite non-negative variance and
        lo <= mean <= hi.  A bad answer marks its (already attempted)
        operation as failed.  Zero-width intervals are counted, not failed:
        the variance estimate max(0, E[x^2] - mean^2) clamps to 0 on a share
        of answers at this commit, and ``zero_width_ratio`` reports it.
        """
        if r is None:
            return
        if not math.isfinite(r.mean):
            self.fail(f"non-finite mean at series {r.series} t={r.t}")
            return
        if r.variance is None:
            return
        self.intervals += 1
        if not (math.isfinite(r.variance) and r.variance >= 0.0
                and r.lo <= r.mean <= r.hi):
            self.fail(f"bad interval [{r.lo}, {r.hi}] around {r.mean} "
                      f"(variance {r.variance}) at series {r.series} t={r.t}")
        elif r.hi == r.lo:
            self.zero_width += 1


def metric(value, unit: str, better: str, samples: int | None = None) -> dict:
    out = {"value": value, "unit": unit, "better": better}
    if samples is not None:
        out["samples"] = samples
    return out


def median_time(values, scale: float, unit: str) -> dict:
    """Median of latencies in seconds, scaled to ``unit``, with its count."""
    return metric(scale * statistics.median(values), unit, "lower", len(values))


def p99(values) -> float | None:
    """The 99th percentile, only when at least ten samples lie beyond it."""
    return float(np.percentile(values, 99)) if len(values) >= 1000 else None


def nrmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    return float(np.sqrt(np.mean((pred - truth) ** 2)) / truth.std())


def dir_mb(path: str) -> float:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total / 1e6


def run_cli(argv) -> str:
    """``pagecast <argv>`` in-process; returns stdout, raises on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = pc.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise RuntimeError(f"pagecast {argv[0]} exited {rc}: "
                           f"{err.getvalue().strip()[-300:]}")
    return out.getvalue()


def synth_multi(seed: int, steps: int, shape: int = 0):
    """Synthetic-I, N=10 series (2 x 5 grid), sigma=0.2, 90 % observed.

    The latent signal is generator instance ``shape`` (fixed per workload);
    the seed draws the noise and the missing-value mask.  Varying the
    signal with the seed would change the fitted ranks, and with them the
    cost of every operation, from one seed to the next.
    """
    truth = pc.gen_synthetic_I(n=2, m=5, T=steps, r=4, seed=shape,
                               preset="scaling")
    truth = pc.corrupt(truth, sigma=0.2, p_obs=0.9, seed=seed)
    return truth.observations, truth.latent_mean


def write_csv(path: str, batch, first: int = 0, last: int | None = None) -> None:
    """Steps [first, last) of ``batch`` as CSV with integer timestamps on the
    batch's grid; missing cells empty, values in round-trip precision."""
    last = batch.n_steps if last is None else last
    vals = np.where(batch.observed[:, first:last],
                    batch.values[:, first:last], np.nan).T.tolist()
    lines = ["t," + ",".join(batch.names)]
    for j, row in enumerate(vals, start=first):
        ts = batch.t0 + j * batch.step
        lines.append(f"{ts:.17g}," + ",".join("" if v != v else repr(v)
                                              for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def head(batch, steps: int):
    return pc.TimeSeriesBatch(list(batch.names), batch.values[:, :steps],
                              batch.observed[:, :steps], batch.t0, batch.step)


def same_batch(a, b) -> bool:
    return (a.names == b.names and (a.t0, a.step) == (b.t0, b.step)
            and np.array_equal(a.observed, b.observed)
            and np.array_equal(a.values, b.values, equal_nan=True))


def same_answer(a, b) -> bool:
    return (a.mean, a.variance, a.lo, a.hi) == (b.mean, b.variance, b.lo, b.hi)


def sample_imputations(rec: Recorder, model, latent, seed: int, count: int):
    """Gate ``count`` random imputations of ``model``; returns their means
    and the latent truth at the same points."""
    rng = np.random.default_rng(seed + 7919)
    series = rng.integers(0, model.N, count)
    ts = rng.integers(1, model.n_steps + 1, count)
    pred = []
    for s, t in zip(series.tolist(), ts.tolist()):
        r = rec.op("verify_impute", pc.predict_point, model, s, t, CONFIDENCE)
        rec.check_result(r)
        pred.append(math.nan if r is None else r.mean)
    return pred, latent[series, ts - 1].tolist()


class Workload:
    """One workload; ``verify`` leaves the final model in ``self.model``."""

    name = ""
    why = ""

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        pass

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def verify(self, rec: Recorder) -> None:
        raise NotImplementedError

    def report(self, rec: Recorder) -> dict:
        """The workload's named end-to-end metrics (besides setup_s,
        peak_rss_mb and failed_ratio, which the runner adds)."""
        raise NotImplementedError

    def self_check(self, tracer, spans: dict) -> tuple[bool, str]:
        """Does the traced run load the layers this workload exists for?
        ``spans`` is ``tracer.summary()``: totals per span name."""
        raise NotImplementedError


class CreateMulti(Workload):
    name = "create_multi"
    why = ("`pagecast create` on N=10 x 2e4 steps, three datasets: training "
           "spread over ingestion, incremental, svd_engine and persistence; "
           "the query side is idle")
    STEPS = 20_000
    DATASETS = 3

    def setup(self, seed, workdir):
        self.inputs = []
        self.read_back = True
        for i in range(self.DATASETS):
            batch, latent = synth_multi(1000 * seed + i, self.STEPS, shape=i)
            csv = os.path.join(workdir, f"input{i}.csv")
            write_csv(csv, batch)
            # The program must read back exactly the batch that was written.
            self.read_back &= same_batch(pc.load_csv(csv, "t"), batch)
            self.inputs.append((csv, os.path.join(workdir, f"model{i}"), latent))
        self.n_obs = batch.n_series * batch.n_steps
        self.seed = seed

    def reset(self):
        for _, model_dir, _ in self.inputs:
            shutil.rmtree(model_dir, ignore_errors=True)

    def run_pass(self, rec):
        for csv, model_dir, _ in self.inputs:
            rec.op("create", run_cli, ["create", "--input", csv,
                                       "--model", model_dir])

    def verify(self, rec):
        rec.check("input_read_back", self.read_back,
                  "pagecast.load_csv does not read back the generated input")
        pred, truth, sizes = [], [], []
        for i, (_, model_dir, latent) in enumerate(self.inputs):
            sizes.append(dir_mb(model_dir))
            model = pc.load_model(model_dir)
            rec.check(f"model_size_{i}", model.n_steps == self.STEPS,
                      f"model has {model.n_steps} steps")
            p, t = sample_imputations(rec, model, latent, self.seed + i, 1500)
            pred += p
            truth += t
            if i == 0:
                self.model = model
        self.store_mb = statistics.median(sizes)
        self.impute_nrmse = nrmse(pred, truth)
        rec.check("impute_nrmse", self.impute_nrmse <= IMPUTE_NRMSE_MAX,
                  f"{self.impute_nrmse:.4f} > {IMPUTE_NRMSE_MAX}")

    def report(self, rec):
        return {
            "create_us_per_obs": median_time(rec.lat["create"], 1e6 / self.n_obs,
                                             "us"),
            "store_mb": metric(self.store_mb, "MB", "lower"),
            "impute_nrmse": metric(self.impute_nrmse, "1", "lower",
                                   1500 * self.DATASETS),
        }

    def self_check(self, tracer, spans):
        reads = sum(spans.get(k, {}).get("calls", 0) for k in
                    ("kernels.reconstruct_points", "kernels.ar_recurrence"))
        return reads == 0, f"{reads} kernel calls while creating (want 0)"


class StreamUni(Workload):
    name = "stream_uni"
    why = ("multi-segment univariate stream (Tprime=1e4, 4e4 steps) where "
           "later sub-models freeze at L=3, so Zha-Simon appends dominate; "
           "reads interleave with writes")
    STEPS = 40_000
    WARMUP = 4000
    READ_FROM = 1000
    READ_EVERY = 50
    HORIZON = 10

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        phase = rng.uniform(0.0, 2 * np.pi)
        t = np.arange(1, self.STEPS + self.HORIZON + 1)
        self.latent = np.cos(2 * np.pi * t / 800 + phase)
        x = self.latent[:self.STEPS] + 0.1 * rng.normal(size=self.STEPS)
        self.rows = list(x.reshape(-1, 1))
        self.reads = {n: int(rng.integers(1, n + 1)) for n in
                      range(self.READ_FROM, self.STEPS + 1, self.READ_EVERY)}
        self.hp = pc.HyperParams(T0=100, gamma=0.5, Tprime=10_000)
        self.seed = seed
        # Warm-up: the pass's first steps on a throwaway model, so that the
        # measured pass (often the only one in a run) pays no first-call cost.
        self.reset()
        self._stream(Recorder(), self.WARMUP)

    def reset(self):
        self.model = pc.PredictionModel(["x"], self.hp)
        self.answers = []

    def run_pass(self, rec):
        self._stream(rec, self.STEPS)

    def _stream(self, rec, steps):
        model, reads, h = self.model, self.reads, self.HORIZON
        for i, row in enumerate(self.rows[:steps]):
            rec.op("insert", model.insert, row)
            n = i + 1
            if n in reads:
                fc = rec.op("range", pc.predict_range, model, 0, n + 1, n + h,
                            CONFIDENCE)
                pt = rec.op("point", pc.predict_point, model, 0, reads[n],
                            CONFIDENCE)
                self.answers.append((n, fc, pt))

    def verify(self, rec):
        rec.check("model_size", self.model.n_steps == self.STEPS,
                  f"model has {self.model.n_steps} steps")
        fc_pred, fc_true = [], []
        for n, fc, pt in self.answers:
            for r in fc or []:
                rec.check_result(r)
            rec.check_result(pt)
            if fc is not None:
                fc_pred.extend(r.mean for r in fc)
                fc_true.extend(self.latent[n:n + self.HORIZON])
        self.forecast_nrmse = nrmse(fc_pred, fc_true)
        rec.check("forecast_nrmse", self.forecast_nrmse <= FORECAST_NRMSE_MAX,
                  f"{self.forecast_nrmse:.4f} > {FORECAST_NRMSE_MAX}")
        pred, truth = sample_imputations(rec, self.model, self.latent[None, :],
                                         self.seed, 4000)
        self.impute_nrmse = nrmse(pred, truth)
        rec.check("impute_nrmse", self.impute_nrmse <= IMPUTE_NRMSE_MAX,
                  f"{self.impute_nrmse:.4f} > {IMPUTE_NRMSE_MAX}")

    def report(self, rec):
        lat = rec.lat["insert"]
        tail = p99(lat)
        return {
            "insert_us_per_obs": metric(1e6 * sum(lat) / len(lat) / self.model.N,
                                        "us", "lower", len(lat)),
            "insert_p99_us": metric(None if tail is None else 1e6 * tail,
                                    "us", "lower", len(lat)),
            "impute_nrmse": metric(self.impute_nrmse, "1", "lower", 4000),
            "forecast_nrmse": metric(self.forecast_nrmse, "1", "lower",
                                     len(self.answers) * self.HORIZON),
        }

    def self_check(self, tracer, spans):
        insert_s = tracer.top_level_s("incremental.insert")
        append_s = spans.get("svd_engine.append_columns", {}).get("s", 0.0)
        share = append_s / insert_s if insert_s else 0.0
        return share >= 0.5, (f"append_columns is {100 * share:.0f} % of "
                              "insert time (want >= 50 %)")


class QueryMix(Workload):
    name = "query_mix"
    why = ("reads only, on a saved and reloaded N=10 x 5e4 model: point "
           "imputations, 10k-point ranges and forecasts at h = 1, 100, 10k")
    STEPS = 50_000
    IMPUTES = 20_000
    RANGES = 5
    RANGE_LEN = 10_000
    HORIZONS = (1, 100, 10_000)
    FORECASTS = 20

    def setup(self, seed, workdir):
        batch, self.latent = synth_multi(seed, self.STEPS)
        self.reference = pc.create_model(batch)
        model_dir = os.path.join(workdir, "model")
        pc.save_model(self.reference, model_dir)
        self.model = pc.load_model(model_dir)
        rng = np.random.default_rng(seed)
        N, T = batch.n_series, batch.n_steps
        self.imputes = list(zip(rng.integers(0, N, self.IMPUTES).tolist(),
                                rng.integers(1, T + 1, self.IMPUTES).tolist()))
        self.ranges = list(zip(
            rng.integers(0, N, self.RANGES).tolist(),
            rng.integers(1, T - self.RANGE_LEN + 2, self.RANGES).tolist()))
        self.forecasts = [(h, s) for h in self.HORIZONS
                          for s in rng.integers(0, N, self.FORECASTS).tolist()]

    def reset(self):
        # Answers are gated as they arrive and only their means kept, so the
        # benchmark's own memory stays small beside the model's.
        self.pred = []
        self.kept = []         # (answer, series, t) for the reload check

    def run_pass(self, rec):
        model, pred, kept = self.model, self.pred, self.kept
        for i, (s, t) in enumerate(self.imputes):
            r = rec.op("impute", pc.predict_point, model, s, t, CONFIDENCE)
            rec.check_result(r)
            pred.append(math.nan if r is None else r.mean)
            if i < 500:
                kept.append((r, s, t))
        for s, a in self.ranges:
            rr = rec.op("range", pc.predict_range, model, s, a,
                        a + self.RANGE_LEN - 1, CONFIDENCE)
            for r in rr or []:
                rec.check_result(r)
            pred.extend([math.nan] * self.RANGE_LEN if rr is None
                        else [r.mean for r in rr])
        T = model.n_steps
        for j, (h, s) in enumerate(self.forecasts):
            r = rec.op(f"forecast_h{h}", pc.predict_point, model, s, T + h,
                       CONFIDENCE)
            rec.check_result(r)
            if j % 4 == 0:
                kept.append((r, s, T + h))

    def verify(self, rec):
        truth = [self.latent[s, t - 1] for s, t in self.imputes]
        for s, a in self.ranges:
            truth.extend(self.latent[s, a - 1:a - 1 + self.RANGE_LEN])
        self.impute_nrmse = nrmse(self.pred, truth)
        rec.check("impute_nrmse", self.impute_nrmse <= IMPUTE_NRMSE_MAX,
                  f"{self.impute_nrmse:.4f} > {IMPUTE_NRMSE_MAX}")
        # Answers of the reloaded model against the model that was saved.
        same = all(r is not None and same_answer(
            r, pc.predict_point(self.reference, s, t, CONFIDENCE))
            for r, s, t in self.kept)
        rec.check("reload_bit_identical", same,
                  "reloaded model answers differ from the saved model's")

    def report(self, rec):
        imp = rec.lat["impute"]
        tail = p99(imp)
        rng_lat = rec.lat["range"]
        return {
            "impute_p50_us": median_time(imp, 1e6, "us"),
            "impute_p99_us": metric(None if tail is None else 1e6 * tail,
                                    "us", "lower", len(imp)),
            "range_points_per_s": metric(
                len(rng_lat) * self.RANGE_LEN / sum(rng_lat), "1/s", "higher",
                len(rng_lat)),
            "forecast_h1_us": median_time(rec.lat["forecast_h1"], 1e6, "us"),
            "forecast_h100_us": median_time(rec.lat["forecast_h100"], 1e6, "us"),
            "forecast_h10k_ms": median_time(rec.lat["forecast_h10000"], 1e3, "ms"),
            "impute_nrmse": metric(self.impute_nrmse, "1", "lower",
                                   len(self.pred)),
        }

    def self_check(self, tracer, spans):
        calls = sum(v["calls"] for k, v in spans.items()
                    if k.startswith("svd_engine."))
        return calls == 0, f"{calls} svd_engine calls while querying (want 0)"


class InsertCycle(Workload):
    name = "insert_cycle"
    why = ("`pagecast insert` of 200 steps then `pagecast predict` on a "
           "10 MB store, 40 times: load/save dominate, so durability and "
           "store format show here")
    STEPS = 50_000
    CYCLES = 40
    CHUNK = 200
    LEAD = 24

    def setup(self, seed, workdir):
        total = self.STEPS + self.CYCLES * self.CHUNK
        self.batch, self.latent = synth_multi(seed, total)
        self.reference = pc.create_model(head(self.batch, self.STEPS))
        self.pristine = os.path.join(workdir, "pristine")
        self.live = os.path.join(workdir, "model")
        pc.save_model(self.reference, self.pristine)
        self.csvs = []
        for c in range(self.CYCLES):
            path = os.path.join(workdir, f"chunk{c:02d}.csv")
            first = self.STEPS + c * self.CHUNK
            write_csv(path, self.batch, first, first + self.CHUNK)
            self.csvs.append(path)
        rng = np.random.default_rng(seed)
        self.series = [self.batch.names[i] for i in
                       rng.integers(0, self.batch.n_series, self.CYCLES)]
        self.seed = seed

    def reset(self):
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.pristine, self.live)
        self.outputs = []

    def _cycle(self, c):
        run_cli(["insert", "--input", self.csvs[c], "--model", self.live])
        t = self.STEPS + (c + 1) * self.CHUNK + self.LEAD
        return run_cli(["predict", "--model", self.live, "--series",
                        self.series[c], "--t", t, "--format", "csv"])

    def run_pass(self, rec):
        for c in range(self.CYCLES):
            self.outputs.append(rec.op("cycle", self._cycle, c))

    def verify(self, rec):
        for text in self.outputs:
            if text is None:
                continue
            try:
                header, row = text.strip().splitlines()
                row = dict(zip(header.split(","), row.split(",")))
                answer = SimpleNamespace(
                    series=row["series"], t=int(row["t"]),
                    **{k: float(row[k]) for k in ("mean", "variance", "lo", "hi")})
            except (ValueError, KeyError):
                rec.fail(f"unreadable predict output {text!r}")
                continue
            rec.check_result(answer)
        self.store_mb = dir_mb(self.live)
        # Replay the same rows in memory, as `pagecast insert` does, and
        # require the stored model to answer bit for bit like it.
        b = self.batch
        for step in range(self.STEPS, self.STEPS + self.CYCLES * self.CHUNK):
            self.reference.insert(b.values[:, step], b.observed[:, step])
        self.model = pc.load_model(self.live)
        rec.check("model_size", self.model.n_steps == b.n_steps,
                  f"model has {self.model.n_steps} steps")
        rng = np.random.default_rng(self.seed + 104729)
        queries = [(s, t) for s, t in zip(
            rng.integers(0, b.n_series, 300).tolist(),
            rng.integers(1, b.n_steps + 1, 300).tolist())]
        queries += [(s, b.n_steps + self.LEAD) for s in range(b.n_series)]
        same = all(same_answer(pc.predict_point(self.model, s, t, CONFIDENCE),
                               pc.predict_point(self.reference, s, t, CONFIDENCE))
                   for s, t in queries)
        rec.check("reload_bit_identical", same,
                  "stored model answers differ from the in-memory replay")
        pred, truth = sample_imputations(rec, self.model, self.latent,
                                         self.seed, 4000)
        self.impute_nrmse = nrmse(pred, truth)
        rec.check("impute_nrmse", self.impute_nrmse <= IMPUTE_NRMSE_MAX,
                  f"{self.impute_nrmse:.4f} > {IMPUTE_NRMSE_MAX}")

    def report(self, rec):
        return {
            "insert_cycle_ms": median_time(rec.lat["cycle"], 1e3, "ms"),
            "store_mb": metric(self.store_mb, "MB", "lower"),
            "impute_nrmse": metric(self.impute_nrmse, "1", "lower", 4000),
        }

    def self_check(self, tracer, spans):
        cycle_s = tracer.top_level_s("cli.main")
        io_s = sum(spans.get(k, {}).get("s", 0.0) for k in
                   ("persistence.save_model", "persistence.load_model"))
        share = io_s / cycle_s if cycle_s else 0.0
        return share >= 0.5, (f"persistence is {100 * share:.0f} % of cycle "
                              "time (want >= 50 %)")


WORKLOADS = {w.name: w for w in (CreateMulti, StreamUni, QueryMix, InsertCycle)}
