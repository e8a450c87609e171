"""Span tracing of pagecast's public functions, installed from outside.

pagecast imports with ``from .x import y``, so a caller looks a function up
in its *own* module namespace.  A wrapper therefore goes on every module
attribute through which a caller reaches the function (for example
``pagecast.incremental.append_columns`` as well as
``pagecast.svd_engine.append_columns``).  Nothing under ``src/`` changes.

Each call becomes a span: name, start, end, parent span and operation id.
Spans are kept in flat in-memory arrays until the run ends; the per-layer
metrics are computed from them afterwards.  A span's self time is its
duration minus the durations of its direct children (calls are synchronous
and single-threaded, so direct children never overlap).
"""

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs[name]


def _count_rows(counters, args, kwargs, result):
    counters["ingestion.rows"] += result.n_steps


def _count_cols(counters, args, kwargs, result):
    counters["svd_engine.append_columns.cols"] += _arg(args, kwargs, 1, "B").shape[1]


def _count_points(counters, args, kwargs, result):
    counters["kernels.reconstruct_points.points"] += len(_arg(args, kwargs, 3, "rows"))


def _count_steps(counters, args, kwargs, result):
    counters["kernels.ar_recurrence.steps"] += int(_arg(args, kwargs, 2, "steps"))


def _count_written(counters, args, kwargs, result):
    counters["persistence.bytes_written"] += len(result)
    counters["persistence.files_written"] += 1


def _count_read(counters, args, kwargs, result):
    counters["persistence.bytes_read"] += len(_arg(args, kwargs, 0, "data"))


_PKG = "pagecast"
_ESTIMATOR_BATCH = ("impute_mean", "impute_variance", "fit_forecaster",
                    "fit_variance_forecaster", "forecast_mean",
                    "forecast_variance", "denoise")

# (span name, function name, modules whose namespace callers use, counter).
# A module named "pagecast.incremental:PredictionModel" means a method
# looked up on that class.
TARGETS = [
    ("ingestion.load_csv", "load_csv",
     ("ingestion", "cli", ""), _count_rows),
    ("page_matrix.build_stacked_page", "build_stacked_page",
     ("page_matrix", "estimator", ""), None),
    ("svd_engine.svd_with_spectrum", "svd_with_spectrum",
     ("svd_engine", "incremental", "estimator"), None),
    ("svd_engine.truncated_svd", "truncated_svd", ("svd_engine", ""), None),
    ("svd_engine.append_columns", "append_columns",
     ("svd_engine", "incremental", ""), _count_cols),
    ("estimator.pcr_coefficients", "pcr_coefficients",
     ("estimator", "incremental"), None),
    *[("estimator.batch_fit", fn, ("estimator", ""), None)
      for fn in _ESTIMATOR_BATCH],
    ("incremental.create_model", "create_model",
     ("incremental", "cli", ""), None),
    ("incremental.insert", "insert", ("incremental:PredictionModel",), None),
    ("incremental.averaged_coefficients", "averaged_coefficients",
     ("incremental:PredictionModel",), None),
    ("query.predict_point", "predict_point", ("query", "cli", ""), None),
    ("query.predict_range", "predict_range", ("query", "cli", ""), None),
    ("kernels.reconstruct_points", "reconstruct_points",
     ("kernels", "query"), _count_points),
    ("kernels.ar_recurrence", "ar_recurrence", ("kernels", "query"), _count_steps),
    ("stats.halfwidth", "gaussian_halfwidth", ("stats", "query"), None),
    ("stats.halfwidth", "chebyshev_halfwidth", ("stats", "query"), None),
    ("persistence.save_model", "save_model", ("persistence", "cli", ""), None),
    ("persistence.load_model", "load_model", ("persistence", "cli", ""), None),
    ("persistence.encode_f64", "encode_f64", ("persistence",), _count_written),
    ("persistence.decode_f64", "decode_f64", ("persistence",), _count_read),
    ("cli.main", "main", ("cli",), None),
]

# Per-layer metrics reported by every traced run, in output order, with the
# unit of each.  Metrics of layers a workload does not reach read 0.
PER_LAYER = {
    "ingestion.load_csv.s": "s",
    "ingestion.rows": "count",
    "page_matrix.build_stacked_page.calls": "count",
    "svd_engine.append_columns.calls": "count",
    "svd_engine.append_columns.cols": "count",
    "svd_engine.append_columns.s": "s",
    "svd_engine.svd_with_spectrum.calls": "count",
    "svd_engine.svd_with_spectrum.s": "s",
    "svd_engine.ortho_error_max": "1",
    "estimator.pcr_coefficients.calls": "count",
    "estimator.pcr_coefficients.s": "s",
    "estimator.batch_fit.calls": "count",
    "incremental.self_s": "s",
    "incremental.averaged_coefficients.calls": "count",
    "incremental.submodels": "count",
    "incremental.retrains": "count",
    "incremental.L_min": "count",
    "incremental.L_max": "count",
    "incremental.P_max": "count",
    "incremental.k1_max": "count",
    "incremental.k2_max": "count",
    "kernels.reconstruct_points.calls": "count",
    "kernels.reconstruct_points.points": "count",
    "kernels.reconstruct_points.points_per_call": "count",
    "kernels.reconstruct_points.s": "s",
    "kernels.ar_recurrence.calls": "count",
    "kernels.ar_recurrence.steps": "count",
    "kernels.ar_recurrence.s": "s",
    "query.self_s": "s",
    "stats.halfwidth.calls": "count",
    "stats.halfwidth.s": "s",
    "persistence.save_model.s": "s",
    "persistence.load_model.s": "s",
    "persistence.encode_f64.s": "s",
    "persistence.decode_f64.s": "s",
    "persistence.bytes_written": "B",
    "persistence.bytes_read": "B",
    "persistence.files_written": "count",
    "cli.self_s": "s",
}


class Tracer:
    """Records spans around wrapped calls; ``op_id`` tags the current
    benchmark operation and is set by the caller."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, span: str, fn, counter):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        stack = self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every namespace where it is looked up."""
        wrapped: dict[tuple[str, int], object] = {}
        for span, fn_name, where, counter in TARGETS:
            for loc in where:
                mod_name, _, cls_name = loc.partition(":")
                mod = importlib.import_module(
                    f"{_PKG}.{mod_name}" if mod_name else _PKG)
                owner = getattr(mod, cls_name) if cls_name else mod
                original = owner.__dict__.get(fn_name) if cls_name else \
                    getattr(owner, fn_name, None)
                if original is None:
                    if loc:  # the package re-exports only part of the API
                        self.missing.append(f"{loc}.{fn_name}")
                    continue
                key = (span, id(original))
                if key not in wrapped:
                    wrapped[key] = self._wrap(span, original, counter)
                setattr(owner, fn_name, wrapped[key])
                self._installed.append((owner, fn_name, original))
        if self.missing:
            print("perfbench: not traced (absent): " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self) -> None:
        for owner, fn_name, original in reversed(self._installed):
            setattr(owner, fn_name, original)
        self._installed.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def top_level_s(self, span: str) -> float:
        """Seconds covered by spans of this name that have no ancestor of
        the same name (so recursion-free totals)."""
        nid = self._name_ids.get(span)
        if nid is None:
            return 0.0
        total = 0.0
        for i in range(len(self.start)):
            if self.name_id[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total


def layer_metrics(tracer: Tracer, spans: dict, model,
                  passes: int) -> dict[str, float]:
    """The PER_LAYER metrics, per measured pass, from the span totals
    (``tracer.summary()``) and counters, plus the final model's shape
    (shape counts and orthogonality are not divided).

    ``<span>.calls`` and ``<span>.s`` come from the span totals,
    ``<layer>.self_s`` sums the self time of the layer's spans, and every
    other name is a counter.
    """
    shape = model_shape(model)
    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in shape:
            out[name] = shape[name]
        elif field == "self_s":
            out[name] = sum(v["self_s"] for k, v in spans.items()
                            if k.split(".", 1)[0] == base) / passes
        elif field in ("calls", "s"):
            out[name] = spans.get(base, {}).get(field, 0) / passes
        elif field != "points_per_call":
            out[name] = tracer.counters[name] / passes
    calls = out["kernels.reconstruct_points.calls"]
    out["kernels.reconstruct_points.points_per_call"] = (
        out["kernels.reconstruct_points.points"] / calls if calls else 0.0)
    return {k: out[k] for k in PER_LAYER}


def model_shape(model) -> dict[str, float]:
    """Shape counts and worst factor orthogonality of a trained model."""
    trained = [sm for sm in model.submodels if sm.trained]
    ortho = 0.0
    for sm in trained:
        for svd in (sm.mean_svd, sm.var_svd, sm.fc_mean_svd, sm.fc_var_svd):
            ortho = max(ortho, svd.orthogonality_error())
    return {
        "incremental.submodels": len(model.submodels),
        "incremental.retrains": sum(len(sm.retrain_history)
                                    for sm in model.submodels),
        "incremental.L_min": min((sm.L for sm in trained), default=0),
        "incremental.L_max": max((sm.L for sm in trained), default=0),
        "incremental.P_max": max((sm.P for sm in trained), default=0),
        "incremental.k1_max": max((sm.k1 for sm in trained), default=0),
        "incremental.k2_max": max((sm.k2 for sm in trained), default=0),
        "svd_engine.ortho_error_max": ortho,
    }
