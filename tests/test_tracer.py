"""perfbench's tracer, installed as the benchmark installs it, still sees
every training and query layer.  A fit moved to a module the tracer does not
wrap would read 0 calls in the per-layer metrics without this check."""

import importlib.util
from pathlib import Path

import numpy as np

import pagecast as pc

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_counts_every_layer():
    rng = np.random.default_rng(0)
    t = np.arange(3000)
    values = np.cos(2 * np.pi * t / 50) + 0.1 * rng.normal(size=(2, 3000))
    batch = pc.TimeSeriesBatch(["a", "b"], values, np.ones(values.shape, bool))
    tracer = _tracer()
    tracer.install()
    try:
        model = pc.create_model(batch, pc.HyperParams(T0=100, Tprime=4000))
        pc.predict_range(model, 0, 1, 3000)
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for span in ("svd_engine.svd_with_spectrum", "estimator.pcr_coefficients",
                 "svd_engine.append_columns", "kernels.reconstruct_points"):
        assert calls.get(span, 0) > 0, span
