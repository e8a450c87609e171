"""perfbench's four workloads, at small sizes, run and pass their own checks.
The benchmark reaches pagecast through its public calls (the positional
``TimeSeriesBatch`` constructor, ``batch.observed``, ``insert(values,
observed)``, the CLI), so a change that breaks one of them fails here
before the benchmark runs.  After ``verify`` each final model also goes
through ``tracing.model_shape``, which a traced run reads off every trained
sub-model."""

import importlib.util
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SIZES = {
    "create_multi": {"DATASETS": 1, "STEPS": 4000},
    "stream_uni": {"STEPS": 6000, "WARMUP": 100},
    "query_mix": {"STEPS": 6000, "IMPUTES": 500, "RANGE_LEN": 1000,
                  "FORECASTS": 3},
    "insert_cycle": {"STEPS": 6000, "CYCLES": 3},
}


def _load(name):
    """perfbench's ``name``.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SIZES))
def test_workload_passes_its_checks(name, tmp_path):
    module = _load("workloads")
    workload = module.WORKLOADS[name]()
    for attr, value in SIZES[name].items():
        setattr(workload, attr, value)
    workload.setup(1, str(tmp_path))
    workload.reset()
    rec = module.Recorder()
    workload.run_pass(rec)
    workload.verify(rec)
    workload.report(rec)
    assert rec.failed == 0 and rec.errors == []
    assert rec.checks and all(rec.checks.values()), rec.checks
    shape = _load("tracing").model_shape(workload.model)
    assert shape["incremental.submodels"] > 0
    assert all(math.isfinite(v) for v in shape.values()), shape
