"""Write ``format4/``, a model store in format 4, and ``format4_answers.json``.

The store was written by the last code that saved format 4 (git commit
189e969): three series, 500 steps with 10 % missing, five sub-models, each
retrained and then extended by appended Page columns, the oldest pruned from
the raw window.  The answers are the hex mean and variance of every fourth
step of each series, forecasts included, from that code's loaded model.
Run it from this directory with that commit's ``src`` first on PYTHONPATH::

    PYTHONPATH=<checkout>/src python make_format4.py
"""

import json
import os
import shutil

import numpy as np

import pagecast as pc

HERE = os.path.dirname(os.path.abspath(__file__))
QUERY_STEPS = range(1, 521, 4)


def stream() -> pc.TimeSeriesBatch:
    rng = np.random.default_rng(4)
    t = np.arange(1, 501, dtype=float)
    vals = np.vstack([np.cos(2 * np.pi * t / (40 + 13 * n)) + 0.3 * n
                      for n in range(3)])
    vals += 0.1 * rng.normal(size=vals.shape)
    mask = rng.random(vals.shape) < 0.9
    return pc.TimeSeriesBatch(["a", "b", "c"], vals, mask)


def answers(model) -> list:
    out = []
    for n in range(model.N):
        rows = pc.predict_range(model, n, 1, QUERY_STEPS[-1])
        out += [[n, t, rows[t - 1].mean.hex(), rows[t - 1].variance.hex()]
                for t in QUERY_STEPS]
    return out


def main() -> None:
    model = pc.create_model(stream(), pc.HyperParams(T0=60, Tprime=600, k1=2, k2=2))
    store = os.path.join(HERE, "format4")
    shutil.rmtree(store, ignore_errors=True)
    manifest = pc.save_model(model, store)
    assert manifest["format_version"] == "4"
    loaded = pc.load_model(store)
    got = answers(loaded)
    assert got == answers(model)
    with open(os.path.join(HERE, "format4_answers.json"), "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in got) + "\n]\n")


if __name__ == "__main__":
    main()
