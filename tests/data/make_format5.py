"""Write ``format5/``, a model store in format 5, and ``format5_answers.json``.

The store was written by the last code that saved format 5 (git commit
55d7e50): three series, 525 steps with 10 % missing, six sub-models.  T0=61
is not a multiple of N, so retrains fire past their thresholds, and the
newest sub-model is mid-schedule: it has retrained once and still lists a
pending threshold.  The answers are the hex mean and variance of every
fourth step of each series, forecasts included, from that code's loaded
model; ``after_block`` holds the same answers and every sub-model's
``retrain_history`` once that model has taken :func:`block` through
``insert_many``.  Run it from this directory with that commit's ``src``
first on PYTHONPATH::

    PYTHONPATH=<checkout>/src python make_format5.py

The store, ``answers`` and ``retrain_history`` are still as 55d7e50 wrote
them.  ``after_block.answers`` was last rewritten by :func:`repin_after_block`
at the commit after 73b31cf, whose ``append_columns`` factors
[U diag(s) | B] with one thin SVD, so the answers after the block's appends
moved in their last bits.  To re-pin them again with the current ``src``::

    PYTHONPATH=../../src python make_format5.py after_block
"""

import json
import os
import shutil
import sys

import numpy as np

import pagecast as pc

HERE = os.path.dirname(os.path.abspath(__file__))


def stream() -> pc.TimeSeriesBatch:
    rng = np.random.default_rng(5)
    t = np.arange(1, 526, dtype=float)
    vals = np.vstack([np.cos(2 * np.pi * t / (40 + 13 * n)) + 0.3 * n
                      for n in range(3)])
    vals += 0.1 * rng.normal(size=vals.shape)
    mask = rng.random(vals.shape) < 0.9
    return pc.TimeSeriesBatch(["a", "b", "c"], vals, mask)


def block() -> np.ndarray:
    """150 further steps, 10 % of them missing (NaN)."""
    rng = np.random.default_rng(11)
    vals = np.cos(np.arange(150.0) / 7)[None, :] * np.ones((3, 1))
    vals[rng.random(vals.shape) < 0.1] = np.nan
    return vals


def answers(model) -> list:
    last = model.n_steps + 15
    out = []
    for n in range(model.N):
        rows = pc.predict_range(model, n, 1, last)
        out += [[n, t, rows[t - 1].mean.hex(), rows[t - 1].variance.hex()]
                for t in range(1, last + 1, 4)]
    return out


def _rows(rows: list) -> str:
    """A JSON list with one row per line."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"


def _write(got: list, after: list, history: list) -> None:
    with open(os.path.join(HERE, "format5_answers.json"), "w") as fh:
        fh.write('{"answers": ' + _rows(got) + ',\n"after_block": {"answers": '
                 + _rows(after) + ',\n"retrain_history": ' + _rows(history)
                 + "}}\n")


def main() -> None:
    model = pc.create_model(stream(), pc.HyperParams(T0=61, Tprime=600, k1=2, k2=2))
    store = os.path.join(HERE, "format5")
    shutil.rmtree(store, ignore_errors=True)
    manifest = pc.save_model(model, store)
    assert manifest["format_version"] == "5"
    assert manifest["sub5.pending"] != "[]"
    loaded = pc.load_model(store)
    got = answers(loaded)
    assert got == answers(model)
    loaded.insert_many(block())
    _write(got, answers(loaded), [sm.retrain_history for sm in loaded.submodels])


def repin_after_block() -> None:
    """Rewrite ``after_block.answers`` from the checked-in store, as the
    current code answers once it has taken :func:`block`.  The store,
    ``answers`` and ``retrain_history`` are left as they are, and both
    lists must still hold."""
    with open(os.path.join(HERE, "format5_answers.json")) as fh:
        want = json.load(fh)
    loaded = pc.load_model(os.path.join(HERE, "format5"))
    assert answers(loaded) == want["answers"]
    loaded.insert_many(block())
    history = want["after_block"]["retrain_history"]
    assert [sm.retrain_history for sm in loaded.submodels] == history
    _write(want["answers"], answers(loaded), history)


if __name__ == "__main__":
    repin_after_block() if sys.argv[1:] == ["after_block"] else main()
