"""Command-line interface: create, insert, predict, synth, eval.

Data goes to stdout, diagnostics and errors to stderr; the exit status is 0
exactly when the command succeeded.  The hyper-parameter flags of ``create``
(one per field of :class:`~pagecast.incremental.HyperParams`, ``_`` spelled
``-``) are read off that class's fields, type, default and help included.
"""

import argparse
import csv
import math
import os
import sys
import time
from collections import Counter
from dataclasses import fields
from itertools import zip_longest

import numpy as np

from .errors import GridMismatch, PagecastError
from .incremental import HyperParams, create_model
from .ingestion import (AGG_FUNCTIONS, TimeSeriesBatch, _parse_timestamp, aggregate,
                        load_csv, open_text, write_csv, zero_filled)
from .metrics import ExperimentGrid, nrmse_pooled, wbc
from .persistence import _live, _refuse_file, load_model, save_model
from .query import predict_point, predict_range
from .stats import METHODS
from .synth import corrupt, gen_lrf, gen_synthetic_I, gen_synthetic_II, gen_synthetic_III


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    """One flag per field of HyperParams: ``--T0``, ``--coeff-window``..."""
    for f in fields(HyperParams):
        shown = "data-driven" if f.default is None else f"{f.default:,}"
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=float if f.type is float else int,
                       default=f.default,
                       help=f"{f.metadata['help']} (default {shown})")


def _emit_table(rows: list[dict], fmt: str) -> None:
    if not rows:
        return
    headers = list(rows[0].keys())
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([row[h] for h in headers])
        return
    widths = {h: max(len(h), max(len(str(r[h])) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers))
    print("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        print("  ".join(str(row[h]).ljust(widths[h]) for h in headers))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


# --- create / insert -----------------------------------------------------------


def _read_csv(args, value_cols, tick) -> TimeSeriesBatch:
    """load_csv of ``args.input``, timed on its own stderr line."""
    start = time.perf_counter()
    batch = load_csv(args.input, args.time_col, value_cols, tick=tick)
    print(f"read {batch.n_series} series x {batch.n_steps} steps from "
          f"{args.input} in {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return batch


def cmd_create(args) -> int:
    model_dir = os.path.normpath(args.model)
    _refuse_file(model_dir)
    found = model_dir if os.path.exists(model_dir) else _live(model_dir)[0]
    if found and not args.overwrite:
        print(f"error: {found} exists (use --overwrite)", file=sys.stderr)
        return 1
    # refuse bad flags before reading the input
    hp = HyperParams(**{f.name: getattr(args, f.name)
                        for f in fields(HyperParams)})
    value_cols = args.value_cols.split(",") if args.value_cols else None
    batch = _read_csv(args, value_cols, args.tick)
    if args.aggregate != 1:
        batch = aggregate(batch, args.aggregate, args.agg_fn)
    start = time.perf_counter()
    model = create_model(batch, hp)
    save_model(model, args.model)
    elapsed = time.perf_counter() - start
    total = batch.n_series * batch.n_steps
    print(f"trained {batch.n_series} series x {batch.n_steps} steps "
          f"({total} observations) in {elapsed:.3f} s "
          f"({1e6 * elapsed / max(total, 1):.2f} us/record)", file=sys.stderr)
    retrains = sum(len(sm.retrain_history) for sm in model.submodels)
    print(f"sub-models: {len(model.submodels)}, full retrains: {retrains}",
          file=sys.stderr)
    for sm in model.submodels:
        if sm.retrain_history:
            print(f"  sub-model {sm.index}: retrained at observation counts "
                  f"{sm.retrain_history}", file=sys.stderr)
    if model.in_fallback:
        print("warning: fewer observations than --T0; model is in "
              "fallback mode (predicts the running mean)", file=sys.stderr)
    return 0


def cmd_insert(args) -> int:
    model = load_model(args.model)
    # "not <=", so that a NaN tick fails the check
    if (args.tick is not None
            and not abs(args.tick - model.step) <= 1e-9 * model.step):
        raise GridMismatch(
            f"--tick {args.tick:.17g} differs from the model's step "
            f"{model.step:.17g}")
    value_cols = args.value_cols.split(",") if args.value_cols else model.names
    # Rows go onto the model's grid, so a gap in the timestamps becomes
    # missing steps instead of closing up.
    batch = _read_csv(args, value_cols, model.step)
    if list(batch.names) != list(model.names):
        print(f"error: columns {batch.names} do not match model series "
              f"{model.names}", file=sys.stderr)
        return 1
    expected = model.t0 + model.n_steps * model.step
    # t0, the product, the sum and batch.t0 each round by up to half a float
    # spacing, which at epoch magnitude (2.4e-7 s) is far above 1e-9 * step.
    if abs(batch.t0 - expected) > 1e-9 * model.step + 4 * math.ulp(expected):
        raise GridMismatch(
            f"first timestamp {batch.t0:.17g} does not continue the model, "
            f"whose next step is at {expected:.17g}")
    start = time.perf_counter()
    model.insert_many(batch.values)
    save_model(model, args.model)
    elapsed = time.perf_counter() - start
    print(f"inserted {batch.n_steps} steps in {elapsed:.3f} s", file=sys.stderr)
    return 0


# --- predict -----------------------------------------------------------------


def cmd_predict(args) -> int:
    if (args.t is None) == (args.range is None):
        print("error: exactly one of --t / --range is required", file=sys.stderr)
        return 1
    model = load_model(args.model)
    with_uq = not args.no_uq
    if args.t is not None:
        results = [predict_point(model, args.series, args.t, args.confidence,
                                 args.interval, with_uq)]
    else:
        try:
            lo, hi = (int(x) for x in args.range.split(":"))
        except ValueError:
            print(f"error: bad range {args.range!r}, expected A:B", file=sys.stderr)
            return 1
        results = predict_range(model, args.series, lo, hi, args.confidence,
                                args.interval, with_uq)
    rows = []
    for r in results:
        row = {"t": r.t, "series": r.series, "mean": _fmt(r.mean)}
        if with_uq:
            row.update(variance=_fmt(r.variance), lo=_fmt(r.lo), hi=_fmt(r.hi))
        row["kind"] = r.kind
        rows.append(row)
    _emit_table(rows, args.format)
    return 0


# --- synth ---------------------------------------------------------------------


def _write_truth(truth, out_dir: str, tag: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    base = truth.observations
    write_csv(base, os.path.join(out_dir, f"{tag}_obs.csv"))
    for kind, latent in (("mean", truth.latent_mean), ("var", truth.latent_var)):
        write_csv(TimeSeriesBatch(base.names, latent, t0=base.t0, step=base.step),
                  os.path.join(out_dir, f"{tag}_{kind}.csv"))


def cmd_synth(args) -> int:
    if args.preset == "synth1":
        truth = gen_synthetic_I(args.n, args.m, args.T, args.r, args.seed,
                                preset=args.variant)
        if args.sigma != 0.0 or args.p_obs != 1.0:
            truth = corrupt(truth, args.sigma, args.p_obs, args.seed)
        _write_truth(truth, args.out, "synth1")
    elif args.preset == "synth2":
        for (noise, dyn), truth in gen_synthetic_II(args.seed, args.T).items():
            _write_truth(truth, args.out, f"synth2_{noise}_{dyn}")
    elif args.preset == "synth3":
        for noise, truth in gen_synthetic_III(args.T, args.seed).items():
            _write_truth(truth, args.out, f"synth3_{noise}")
    else:
        truth = gen_lrf(args.K, args.R_max, args.n, args.T, args.seed)
        _write_truth(truth, args.out, "lrf")
    print(f"wrote {args.preset} data to {args.out}", file=sys.stderr)
    return 0


# --- eval ----------------------------------------------------------------------


def _misaligned(pred: TimeSeriesBatch, truth: TimeSeriesBatch, paths: tuple,
                time_col: str) -> str | None:
    """Why ``pred`` cannot be scored against ``truth`` column by column and
    row by row, or None if it can.  Without a tick :func:`load_csv` keeps
    only the first timestamp, so those of both ``paths`` are read here."""
    if sorted(pred.names) != sorted(truth.names):
        return f"columns {pred.names} do not match {truth.names}"
    stamps = []
    for path in paths:
        with open_text(path) as fh:
            reader = csv.reader(fh)
            col = [h.strip() for h in next(reader)].index(time_col)
            stamps.append(sorted(_parse_timestamp(row[col], lineno)
                                 for lineno, row in enumerate(reader, start=2)
                                 if any(cell.strip() for cell in row)))
    for row, (a, b) in enumerate(zip_longest(*stamps), start=1):
        if a != b:
            return f"row {row}: timestamp {a} differs from {b}"
    return None


def cmd_eval(args) -> int:
    with open_text(args.manifest) as fh:
        reader = csv.DictReader(fh)
        needed = {"algorithm", "experiment", "pred", "truth"}
        if not needed <= set(reader.fieldnames or ()):
            print(f"error: manifest needs columns {sorted(needed)}",
                  file=sys.stderr)
            return 1
        entries = list(reader)
    if not entries:
        print("error: empty manifest", file=sys.stderr)
        return 1
    (algorithm, experiment), count = Counter(
        (e["algorithm"], e["experiment"]) for e in entries).most_common(1)[0]
    if count > 1:
        print(f"error: manifest lists algorithm {algorithm!r} on experiment "
              f"{experiment!r} {count} times", file=sys.stderr)
        return 1

    algorithms = sorted({e["algorithm"] for e in entries})
    experiments = sorted({e["experiment"] for e in entries})
    errors = np.full((len(algorithms), len(experiments)), np.nan)
    base = os.path.dirname(os.path.abspath(args.manifest))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    for e in entries:
        pred_path, truth_path = resolve(e["pred"]), resolve(e["truth"])
        pred, truth = (load_csv(p, args.time_col) for p in (pred_path, truth_path))
        problem = _misaligned(pred, truth, (pred_path, truth_path), args.time_col)
        if problem:
            print(f"error: pred {pred_path} against truth {truth_path}: "
                  f"{problem}", file=sys.stderr)
            return 1
        rows = [pred.names.index(name) for name in truth.names]
        score = nrmse_pooled(zero_filled(pred.values[rows]),
                             zero_filled(truth.values))
        errors[algorithms.index(e["algorithm"]),
               experiments.index(e["experiment"])] = score

    grid = ExperimentGrid(algorithms, experiments, errors)
    scores = wbc(grid)
    rows = []
    for i, a in enumerate(algorithms):
        row = {"algorithm": a, "wbc": round(scores[a], 4),
               "mean_nrmse": round(float(errors[i].mean()), 4)}
        for j, x in enumerate(experiments):
            row[x] = round(float(errors[i, j]), 4)
        rows.append(row)
    _emit_table(rows, args.format)
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagecast",
        description="incremental low-rank time series prediction engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("create", help="train a model from a CSV and persist it")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True, help="model directory to write")
    p.add_argument("--time-col", default="t")
    p.add_argument("--value-cols", default=None,
                   help="comma-separated subset (default: all non-time columns)")
    p.add_argument("--tick", type=float, default=None,
                   help="bucket irregular timestamps onto this grid spacing")
    p.add_argument("--aggregate", type=int, default=1,
                   help="aggregate this many ticks per output step")
    p.add_argument("--agg-fn", default="mean", choices=AGG_FUNCTIONS)
    p.add_argument("--overwrite", action="store_true")
    _add_hyper_flags(p)
    p.set_defaults(fn=cmd_create)

    p = sub.add_parser("insert", help="append new rows to a persisted model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--time-col", default="t")
    p.add_argument("--value-cols", default=None)
    p.add_argument("--tick", type=float, default=None,
                   help="grid spacing; must equal the model's step, which "
                        "is the default (timestamp gaps become missing steps)")
    p.set_defaults(fn=cmd_insert)

    p = sub.add_parser("predict", help="point or range predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--range", default=None, help="A:B inclusive")
    p.add_argument("--confidence", type=float, default=95.0)
    p.add_argument("--interval", default="gaussian", choices=METHODS)
    p.add_argument("--no-uq", action="store_true",
                   help="skip variance estimation and intervals")
    p.add_argument("--format", default="table", choices=("csv", "table"))
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("synth", help="write synthetic benchmark data as CSV")
    p.add_argument("--preset", required=True,
                   choices=("synth1", "synth2", "synth3", "lrf"))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--R-max", dest="R_max", type=int, default=2)
    p.add_argument("--variant", default="default", choices=("default", "scaling"))
    p.add_argument("--sigma", type=float, default=0.0,
                   help="additive noise std for synth1")
    p.add_argument("--p-obs", dest="p_obs", type=float, default=1.0,
                   help="fraction of entries kept observed for synth1")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("eval", help="score prediction/truth CSV pairs")
    p.add_argument("--manifest", required=True,
                   help="CSV with columns algorithm,experiment,pred,truth")
    p.add_argument("--time-col", default="t")
    p.add_argument("--format", default="table", choices=("csv", "table"))
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "synth" and args.T is None:
        args.T = {"synth1": 15000, "synth2": 15000,
                  "synth3": 100000, "lrf": 2000}[args.preset]
    try:
        return args.fn(args)
    except PagecastError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
