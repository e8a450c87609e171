#!/usr/bin/env python3
"""pagecast benchmark.

One workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's inputs from the seed (set-up, repeated and timed),
runs its fixed script of operations in whole passes for about S seconds,
checks the outputs, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1.  The exit status is non-zero when any check fails.

All workloads, untraced and traced, with the environment and the tracing
overhead written to a results file:

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 \\
        --out perfbench/results/BENCH_baseline.json

See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import gc
import json
import multiprocessing
import os
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# One BLAS thread: a single caller in a closed loop, and never more threads
# than cores, so the timings measure the program rather than the scheduler.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3      # untraced runs; a traced run reports no setup_s
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
WORKLOAD_NAMES = ("create_multi", "stream_uni", "query_mix", "insert_cycle")

# End-to-end metrics every workload reports with --trace 0 (BENCHMARK.json).
# Pass timings stay in the full report: on a shared host their run-to-run
# spread exceeds any usable bound (see README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "impute_nrmse": "1",
}

# The named end-to-end metrics of the full report, with their workloads.
NAMED = [
    ("setup_s", WORKLOAD_NAMES),
    ("pass_s", WORKLOAD_NAMES),
    ("create_us_per_obs", ("create_multi",)),
    ("insert_us_per_obs", ("stream_uni",)),
    ("insert_p99_us", ("stream_uni",)),
    ("impute_p50_us", ("query_mix",)),
    ("impute_p99_us", ("query_mix",)),
    ("range_points_per_s", ("query_mix",)),
    ("forecast_h1_us", ("query_mix",)),
    ("forecast_h10k_ms", ("query_mix",)),
    ("insert_cycle_ms", ("insert_cycle",)),
    ("store_mb", ("create_multi", "insert_cycle")),
    ("peak_rss_mb", WORKLOAD_NAMES),
    ("impute_nrmse", ("query_mix", "stream_uni")),
    ("forecast_nrmse", ("stream_uni",)),
    ("failed_ratio", WORKLOAD_NAMES),
    ("zero_width_ratio", WORKLOAD_NAMES),
]


def _import_pagecast():
    if not os.path.isfile(os.path.join(SRC, "pagecast", "__init__.py")):
        raise SystemExit(f"perfbench: no pagecast sources under {SRC}")
    sys.path.insert(0, SRC)
    import pagecast
    if not os.path.abspath(pagecast.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported pagecast from {pagecast.__file__}, "
                         f"not from {SRC}")


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return int(getattr(lib, fn)())
    return None


def environment() -> dict:
    import importlib.util
    import platform

    import numpy

    import pagecast.kernels
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_kernels": bool(pagecast.kernels.NUMBA_ENABLED),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and verify one workload; returns the full record."""
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS, Recorder, metric

    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    try:
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            wl = None  # free the previous set-up before building the next
            gc.collect()
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            wl = WORKLOADS[name]()
            t0 = perf_counter()
            wl.setup(seed, workdir)
            setup_times.append(perf_counter() - t0)

        tracer = Tracer() if trace else None
        rec = Recorder(tracer)
        pass_times = []
        if tracer is not None:
            tracer.install()
        try:
            start = perf_counter()
            while True:
                wl.reset()
                t0 = perf_counter()
                wl.run_pass(rec)
                pass_times.append(perf_counter() - t0)
                elapsed = perf_counter() - start
                if elapsed + statistics.median(pass_times) > seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes = len(pass_times)
        measured_ops = rec.attempted

        wl.verify(rec)
        named = {"setup_s": metric(statistics.median(setup_times), "s", "lower",
                                   len(setup_times))}
        named.update(wl.report(rec))
        named["peak_rss_mb"] = metric(_peak_rss_mb(), "MB", "lower")
        named["failed_ratio"] = metric(rec.failed / rec.attempted, "1", "lower",
                                       rec.attempted)
        named["zero_width_ratio"] = metric(
            rec.zero_width / rec.intervals if rec.intervals else None, "1",
            "lower", rec.intervals)
        named["pass_s"] = metric(statistics.median(pass_times), "s", "lower",
                                 passes)
        end_to_end = {k: named[k]["value"] for k in END_TO_END}
        record = {
            "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
            "trace": int(trace), "passes": passes, "pass_s": pass_times,
            "setup_s": setup_times, "measured_ops": measured_ops,
            "attempted": rec.attempted, "failed": rec.failed,
            "errors": rec.errors, "checks": rec.checks,
            "named": named, "end_to_end": end_to_end,
        }
        if tracer is not None:
            spans = tracer.summary()
            ok, detail = wl.self_check(tracer, spans)
            record["per_layer"] = layer_metrics(tracer, spans, wl.model, passes)
            record["per_layer_units"] = PER_LAYER
            record["spans"] = len(tracer.start)
            record["span_totals"] = spans
            record["self_check"] = {"ok": ok, "detail": detail}
            record["not_traced"] = tracer.missing
        return record
    finally:
        _remove_workdir(workdir)


def _remove_workdir(path: str) -> None:
    """Delete ``path`` and, when no other run still uses it, WORK."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_record(r: dict) -> None:
    print(f"# {r['workload']}  seed={r['seed']}  trace={r['trace']}  "
          f"passes={r['passes']}  ops={r['attempted']}  failed={r['failed']}")
    if r["trace"]:
        for k, v in r["per_layer"].items():
            print(f"  {k:44s} {_fmt(v):>14s} {r['per_layer_units'][k]}")
        sc = r["self_check"]
        print(f"  self-check {'ok' if sc['ok'] else 'FAILED'}: {sc['detail']}")
    else:
        for k, m in r["named"].items():
            n = f"n={m['samples']}" if "samples" in m else ""
            print(f"  {k:22s} {_fmt(m['value']):>14s} {m['unit']:5s} "
                  f"{m['better']:6s} {n}")
    for e in r["errors"]:
        print(f"  error: {e}")


def last_line(r: dict) -> dict:
    if r["trace"]:
        metrics = {k: {"value": v, "unit": r["per_layer_units"][k]}
                   for k, v in r["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in r["end_to_end"].items()}
    return {"correct": r["failed"] == 0, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process (peak
    RSS is a per-process high-water mark); collects one results file."""
    results = {"seed": args.seed, "seconds": args.seconds,
               "command": ["python3", "perfbench/run.py"] + sys.argv[1:],
               "environment": environment(), "workloads": {}}
    ok = True
    spawn = multiprocessing.get_context("spawn")
    for name in WORKLOAD_NAMES:
        pair = {}
        for trace in (False, True):
            with spawn.Pool(1) as pool:
                record = pool.apply(run_workload,
                                    (name, args.seed, args.seconds, trace))
                pool.close()
                pool.join()
            print_record(record)
            pair["traced" if trace else "untraced"] = record
            ok &= record["failed"] == 0
        untraced, traced = pair["untraced"], pair["traced"]
        ok &= traced["self_check"]["ok"]
        base = untraced["named"]["pass_s"]["value"]
        pair["tracing_overhead_pct"] = 100.0 * (
            traced["named"]["pass_s"]["value"] - base) / base
        results["workloads"][name] = pair

    print("\n# end-to-end metrics (untraced runs)")
    print(f"  {'metric':22s} {'workload':14s} {'value':>14s} unit  better samples")
    for metric, names in NAMED:
        for name in names:
            m = results["workloads"][name]["untraced"]["named"][metric]
            print(f"  {metric:22s} {name:14s} {_fmt(m['value']):>14s} "
                  f"{m['unit']:5s} {m['better']:6s} {m.get('samples', '')}")
    print("\n# tracing overhead and self-checks (traced runs)")
    for name, pair in results["workloads"].items():
        sc = pair["traced"]["self_check"]
        print(f"  {name:14s} overhead {pair['tracing_overhead_pct']:6.1f} %; "
              f"self-check {'ok' if sc['ok'] else 'FAILED'}: {sc['detail']}")
    results["ok"] = ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    print(json.dumps({"ok": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out "
                             f"seed for confirming a claim: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes for about this long "
                             "(at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="results file of --workload all")
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    _import_pagecast()
    if args.workload == "all":
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    record["environment"] = environment()
    print_record(record)
    if args.trace and not record["self_check"]["ok"]:
        print(f"perfbench: self-check failed: {record['self_check']['detail']}",
              file=sys.stderr)
    print(json.dumps(last_line(record)))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
