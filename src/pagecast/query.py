"""Point and range predictions with variance and prediction intervals.

Times are 1-based integers: t in [1, T] is an imputation (reconstructed from
the stored sub-model factors covering t, averaged when t lies in the overlap
of two segments), t > T is a forecast (:func:`estimator.forecast` runs the
averaged coefficients from T+1 up to t, for the mean and second moment).

One routine answers every query: a point is a one-step range.  A range is
answered QUERY_CHUNK steps at a time.  Per chunk, each trained sub-model
whose completed Page cells meet it reconstructs all its steps there with
one ``reconstruct_points`` call per factor set, and one per-point loop then
forms the averages, the clamped variance, the interval and the running-mean
fallback, for imputations and forecasts alike.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfidence, NonFiniteInput, OutOfRange, UnstableForecast
from .estimator import forecast
from .incremental import PredictionModel
from .ingestion import is_integer
from .kernels import reconstruct_points
from .page_matrix import cells
from .stats import halfwidth

# Longest forecast horizon, in steps past the data.  forecast holds
# len(beta) + h floats per path, so a forecast at the limit holds 16 MB for
# its mean and second-moment paths and takes about 1.3 s per path (12 ms per
# 1e4 steps); without a bound one query could ask for any amount of memory.
MAX_HORIZON = 1_000_000

# Most steps of a range answered together.  Each reconstruct_points call
# gathers a U row and a V row per point, so a chunk holds about
# 16 * k * QUERY_CHUNK bytes of factor rows (1 MB at k = 32), whatever the
# length of the range.
QUERY_CHUNK = 2048


@dataclass
class PredictionResult:
    """One answered query: mean plus optional variance and interval."""

    series: str
    t: int
    mean: float
    variance: float | None
    lo: float | None
    hi: float | None
    kind: str                # "imputed" or "forecast"
    confidence: float
    method: str
    fallback: bool = False   # True when answered from the running mean


def prediction_interval(mean: float, sigma: float, confidence: float,
                        method: str = "gaussian") -> tuple[float, float]:
    """Central interval around the finite ``mean`` with standard deviation
    ``sigma``, which must be >= 0 (inf allowed, NaN refused)."""
    half = halfwidth(confidence, method)
    if not math.isfinite(mean):
        raise NonFiniteInput(f"mean must be finite, got {mean}")
    if not sigma >= 0:
        raise InvalidConfidence(f"sigma must be nonnegative, got {sigma}")
    h = half(sigma)
    return mean - h, mean + h


def _check_horizon(model: PredictionModel, t: int) -> None:
    if t - model.n_steps > MAX_HORIZON:
        raise OutOfRange(
            f"t={t} lies {t - model.n_steps} steps past the data; forecasts "
            f"reach at most {MAX_HORIZON} steps ahead")


def _forecast_trajectories(model: PredictionModel, n: int, horizon: int,
                           with_uq: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Sequential mean / second-moment paths for steps T+1 .. T+horizon.

    Raises :class:`UnstableForecast` when either path leaves the finite
    range (the averaged recurrence diverges), rather than answering inf or
    nan with an interval clamped to zero width.
    """
    beta_mean, beta_var = model.averaged_coefficients()
    history = model.raw.tail(len(beta_mean), n)
    with np.errstate(over="ignore", invalid="ignore"):
        g_mean, g_second = forecast(history, beta_mean,
                                    beta_var if with_uq else None, horizon)
    # A non-finite value stays in the recurrence's window and makes every
    # later value non-finite, so a path is finite when its last value is.
    for name, path in (("mean", g_mean), ("second moment", g_second)):
        if path is not None and not math.isfinite(path[-1]):
            first = int(np.argmin(np.isfinite(path))) + 1
            raise UnstableForecast(
                f"series {model.names[n]!r}: the forecast {name} is not "
                f"finite from {first} steps ahead (horizon {horizon})")
    return g_mean, g_second


def predict_point(model: PredictionModel, series, t: int,
                  confidence: float = 95.0, method: str = "gaussian",
                  with_uq: bool = True) -> PredictionResult:
    """Answer one prediction query for series ``series`` at time ``t``."""
    return predict_range(model, series, t, t, confidence, method, with_uq)[0]


def predict_range(model: PredictionModel, series, t1: int, t2: int,
                  confidence: float = 95.0, method: str = "gaussian",
                  with_uq: bool = True) -> list[PredictionResult]:
    """Answer every t in t1..t2 (inclusive) for series ``series``.

    The forecast suffix shares one sequential trajectory; the steps are
    answered QUERY_CHUNK at a time.
    """
    if not (is_integer(t1) and is_integer(t2)):
        raise OutOfRange(f"times must be integers, got {t1!r} and {t2!r}")
    t1, t2 = int(t1), int(t2)
    if t1 > t2:
        raise OutOfRange(f"range start {t1} exceeds end {t2}")
    if t1 < 1:
        raise OutOfRange(f"t must be >= 1, got {t1}")
    _check_horizon(model, t2)
    half = halfwidth(confidence, method)
    n = model.series_index(series)
    g_mean = g_second = None
    if t2 > model.n_steps and not model.in_fallback:
        g_mean, g_second = _forecast_trajectories(
            model, n, t2 - model.n_steps, with_uq)
    out = []
    for c1 in range(t1, t2 + 1, QUERY_CHUNK):
        c2 = min(c1 + QUERY_CHUNK - 1, t2)
        out += _answer_chunk(model, n, c1, c2, g_mean, g_second, confidence,
                             method, half if with_uq else None)
    return out


def _answer_chunk(model, n, t1, t2, g_mean, g_second, confidence, method,
                  half) -> list[PredictionResult]:
    """Answers for t1..t2.  An imputation averages, oldest first, the entries
    reconstructed by each trained sub-model whose completed Page cells cover
    it; a forecast reads the trajectories (None in fallback mode); a point
    with neither gets the running mean.  ``half`` maps sigma to the
    interval half-width; None answers without UQ."""
    with_uq = half is not None
    T = model.n_steps
    count = t2 - t1 + 1
    sums, second_sums, hits = [0.0] * count, [0.0] * count, [0] * count
    for sm in model.segments_for_steps(t1 - 1, t2 - 1) if t1 <= T else ():
        a, b = sm.covered_steps()
        a, b = max(a, t1 - 1), min(b, t2)    # covered steps of the chunk
        if a >= b:
            continue
        local = np.arange(a - sm.start_step, b - sm.start_step)
        rows, cols = cells(local, n, sm.L, sm.N)
        part = range(a - t1 + 1, b - t1 + 1)
        factor_sets = ((sm.mean_svd, sums), (sm.var_svd, second_sums))
        for svd, acc in factor_sets[:2 if with_uq else 1]:
            model.query_stats["factor_entries"] += 3 * svd.rank * len(part)
            values = reconstruct_points(svd.U, svd.s, svd.V, rows, cols)
            for i, x in zip(part, values.tolist()):
                acc[i] += x
        for i in part:
            hits[i] += 1
    if g_mean is not None and t2 > T:
        first = max(t1, T + 1)
        ahead = slice(first - T - 1, t2 - T)
        sums[first - t1:] = g_mean[ahead].tolist()
        if with_uq:
            second_sums[first - t1:] = g_second[ahead].tolist()
        hits[first - t1:] = [1] * (t2 - first + 1)

    out = []
    for t, total, second, hit in zip(range(t1, t2 + 1), sums, second_sums,
                                     hits):
        mean = total / hit if hit else model.fallback_mean
        if not with_uq:
            variance = lo = hi = None
        elif not hit:
            variance, lo, hi = model.fallback_var, -math.inf, math.inf
        else:
            variance = max(0.0, second / hit - mean * mean)
            h = half(math.sqrt(variance))
            lo, hi = mean - h, mean + h
        out.append(PredictionResult(
            model.names[n], t, mean, variance, lo, hi,
            "imputed" if t <= T else "forecast", confidence, method, not hit))
    return out
