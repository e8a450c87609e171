"""Point and range predictions with variance and prediction intervals.

Time indices are 1-based: t in [1, T] is an imputation (reconstructed from
the stored sub-model factors covering t, averaged when t lies in the overlap
of two segments), t > T is a forecast (the averaged coefficients are applied
sequentially from T+1 up to t, tracking the mean and the second moment).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfidence, OutOfRange, UnstableForecast
from .incremental import PredictionModel, SubModel, zero_filled
from .kernels import ar_recurrence, reconstruct_points
from .stats import chebyshev_halfwidth, gaussian_halfwidth

METHODS = ("gaussian", "chebyshev")

# Longest forecast horizon, in steps past the data.  ar_recurrence holds
# len(beta) + h floats per path, so a forecast at the limit holds 16 MB for
# its mean and second-moment paths and takes about 1.3 s per path (12 ms per
# 1e4 steps); without a bound one query could ask for any amount of memory.
MAX_HORIZON = 1_000_000


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
    """Central interval around ``mean`` with standard deviation ``sigma``."""
    if method not in METHODS:
        raise InvalidConfidence(f"unknown interval method {method!r}")
    if sigma < 0:
        raise InvalidConfidence(f"sigma must be nonnegative, got {sigma}")
    if method == "gaussian":
        half = gaussian_halfwidth(sigma, confidence)
    else:
        half = chebyshev_halfwidth(sigma, confidence)
    return mean - half, mean + half


def _reconstruct_entry(model: PredictionModel, sm: SubModel, svd,
                       local: int, n: int) -> float:
    row = local % sm.L
    pos = sm.col_position(n, local // sm.L)
    model.query_stats["factor_entries"] += 3 * svd.rank
    return float(reconstruct_points(
        svd.U, svd.s, svd.V,
        np.array([row], dtype=np.int64), np.array([pos], dtype=np.int64))[0])


def _check_horizon(model: PredictionModel, t: int) -> None:
    if t - model.n_steps > MAX_HORIZON:
        raise OutOfRange(
            f"t={t} lies {t - model.n_steps} steps past the data; forecasts "
            f"reach at most {MAX_HORIZON} steps ahead")


def _check_interval_args(confidence: float, method: str) -> None:
    if method not in METHODS:
        raise InvalidConfidence(f"unknown interval method {method!r}")
    if not 0.0 < confidence < 100.0:
        raise InvalidConfidence(
            f"confidence must lie in (0, 100), got {confidence}")


def _fallback_result(model, series_name, t, kind, confidence, method,
                     with_uq) -> PredictionResult:
    mean = model.fallback_mean
    if with_uq:
        return PredictionResult(series_name, t, mean, model.fallback_var,
                                -math.inf, math.inf, kind, confidence, method,
                                fallback=True)
    return PredictionResult(series_name, t, mean, None, None, None, kind,
                            confidence, method, fallback=True)


def _finish(series_name, t, mean, variance, kind, confidence, method,
            with_uq) -> PredictionResult:
    if not with_uq:
        return PredictionResult(series_name, t, mean, None, None, None, kind,
                                confidence, method)
    sigma = math.sqrt(variance)
    lo, hi = prediction_interval(mean, sigma, confidence, method)
    return PredictionResult(series_name, t, mean, variance, lo, hi, kind,
                            confidence, method)


def _impute_one(model: PredictionModel, n: int, t: int, confidence,
                method, with_uq) -> PredictionResult:
    name = model.names[n]
    step = t - 1
    means = []
    seconds = []
    for sm in model.segments_for_step(step):
        local = step - sm.start_step
        if not sm.covers_local_step(local):
            continue
        means.append(_reconstruct_entry(model, sm, sm.mean_svd, local, n))
        if with_uq:
            seconds.append(_reconstruct_entry(model, sm, sm.var_svd, local, n))
    if not means:
        return _fallback_result(model, name, t, "imputed", confidence, method,
                                with_uq)
    mean = float(np.mean(means))
    if not with_uq:
        return _finish(name, t, mean, None, "imputed", confidence, method, False)
    variance = max(0.0, float(np.mean(seconds)) - mean * mean)
    return _finish(name, t, mean, variance, "imputed", confidence, method, True)


def _forecast_trajectories(model: PredictionModel, n: int, horizon: int,
                           with_uq: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Sequential mean / second-moment paths for steps T+1 .. T+horizon.

    Raises :class:`UnstableForecast` when either path leaves the finite
    range (the averaged recurrence diverges), rather than answering inf or
    nan with an interval clamped to zero width.
    """
    beta_mean, beta_var = model.averaged_coefficients()
    seed = zero_filled(model.raw.tail(len(beta_mean))[n])
    with np.errstate(over="ignore", invalid="ignore"):
        g_mean = ar_recurrence(seed, beta_mean, horizon)
        g_second = (ar_recurrence(seed * seed, beta_var, horizon)
                    if with_uq else None)
    for name, path in (("mean", g_mean), ("second moment", g_second)):
        if path is not None and not np.isfinite(path).all():
            first = int(np.argmin(np.isfinite(path))) + 1
            raise UnstableForecast(
                f"series {model.names[n]!r}: the forecast {name} is not "
                f"finite from {first} steps ahead (horizon {horizon})")
    return g_mean, g_second


def predict_point(model: PredictionModel, series, t: int,
                  confidence: float = 95.0, method: str = "gaussian",
                  with_uq: bool = True) -> PredictionResult:
    """Answer one prediction query for series ``series`` at time ``t``."""
    n = model.series_index(series)
    if t < 1:
        raise OutOfRange(f"t must be >= 1, got {t}")
    _check_horizon(model, t)
    _check_interval_args(confidence, method)

    kind = "imputed" if t <= model.n_steps else "forecast"
    if model.in_fallback:
        return _fallback_result(model, model.names[n], t, kind, confidence,
                                method, with_uq)
    if kind == "imputed":
        return _impute_one(model, n, t, confidence, method, with_uq)

    horizon = t - model.n_steps
    g_mean, g_second = _forecast_trajectories(model, n, horizon, with_uq)
    mean = float(g_mean[-1])
    if not with_uq:
        return _finish(model.names[n], t, mean, None, "forecast", confidence,
                       method, False)
    variance = max(0.0, float(g_second[-1]) - mean * mean)
    return _finish(model.names[n], t, mean, variance, "forecast", confidence,
                   method, True)


def predict_range(model: PredictionModel, series, t1: int, t2: int,
                  confidence: float = 95.0, method: str = "gaussian",
                  with_uq: bool = True) -> list[PredictionResult]:
    """Elementwise :func:`predict_point` over t1..t2 (inclusive).

    The forecast suffix shares a single sequential trajectory instead of
    recomputing it per point.
    """
    if t1 > t2:
        raise OutOfRange(f"range start {t1} exceeds end {t2}")
    _check_horizon(model, t2)
    _check_interval_args(confidence, method)
    n = model.series_index(series)
    name = model.names[n]
    out = []
    split = min(t2, model.n_steps)
    for t in range(t1, split + 1):
        out.append(predict_point(model, n, t, confidence, method, with_uq))
    if t2 > model.n_steps:
        if model.in_fallback:
            for t in range(max(t1, model.n_steps + 1), t2 + 1):
                out.append(_fallback_result(model, name, t, "forecast",
                                            confidence, method, with_uq))
            return out
        horizon = t2 - model.n_steps
        g_mean, g_second = _forecast_trajectories(model, n, horizon, with_uq)
        for t in range(max(t1, model.n_steps + 1), t2 + 1):
            i = t - model.n_steps - 1
            mean = float(g_mean[i])
            if with_uq:
                variance = max(0.0, float(g_second[i]) - mean * mean)
                out.append(_finish(name, t, mean, variance, "forecast",
                                   confidence, method, True))
            else:
                out.append(_finish(name, t, mean, None, "forecast",
                                   confidence, method, False))
    return out
