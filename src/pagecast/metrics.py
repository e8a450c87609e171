"""Accuracy scoring: NRMSE, rolling-origin forecast NRMSE, R-squared, and
Weighted Borda Count.

NRMSE standardizes both prediction and truth by the truth series' mean and
standard deviation before taking the RMSE, so errors are comparable across
series of different magnitudes.  WBC scores an algorithm by its average
pairwise error ratio against every other algorithm over a grid of
experiments: 0.5 means parity with the field, 1 means it dominates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTruth, IncompleteGrid, LengthMismatch
from .incremental import PredictionModel
from .query import predict_range


def _standardized_diff(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise LengthMismatch(f"shapes {pred.shape} vs {truth.shape}")
    if len(truth) < 2:
        raise LengthMismatch("need at least 2 points")
    std = float(truth.std())
    if std == 0.0:
        raise DegenerateTruth("truth series has zero standard deviation")
    return (pred - truth) / std


def nrmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """RMSE after standardizing by the truth's mean and std."""
    d = _standardized_diff(pred, truth)
    return float(np.sqrt(np.mean(d * d)))


def nrmse_pooled(pred: np.ndarray, truth: np.ndarray) -> float:
    """NRMSE over a 2-D (series x time) pair, standardizing each series
    by its own truth statistics before pooling the squared residuals."""
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    truth = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    if pred.shape != truth.shape:
        raise LengthMismatch(f"shapes {pred.shape} vs {truth.shape}")
    sq = [np.mean(_standardized_diff(pred[i], truth[i]) ** 2)
          for i in range(truth.shape[0])]
    return float(np.sqrt(np.mean(sq)))


def rolling_nrmse(model: PredictionModel, values: np.ndarray,
                  latent: np.ndarray, targets: list[int],
                  horizon: int) -> np.ndarray:
    """Rolling-origin forecast NRMSE of each series in ``targets`` (indices
    of ``model``'s series).

    ``values`` is the model's N x T stream (NaN where missing), whose first
    ``model.n_steps`` steps the model has been fed, and row i of ``latent``
    the latent mean of series ``targets[i]`` over the same T steps.  The
    origins are every ``horizon`` steps from the end of training while a
    whole horizon is left.  At each one every target is forecast
    ``horizon`` steps ahead (:func:`~pagecast.query.predict_range`, no
    intervals), and then the model is fed those steps (``insert_many``).
    Returns each target's :func:`nrmse` of its forecasts against its latent
    mean, over all origins; ``model`` is left fed to the last horizon.
    """
    latent = np.asarray(latent, dtype=np.float64)
    start = model.n_steps
    origins = range(start, latent.shape[1] - horizon + 1, horizon)
    end = start + len(origins) * horizon
    pred = np.empty((len(targets), end - start))
    for t in origins:
        for row, target in enumerate(targets):
            answers = predict_range(model, target, t + 1, t + horizon,
                                    with_uq=False)
            pred[row, t - start:t - start + horizon] = [r.mean for r in answers]
        model.insert_many(values[:, t:t + horizon])
    return np.array([nrmse(p, truth)
                     for p, truth in zip(pred, latent[:, start:end])])


def r_squared(pred: np.ndarray, truth: np.ndarray) -> float:
    """1 - SS_res / SS_tot, with SS_tot about the truth's mean."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise LengthMismatch(f"shapes {pred.shape} vs {truth.shape}")
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTruth("truth series has zero variance")
    ss_res = float(np.sum((pred - truth) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass
class ExperimentGrid:
    """NRMSE per (algorithm, experiment), with no holes.

    ``errors[a][x]`` is the NRMSE of ``algorithms[a]`` on ``experiments[x]``.
    """

    algorithms: list[str]
    experiments: list[str]
    errors: np.ndarray

    def __post_init__(self):
        self.errors = np.asarray(self.errors, dtype=np.float64)
        expected = (len(self.algorithms), len(self.experiments))
        if self.errors.shape != expected:
            raise IncompleteGrid(
                f"errors shape {self.errors.shape}, expected {expected}")
        if len(self.algorithms) < 2:
            raise IncompleteGrid("need at least two algorithms")
        if not np.all(np.isfinite(self.errors)) or np.any(self.errors < 0):
            raise IncompleteGrid("errors must be finite and nonnegative")


def wbc(grid: ExperimentGrid) -> dict[str, float]:
    """Weighted Borda Count per algorithm.

    WBC(a) = mean over rivals a' of the mean over experiments of
    e(a', x) / (e(a, x) + e(a', x)); a pairwise term with both errors zero
    counts as 0.5.
    """
    e = grid.errors
    n_alg = len(grid.algorithms)
    scores = {}
    for a in range(n_alg):
        total = 0.0
        for b in range(n_alg):
            if b == a:
                continue
            denom = e[a] + e[b]
            terms = np.where(denom > 0, np.divide(e[b], denom,
                                                  out=np.full_like(denom, 0.5),
                                                  where=denom > 0), 0.5)
            total += float(terms.mean())
        scores[grid.algorithms[a]] = total / (n_alg - 1)
    return scores
