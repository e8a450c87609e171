"""One segment fit (:class:`SegmentFit`), for batches and every sub-model.

Mean imputation: zero-fill missing entries of the stacked Page matrix,
hard-threshold the SVD to rank k, and read estimates back off the
reconstruction.  Forecasting: drop the last matrix row, regress it on the
de-noised remainder through the truncated factors (principal component
regression, i.e. the minimum-norm least-squares solution on the retained
subspace), then apply the coefficients to the most recent raw window.
Variance estimation runs the same machinery on the squared observations and
subtracts the squared mean estimate, clamped at zero.  :meth:`SegmentFit.fit`
is the one full fit and :meth:`SegmentFit.extend` the one (Zha-Simon) update.
"""

from dataclasses import dataclass

import numpy as np

from . import svd_engine
from .errors import InvalidL, LengthMismatch
from .ingestion import TimeSeriesBatch
from .svd_engine import REL_FLOOR, TruncatedSVD, svd_with_spectrum


@dataclass(eq=False)
class SegmentFit:
    """Every factor set and coefficient vector of one segment (None unfitted).

    ``mean_svd`` and ``var_svd`` factor the L x (N*P) stacked Page matrix of
    the raw and of the squared observations (column N*j + n is Page column
    j of series n); ``fc_mean_svd`` and ``fc_var_svd`` factor their first
    L-1 rows, and ``beta_mean`` and ``beta_var`` regress the last row on
    them.  L and the ranks k1 and k2 are read off the factors.
    """

    mean_svd: TruncatedSVD | None = None
    var_svd: TruncatedSVD | None = None
    fc_mean_svd: TruncatedSVD | None = None
    fc_var_svd: TruncatedSVD | None = None
    beta_mean: np.ndarray | None = None
    beta_var: np.ndarray | None = None

    @property
    def trained(self) -> bool:
        return self.mean_svd is not None

    @property
    def L(self) -> int | None:
        return self.mean_svd.U.shape[0] if self.trained else None

    @property
    def k1(self) -> int:
        return self.mean_svd.rank if self.trained else 0

    @property
    def k2(self) -> int:
        return self.var_svd.rank if self.trained else 0

    @property
    def degenerate(self) -> bool:
        """All-zero first L-1 Page rows, so both betas are 0; False unfitted."""
        return self.trained and _degenerate(self.fc_mean_svd)

    def fit(self, raw: np.ndarray, L: int, k1: int | None = None,
            k2: int | None = None) -> "SegmentFit":
        """Refit from the segment's N x T raw steps (NaN where missing).

        The first L * floor(T/L) steps of each series form the stacked Page
        matrix, zero-filled, in the window's own order: column N*j + n holds
        steps j*L .. (j+1)*L - 1 of series n, and the trailing T mod L steps
        are left out.  k1 ranks the mean factors and k2 the second-moment
        factors (data-driven when None); a forecast rank is its full matrix's
        rank capped at L-1.  One working copy: the Page matrix fits the mean
        sets and is then squared in place for the variance sets.  Returns
        ``self``; raises :class:`InvalidL` unless 2 <= L <= T.
        """
        t = raw.shape[1]
        if not 2 <= L <= t:
            raise InvalidL(f"L={L} invalid for T={t}: need 2 <= L <= T")
        n, P = raw.shape[0], t // L
        # One strided copy; Fortran order keeps each column's L steps together.
        data = np.empty((L, n * P), order="F")
        data.T.reshape(P, n, L)[...] = (raw[:, :L * P].reshape(n, P, L)
                                        .transpose(1, 0, 2))
        np.copyto(data, 0.0, where=~np.isfinite(data))

        self.mean_svd, _ = svd_with_spectrum(data, k1)
        self.fc_mean_svd, _ = svd_with_spectrum(data[:-1], min(self.k1, L - 1))
        self.beta_mean, _ = pcr_coefficients(self.fc_mean_svd, data[-1])

        np.multiply(data, data, out=data)
        self.var_svd, _ = svd_with_spectrum(data, k2)
        self.fc_var_svd, _ = svd_with_spectrum(data[:-1], min(self.k2, L - 1))
        self.beta_var, _ = pcr_coefficients(self.fc_var_svd, data[-1])
        return self

    def extend(self, raw: np.ndarray) -> None:
        """Fold one new Page column per series into the fitted factors and
        refit both betas against the new last Page row.

        ``raw`` holds the segment's N x L*(P+1) raw steps (NaN where
        missing), for the P Page columns per series already fitted; its last
        L steps become columns N*P + n, at the fitted ranks.
        """
        L = self.L
        B = np.ascontiguousarray(zero_filled(raw[:, -L:]).T)
        B_sq = B * B
        # The last Page row, in V's row order (column N*j + n).
        last_row = zero_filled(raw[:, L - 1::L]).ravel(order="F")
        # Called through svd_engine, where perfbench's tracer counts appends.
        append = svd_engine.append_columns
        self.mean_svd = append(self.mean_svd, B, self.k1)
        self.var_svd = append(self.var_svd, B_sq, self.k2)
        self.fc_mean_svd = append(self.fc_mean_svd, B[:-1], self.fc_mean_svd.rank)
        self.fc_var_svd = append(self.fc_var_svd, B_sq[:-1], self.fc_var_svd.rank)
        self.beta_mean, _ = pcr_coefficients(self.fc_mean_svd, last_row)
        self.beta_var, _ = pcr_coefficients(self.fc_var_svd, last_row * last_row)


@dataclass
class ImputeResult:
    """Per-(series, time) estimates over a batch.

    ``in_model`` is False for the trailing T mod L observations, which the
    Page matrix cannot represent; those entries of ``values`` carry the raw
    observation (NaN where missing) unchanged.
    """

    values: np.ndarray
    in_model: np.ndarray


@dataclass
class ForecastModel:
    """Linear forecaster: coefficients over the previous L-1 values.

    ``beta[j]`` multiplies the value at lag L-1-j, i.e. ``beta`` pairs
    elementwise with a chronological history window (oldest first).
    ``degenerate`` flags an all-zero training matrix, where beta is 0.
    """

    beta: np.ndarray
    svd_tilde: TruncatedSVD
    L: int
    degenerate: bool = False


@dataclass
class VarianceForecaster:
    """Pair of forecasters tracking the mean and the second moment."""

    mean_model: ForecastModel
    second_moment_model: ForecastModel


def pcr_coefficients(svd_tilde: TruncatedSVD, last_row: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimum-norm least squares for last_row ~ reconstruction^T @ beta.

    Solved through the truncated factors: beta = U diag(1/s) V^T last_row,
    excluding singular values below REL_FLOOR relative to the largest
    (zero directions contribute nothing).  Returns (beta, degenerate).
    """
    s = svd_tilde.s
    if _degenerate(svd_tilde):
        return np.zeros(svd_tilde.U.shape[0]), True
    keep = s > REL_FLOOR * s[0]
    z = svd_tilde.V[:, keep].T @ last_row
    beta = svd_tilde.U[:, keep] @ (z / s[keep])
    return beta, False


def _degenerate(svd_tilde: TruncatedSVD) -> bool:
    """No direction to regress on: no singular value, or a zero largest."""
    return svd_tilde.s.size == 0 or bool(svd_tilde.s[0] <= 0.0)


def zero_filled(raw: np.ndarray) -> np.ndarray:
    """Raw window values with the missing (NaN) entries set to 0.  Faster
    than ``np.nan_to_num`` on the small blocks appends and forecasts read."""
    return np.where(np.isfinite(raw), raw, 0.0)


def fit_segment(raw: np.ndarray, L: int, k1: int | None = None,
                k2: int | None = None) -> SegmentFit:
    """A new :class:`SegmentFit` of the N x T raw steps (:meth:`SegmentFit.fit`).
    Raises :class:`InvalidL` unless 2 <= L <= T."""
    return SegmentFit().fit(raw, L, k1, k2)


def _result(page: np.ndarray, values: np.ndarray) -> ImputeResult:
    """``values`` (N x T) with each series' first L * P steps overwritten by
    the L x (N*P) ``page`` laid back out in time order."""
    n, (L, cols) = values.shape[0], page.shape
    span = L * (cols // n)
    values[:, :span] = page.reshape(L, -1, n).transpose(2, 1, 0).reshape(n, span)
    in_model = np.zeros(values.shape, dtype=bool)
    in_model[:, :span] = True
    return ImputeResult(values, in_model)


def impute_mean(batch: TimeSeriesBatch, L: int, k: int | None = None) -> ImputeResult:
    """Estimate the latent mean at every in-segment (series, time) point.
    Raises :class:`InvalidL` unless 2 <= L <= T."""
    fit = fit_segment(batch.values, L, k)
    return _result(fit.mean_svd.reconstruct(), batch.values.copy())


def fit_forecaster(batch: TimeSeriesBatch, L: int,
                   k: int | None = None) -> ForecastModel:
    """Fit the linear forecaster for one segment.

    The stacked Page matrix loses its last row, the remainder is de-noised
    to the full matrix's rank (k, or data-driven when None) capped at L-1,
    and the raw last row is regressed on it.  Raises :class:`InvalidL`
    unless 2 <= L <= T.
    """
    return fit_variance_forecaster(batch, L, k).mean_model


def forecast_mean(fm: ForecastModel, history: np.ndarray) -> float:
    """One-step forecast: dot product of the chronological history with beta.

    ``history`` holds the most recent L-1 values, oldest first; missing
    entries (NaN) are replaced by zero.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 1 or len(history) != len(fm.beta):
        raise LengthMismatch(
            f"history length {history.shape} != {len(fm.beta)}")
    history = np.where(np.isfinite(history), history, 0.0)
    return float(history @ fm.beta)


def impute_variance(batch: TimeSeriesBatch, L: int, k1: int | None = None,
                    k2: int | None = None) -> ImputeResult:
    """Estimate the latent time-varying variance over the segment.

    Subtracts the squared mean reconstruction from the second-moment
    reconstruction, entrywise, clamped at zero.  k1 ranks the mean model,
    k2 the squared-observation model.  Raises :class:`InvalidL` unless
    2 <= L <= T.
    """
    fit = fit_segment(batch.values, L, k1, k2)
    var = np.clip(fit.var_svd.reconstruct() - fit.mean_svd.reconstruct()**2,
                  0.0, None)
    return _result(var, np.full_like(batch.values, np.nan))


def fit_variance_forecaster(batch: TimeSeriesBatch, L: int,
                            k1: int | None = None,
                            k2: int | None = None) -> VarianceForecaster:
    """Fit the forecaster pair (raw series and squared series).  Raises
    :class:`InvalidL` unless 2 <= L <= T."""
    fit = fit_segment(batch.values, L, k1, k2)
    return VarianceForecaster(
        ForecastModel(fit.beta_mean, fit.fc_mean_svd, L, fit.degenerate),
        ForecastModel(fit.beta_var, fit.fc_var_svd, L, fit.degenerate))


def forecast_variance(vf: VarianceForecaster, history: np.ndarray) -> float:
    """One-step variance forecast from the raw (unsquared) history window."""
    history = np.asarray(history, dtype=np.float64)
    history = np.where(np.isfinite(history), history, 0.0)
    mean = forecast_mean(vf.mean_model, history)
    second = forecast_mean(vf.second_moment_model, history**2)
    return max(0.0, second - mean * mean)
