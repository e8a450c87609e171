"""One segment fit (:class:`SegmentFit`), for batches and every sub-model.

Mean imputation: zero-fill missing entries of the stacked Page matrix,
hard-threshold the SVD to rank k, and read estimates back off the
reconstruction.  Forecasting: drop the last matrix row, regress it on the
de-noised remainder through the truncated factors (principal component
regression, i.e. the minimum-norm least-squares solution on the retained
subspace), then apply the coefficients to the most recent raw window.
Variance estimation runs the same machinery on the squared observations and
subtracts the squared mean estimate, clamped at zero.  :meth:`SegmentFit.fit`
is the one full fit and :meth:`SegmentFit.extend` the one (Zha-Simon) update;
:func:`forecast` is every forecast, batch and served.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, page_matrix, svd_engine
from .errors import InvalidL, LengthMismatch
from .ingestion import TimeSeriesBatch
from .svd_engine import REL_FLOOR, TruncatedSVD, svd_with_spectrum


@dataclass(eq=False)
class SegmentFit:
    """Every factor set and coefficient vector of one segment (None unfitted).

    ``mean_svd`` and ``var_svd`` factor the L x (N*P) stacked Page matrix of
    the raw and of the squared observations (in :mod:`~pagecast.page_matrix`'s
    layout); ``fc_mean_svd`` and ``fc_var_svd`` factor their first
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

        The steps form the segment's stacked Page matrix
        (:func:`~pagecast.page_matrix.build_stacked_page`).  k1 ranks the
        mean factors and k2 the second-moment factors (data-driven when
        None); a forecast rank is its full matrix's rank capped at L-1.
        One working copy: the Page matrix fits the mean sets and is then
        squared in place for the variance sets.  Returns ``self``; raises
        :class:`InvalidL` unless 2 <= L <= T.
        """
        t = raw.shape[1]
        if not 2 <= L <= t:
            raise InvalidL(f"L={L} invalid for T={t}: need 2 <= L <= T")
        data = page_matrix.build_stacked_page(raw, L)

        self.mean_svd, _ = svd_with_spectrum(data, k1)
        self.fc_mean_svd, _ = svd_with_spectrum(data[:-1], min(self.k1, L - 1))
        self.beta_mean = pcr_coefficients(self.fc_mean_svd, data[-1])

        np.multiply(data, data, out=data)
        self.var_svd, _ = svd_with_spectrum(data, k2)
        self.fc_var_svd, _ = svd_with_spectrum(data[:-1], min(self.k2, L - 1))
        self.beta_var = pcr_coefficients(self.fc_var_svd, data[-1])
        return self

    def extend(self, raw: np.ndarray) -> None:
        """Fold one new Page column per series into the fitted factors and
        refit both betas against the new last Page row.

        ``raw`` holds the segment's N x L*(P+1) raw steps (NaN where
        missing), for the P Page columns per series already fitted; its last
        L steps become the matrix's next N columns, at the fitted ranks.
        """
        L = self.L
        # Called through page_matrix, where perfbench's tracer counts builds.
        B = page_matrix.build_stacked_page(raw[:, -L:], L)
        B_sq = B * B
        # The last Page row: every L-th step's Page matrix at window 1 is
        # that row, already in V's row order.
        last_row = page_matrix.build_stacked_page(raw[:, L - 1::L], 1)[0]
        # Called through svd_engine, where perfbench's tracer counts appends.
        append = svd_engine.append_columns
        self.mean_svd = append(self.mean_svd, B, self.k1)
        self.var_svd = append(self.var_svd, B_sq, self.k2)
        self.fc_mean_svd = append(self.fc_mean_svd, B[:-1], self.fc_mean_svd.rank)
        self.fc_var_svd = append(self.fc_var_svd, B_sq[:-1], self.fc_var_svd.rank)
        self.beta_mean = pcr_coefficients(self.fc_mean_svd, last_row)
        self.beta_var = pcr_coefficients(self.fc_var_svd, last_row * last_row)


@dataclass
class ImputeResult:
    """Per-(series, time) estimates over a batch.

    ``in_model`` is False for the trailing T mod L observations, which the
    Page matrix cannot represent; those entries of ``values`` carry the raw
    observation (NaN where missing) unchanged.
    """

    values: np.ndarray
    in_model: np.ndarray


def pcr_coefficients(svd_tilde: TruncatedSVD, last_row: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares for last_row ~ reconstruction^T @ beta.

    Solved through the truncated factors: beta = U diag(1/s) V^T last_row,
    excluding singular values below REL_FLOOR relative to the largest
    (zero directions contribute nothing); 0 when :func:`_degenerate`.
    """
    s = svd_tilde.s
    if _degenerate(svd_tilde):
        return np.zeros(svd_tilde.U.shape[0])
    keep = s > REL_FLOOR * s[0]
    z = svd_tilde.V[:, keep].T @ last_row
    return svd_tilde.U[:, keep] @ (z / s[keep])


def _degenerate(svd_tilde: TruncatedSVD) -> bool:
    """No direction to regress on: no singular value, or a zero largest."""
    return svd_tilde.s.size == 0 or bool(svd_tilde.s[0] <= 0.0)


def zero_filled(raw: np.ndarray) -> np.ndarray:
    """Raw window values with the missing (NaN) entries set to 0.  Faster
    than ``np.nan_to_num`` on the short histories forecasts read."""
    return np.where(np.isfinite(raw), raw, 0.0)


def _result(page: np.ndarray, values: np.ndarray) -> ImputeResult:
    """``values`` (N x T) with each series' first L * P steps overwritten by
    the stacked Page matrix ``page`` laid back out in time order."""
    steps = page_matrix.unstack(page, values.shape[0])
    span = steps.shape[1]
    values[:, :span] = steps
    in_model = np.zeros(values.shape, dtype=bool)
    in_model[:, :span] = True
    return ImputeResult(values, in_model)


def impute_mean(batch: TimeSeriesBatch, L: int, k: int | None = None) -> ImputeResult:
    """Estimate the latent mean at every in-segment (series, time) point.
    Raises :class:`InvalidL` unless 2 <= L <= T."""
    fit = SegmentFit().fit(batch.values, L, k)
    return _result(fit.mean_svd.reconstruct(), batch.values.copy())


def forecast(history: np.ndarray, beta_mean: np.ndarray,
             beta_var: np.ndarray | None,
             steps: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``steps`` values after ``history`` (its len(beta_mean) latest
    raw values, oldest first, NaN as 0) by the recurrence of ``beta_mean``,
    and the second moments by that of ``beta_var`` on the squared history
    (None without ``beta_var``).  Raises :class:`LengthMismatch` unless
    ``history`` is 1-D of len(beta_mean)."""
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 1 or len(history) != len(beta_mean):
        raise LengthMismatch(
            f"history length {history.shape} != {len(beta_mean)}")
    seed = zero_filled(history)
    # Called through kernels, where perfbench's tracer counts the steps.
    mean = kernels.ar_recurrence(seed, beta_mean, steps)
    second = (None if beta_var is None
              else kernels.ar_recurrence(seed * seed, beta_var, steps))
    return mean, second


def forecast_mean(fit: SegmentFit, history: np.ndarray) -> float:
    """One-step :func:`forecast` from the latest L-1 values, oldest first."""
    return float(forecast(history, fit.beta_mean, None, 1)[0][0])


def impute_variance(batch: TimeSeriesBatch, L: int, k1: int | None = None,
                    k2: int | None = None) -> ImputeResult:
    """Estimate the latent time-varying variance over the segment.

    Subtracts the squared mean reconstruction from the second-moment
    reconstruction, entrywise, clamped at zero.  k1 ranks the mean model,
    k2 the squared-observation model.  Raises :class:`InvalidL` unless
    2 <= L <= T.
    """
    fit = SegmentFit().fit(batch.values, L, k1, k2)
    var = np.clip(fit.var_svd.reconstruct() - fit.mean_svd.reconstruct()**2,
                  0.0, None)
    return _result(var, np.full_like(batch.values, np.nan))


def forecast_variance(fit: SegmentFit, history: np.ndarray) -> float:
    """One-step variance forecast from the raw (unsquared) history window:
    the second moment less the squared mean, clamped at zero."""
    mean, second = forecast(history, fit.beta_mean, fit.beta_var, 1)
    return max(0.0, float(second[0] - mean[0] * mean[0]))
