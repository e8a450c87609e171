"""pagecast: incremental low-rank prediction engine for multivariate time series.

Train once or stream inserts; query any past index (imputation of the
latent mean and variance) or future index (sequential linear forecasting)
with Gaussian or Chebyshev prediction intervals; persist models to disk.
"""

from .errors import PagecastError
from .estimator import (
    ImputeResult,
    fit_forecaster,
    fit_variance_forecaster,
    forecast_mean,
    forecast_variance,
    impute_mean,
    impute_variance,
)
from .incremental import (
    HyperParams,
    PredictionModel,
    SubModel,
    create_model,
)
from .ingestion import TimeSeriesBatch, aggregate, load_csv, write_csv
from .metrics import ExperimentGrid, nrmse, nrmse_pooled, r_squared, wbc
from .page_matrix import build_stacked_page, cells, unstack
from .persistence import load_model, save_model
from .query import (
    PredictionResult,
    predict_point,
    predict_range,
    prediction_interval,
)
from .svd_engine import TruncatedSVD, append_columns, select_rank, truncated_svd
from .synth import (
    SyntheticTruth,
    corrupt,
    gen_lrf,
    gen_synthetic_I,
    gen_synthetic_II,
    gen_synthetic_III,
)

__version__ = "0.1.0"

__all__ = [
    "PagecastError",
    "TimeSeriesBatch", "load_csv", "write_csv", "aggregate",
    "build_stacked_page", "cells", "unstack",
    "TruncatedSVD", "truncated_svd", "select_rank", "append_columns",
    "ImputeResult",
    "impute_mean", "impute_variance", "fit_forecaster", "forecast_mean",
    "fit_variance_forecaster", "forecast_variance",
    "HyperParams", "PredictionModel", "SubModel",
    "create_model",
    "PredictionResult", "predict_point", "predict_range",
    "prediction_interval",
    "save_model", "load_model",
    "SyntheticTruth", "gen_synthetic_I", "gen_synthetic_II",
    "gen_synthetic_III", "gen_lrf", "corrupt",
    "ExperimentGrid", "nrmse", "nrmse_pooled", "r_squared", "wbc",
    "__version__",
]
