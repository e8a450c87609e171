"""Stacked Page matrix construction and coordinate mapping.

A length-T series reshapes into an L x P matrix (P = floor(T/L)) whose
column j holds observations (j-1)L+1 .. jL; the per-series matrices are
then concatenated column-wise, so series n occupies columns
(n-1)P+1 .. nP of the stacked L x NP matrix.  Missing entries are filled
with zero.  This is the paper's layout, the reference; the estimator
orders the same columns time-major (column N*j + n), which only permutes
V's rows.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidL, OutOfRange, TooFewRows
from .ingestion import TimeSeriesBatch


@dataclass
class StackedPageMatrix:
    """L x (N*P) stacked Page matrix, zero where an entry is missing.

    ``P`` is the per-series column count, so the stacked width is N*P.
    """

    data: np.ndarray
    L: int
    P: int
    N: int


def build_stacked_page(batch: TimeSeriesBatch, L: int) -> StackedPageMatrix:
    """Reshape a batch into its stacked Page matrix.

    Uses the first L*floor(T/L) observations of each series; the trailing
    T mod L observations are excluded (callers that forecast keep the raw
    tail separately).  Missing entries become 0.
    """
    n, t = batch.values.shape
    p = t // L if L >= 1 else 0
    if L < 1 or p < 1:
        raise InvalidL(f"L={L} invalid for T={t}: need 1 <= L <= T")
    data = np.concatenate([row[:L * p].reshape(p, L).T
                           for row in batch.zero_filled()], axis=1)
    return StackedPageMatrix(data, L, p, n)


def coords_of(t: int, n: int, L: int, P: int) -> tuple[int, int]:
    """Map 1-based (time t, series n) to 1-based (row, column).

    Inverse of the layout used by :func:`build_stacked_page`:
    row = ((t-1) mod L) + 1, col = floor((t-1)/L) + 1 + P*(n-1).
    """
    if not 1 <= t <= L * P:
        raise OutOfRange(f"t={t} outside [1, {L * P}]")
    if n < 1:
        raise OutOfRange(f"series index n={n} must be >= 1")
    row = (t - 1) % L + 1
    col = (t - 1) // L + 1 + P * (n - 1)
    return row, col


def drop_last_row(m: StackedPageMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Split the matrix into its first L-1 rows and its last row."""
    if m.L < 2:
        raise TooFewRows("need at least 2 rows to drop one")
    return m.data[:-1, :], m.data[-1, :]
