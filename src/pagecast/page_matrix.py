"""The stacked Page matrix, and the one place that knows its layout.

A segment's N x T raw steps (NaN where missing) form a zero-filled
L x (N*P) matrix, P = floor(T/L): column N*j + n holds steps
j*L .. (j+1)*L - 1 of series n, and the trailing T mod L steps are left
out.  The paper concatenates the per-series matrices instead (column
n*P + j); the time-major order only permutes V's rows, so the singular
values and U are the same, and it lets an append add the N columns of one
Page column per series at the end.  :func:`build_stacked_page` builds every
such matrix, :func:`cells` maps steps to their cells and :func:`unstack`
lays a matrix back out in time order.
"""

import numpy as np

from .errors import InvalidL
from .ingestion import is_integer


def build_stacked_page(raw: np.ndarray, L: int) -> np.ndarray:
    """The zero-filled L x (N*P) stacked Page matrix of the N x T raw steps
    (NaN where missing), in Fortran order.  Raises :class:`InvalidL` unless
    L is an integer (not a bool) with 1 <= L <= T."""
    n, t = raw.shape
    if not is_integer(L) or not 1 <= L <= t:
        raise InvalidL(f"L={L!r} invalid for T={t}: need 1 <= L <= T")
    P = t // L
    # One strided copy; Fortran order keeps each column's L steps together.
    data = np.empty((L, n * P), order="F")
    data.T.reshape(P, n, L)[...] = (raw[:, :L * P].reshape(n, P, L)
                                    .transpose(1, 0, 2))
    np.copyto(data, 0.0, where=~np.isfinite(data))
    return data


def cells(local, n: int, L: int, N: int):
    """The (rows, cols) of the cells that hold the segment-local steps
    ``local`` (an int or an int array) of series n, for N series at
    window L."""
    return local % L, N * (local // L) + n


def unstack(page: np.ndarray, N: int) -> np.ndarray:
    """The N x (L*P) steps of an L x (N*P) stacked Page matrix, in time
    order (the inverse of :func:`build_stacked_page` on its span)."""
    L, cols = page.shape
    return page.reshape(L, -1, N).transpose(2, 1, 0).reshape(N, L * (cols // N))
