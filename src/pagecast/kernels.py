"""Hot numeric kernels of the query path, in plain numpy.

* ``ar_recurrence`` -- the sequential multi-step forecast recurrence, which
  cannot be fully vectorized because each step feeds the next;
* ``reconstruct_points`` -- batched single-entry reconstruction from stored
  SVD factors (one O(k) dot product per queried point).

The tests compare both against plain Python loops.
"""

import numpy as np

# No compiled variant exists; kept so environment reports can state it.
NUMBA_ENABLED = False


def ar_recurrence(seed: np.ndarray, beta: np.ndarray, steps: int) -> np.ndarray:
    """Run the linear forecast recurrence for ``steps`` steps.

    ``seed`` holds the most recent len(beta) values in chronological order
    (oldest first).  Each new value is the dot product of the trailing
    window with ``beta``; the window then slides forward by one.  Returns
    the ``steps`` generated values.
    """
    w = len(beta)
    buf = np.empty(w + steps, dtype=np.float64)
    buf[:w] = seed
    for i in range(steps):
        buf[w + i] = buf[i:i + w] @ beta
    return buf[w:]


def reconstruct_points(
    U: np.ndarray, s: np.ndarray, V: np.ndarray,
    rows: np.ndarray, cols: np.ndarray,
) -> np.ndarray:
    """Reconstruct matrix entries (rows[i], cols[i]) from rank-k factors."""
    return np.einsum("ij,j,ij->i", U[rows], s, V[cols])
