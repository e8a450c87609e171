"""Batch truncated SVD, data-driven rank selection, and incremental updates.

The public entry points are:

* :func:`truncated_svd` -- exact LAPACK factorization, truncated to rank k;
* :func:`select_rank` -- Gavish-Donoho median hard threshold (cubic
  approximation of the optimal coefficient);
* :func:`append_columns` -- column-append update: one thin SVD of
  [U diag(s) | B], so the existing matrix is never re-factored.  Its U
  comes straight from LAPACK; only V, rotated from the old V, can drift.

Training on long streams additionally uses :func:`svd_with_spectrum`, which
switches to a Gram-matrix eigendecomposition once the row count is large.
That path costs O(rows * entries) with a single BLAS-3 product instead of a
full dense SVD, keeping model (re)training linear in the data size; the
public :func:`truncated_svd` contract stays on the exact path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySpectrum,
    NonFiniteInput,
    RankOutOfRange,
    ShapeMismatch,
)
from .ingestion import is_integer

# Row-count cutover from exact dense SVD to the Gram route during training.
GRAM_PATH_MIN_ROWS = 96

# Relative floor below which singular values are treated as exactly zero
# (guards rank selection and regression against numerical-noise values).
REL_FLOOR = 1e-12

# Re-orthogonalize an appended V when max|V^T V - I| exceeds this (U needs
# no check: an append takes it fresh from LAPACK).
ORTHO_DRIFT_TOL = 1e-8


@dataclass
class TruncatedSVD:
    """Rank-k factors U diag(s) V^T of an L x C matrix.

    ``U`` is L x k with orthonormal columns, ``s`` the nonincreasing
    singular values, ``V`` C x k with orthonormal columns.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.s)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.s) @ self.V.T

    def orthogonality_error(self) -> float:
        k = self.rank
        eu = np.abs(self.U.T @ self.U - np.eye(k)).max()
        ev = np.abs(self.V.T @ self.V - np.eye(k)).max()
        return max(float(eu), float(ev))


def _largest_entries(U: np.ndarray) -> np.ndarray:
    """Each column's entry of largest magnitude (the first, on a tie)."""
    return U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])]


def _sign_fix(U: np.ndarray, V: np.ndarray) -> None:
    """Flip singular-vector pairs so each U column's largest entry is positive.

    In-place; makes factorizations deterministic for serialization and
    golden tests.
    """
    flip = _largest_entries(U) < 0
    if flip.any():
        U[:, flip] *= -1.0
        V[:, flip] *= -1.0


def _factors(U: np.ndarray, s: np.ndarray, V: np.ndarray) -> TruncatedSVD:
    """The sign-fixed factors in contiguous arrays, with their own ``s``."""
    U = np.ascontiguousarray(U)
    V = np.ascontiguousarray(V)
    _sign_fix(U, V)
    return TruncatedSVD(U, s.copy(), V)


def truncated_svd(m: np.ndarray, k: int) -> TruncatedSVD:
    """Best rank-k approximation of ``m`` in Frobenius norm (exact LAPACK).
    Raises :class:`RankOutOfRange` unless k is an integer (not a bool) in
    [1, min(m.shape)]."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix contains NaN or infinity")
    if not is_integer(k) or not 1 <= k <= min(m.shape):
        raise RankOutOfRange(
            f"k={k!r} is not an integer in [1, {min(m.shape)}]")
    U, s, Vt = np.linalg.svd(m, full_matrices=False)
    return _factors(U[:, :k], s[:k], Vt[:k].T)


def select_rank(s: np.ndarray, L: int, cols: int) -> int:
    """Count singular values above the median-based hard threshold.

    The threshold is omega(beta) * median(s) with beta = min(L, cols) /
    max(L, cols) and omega the cubic fit
    0.56 b^3 - 0.95 b^2 + 1.82 b + 1.43.  Values below REL_FLOOR * s[0]
    are never counted; the result is clamped to >= 1.  A spectrum holding
    NaN or infinity raises :class:`NonFiniteInput`, and L or cols below 1
    :class:`RankOutOfRange`.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0:
        raise EmptySpectrum("no singular values given")
    if not np.all(np.isfinite(s)):
        raise NonFiniteInput("spectrum contains NaN or infinity")
    if L < 1 or cols < 1:
        raise RankOutOfRange(f"matrix shape {L} x {cols} has no entries")
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise RankOutOfRange("spectrum must be nonnegative and nonincreasing")
    beta = min(L, cols) / max(L, cols)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    tau = max(omega * float(np.median(s)), REL_FLOOR * float(s[0]))
    return max(1, int(np.count_nonzero(s > tau)))


def svd_with_spectrum(m: np.ndarray,
                      k: int | None = None) -> tuple[TruncatedSVD, np.ndarray]:
    """Factor ``m`` and return (rank-k SVD, full singular-value spectrum).

    With ``k=None`` the rank is chosen by :func:`select_rank` on the
    spectrum; any other k is capped at min(m.shape), and must be an
    integer >= 1 (not a bool) or :class:`RankOutOfRange` is raised.
    Small matrices use the exact dense SVD; when ``m`` has more
    than GRAM_PATH_MIN_ROWS rows (and at least as many columns) the
    eigendecomposition of m m^T provides the spectrum and left subspace,
    and one subspace-iteration step with a small exact SVD recovers
    orthonormal factors.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix contains NaN or infinity")
    if k is not None and not (is_integer(k) and k >= 1):
        raise RankOutOfRange(f"k={k!r} is neither None nor an integer >= 1")
    rows, cols = m.shape
    min_dim = min(rows, cols)

    if rows <= GRAM_PATH_MIN_ROWS or rows > cols:
        U, s_full, Vt = np.linalg.svd(m, full_matrices=False)
        if k is None:
            k = select_rank(s_full, rows, cols)
        k = min(k, min_dim)
        return _factors(U[:, :k], s_full[:k], Vt[:k].T), s_full

    gram = m @ m.T
    w, q = np.linalg.eigh(gram)
    s_full = np.sqrt(np.clip(w[::-1], 0.0, None))
    if k is None:
        k = select_rank(s_full, rows, cols)
    k = min(k, min_dim)
    U0 = q[:, ::-1][:, :k]
    V1, _ = np.linalg.qr(m.T @ U0)
    U, s, Wt = np.linalg.svd(m @ V1, full_matrices=False)
    return _factors(U, s, V1 @ Wt.T), s_full


def _reorthogonalize(Q: np.ndarray) -> np.ndarray:
    """QR-based re-orthogonalization preserving column signs."""
    Qn, R = np.linalg.qr(Q)
    flip = np.sign(np.diag(R))
    flip[flip == 0] = 1.0
    return Qn * flip


def append_columns(svd: TruncatedSVD, B: np.ndarray, k: int) -> TruncatedSVD:
    """Rank-k SVD of [A | B] given the rank factors of A = U diag(s) V^T.

    [A | B] = [U diag(s) | B] blockdiag(V^T, I), so the thin SVD
    F diag(theta) G^T of the small matrix [U diag(s) | B], truncated to
    rank k, gives U' = F and V' = [V G_top; G_bottom].  When A is exactly
    within rank k, the result matches the batch SVD of the concatenation.
    U' is orthonormal to rounding whatever the drift of U; V' inherits
    V's, so V' alone is re-orthogonalized once its drift exceeds
    ORTHO_DRIFT_TOL.  With no new column the result is the leading
    min(k, rank) factors.  Raises :class:`NonFiniteInput` if ``B`` holds
    NaN or infinity, and :class:`RankOutOfRange` unless k is an integer
    (not a bool) in [1, min(rows, columns of [A | B])].
    """
    B = np.asarray(B, dtype=np.float64)
    U, s, V = svd.U, svd.s, svd.V
    rows, kk = U.shape
    if B.ndim != 2 or B.shape[0] != rows:
        raise ShapeMismatch(f"B has shape {B.shape}, expected ({rows}, c)")
    if np.count_nonzero(np.isfinite(B)) < B.size:
        raise NonFiniteInput("B contains NaN or infinity")
    c = B.shape[1]
    old_cols = V.shape[0]
    if not is_integer(k) or not 1 <= k <= min(rows, old_cols + c):
        raise RankOutOfRange(
            f"k={k!r} is not an integer in [1, {min(rows, old_cols + c)}]")
    if c == 0:
        k = min(k, kk)
        return TruncatedSVD(U[:, :k].copy(), s[:k].copy(), V[:, :k].copy())

    small = np.empty((rows, kk + c))
    np.multiply(U, s, out=small[:, :kk])
    small[:, kk:] = B
    F, theta, Gt = np.linalg.svd(small, full_matrices=False)
    k_new = min(k, len(theta))
    # The sign fix of the small factors, as products with -1.0 or 1.0 (exact,
    # and F's columns are orthonormal, so no largest entry is zero); V' is
    # rotated from the fixed G.
    sign = np.copysign(1.0, _largest_entries(F[:, :k_new]))
    U_new = F[:, :k_new] * sign
    G = Gt[:k_new].T * sign
    V_new = np.empty((old_cols + c, k_new))
    np.matmul(V, G[:kk], out=V_new[:old_cols])
    V_new[old_cols:] = G[kk:]
    drift = V_new.T @ V_new
    drift.ravel()[::k_new + 1] -= 1.0  # V'^T V' - I, in place
    if np.abs(drift).max() > ORTHO_DRIFT_TOL:
        V_new = _reorthogonalize(V_new)
    return TruncatedSVD(U_new, theta[:k_new], V_new)
