"""Dense kernels for small symmetric matrices.

Everything in this module is deterministic for a given LAPACK: fixed pivot
tie-breaking, LAPACK's symmetric eigensolver, a stable descending eigenvalue
order and a fixed eigenvector sign convention, so identical inputs produce
identical outputs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameters,
    NoConvergence,
    NonFiniteInput,
    NotPositiveSemidefinite,
    NotSymmetric,
)

DEFAULT_RANK_TOL = 1e-10
_GAP_ROWS = 64  # rows of K - R R^T checked at once


def as_symmetric(a) -> np.ndarray:
    """Return ``a`` as a float array, requiring finite entries and exact
    stored symmetry."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise NotSymmetric("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("matrix holds NaN or infinite entries")
    if not np.array_equal(a, a.T):
        raise NotSymmetric("matrix is not symmetric as stored")
    return a


def symmetrize(a) -> np.ndarray:
    """Average a nearly symmetric matrix into an exactly symmetric one.

    ``(a + a.T) / 2`` is exactly symmetric in IEEE arithmetic, which is what
    `as_symmetric` demands of its callers.
    """
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class PsdFactor:
    """A factor R with K = R @ R.T and its numerical rank."""

    n: int
    rank: int
    factor: np.ndarray  # (n, rank); columns ordered by decreasing pivot

    def row(self, j: int) -> np.ndarray:
        return self.factor[j]

    def rows(self, indices) -> np.ndarray:
        return self.factor[np.asarray(indices, dtype=int)]


def pivoted_cholesky(kmatrix, tol_rank: float = DEFAULT_RANK_TOL) -> PsdFactor:
    """Factor a PSD matrix as R @ R.T using diagonal (complete) pivoting.

    The pivot is the largest remaining diagonal entry, the first in pivot
    order on a tie; elimination stops once it drops to ``tol_rank`` times the
    initial largest diagonal, which defines the numerical rank.  A pivot
    below the mirrored negative threshold raises `NotPositiveSemidefinite`;
    a ``tol_rank`` outside [0, 1) raises `InvalidParameters`.  The loop is
    left-looking (Harbrecht, Peters and Schneider 2012): it builds only the r
    pivot columns from the residual diagonal, O(n r^2) work after the O(n^2)
    input check and no n-by-n work array.  Each column subtracts the earlier
    ones in the order of the right-looking Schur update, whose factor it
    returns bit for bit, except that a row whose residual relative to its
    own diagonal falls to the pivot's rounding residue gets zeros in the
    later columns, as the pivot's row does: duplicated features get
    identical rows, and rows merely close to the pivot's keep theirs.  The
    residuals, and so the rank and the checks, are the right-looking ones.
    Before that cut, K - R @ R.T is checked in blocks of `_GAP_ROWS` rows: an
    entry above ``tol_rank`` times the largest diagonal, plus rounding, also
    raises `NotPositiveSemidefinite`, as when a negative part hides in the
    off-diagonal entries between rows of zero residual.
    """
    if not 0.0 <= tol_rank < 1.0:
        raise InvalidParameters(f"need 0 <= tol_rank < 1, got tol_rank={tol_rank}")
    a = as_symmetric(kmatrix)
    n = a.shape[0]
    diagonal = np.diagonal(a)
    residual = diagonal.copy()
    base = max(float(residual.max()), 0.0)
    stop = tol_rank * base
    neg = -tol_rank * base
    perm = np.arange(n)
    cut = np.full(n, n)  # a row is zero past this column
    columns: list[np.ndarray] = []
    for i in range(n):
        d = residual[perm[i:]]
        low = float(d.min())
        if low < neg:
            raise NotPositiveSemidefinite(f"pivot {low:.3e} below tolerance {neg:.3e}")
        j = i + int(d.argmax())
        pivot = float(d[j - i])
        if pivot <= stop:
            break
        perm[i], perm[j] = perm[j], perm[i]
        p = perm[i]
        column = a[:, p].copy()
        for previous in columns:
            column -= previous * previous[p]
        column /= np.sqrt(pivot)
        column[perm[:i]] = 0.0
        residual -= column * column
        columns.append(column)
        # A twin of the pivot keeps the pivot's residual, a rounding residue.
        twin = residual * diagonal[p] <= diagonal * abs(residual[p])
        cut[twin & (cut > i)] = i
    factor = np.column_stack(columns) if columns else np.zeros((n, 0))
    # K - R R^T is the dropped Schur complement, whose entries a PSD K
    # bounds by its diagonal, at most `stop`, plus the rounding of r terms.
    bound = stop + 2 * (len(columns) + 1) * np.finfo(float).eps * base
    for start in range(0, n, _GAP_ROWS):
        rows = slice(start, start + _GAP_ROWS)
        gap = factor[rows] @ factor.T
        np.subtract(a[rows], gap, out=gap)
        worst = float(np.abs(gap, out=gap).max())
        if worst > bound:
            raise NotPositiveSemidefinite(
                f"K - R R^T reaches {worst:.3e}, above the bound {bound:.3e}"
            )
    factor[np.arange(len(columns)) > cut[:, None]] = 0.0
    return PsdFactor(n=n, rank=len(columns), factor=factor)


@dataclass(frozen=True)
class EigenResult:
    """Full spectrum of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray  # (n,)
    eigenvectors: np.ndarray  # (n, n), column k pairs with eigenvalues[k]


def _lapack(kernel, a):
    """``kernel(a)``, with LAPACK's failure to converge raised as `NoConvergence`."""
    try:
        return kernel(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc


def symmetric_eig(a) -> EigenResult:
    """Eigendecomposition by LAPACK's symmetric eigensolver (``eigh``).

    Eigenvalues are sorted descending with a stable tie order, and each
    eigenvector is scaled so its first nonzero component is positive.
    """
    eigenvalues, vectors = _lapack(np.linalg.eigh, as_symmetric(a))
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    lead = vectors[np.argmax(vectors != 0.0, axis=0), np.arange(vectors.shape[1])]
    vectors[:, lead < 0.0] *= -1.0
    return EigenResult(eigenvalues=eigenvalues, eigenvectors=vectors)


def top_eigenvalue_sums(grams: np.ndarray, d: int) -> np.ndarray:
    """The sum of the d largest eigenvalues of each matrix in a stack.

    ``grams`` is (m, k, k) and symmetric; one batched LAPACK call reads the
    lower triangles.
    """
    return _lapack(np.linalg.eigvalsh, grams)[:, -d:].sum(axis=1)


def solve_pca(a, d: int) -> tuple[float, np.ndarray]:
    """Maximize trace(X.T @ A @ X) over orthonormal n-by-d matrices X.

    Returns the optimum (the sum of the d largest eigenvalues of A) together
    with a maximizing X whose columns are the corresponding eigenvectors.
    """
    eig = symmetric_eig(a)
    n = eig.eigenvalues.shape[0]
    if not 1 <= d <= n:
        raise InvalidParameters(f"need 1 <= d <= {n}, got d={d}")
    value = float(np.sum(eig.eigenvalues[:d]))
    return value, eig.eigenvectors[:, :d].copy()
