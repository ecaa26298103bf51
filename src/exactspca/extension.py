"""Lifting of per-column quadratics into a linear space of pairwise products.

A matrix Y with r rows and ``num_cols`` columns maps to the point whose
coordinates are all products ``y[k, i] * y[kp, i]`` with ``k <= kp``, taken
column by column.  Quadratics of the form ``(row @ y_i)**2`` become linear
functionals of that point: the solvers build them for all rows at once
with `MonomialBasis.row_block_coefficients`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidParameters


class MonomialBasis:
    """Coordinates of the lifted space for ``num_cols`` columns of length r.

    Axes are ordered lexicographically by (column, k, kp) with k <= kp, so a
    functional's coefficient vector is comparable across calls.
    """

    def __init__(self, r: int, num_cols: int):
        if r < 1 or num_cols < 1:
            raise InvalidParameters(f"need r >= 1 and num_cols >= 1, got ({r}, {num_cols})")
        self.r = r
        self.num_cols = num_cols
        pairs = [(k, kp) for k in range(r) for kp in range(k, r)]
        self._k = np.array([k for k, _ in pairs], dtype=int)
        self._kp = np.array([kp for _, kp in pairs], dtype=int)
        self.off_diagonal = self._k != self._kp  # (block,) mask of the k < kp axes
        self.block = len(pairs)  # (r*r + r) / 2
        self.dim = num_cols * self.block

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self._k.tolist(), self._kp.tolist()))

    def indices(self) -> list[tuple[int, int, int]]:
        """All (column, k, kp) triples in coordinate order."""
        return [(i, k, kp) for i in range(self.num_cols) for k, kp in self.pairs]

    def ext(self, y) -> np.ndarray:
        """Lift an (r, num_cols) matrix to its point of pairwise products."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.r, self.num_cols):
            raise DimensionMismatch(
                f"expected shape {(self.r, self.num_cols)}, got {y.shape}"
            )
        coords = np.empty(self.dim)
        for i in range(self.num_cols):
            col = y[:, i]
            coords[i * self.block : (i + 1) * self.block] = col[self._k] * col[self._kp]
        return coords

    def row_block_coefficients(self, row) -> np.ndarray:
        """Coefficients c with c @ ext_block(y) == (row @ y)**2 for one column.

        A stack of rows, shape (..., r), gives one coefficient row each.
        """
        row = np.asarray(row, dtype=float)
        if row.shape[-1:] != (self.r,):
            raise DimensionMismatch(f"expected length-{self.r} rows, got {row.shape}")
        coeffs = row[..., self._k] * row[..., self._kp]
        coeffs[..., self.off_diagonal] *= 2.0
        return coeffs
