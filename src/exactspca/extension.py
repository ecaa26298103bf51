"""Lifting of per-column quadratics into a linear space of pairwise products.

A matrix Y with r rows and ``num_cols`` columns maps to the point whose
coordinates are all products ``y[k, i] * y[kp, i]`` with ``k <= kp``, taken
column by column.  Quadratics of the form ``(row @ y_i)**2`` become linear
functionals of that point, which is what lets the solvers cut the lifted
space with hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidCircuit, InvalidParameters


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
        self._off_diagonal = self._k != self._kp
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
        coeffs[..., self._off_diagonal] *= 2.0
        return coeffs


@dataclass(frozen=True)
class ExtendedFunctional:
    """A linear functional on the lifted space, evaluated by dot product."""

    coeffs: np.ndarray
    tag: str

    def __call__(self, point) -> float:
        return float(np.dot(self.coeffs, np.asarray(point, dtype=float)))

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)


def build_row_functional(basis: MonomialBasis, row, tag: str = "") -> ExtendedFunctional:
    """Functional whose value at ext(Y) is the squared norm of ``row @ Y``.

    The same per-column coefficients repeat in every column block because the
    squared Frobenius norm sums the per-column squares.
    """
    block = basis.row_block_coefficients(row)
    return ExtendedFunctional(coeffs=np.tile(block, basis.num_cols), tag=tag)


def build_arc_functional(
    basis: MonomialBasis, row, component: int, tag: str = ""
) -> ExtendedFunctional:
    """Functional whose value at ext({y_i}) is ``(row @ y_component)**2``."""
    if not 0 <= component < basis.num_cols:
        raise DimensionMismatch(
            f"component {component} outside [0, {basis.num_cols})"
        )
    coeffs = np.zeros(basis.dim)
    start = component * basis.block
    coeffs[start : start + basis.block] = basis.row_block_coefficients(row)
    return ExtendedFunctional(coeffs=coeffs, tag=tag)


def build_circuit_functional(
    circuit, arc_functionals, basis: MonomialBasis, tag: str = ""
) -> ExtendedFunctional:
    """Signed sum of arc functionals along a circuit.

    ``arc_functionals`` maps (component, feature) pairs to the functionals for
    the corresponding arcs; arcs outside that A_0 layer carry zero profit and
    contribute nothing.  A circuit whose signed terms cancel exactly yields a
    zero functional, which callers must treat as degenerate.
    """
    chi = getattr(circuit, "chi", circuit)
    if not chi:
        raise InvalidCircuit("circuit has no signed arcs")
    coeffs = np.zeros(basis.dim)
    for (i, j), sign in chi.items():
        if sign not in (-1, 1):
            raise InvalidCircuit(f"arc ({i}, {j}) has sign {sign}, expected +-1")
        try:
            functional = arc_functionals[(i, j)]
        except KeyError as exc:
            raise InvalidCircuit(f"no functional for arc ({i}, {j})") from exc
        coeffs += sign * functional.coeffs
    return ExtendedFunctional(coeffs=coeffs, tag=tag or f"circuit:{chi}")
