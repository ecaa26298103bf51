"""Hyperplane normals shared by the solvers: unit rows, proportional
duplicates dropped, and sign vectors deduplicated.

A hyperplane is a row of an array: the central hyperplane {z : row . z = 0},
or, one coordinate up, the affine one {t : a.t + b = 0} of the row (a, b).
The cell enumerators that cut such arrangements live in `reference`; the
solvers read vertices, sweep the torus or walk cones instead.
"""

from __future__ import annotations

import numpy as np

from .errors import Degenerate, InvalidParameters

MIN_MARGIN = 1e-9  # a witness this close to a hyperplane is not strictly interior
_DEDUP_BLOCK = 256  # Gram rows tested at once by dedup_hyperplanes


def _unit_normals(hyperplanes, dim: int) -> np.ndarray:
    """(p, dim) unit rows of an array of normals, or of a sequence of rows or
    of objects with a ``normal`` (`reference.Hyperplane`)."""
    if dim < 1:
        raise InvalidParameters(f"need dim >= 1, got {dim}")
    if isinstance(hyperplanes, np.ndarray) and hyperplanes.dtype.kind in "biuf":
        rows = hyperplanes.astype(float, copy=False)
        shapes = {rows.shape[1:]} if rows.size else set()
    else:
        rows = [np.asarray(getattr(h, "normal", h), dtype=float) for h in hyperplanes]
        shapes = {row.shape for row in rows}
    if shapes - {(dim,)}:
        raise InvalidParameters(f"normal shapes {sorted(shapes)} do not match dim {dim}")
    normals = np.array(rows, dtype=float).reshape(-1, dim)
    # Stacked row dot products round like np.linalg.norm on each row alone;
    # an overflow gives an infinite norm, rejected below.
    with np.errstate(over="ignore"):
        norms = np.sqrt(normals[:, None, :] @ normals[:, :, None]).reshape(-1)
    if not np.all((norms > 0.0) & np.isfinite(norms)):
        raise Degenerate("zero or non-finite hyperplane normal")
    return normals / norms[:, None]


def dedup_hyperplanes(hyperplanes, dim: int, tol: float = 1e-9) -> np.ndarray:
    """The unit normals, (m, dim) in input order, of the hyperplanes not
    proportional to an earlier one.

    Greedy in input order: a normal is dropped when its |cosine| with a
    normal kept before it reaches 1 - tol.  The Gram matrix is tested one
    block of rows at a time, against the kept rows of earlier blocks at once
    and within the block only along chains of near-duplicates.
    """
    unit = _unit_normals(hyperplanes, dim)
    kept = np.zeros(unit.shape[0], dtype=bool)
    for start in range(0, unit.shape[0], _DEDUP_BLOCK):
        block = unit[start : start + _DEDUP_BLOCK]
        earlier = unit[:start][kept[:start]]
        fresh = ~np.any(np.abs(block @ earlier.T) >= 1.0 - tol, axis=1)
        near = np.triu(np.abs(block @ block.T) >= 1.0 - tol, 1)
        # A row can drop later rows only while it is itself kept.
        for idx in np.flatnonzero(np.any(near, axis=1)):
            if fresh[idx]:
                fresh &= ~near[idx]
        kept[start : start + len(block)] = fresh
    return unit[kept]


def distinct_sign_rows(packed: np.ndarray, margins=None) -> np.ndarray:
    """Indices of one row per distinct sign vector, in sign-vector order.

    `packed` holds `np.packbits` rows, read as big-endian 64-bit words whose
    numeric order is the order of the sign vectors.  Among equal rows the
    largest margin is kept, or the first row when no margins are given.
    """
    padded = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = padded.view(">u8").astype(np.uint64)
    ties = [] if margins is None else [-np.asarray(margins)]
    order = np.lexsort([*ties, *words.T[::-1]])  # stable: equal keys keep row order
    words = words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(words[1:] != words[:-1], axis=1)
    return order[first]
