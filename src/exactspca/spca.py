"""Exact sparse PCA for covariance matrices of low rank.

The solver factors K = R @ R.T (r = numerical rank) and looks for the
orderings of the per-feature quadratics ``norm(R_j @ Y)**2``: inside a
region where that ordering is fixed, the top-s features form the one
candidate support the region can contribute, and the best candidate under a
small PCA evaluation is globally optimal.  The regions are cut in the
smallest exact space the instance's shape allows:

- **d >= r (or s = n): closed form.**  Every support S then scores
  trace(K_SS), so the s features with the largest squared row norms are the
  one candidate and no arrangement is cut.
- **n - 1 <= r(r+1)/2 with independent lifted differences: the braid.**  The
  quadratics become linear functionals c_j of the r(r+1)/2 pairwise products
  of one column.  When the differences c_j - c_0 are linearly independent,
  the map z -> (c_j @ z)_j reaches every strict order of the n values, so the
  difference arrangement is the braid arrangement: its n! cells are the
  strict orders and every support is a candidate (Stanley, "An Introduction
  to Hyperplane Arrangements", 2004, Lecture 1).  Nothing is cut.  The rank
  test decides only the cost: all supports always contain the optimum, and
  dependent differences (R_j = +-R_k, ties) fall through to the spaces below.
- **d = 1: the spannogram in R^r.**  (R_j @ y)**2 - (R_k @ y)**2 factors as
  ((R_j - R_k) @ y) * ((R_j + R_k) @ y), so the n(n-1) planes R_j -+ R_k
  fix the ordering on each cell (Asteris, Papailiopoulos and Karystinos,
  "The sparse principal component of a constant-rank matrix", 2014).
- **Otherwise: one lifted block.**  The difference hyperplanes c_j - c_k of
  the lift are cut.  The functional of d columns repeats the block d times,
  so one block has the same cells.

Past the braid, for d = 1 both arrangements are exact.  At rank 2 the cells
are the sectors between the sorted angles of the n(n-1) lines:
``plane_sectors`` gives each sector's mid-angle witness and closed-form
margin, and the witnesses are scored in fixed-size blocks, so no hyperplane,
cell or sign vector is built and no near-parallel lines are merged.  At
rank 3 the spannogram is always cut: ``enumerate_cells`` reads the cells of
R^3 off in closed form, with no insertion work.  At rank >= 4 the one that
predicts less work for ``enumerate_cells`` is cut.  Inserting hyperplane h
tests every cell of the first h - 1, so the work is the sum of the cell
bounds of the partial arrangements: the generic count for the spannogram,
capped at n! for the lift (each cell of a difference arrangement fixes a
strict order of the n functionals).  The spannogram has twice the
hyperplanes in fewer dimensions; it wins from n = 9 at rank 4.

Candidates are scored by the top eigenvalues of their r x r Gram matrices,
stacked and handed to LAPACK in fixed-size chunks.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from math import factorial, inf
from typing import Callable

import numpy as np

from .arrangement import (
    dedup_hyperplanes,
    enumerate_cells,
    expected_generic_cell_count,
    plane_sectors,
)
from .errors import InvalidParameters
from .extension import MonomialBasis, build_row_functional
from .linalg import (
    DEFAULT_RANK_TOL,
    PsdFactor,
    as_symmetric,
    pivoted_cholesky,
    solve_pca,
    symmetrize,
    top_eigenvalue_sums,
)

_SCORE_CHUNK = 1024  # candidate Gram matrices per batched LAPACK call
_SECTOR_BLOCK = 256  # R^2 sectors scored at once on the rank-2 spannogram (cache-sized)


@dataclass(frozen=True)
class SpcaInstance:
    """A sparse PCA problem: PSD matrix K, d components, support size s."""

    kmatrix: np.ndarray
    d: int
    s: int
    factor: PsdFactor

    @classmethod
    def build(cls, kmatrix, d: int, s: int,
              tol_rank: float = DEFAULT_RANK_TOL) -> "SpcaInstance":
        kmatrix = as_symmetric(kmatrix)
        n = kmatrix.shape[0]
        if d < 1:
            raise InvalidParameters(f"need d >= 1, got d={d}")
        if d > s:
            raise InvalidParameters(
                f"an orthonormal X with at most s nonzero rows needs s >= d, "
                f"got d={d}, s={s}"
            )
        if s > n:
            raise InvalidParameters(f"need s <= n, got s={s}, n={n}")
        return cls(kmatrix=kmatrix, d=d, s=s, factor=pivoted_cholesky(kmatrix, tol_rank))

    @property
    def n(self) -> int:
        return self.kmatrix.shape[0]

    @property
    def rank(self) -> int:
        return self.factor.rank

    @property
    def num_components_reduced(self) -> int:
        """min(d, rank): the column count after the dimensionality reduction."""
        return min(self.d, self.factor.rank)


def _top_masks(values: np.ndarray, s: int) -> np.ndarray:
    """Boolean rows marking the s largest entries of each row, ties to the
    smaller index."""
    n = values.shape[1]
    threshold = np.partition(values, n - s, axis=1)[:, n - s : n - s + 1]
    mask = values >= threshold
    tied_rows = np.count_nonzero(mask, axis=1) > s
    if np.any(tied_rows):
        part, cut = values[tied_rows], threshold[tied_rows]
        above, tied = part > cut, part == cut
        room = s - np.count_nonzero(above, axis=1, keepdims=True)
        mask[tied_rows] = above | (tied & (np.cumsum(tied, axis=1) <= room))
    return mask


def _top_sets(values: np.ndarray, s: int) -> np.ndarray:
    """The s largest entries of each row as sorted indices, ties to the smaller."""
    return np.nonzero(_top_masks(values, s))[1].reshape(-1, s)


def candidate_support_from_point(point, functionals, s: int) -> tuple[int, ...]:
    """The s indices with the largest functional values at ``point``.

    Ties go to the smaller index, so the result is deterministic even on
    degenerate inputs.
    """
    return tuple(_top_sets(np.array([[f(point) for f in functionals]]), s)[0].tolist())


@dataclass(frozen=True)
class CandidateSupports:
    """Deduplicated candidate supports plus enumeration bookkeeping.

    ``extended_dim`` is the dimension of the space actually cut (0 for the
    closed form) and ``predicted_cells`` bounds ``cells_enumerated`` before
    enumeration starts.  ``cell_signs(support)`` is the sign vector, on the
    hyperplanes cut (at rank 2 every line offered, near-parallel ones
    included), of one cell whose top-s set is ``support``.
    """

    supports: tuple[tuple[int, ...], ...]
    cells_enumerated: int
    hyperplane_count: int
    extended_dim: int
    predicted_cells: int
    duplicate_feature_pairs: tuple[tuple[int, int], ...]
    cell_signs: Callable[[tuple[int, ...]], tuple[int, ...]] = field(
        compare=False, repr=False, default=lambda support: ()
    )


def _insertion_bounds(planes: int, dim: int, cap: float) -> tuple[int, int]:
    """Bounds on the cells of ``planes`` central hyperplanes in R^dim and on
    the cells ``enumerate_cells`` tests while inserting them one by one.

    No partial arrangement has more cells than the generic count or than
    ``cap``, a bound on the full arrangement (inserting never merges cells).
    """
    cells = [min(cap, expected_generic_cell_count(h, dim)) for h in range(planes + 1)]
    return int(cells[-1]), int(sum(cells[:-1]))


def _choose_space(n: int, r: int, d: int, pairs: int) -> tuple[bool, int, int]:
    """(spannogram?, dimension, predicted cells) of the space to cut at
    rank >= 3.

    ``pairs`` counts the feature pairs with distinct functionals: the lift
    offers one hyperplane for each and the spannogram two.  In R^3 the
    spannogram costs no insertion work; above, the predicted insertion work
    decides.
    """
    lift_dim = r * (r + 1) // 2
    lift_cells, lift_work = _insertion_bounds(pairs, lift_dim, factorial(n))
    if d == 1:
        span_cells, span_work = _insertion_bounds(2 * pairs, r, inf)
        if r == 3 or span_work < lift_work:
            return True, r, span_cells
    return False, lift_dim, lift_cells


def _sector_tops(rows: np.ndarray, normals: np.ndarray, s: int):
    """(top-s sets, one witness each, sectors kept) over the sectors that the
    lines with these R^2 normals cut.

    The mirror half-turn repeats every (R_j @ y)**2, so one half-turn is
    scored, ``_SECTOR_BLOCK`` sectors at a time.  The top-s set changes only
    where a line swaps the features at positions s and s + 1, so within a
    block each run of equal sets keeps only its first sector; sets repeated
    across blocks are left to the caller's deduplication.
    """
    witnesses, _ = plane_sectors(normals)
    masks, kept = [], []
    for start in range(0, len(witnesses), _SECTOR_BLOCK):
        block = witnesses[start:start + _SECTOR_BLOCK]
        mask = _top_masks((block @ rows.T) ** 2, s)
        starts = np.ones(len(mask), dtype=bool)
        starts[1:] = np.any(mask[1:] != mask[:-1], axis=1)
        masks.append(mask[starts])
        kept.append(block[starts])
    tops = np.nonzero(np.concatenate(masks))[1].reshape(-1, s)
    return tops, np.concatenate(kept), len(witnesses)


def _braid_signs(n: int, support) -> tuple[int, ...]:
    """Signs, on the planes t_j = t_k (j < k in ``np.triu_indices`` order), of
    the strict order that puts ``support`` first and ranks each part by index.

    t_j > t_k for every j < k except where j is outside the support and k
    inside it.
    """
    inside = np.zeros(n, dtype=bool)
    inside[list(support)] = True
    first, second = np.triu_indices(n, 1)
    return tuple(np.where(inside[second] & ~inside[first], -1, 1).tolist())


def _lifted_coefficients(instance: SpcaInstance) -> np.ndarray:
    """(n, r(r+1)/2): row j is c_j, with c_j @ ext(y) == (R_j @ y)**2."""
    basis = MonomialBasis(instance.rank, 1)
    return np.vstack(
        [build_row_functional(basis, instance.factor.row(j), tag=f"row:{j}").coeffs
         for j in range(instance.n)]
    )


def enumerate_candidate_supports(instance: SpcaInstance) -> CandidateSupports:
    """Candidate supports, one per cell of the chosen space, deduplicated.

    The candidate family is guaranteed to contain an optimal support; many
    cells collapse onto the same top-s set, hence the deduplication.  One
    witness is kept per support, so ``cell_signs`` costs one product.
    """
    n, d, s, r = instance.n, instance.d, instance.s, instance.rank
    rows = instance.factor.factor  # (n, r)
    if r <= d or s == n:
        # At most d columns span every R_S, so each support scores trace(K_SS).
        norms = np.sum(rows * rows, axis=1)
        support = tuple(_top_sets(norms[None, :], s)[0].tolist())
        return CandidateSupports(
            supports=(support,),
            cells_enumerated=1,
            hyperplane_count=0,
            extended_dim=0,
            predicted_cells=1,
            duplicate_feature_pairs=(),
        )
    lift_dim = r * (r + 1) // 2
    coeffs = _lifted_coefficients(instance) if n - 1 <= lift_dim else None
    if coeffs is not None and np.linalg.matrix_rank(coeffs[1:] - coeffs[0]) == n - 1:
        return CandidateSupports(
            supports=tuple(itertools.combinations(range(n), s)),
            cells_enumerated=factorial(n),
            hyperplane_count=n * (n - 1) // 2,
            extended_dim=lift_dim,
            predicted_cells=factorial(n),
            duplicate_feature_pairs=(),
            cell_signs=partial(_braid_signs, n),
        )
    first, second = np.triu_indices(n, 1)
    minus = rows[first] - rows[second]
    plus = rows[first] + rows[second]
    # R_j = +-R_k: the two features share one functional, so neither space
    # offers a hyperplane for the pair.
    same = ~np.any(minus, axis=1) | ~np.any(plus, axis=1)
    lines = np.stack([minus[~same], plus[~same]], axis=1).reshape(-1, r)  # the spannogram's
    if r == 2:
        # d = 1, as d >= 2 is the closed form: the cells are the sectors
        # between the sorted lines, scored in blocks.
        tops, witnesses, sectors = _sector_tops(rows, lines, s)
        normals, dim, predicted, cell_count = lines, 2, 2 * len(lines), 2 * sectors
    else:
        spannogram, dim, predicted = _choose_space(n, r, d, int(np.count_nonzero(~same)))
        if spannogram:
            offered = lines

            def score(witnesses):
                return (witnesses @ rows.T) ** 2

        else:
            if coeffs is None:
                coeffs = _lifted_coefficients(instance)
            offered = coeffs[first][~same] - coeffs[second][~same]

            def score(witnesses):
                return witnesses @ coeffs.T

        hyperplanes = dedup_hyperplanes(offered, dim)
        cells = enumerate_cells(hyperplanes, dim)
        witnesses = np.vstack([c.witness for c in cells])
        cell_count = len(cells)
        del cells  # one sign tuple per cell: the bulk of the memory on large shapes
        tops = _top_sets(score(witnesses), s)
        normals = np.array([h.normal for h in hyperplanes]).reshape(-1, dim)
    # Sorted rows, each with the first cell that reaches it.
    tops, first_cell = np.unique(tops, axis=0, return_index=True)
    supports = tuple(tuple(row) for row in tops.tolist())
    witnesses = witnesses[first_cell]

    def cell_signs(support):
        values = normals @ witnesses[supports.index(support)]
        return tuple(np.where(values > 0.0, 1, -1).tolist())

    return CandidateSupports(
        supports=supports,
        cells_enumerated=cell_count,
        hyperplane_count=len(normals),
        extended_dim=dim,
        predicted_cells=predicted,
        duplicate_feature_pairs=tuple(zip(first[same].tolist(), second[same].tolist())),
        cell_signs=cell_signs,
    )


@dataclass(frozen=True)
class SpcaDiagnostics:
    rank: int
    extended_dim: int
    hyperplanes: int
    predicted_cells: int
    cells_enumerated: int
    candidates_evaluated: int
    best_cell_signs: tuple[int, ...] | None
    nonzero_rows: int
    duplicate_feature_pairs: tuple[tuple[int, int], ...]
    stage_ms: dict


@dataclass(frozen=True)
class SpcaSolution:
    """Optimal support (0-based, size s), loading matrix and objective."""

    support: tuple[int, ...]
    x: np.ndarray  # (n, d), orthonormal columns, rows outside support zero
    objective: float
    diagnostics: SpcaDiagnostics


def solve_spca(instance: SpcaInstance) -> SpcaSolution:
    """Globally optimal sparse PCA solution for the given instance."""
    n, d, s = instance.n, instance.d, instance.s
    stage_ms: dict = {}
    if instance.rank == 0:
        # K is numerically zero: every feasible X attains the optimum 0.
        support = tuple(range(s))
        x = np.zeros((n, d))
        for col, j in enumerate(support[:d]):
            x[j, col] = 1.0
        diagnostics = SpcaDiagnostics(
            rank=0, extended_dim=0, hyperplanes=0, predicted_cells=1, cells_enumerated=1,
            candidates_evaluated=1, best_cell_signs=(), nonzero_rows=d,
            duplicate_feature_pairs=(), stage_ms=stage_ms,
        )
        return SpcaSolution(support=support, x=x, objective=0.0, diagnostics=diagnostics)

    tick = time.perf_counter()
    candidates = enumerate_candidate_supports(instance)
    stage_ms["candidates"] = (time.perf_counter() - tick) * 1000.0

    tick = time.perf_counter()
    # Supports are sorted and argmax takes the first maximum, so ties keep
    # the lex-smallest.
    supports = np.array(candidates.supports, dtype=int).reshape(-1, s)
    values = np.empty(len(supports))
    for start in range(0, len(supports), _SCORE_CHUNK):
        block = instance.factor.factor[supports[start:start + _SCORE_CHUNK]]  # (c, s, r)
        values[start:start + _SCORE_CHUNK] = top_eigenvalue_sums(
            block.transpose(0, 2, 1) @ block, instance.num_components_reduced
        )
    best_support = candidates.supports[int(np.argmax(values))]
    stage_ms["evaluation"] = (time.perf_counter() - tick) * 1000.0

    tick = time.perf_counter()
    rows = instance.factor.rows(best_support)
    objective, x_rows = solve_pca(symmetrize(rows @ rows.T), d)
    x = np.zeros((n, d))
    x[list(best_support), :] = x_rows
    stage_ms["recovery"] = (time.perf_counter() - tick) * 1000.0

    diagnostics = SpcaDiagnostics(
        rank=instance.rank,
        extended_dim=candidates.extended_dim,
        hyperplanes=candidates.hyperplane_count,
        predicted_cells=candidates.predicted_cells,
        cells_enumerated=candidates.cells_enumerated,
        candidates_evaluated=len(candidates.supports),
        best_cell_signs=candidates.cell_signs(best_support),
        nonzero_rows=int(np.count_nonzero(np.any(x != 0.0, axis=1))),
        duplicate_feature_pairs=candidates.duplicate_feature_pairs,
        stage_ms=stage_ms,
    )
    return SpcaSolution(
        support=best_support, x=x, objective=float(objective), diagnostics=diagnostics
    )
