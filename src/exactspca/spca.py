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
- **d = 1: the spannogram in R^r.**  (R_j @ y)**2 - (R_k @ y)**2 factors as
  ((R_j - R_k) @ y) * ((R_j + R_k) @ y), so the n(n-1) planes R_j -+ R_k
  fix the ordering on each cell (Asteris, Papailiopoulos and Karystinos,
  "The sparse principal component of a constant-rank matrix", 2014).
- **Otherwise: one lifted block.**  The quadratics become linear functionals
  of the r(r+1)/2 pairwise products of one column, cut by their pairwise
  difference hyperplanes.  The functional of d columns repeats that block d
  times, so one block has the same cells.

For d = 1 both arrangements are exact.  At rank 2 and 3 the spannogram is
always cut: ``enumerate_cells`` reads the cells of R^2 and R^3 off in closed
form, with no insertion work.  At rank >= 4 the one that predicts less work
for ``enumerate_cells`` is cut.  Inserting hyperplane h tests every cell of
the first h - 1, so the work is the sum of the cell bounds of the partial
arrangements: the generic count for the spannogram, capped at n! for the
lift (each cell of a difference arrangement fixes a strict order of the n
functionals).  The spannogram has twice the hyperplanes in fewer dimensions;
it wins from n = 9 at rank 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial, inf

import numpy as np

from .arrangement import dedup_hyperplanes, enumerate_cells, expected_generic_cell_count
from .errors import InvalidParameters
from .extension import MonomialBasis, build_row_functional
from .linalg import DEFAULT_RANK_TOL, PsdFactor, as_symmetric, pivoted_cholesky, solve_pca, symmetrize


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


def _top_supports(values: np.ndarray, s: int) -> list[tuple[int, ...]]:
    """The s largest entries of each row as sorted indices, ties to the smaller."""
    order = np.argsort(-values, axis=1, kind="stable")
    return [tuple(int(j) for j in row) for row in np.sort(order[:, :s], axis=1)]


def candidate_support_from_point(point, functionals, s: int) -> tuple[int, ...]:
    """The s indices with the largest functional values at ``point``.

    Ties go to the smaller index, so the result is deterministic even on
    degenerate inputs.
    """
    return _top_supports(np.array([[f(point) for f in functionals]]), s)[0]


@dataclass(frozen=True)
class CandidateSupports:
    """Deduplicated candidate supports plus enumeration bookkeeping.

    ``extended_dim`` is the dimension of the space actually cut (0 for the
    closed form) and ``predicted_cells`` bounds ``cells_enumerated`` before
    enumeration starts.
    """

    supports: tuple[tuple[int, ...], ...]
    cells_enumerated: int
    hyperplane_count: int
    extended_dim: int
    predicted_cells: int
    duplicate_feature_pairs: tuple[tuple[int, int], ...]
    cell_signs: dict = field(hash=False, default_factory=dict)  # support -> signs


def _insertion_bounds(planes: int, dim: int, cap: float) -> tuple[int, int]:
    """Bounds on the cells of ``planes`` central hyperplanes in R^dim and on
    the cells ``enumerate_cells`` tests while inserting them one by one.

    No partial arrangement has more cells than the generic count or than
    ``cap``, a bound on the full arrangement (inserting never merges cells).
    """
    cells = [min(cap, expected_generic_cell_count(h, dim)) for h in range(planes + 1)]
    return int(cells[-1]), int(sum(cells[:-1]))


def _choose_space(n: int, r: int, d: int, pairs: int) -> tuple[bool, int, int]:
    """(spannogram?, dimension, predicted cells) of the space to cut.

    ``pairs`` counts the feature pairs with distinct functionals: the lift
    offers one hyperplane for each and the spannogram two.  In R^2 and R^3
    the spannogram costs no insertion work; above, the predicted insertion
    work decides.
    """
    lift_dim = r * (r + 1) // 2
    lift_cells, lift_work = _insertion_bounds(pairs, lift_dim, factorial(n))
    if d == 1:
        span_cells, span_work = _insertion_bounds(2 * pairs, r, inf)
        if r <= 3 or span_work < lift_work:
            return True, r, span_cells
    return False, lift_dim, lift_cells


def enumerate_candidate_supports(instance: SpcaInstance) -> CandidateSupports:
    """Candidate supports, one per cell of the chosen space, deduplicated.

    The candidate family is guaranteed to contain an optimal support; many
    cells collapse onto the same top-s set, hence the deduplication.
    """
    n, d, s, r = instance.n, instance.d, instance.s, instance.rank
    rows = instance.factor.factor  # (n, r)
    if r <= d or s == n:
        # At most d columns span every R_S, so each support scores trace(K_SS).
        norms = np.sum(rows * rows, axis=1)
        support = _top_supports(norms[None, :], s)[0]
        return CandidateSupports(
            supports=(support,),
            cells_enumerated=1,
            hyperplane_count=0,
            extended_dim=0,
            predicted_cells=1,
            duplicate_feature_pairs=(),
            cell_signs={support: ()},
        )
    first, second = np.triu_indices(n, 1)
    minus = rows[first] - rows[second]
    plus = rows[first] + rows[second]
    # R_j = +-R_k: the two features share one functional, so neither space
    # offers a hyperplane for the pair.
    same = ~np.any(minus, axis=1) | ~np.any(plus, axis=1)
    spannogram, dim, predicted = _choose_space(n, r, d, int(np.count_nonzero(~same)))
    if spannogram:
        offered = np.stack([minus[~same], plus[~same]], axis=1).reshape(-1, dim)

        def score(witnesses):
            return (witnesses @ rows.T) ** 2

    else:
        basis = MonomialBasis(r, 1)
        coeffs = np.vstack(
            [build_row_functional(basis, instance.factor.row(j), tag=f"row:{j}").coeffs
             for j in range(n)]
        )
        offered = coeffs[first][~same] - coeffs[second][~same]

        def score(witnesses):
            return witnesses @ coeffs.T

    hyperplanes = dedup_hyperplanes(offered, dim)
    cells = enumerate_cells(hyperplanes, dim)
    tops = _top_supports(score(np.vstack([c.witness for c in cells])), s)
    supports: list[tuple[int, ...]] = []
    cell_signs: dict = {}
    for support, cell in zip(tops, cells):
        if support not in cell_signs:
            cell_signs[support] = cell.signs
            supports.append(support)
    supports.sort()
    return CandidateSupports(
        supports=tuple(supports),
        cells_enumerated=len(cells),
        hyperplane_count=len(hyperplanes),
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
    reduced = instance.num_components_reduced
    factor = instance.factor
    best_support = None
    best_value = -np.inf
    for support in candidates.supports:  # sorted, so ties keep the lex-smallest
        rows = factor.rows(support)
        value, _ = solve_pca(symmetrize(rows.T @ rows), reduced)
        if value > best_value:
            best_value = value
            best_support = support
    stage_ms["evaluation"] = (time.perf_counter() - tick) * 1000.0

    tick = time.perf_counter()
    rows = factor.rows(best_support)
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
        best_cell_signs=candidates.cell_signs.get(best_support),
        nonzero_rows=int(np.count_nonzero(np.any(x != 0.0, axis=1))),
        duplicate_feature_pairs=candidates.duplicate_feature_pairs,
        stage_ms=stage_ms,
    )
    return SpcaSolution(
        support=best_support, x=x, objective=float(objective), diagnostics=diagnostics
    )
