"""Exact sparse PCA for covariance matrices of low rank.

The solver factors K = R @ R.T (r = numerical rank).  A support S scores the
sum of the d largest eigenvalues of R_S.T @ R_S, and an optimal S is a top-s
set of the per-feature values ``norm(R_j @ Y)**2`` at an optimal Y, so the
solver gathers candidate top-s sets and scores them all:

- **d >= r (or s = n): closed form.**  Every support S then scores
  trace(K_SS), so the s features with the largest squared row norms are the
  one candidate.
- **Otherwise: the vertices of an arrangement.**  The top-s set changes only
  where features at positions s and s + 1 tie.  Next to a point where a
  group of features ties across position s, the top-s sets are the features
  above the tie plus every fill of the rest of s from the tied group, so it
  suffices to read one such point on the boundary of every region of
  constant top-s set: a vertex, where enough features tie to fix the point
  (Asteris, Papailiopoulos and Karystinos, "The sparse principal component
  of a constant-rank matrix", IEEE Trans. IT 2014).  Two spaces carry them.

  - *The spannogram in R^r (d = 1).*  (R_j @ y)**2 = (R_k @ y)**2 on the
    planes R_j -+ R_k.  The vertices are the null vectors of the rows
    R_t0 - sigma_i R_ti, over every r-subset T and signs sigma, and of R_T
    over every (r - 1)-subset (ties at level 0): C(n, r) 2^(r-1) +
    C(n, r - 1) points.  They cover every region: from a boundary point,
    move where the tied group stays tied until a feature joins it or it
    reaches 0; there r (or r - 1 at 0) features tie, with the set a fill.
  - *The lift (any d).*  The values are linear functionals c_j of the
    r(r+1)/2 pairwise products of each column, ordered by their differences
    alone.  In the k-dimensional span of the c_j - c_0, a region is a
    pointed convex cone whose extreme rays are where k of the features tie:
    the null vector of the k - 1 differences of a k-subset, and its
    negation, 2 C(n, k) points.  At k = n - 1 that is the braid arrangement
    (every strict order is a region), so every support is a candidate and
    the supports are generated directly.  `Lift` holds this read; the
    disjoint solver reads its top sets of other functionals with it.

  For d = 1 the space with fewer predicted candidate rows (points times
  C(g, g // 2), g = r or k) is read.  Features that share one functional,
  or add less than half the tie band to any score, are interchangeable: a
  fill takes a quota of each such class, in index order.

Vertices are read in fixed-size blocks, candidates deduplicated as packed
bitmasks and scored in LAPACK batches of r x r Grams; scores within 1e-12
(relative) of the best tie, and the lex-smallest support wins.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np

from .errors import InvalidParameters, TooLarge
from .extension import MonomialBasis
from .linalg import (
    DEFAULT_RANK_TOL,
    PsdFactor,
    pivoted_cholesky,
    solve_pca,
    symmetrize,
    top_eigenvalue_sums,
)
# No solve calls these; perfbench/tracing.py binds them under these names.
from .arrangement import dedup_hyperplanes  # noqa: F401
from .reference import build_row_functional, enumerate_cells  # noqa: F401

_SCORE_CHUNK = 1024  # candidate Gram matrices per batched LAPACK call
_VERTEX_BLOCK = 1024  # vertices (or generated supports) read at once
_TIE_TOL = 1e-9  # values this close, relative to the largest reachable, tie
_RANK_TOL = 1e-10  # floor of a tie system's volume, relative to its row norms
_BEST_TOL = 1e-12  # scores this close, relative to the best, tie for the optimum
_FILL_LIMIT = 1 << 22  # fills built at once for one kind of tie, past which it is too degenerate


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
        # The factor checks K once, so its errors come before the parameters'.
        factor = pivoted_cholesky(kmatrix, tol_rank)
        kmatrix = np.asarray(kmatrix, dtype=float)
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
        return cls(kmatrix=kmatrix, d=d, s=s, factor=factor)

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
    return _index_masks(np.argsort(-values, axis=1, kind="stable")[:, :s], values.shape[1])


def _index_masks(subsets: np.ndarray, n: int) -> np.ndarray:
    """Boolean (m, n) rows marking each row of ``subsets``."""
    masks = np.zeros((len(subsets), n), dtype=bool)
    masks[np.arange(len(subsets))[:, None], subsets] = True
    return masks


@dataclass(frozen=True)
class CandidateSupports:
    """Deduplicated, sorted candidate supports plus enumeration bookkeeping:
    the dimension of the space read (0 for the closed form), the vertices
    read and their count, computed before any is read."""

    supports: tuple[tuple[int, ...], ...]
    cells_enumerated: int
    hyperplane_count: int
    extended_dim: int
    predicted_cells: int
    duplicate_feature_pairs: tuple[tuple[int, int], ...]


def _subsets(n: int, m: int, size: int) -> Iterator[np.ndarray]:
    """The m-subsets of range(n) in lex order, as (<= size, m) index blocks."""
    combos = itertools.combinations(range(n), m)
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, size)),
                            dtype=np.intp)
        if not block.size:
            return
        yield block.reshape(-1, m)
        if block.size < size * m:
            return


@lru_cache(maxsize=1024)
def _fill_count(sizes: tuple[int, ...], need: int) -> int:
    """The number of rows ``_fill_table`` builds, counted without them."""
    ways = [1] + [0] * need  # ways[t]: quotas of the classes so far that sum to t
    for size in sizes:
        ways = [sum(ways[max(0, t - size):t + 1]) for t in range(need + 1)]
    return ways[need]


@lru_cache(maxsize=256)
def _fill_table(sizes: tuple[int, ...], need: int) -> np.ndarray:
    """Every way to take ``need`` of the tied positions, as (fills, need).

    The positions run class by class, ``sizes`` long.  Each class gives a
    quota and the fill takes that many of its first positions, so with
    classes of one the fills are the C(tied, need) combinations.  Cached,
    so read-only.
    """
    later = [*np.cumsum(sizes[::-1])[::-1].tolist()[1:], 0]  # positions after each class
    quotas = np.zeros((1, 0), dtype=np.intp)
    for size, after in zip(sizes, later):
        quotas = np.column_stack([np.repeat(quotas, size + 1, axis=0),
                                  np.tile(np.arange(size + 1), len(quotas))])
        total = quotas.sum(axis=1)
        quotas = quotas[(total <= need) & (total + after >= need)]
    rank = np.arange(sum(sizes)) - np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
    table = np.nonzero(rank < np.repeat(quotas, sizes, axis=1))[1].reshape(len(quotas), need)
    table.flags.writeable = False
    return table


def _spannogram_systems(rows: np.ndarray):
    """(tie systems, subsets) blocks of the spannogram in R^r: the rows
    R_t0 - sigma_i R_ti of every r-subset T and signs sigma, and the rows R_T
    of every (r - 1)-subset (padded with its first feature)."""
    n, r = rows.shape
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=r - 1))).reshape(-1, r - 1, 1)
    size = max(1, _VERTEX_BLOCK >> (r - 1))
    empty = np.empty((0, r), dtype=np.intp)
    for subsets, zeros in itertools.zip_longest(_subsets(n, r, size), _subsets(n, r - 1, size),
                                                fillvalue=empty):
        zeros = zeros[:, :r - 1]
        base = rows[subsets][:, None]
        systems = (base[:, :, :1] - signs * base[:, :, 1:]).reshape(-1, r - 1, r)
        padded = zeros[:, [0, *range(r - 1)]]
        yield (np.concatenate([systems, rows[zeros]]),
               np.concatenate([np.repeat(subsets, len(signs), axis=0), padded]))


def _vertex_masks(values: np.ndarray, tied_sets: np.ndarray, tol: float, s: int,
                  heads: np.ndarray, filled: set) -> list[np.ndarray]:
    """Support masks next to the vertices (rows of ``values``) whose tie
    straddles position s.

    A vertex's subset ties, with every feature within ``tol`` of the band
    its values span.  When fewer than s features lie above the band and more
    than s reach it, the features above plus every fill of the rest of s
    from the tied ones are candidates.  Features of one class (one entry of
    ``heads``) are interchangeable, so a fill takes a quota of each class,
    in index order.  The fills are counted before they are built, and when
    they are many, coincident vertices (the same features above and tied)
    are read once: their keys go into ``filled``, shared across the blocks
    of one read.
    """
    n = values.shape[1]
    members = values[np.arange(len(values))[:, None], tied_sets]
    higher = values > members.max(axis=1, keepdims=True) + tol
    band = ~higher & (values >= members.min(axis=1, keepdims=True) - tol)
    counts = band.sum(axis=1)
    need = s - higher.sum(axis=1)
    straddles = (need > 0) & (need < counts)
    masks = []
    for group, fill in set(zip(counts[straddles].tolist(), need[straddles].tolist())):
        rows = np.flatnonzero(straddles & (counts == group) & (need == fill))
        tied = np.nonzero(band[rows])[1].reshape(-1, group)
        classes = heads[tied]
        kinds, which = np.zeros(1, dtype=np.intp), np.zeros(len(rows), dtype=np.intp)
        if (classes != tied).any():  # order class by class, each in index order
            classes, tied = np.divmod(np.sort(classes * n + tied, axis=1), n)
            joins = classes[:, 1:] == classes[:, :-1]  # in the class of the one before
            # Rows with other runs of classes take other tables.
            kinds, which = np.unique(_row_keys(joins), return_index=True, return_inverse=True)[1:]
        for kind, runs in enumerate(classes[kinds].tolist()):
            sizes = tuple(len(list(run)) for _, run in itertools.groupby(runs))
            picked = np.flatnonzero(which == kind)
            fills = _fill_count(sizes, fill)
            if len(picked) * fills > _VERTEX_BLOCK:  # read coincident vertices once
                key = higher[rows[picked]] + 2 * band[rows[picked]].view(np.int8)
                keys, first = np.unique(_row_keys(key), return_index=True)
                fresh = [k for k, key in enumerate(keys.tolist()) if key not in filled]
                filled.update(keys[fresh].tolist())
                picked = picked[first[fresh]]
                if not len(picked):
                    continue
            if len(picked) * fills > _FILL_LIMIT:
                raise TooLarge(f"{len(picked)} vertices tie {group} features, {fill} to fill")
            table = _fill_table(sizes, fill)
            picks = tied[picked][:, table].reshape(-1, fill)
            mask = np.repeat(higher[rows[picked]], len(table), axis=0)  # one row per (vertex, fill)
            mask[np.arange(len(mask))[:, None], picks] = True
            masks.append(mask)
    return masks


def _row_keys(array: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque value, so that 1-D ``np.unique``
    (far cheaper than its ``axis=0``) and sets compare whole rows."""
    array = np.ascontiguousarray(array)
    return array.view(np.dtype((np.void, array.shape[1] * array.itemsize))).ravel()


def _fresh(masks: np.ndarray, seen: set) -> np.ndarray:
    """The rows of ``masks`` not yet in ``seen``, once each; their packed
    bits are added to ``seen``."""
    keys = _row_keys(np.packbits(masks, axis=1)).tolist()
    fresh = {key: row for row, key in enumerate(keys) if key not in seen}  # one row a key
    seen.update(fresh)
    return masks[list(fresh.values())]


def _read_vertices(blocks, features: np.ndarray, lift: bool, norms: np.ndarray, s: int,
                   heads: np.ndarray):
    """Deduplicated candidate support masks, one block per block of tie systems.

    A vertex is the null vector of its (m, g - 1, g) system, from cofactors;
    their norm, the product of the singular values, below ``_RANK_TOL`` of
    the product of the row norms marks a rank-deficient system (R_j = +-R_k,
    repeated rows), whose vertices other subsets reach.  The lift reads each
    null vector and its negation; the spannogram reads |R_j @ y| (squares
    would tie rows of tiny norm near 0), within ``_TIE_TOL`` of the largest
    a unit point reaches.  Features with one of ``heads`` form a class.  The
    lift's first vertex and its negation add their top-s sets (at k = 1 they
    are the regions, untied); with no vertex read, the row ``norms`` do.
    """
    tol = _TIE_TOL * np.sqrt(np.max(np.sum(features * features, axis=1)))
    seen: set = set()
    filled: set = set()
    for systems, subsets in blocks:
        g = systems.shape[2]
        # Row i of the table drops column i.
        minors = systems[:, :, _fill_table((1,) * g, g - 1)].transpose(0, 2, 1, 3)
        # 1 x 1 minors (rank 2) are their entries, with no LAPACK call.
        cofactors = minors[:, :, 0, 0] if g == 2 else np.linalg.det(minors)
        cofactors[:, 1::2] *= -1.0
        volume = (cofactors * cofactors).sum(axis=1)  # squared, as are the row norms
        keep = volume > _RANK_TOL**2 * np.prod((systems * systems).sum(axis=2), axis=1)
        values = (cofactors[keep] / np.sqrt(volume[keep, None])) @ features.T
        tied = subsets[keep]
        if lift:  # each null vector, then its negation
            values = np.stack([values, -values], axis=1).reshape(-1, len(features))
            tied = np.repeat(tied, 2, axis=0)
        masks = _vertex_masks(values if lift else np.abs(values), tied, tol, s, heads, filled)
        if lift and not seen and len(values):
            masks.append(_top_masks(values[:2], s))
        if masks:
            yield _fresh(np.concatenate(masks), seen)
    if not seen:
        yield _top_masks(norms[None, :], s)


@dataclass(frozen=True)
class Lift:
    """Linear functionals c_j in the span of their differences, read for
    their top sets (the lift of the module docstring).

    Features that share one functional (for c_j = (R_j @ y)**2, R_j = +-R_k)
    are one class, and so are the rows adding less than half the tie band to
    any score, whose functionals are read as zero: exact for the functionals
    without them, so within the size times that band of the optimum.
    """

    coeffs: np.ndarray  # (n, q) functionals, faint rows zeroed
    span: np.ndarray  # (k, q) orthonormal rows spanning the c_j - c_0
    heads: np.ndarray  # each feature's first classmate
    norms: np.ndarray  # squared row norms: the top sets when no vertex is read
    duplicates: tuple[tuple[int, int], ...]  # pairs sharing one functional

    @classmethod
    def build(cls, coeffs: np.ndarray, norms: np.ndarray) -> "Lift":
        n = len(coeffs)
        same = (coeffs[:, None] == coeffs).all(axis=2)
        first, second = np.nonzero(same & (np.arange(n)[:, None] < np.arange(n)))
        faint = norms <= _TIE_TOL / 2 * norms.max()
        heads = np.argmax(same | (faint[:, None] & faint), axis=0)
        coeffs = np.where(faint[:, None], 0.0, coeffs)
        _, sv, vt = np.linalg.svd(coeffs[1:] - coeffs[0], full_matrices=False)
        k = int(np.count_nonzero(sv > sv[0] * max(coeffs.shape) * np.finfo(float).eps))
        return cls(coeffs=coeffs, span=vt[:k], heads=heads, norms=norms,
                   duplicates=tuple(zip(first.tolist(), second.tolist())))

    @property
    def dim(self) -> int:
        return len(self.span)

    @property
    def pairs(self) -> int:
        """Feature pairs with distinct functionals: the hyperplanes."""
        n = len(self.coeffs)
        return n * (n - 1) // 2 - len(self.duplicates)

    @property
    def points(self) -> int:
        """Vertices read per size, 2 C(n, k): 2n on the braid."""
        return 2 * comb(len(self.coeffs), self.dim)

    def top_sets(self, size: int) -> Iterator[np.ndarray]:
        """Deduplicated top-``size`` sets, as blocks of (m, n) boolean masks."""
        n, k = len(self.coeffs), self.dim
        if k == n - 1:
            # The braid: the fills of its 2n vertices are every support.
            return (_index_masks(subsets, n) for subsets in _subsets(n, size, _VERTEX_BLOCK))
        lifted = (self.coeffs - self.coeffs[0]) @ self.span.T  # c_j - c_0 in their span
        # The k - 1 differences of every k-subset.
        systems = ((lifted[t[:, 1:]] - lifted[t[:, :1]], t)
                   for t in _subsets(n, k, _VERTEX_BLOCK // 2))
        return _read_vertices(systems, lifted, True, self.norms, size, self.heads)


def _candidate_blocks(instance: SpcaInstance) -> tuple[dict, Iterator[np.ndarray]]:
    """The enumeration counts, known before any vertex is read, and the
    deduplicated candidate supports as blocks of (m, n) boolean masks."""
    n, d, s, r = instance.n, instance.d, instance.s, instance.rank
    rows = instance.factor.factor  # (n, r)
    norms = np.sum(rows * rows, axis=1)
    if r <= d or s == n:
        # At most d columns span every R_S, so each support scores trace(K_SS).
        counts = dict(cells_enumerated=1, hyperplanes=0, extended_dim=0,
                      predicted_cells=1, duplicate_feature_pairs=())
        return counts, iter([_top_masks(norms[None, :], s)])
    # c_j @ ext(y) == (R_j @ y)**2
    lift = Lift.build(MonomialBasis(r, 1).row_block_coefficients(rows), norms)
    k = lift.dim
    span_points = comb(n, r) * 2 ** (r - 1) + comb(n, r - 1)
    if d == 1 and span_points * comb(r, r // 2) < lift.points * comb(k, k // 2):
        dim, points, hyperplanes = r, span_points, 2 * lift.pairs
        blocks = _read_vertices(_spannogram_systems(rows), rows, False, norms, s, lift.heads)
    else:
        dim, points, hyperplanes = k, lift.points, lift.pairs
        blocks = lift.top_sets(s)
    return dict(cells_enumerated=points, hyperplanes=hyperplanes, extended_dim=dim,
                predicted_cells=points, duplicate_feature_pairs=lift.duplicates), blocks


def enumerate_candidate_supports(instance: SpcaInstance) -> CandidateSupports:
    """Candidate supports, deduplicated and sorted; one of them is optimal."""
    counts, blocks = _candidate_blocks(instance)
    masks = np.concatenate(list(blocks))
    supports = np.unique(np.nonzero(masks)[1].reshape(-1, instance.s), axis=0)
    counts["hyperplane_count"] = counts.pop("hyperplanes")
    return CandidateSupports(supports=tuple(map(tuple, supports.tolist())), **counts)


def _best_support(blocks, factor: np.ndarray, d: int, s: int) -> tuple[tuple[int, ...], int]:
    """(winning support, candidates scored) over the blocks of support masks.

    A mask's r x r Gram matrix is its sum of the rows' outer products.  Only
    the candidates within ``_BEST_TOL`` of the running best are kept, and the
    lex-smallest of those within it of the final best wins, so ties do not
    hang on the last bits of the eigensolver.
    """
    n, r = factor.shape
    outer = (factor[:, :, None] * factor[:, None, :]).reshape(n, r * r)
    best, scored, kept = -np.inf, 0, []
    for masks in blocks:
        for start in range(0, len(masks), _SCORE_CHUNK):
            chunk = masks[start:start + _SCORE_CHUNK]
            values = top_eigenvalue_sums((chunk @ outer).reshape(len(chunk), r, r), d)
            scored += len(chunk)
            best = max(best, float(values.max()))
            near = values >= best - _BEST_TOL * abs(best)
            kept.append((values[near], chunk[near]))
    near = [chunk[values >= best - _BEST_TOL * abs(best)] for values, chunk in kept]
    return min(map(tuple, np.nonzero(np.concatenate(near))[1].reshape(-1, s).tolist())), scored


@dataclass(frozen=True)
class SpcaDiagnostics:
    rank: int
    extended_dim: int
    hyperplanes: int
    predicted_cells: int
    cells_enumerated: int
    candidates_evaluated: int
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
    tick = time.perf_counter()
    counts, blocks = _candidate_blocks(instance)
    stage_ms["candidates"] = (time.perf_counter() - tick) * 1000.0

    # The blocks are generated as they are scored, so "evaluation" carries
    # the vertex read.
    tick = time.perf_counter()
    best_support, scored = _best_support(blocks, instance.factor.factor,
                                         instance.num_components_reduced, s)
    stage_ms["evaluation"] = (time.perf_counter() - tick) * 1000.0

    tick = time.perf_counter()
    rows = instance.factor.rows(best_support)
    objective, x_rows = solve_pca(symmetrize(rows @ rows.T), d)
    x = np.zeros((n, d))
    x[list(best_support), :] = x_rows
    stage_ms["recovery"] = (time.perf_counter() - tick) * 1000.0

    diagnostics = SpcaDiagnostics(
        rank=instance.rank,
        candidates_evaluated=scored,
        nonzero_rows=int(np.count_nonzero(np.any(x != 0.0, axis=1))),
        stage_ms=stage_ms,
        **counts,
    )
    return SpcaSolution(
        support=best_support, x=x, objective=float(objective), diagnostics=diagnostics
    )
