"""Reference cell enumerators, lifted functionals and circulation helpers,
which no solve calls.

The solvers read candidates at arrangement vertices, sweep the torus or walk
the families' cones; the tests hold them to the cuts kept here, and demos 03
and 04 use them.

A cell of a central arrangement is a maximal open region on which every
hyperplane functional keeps a fixed sign; it is reported as that sign vector
plus a strictly interior witness point.  Dimensions 2 and 3 are read off in
closed form, so that the tests' references stay fast.  In R^2 the cells are
the sectors between the sorted rays of the lines, two per line.  In R^3 every
cell has a facet on some plane H, and the facets on H are the sectors that
the other planes cut on H (Zaslavsky's restriction), so each sector is pushed
off H to both sides.  In higher dimensions enumeration is by incremental
insertion: each new hyperplane either splits an existing cell or leaves it
whole, decided exactly.

Two fast certificates avoid most linear programs: a witness whose margin ball
straddles the new hyperplane proves a split outright, and the distance from
the origin to the convex hull of the (signed, unit) normals decides
feasibility of a candidate sign vector (the hull point doubles as a witness
direction).  Ambiguous cases fall back to a maximize-minimum-margin LP over
the unit box.  Central symmetry halves the work: only cells with a positive
sign on the first hyperplane are enumerated, the rest are mirrored.
Affine cells inside a bounded region are the cells of the homogenized
arrangement, one dimension up, on the positive side of the lifting
coordinate.  Every witness clears `MIN_MARGIN`.

The functional builders write the lifted squares of `MonomialBasis` one
functional at a time; the solvers build all of them as one array.  Likewise
`circuit_profit` adds up one circuit's arc profits, where the solvers read
every circuit off the signed circuit table, and `zero_circulation` is the
empty assignment, a starting point for flows built by hand.

`spca` and `spca_ds` import this module, so it loads on every import of the
package; the margin LP and the NNLS hull test therefore import
`scipy.optimize` on their first call, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .arrangement import MIN_MARGIN, _unit_normals, distinct_sign_rows
from .circulation import Circulation, CirculationInstance, UndirectedCircuit
from .errors import Degenerate, DimensionMismatch, InvalidCircuit, InvalidParameters
from .extension import MonomialBasis

_HULL_INFEASIBLE_TOL = 1e-10
_HULL_FEASIBLE_TOL = 1e-6
_SPLIT_SLACK = 1e-12
_PARALLEL_TOL = 1e-12  # shorter projections onto a plane count as parallel
_SIGN_CHUNK = 1 << 15  # witness-by-plane values read at once in R^3 (cache-sized)


@dataclass(frozen=True)
class Hyperplane:
    """The central hyperplane {z : normal . z = 0}; normal must be nonzero."""

    normal: np.ndarray


@dataclass(frozen=True)
class Cell:
    """Sign vector of a full-dimensional cell plus a strict interior witness.

    ``margin`` is the smallest |unit_normal . witness| over the arrangement's
    hyperplanes, so the open ball of that radius around the witness stays
    inside the cell's cone.
    """

    signs: tuple[int, ...]
    witness: np.ndarray
    margin: float


def expected_generic_cell_count(p: int, q: int) -> int:
    """Cells of p central hyperplanes in general position in dimension q.

    No arrangement of p central hyperplanes in dimension q has more cells.
    The empty arrangement has one cell, the whole space.
    """
    if p == 0:
        return 1
    return 2 * sum(comb(p - 1, k) for k in range(q))


def _margin_lp(rows: np.ndarray):
    """Maximize the minimum slack of rows . z over the unit box.

    Returns (z, margin) with margin > `MIN_MARGIN`, or None when the open
    cone is empty (or too thin to carry a witness).
    """
    from scipy.optimize import linprog

    m, q = rows.shape
    c = np.zeros(q + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-rows, np.ones((m, 1))])
    b_ub = np.zeros(m)
    bounds = [(-1.0, 1.0)] * q + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None
    margin = float(res.x[-1])
    if margin <= MIN_MARGIN:
        return None
    z = res.x[:q].copy()
    return z, float(np.min(rows @ z))


def _cone_interior_point(rows: np.ndarray):
    """Strict interior point of {z : rows . z > 0}, or None if empty.

    By Gordan's theorem the cone has empty interior exactly when the origin
    lies in the convex hull of the rows; the nearest hull point, found by
    NNLS, otherwise points into the cone with maximum ball margin.  The
    in-between band and any failed verification defer to the LP.
    """
    from scipy.optimize import nnls

    m, q = rows.shape
    system = np.vstack([rows.T, np.ones((1, m))])
    target = np.zeros(q + 1)
    target[-1] = 1.0
    try:
        lam, _ = nnls(system, target, maxiter=50 * m)
    except RuntimeError:
        return _margin_lp(rows)
    # The rnorm scipy reports can be stale; recompute the residual.
    residual = float(np.linalg.norm(system @ lam - target))
    if residual < _HULL_INFEASIBLE_TOL:
        return None
    if residual > _HULL_FEASIBLE_TOL:
        z = rows.T @ lam
        norm = float(np.linalg.norm(z))
        if norm > 0.0:
            z = z / norm
            margin = float(np.min(rows @ z))
            if margin > MIN_MARGIN:
                return z, margin
    return _margin_lp(rows)


def witness_for_signs(hyperplanes, signs, dim: int | None = None):
    """Point z with sign(normal_h . z) == signs[h] for all h, or None.

    The witness maximizes the minimum margin over the unit box; a best margin
    at or below `MIN_MARGIN` counts as infeasible.
    """
    hyperplanes = list(hyperplanes)
    if dim is None:
        if not hyperplanes:
            raise InvalidParameters("dim is required when no hyperplanes are given")
        dim = np.asarray(getattr(hyperplanes[0], "normal", hyperplanes[0])).shape[0]
    unit = _unit_normals(hyperplanes, dim)
    signs = np.asarray(signs, dtype=int)
    if signs.shape != (unit.shape[0],) or not np.all(np.abs(signs) == 1):
        raise InvalidParameters("signs must be a +-1 vector, one per hyperplane")
    if unit.shape[0] == 0:
        return np.zeros(dim)
    got = _margin_lp(unit * signs[:, None])
    return None if got is None else got[0]


def _line_angles(normals: np.ndarray) -> np.ndarray:
    """Angles in [0, pi) of the lines through 0 with these R^2 normals."""
    return np.mod(np.arctan2(normals[..., 0], -normals[..., 1]), np.pi)


def _sector_mids(angles: np.ndarray) -> np.ndarray:
    """Mid-angles of the sectors between the rays, over a half-turn.

    One sector per line on each row of ``angles``, which must be sorted; the
    other half-turn is the mirror image.  Repeated angles give sectors of
    zero width.
    """
    upper = np.concatenate([angles[..., 1:], angles[..., :1] + np.pi], axis=-1)
    return (angles + upper) / 2.0


def plane_sectors(normals: np.ndarray):
    """(witnesses, margins) of the sectors that lines through 0 cut in R^2,
    over one half-turn; the other half-turn is their mirror image.

    ``normals`` is a (p, 2) array of nonzero line normals, p >= 1.  Each
    witness is the unit vector at its sector's mid-angle.  The nearest lines
    to it are the sector's two boundary rays, so its margin is
    sin(width / 2) and no value matrix is formed.  Sectors with margin at
    most `MIN_MARGIN` are dropped, among them the empty ones between
    repeated lines.  Witnesses come in increasing angle from the first ray.
    """
    angles = np.sort(_line_angles(normals))
    mids = _sector_mids(angles)
    margins = np.sin(mids - angles)
    keep = margins > MIN_MARGIN
    return np.column_stack([np.cos(mids[keep]), np.sin(mids[keep])]), margins[keep]


def _sector_cells(unit: np.ndarray) -> list[Cell]:
    """Cells of central lines in R^2: the sectors of ``plane_sectors`` and
    their mirror images, with the signs read at each witness."""
    half, margins = plane_sectors(unit)
    witnesses = np.vstack([half, -half])
    signs = np.where(witnesses @ unit.T > 0.0, 1, -1).tolist()
    cells = [
        Cell(signs=tuple(sv), witness=w, margin=float(m))
        for sv, w, m in zip(signs, witnesses, np.concatenate([margins, margins]))
    ]
    return sorted(cells, key=lambda c: c.signs)


def _plane_bases(unit: np.ndarray) -> np.ndarray:
    """(p, 3, 2): an orthonormal basis of each plane {z : n_h . z = 0}."""
    axis = np.eye(3)[np.argmin(np.abs(unit), axis=1)]
    first = np.cross(unit, axis)
    first /= np.linalg.norm(first, axis=1, keepdims=True)
    return np.stack([first, np.cross(unit, first)], axis=2)


def _space_cells(unit: np.ndarray) -> list[Cell]:
    """Cells of central planes in R^3, one sector cut per plane.

    On each plane H_h the other planes cut lines; a plane parallel to H_h
    cuts none, and with no line left H_h is one sector.  Each sector
    witness w (a unit vector of H_h) moves off H_h along +-n_h.  Along
    w + t n_h the slack of plane g with sigma_g = sign(n_g . w) is
    |n_g . w| + t sigma_g (n_g . n_h), so at t = min_g |n_g . w| /
    (1 - sigma_g n_g . n_h) every slack is at least t, the slack of H_h.
    That is at least half of min_g |n_g . w|, and it reaches far off H_h
    when the nearby planes tilt away.  Signs and margins are read from the
    lifted witnesses themselves, a bounded chunk at a time; one witness per
    sign vector is kept, the one with the largest margin.  The sectors of
    one half-turn are lifted and the other half mirrors them.
    """
    p = unit.shape[0]
    bases = _plane_bases(unit)
    # Clipped, so that rounding never makes 1 -+ n_g . n_h negative.
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    projected = np.einsum("hkc,gk->hgc", bases, unit)
    parallel = np.linalg.norm(projected, axis=2) <= _PARALLEL_TOL
    angles = _line_angles(projected)
    # A parallel plane takes the angle of a line already on H_h, so it only
    # adds sectors of zero width, which no lift keeps.
    some_line = np.argmax(~parallel, axis=1)
    angles = np.where(parallel, angles[np.arange(p), some_line][:, None], angles)
    mids = _sector_mids(np.sort(angles, axis=1))
    in_plane = (bases[:, None, :, 0] * np.cos(mids)[:, :, None]
                + bases[:, None, :, 1] * np.sin(mids)[:, :, None])  # (p, p, 3)

    packed, witnesses, margins = [], [], []
    step = max(1, _SIGN_CHUNK // (2 * p * p))
    for start in range(0, p, step):
        planes = slice(start, min(start + step, p))
        sector = in_plane[planes]  # (c, p, 3)
        values = sector @ unit.T  # (c, p, p): n_g . w
        # Parallel planes bound no reach.  A sector on a line whose cosine
        # with n_h rounds to +-1 gives 0 / 0; its NaN witness is dropped.
        slack = np.where(parallel[planes][:, None, :], np.inf, np.abs(values))
        tilt = np.sign(values) * gram[planes][:, None, :]
        lifted = []
        for side in (1.0, -1.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = np.min(slack / (1.0 - side * tilt), axis=2)
            angle = np.arctan(reach)[:, :, None]
            lifted.append(np.cos(angle) * sector
                          + side * np.sin(angle) * unit[planes][:, None, :])
        lifted = np.concatenate(lifted, axis=1)
        # Stacked products: one flat (c * 2p, 3) @ (3, p) product is slower.
        values = (lifted @ unit.T).reshape(-1, p)
        points = lifted.reshape(-1, 3)
        margin = np.min(np.abs(values), axis=1)
        keep = margin > MIN_MARGIN
        bits = values[keep] > 0.0
        packed += [np.packbits(bits, axis=1), np.packbits(~bits, axis=1)]
        witnesses += [points[keep], -points[keep]]
        margins += [margin[keep], margin[keep]]

    packed = np.concatenate(packed)
    witnesses = np.concatenate(witnesses)
    margins = np.concatenate(margins)
    chosen = distinct_sign_rows(packed, margins)
    witnesses, margins = witnesses[chosen], margins[chosen].tolist()
    cells: list[Cell] = []
    # In chunks, so that the sign lists never all exist beside the tuples.
    step = max(1, _SIGN_CHUNK // p)
    for start in range(0, len(chosen), step):
        rows = np.unpackbits(packed[chosen[start : start + step]], axis=1, count=p)
        cells += [
            Cell(signs=tuple(sv), witness=witnesses[start + k], margin=margins[start + k])
            for k, sv in enumerate((2 * rows.astype(np.int8) - 1).tolist())
        ]
    return cells


def enumerate_cells(hyperplanes, dim: int) -> list[Cell]:
    """All full-dimensional cells of a central arrangement.

    Cells are returned sorted by sign vector (hyperplanes in input order), so
    identical inputs give identical outputs regardless of internal order.
    """
    unit = _unit_normals(hyperplanes, dim)
    p = unit.shape[0]
    if p == 0:
        return [Cell(signs=(), witness=np.zeros(dim), margin=np.inf)]
    if dim == 2:
        return _sector_cells(unit)
    if dim == 3:
        return _space_cells(unit)

    # Half enumeration: fix sign +1 on the first hyperplane, mirror at the end.
    witnesses: list[np.ndarray] = [unit[0].copy()]
    margins: list[float] = [1.0]
    signs: list[list[int]] = [[1]]
    for h in range(1, p):
        normal = unit[h]
        prefix = unit[: h + 1]
        stacked = np.vstack(witnesses)
        values = stacked @ normal
        new_wit: list[np.ndarray] = []
        new_marg: list[float] = []
        new_signs: list[list[int]] = []

        def push(sign_vec, witness, margin=None):
            if margin is None:
                margin = float(np.min(np.abs(prefix @ witness)))
            if margin <= 0.0:
                refreshed = _cone_interior_point(
                    prefix * np.asarray(sign_vec, dtype=float)[:, None]
                )
                if refreshed is None:
                    return
                witness, margin = refreshed
            new_signs.append(sign_vec)
            new_wit.append(witness)
            new_marg.append(margin)

        for idx in range(len(witnesses)):
            value = float(values[idx])
            margin = margins[idx]
            witness = witnesses[idx]
            base = signs[idx]
            if abs(value) + _SPLIT_SLACK < margin:
                # The margin ball straddles the new hyperplane: certain split.
                tau_plus = (margin - value) / 2.0
                tau_minus = (margin + value) / 2.0
                push(base + [1], witness + tau_plus * normal)
                push(base + [-1], witness - tau_minus * normal)
                continue
            if abs(value) <= _SPLIT_SLACK:
                # Witness sits on the new hyperplane; decide both sides afresh.
                candidates = (1, -1)
            else:
                side = 1 if value > 0.0 else -1
                push(base + [side], witness, min(margin, abs(value)))
                candidates = (-side,)
            for cand in candidates:
                rows = prefix * np.asarray(base + [cand], dtype=float)[:, None]
                got = _cone_interior_point(rows)
                if got is not None:
                    push(base + [cand], got[0], got[1])
        witnesses, margins, signs = new_wit, new_marg, new_signs

    cells = [
        Cell(signs=tuple(sv), witness=w.copy(), margin=m)
        for sv, w, m in zip(signs, witnesses, margins)
    ]
    cells += [
        Cell(
            signs=tuple(-s for s in c.signs),
            witness=-c.witness,
            margin=c.margin,
        )
        for c in cells
    ]
    cells.sort(key=lambda c: c.signs)
    return cells


def enumerate_affine_cells(planes, region, dim: int) -> list[Cell]:
    """Cells cut by affine hyperplanes inside a bounded convex region.

    ``planes`` are (a, b) rows for the cutting hyperplanes {t : a.t + b = 0};
    ``region`` are (a, b) rows for halfspaces {t : a.t + b >= 0} whose
    intersection is bounded with nonempty interior.  Cells are the maximal
    open subsets of the region interior with fixed plane signs, sorted by
    sign vector; each carries a strict interior witness and its margin, the
    smallest |a.t + b| over all rows scaled to a unit a-part.

    Each row lifts to the central hyperplane (a, b) in (t, tau), and the row
    tau joins them: the cells of that central arrangement positive on tau and
    on every region row are the affine cells, their witnesses scaled to
    tau = 1.  Raises `InvalidParameters` when the region has no cell.
    """
    planes, region = list(planes), list(region)
    rows = _unit_normals(planes + region, dim + 1)
    scale = np.linalg.norm(rows[:, :dim], axis=1)
    if not np.all(scale > 0.0):
        raise Degenerate("affine row with a zero normal part")
    rows = rows / scale[:, None]
    tau = np.eye(dim + 1)[dim]
    cells = []
    for cell in enumerate_cells(np.vstack([rows, tau]), dim + 1):
        if min(cell.signs[len(planes):]) < 0:
            continue
        t = cell.witness[:dim] / cell.witness[dim]
        values = rows[:, :dim] @ t + rows[:, dim]
        cells.append(Cell(signs=cell.signs[: len(planes)], witness=t,
                          margin=float(np.min(np.abs(values)))))
    if not cells:
        raise InvalidParameters("region has empty or too-thin interior")
    return cells


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


def candidate_support_from_point(point, functionals, s: int) -> tuple[int, ...]:
    """The s indices with the largest functional values at ``point``.

    Ties go to the smaller index, so the result is deterministic even on
    degenerate inputs.
    """
    values = np.array([f(point) for f in functionals])
    return tuple(sorted(np.argsort(-values, kind="stable")[:s].tolist()))


def zero_circulation(instance: CirculationInstance) -> Circulation:
    """The empty assignment: no flow on any arc."""
    return Circulation(
        a0=np.zeros((instance.d, instance.n), dtype=int),
        au=np.zeros(instance.d, dtype=int),
        aw=np.zeros(instance.n, dtype=int),
    )


def circuit_profit(circuit: UndirectedCircuit, profits) -> float:
    """Signed profit of a circuit: only u->w arcs contribute."""
    profits = np.asarray(profits, dtype=float)
    total = 0.0
    for (i, j), sign in circuit.chi_items:
        total += sign * float(profits[i, j])
    return total
