"""Exact sparse PCA with pairwise-disjoint component supports.

Pipeline: factor K = R @ R.T, build one profit functional per u->w arc of the
circulation digraph and the signed circuit table of its undirected circuits.
A flow is optimal wherever none of its residual circuits, read off the table,
has positive profit.  Each family of disjoint supports optimal somewhere on
the realizable set is a candidate; the best under per-component PCA
evaluation is globally optimal.

Four shapes need no circuit.  One component (d = 1) is sparse PCA with
support size min(s, n) and is handed to `solve_spca`.  At rank <= 1 the
unit-trace slice of the lifted space is a single point, and at s = 1 every
support is one feature j, whose value K_jj = |R_j|^2 depends on no point of
the slice: either way one circulation on the squared row norms, one region,
is optimal.  Two components with n <= 2s assign every feature, so the first
support is a top set of the differences (R_j . y_1)^2 - (R_j . y_2)^2,
linear in one trace-free matrix, and those sets are read as sparse PCA reads
its candidates: every subset of a size where the subsets are no more than
the vertices of their arrangement (the braid), else at those vertices
(`spca.Lift`).  Rank two with d = 2, s >= 2 and n > 2s cuts the regions of
the circuit hyperplanes in closed form on the torus of block angles, one
line per slab between crossings and tangents, whose arc signs are read by
toggling curve bits at the sorted roots over the half phi1 <= phi2 only
(swapping the components mirrors the rest), and solves one circulation per
family.  There every arc profit is a square, so every optimal flow is a
maximum flow, and only the circuits that can bound an optimal family are
cut (`_separating_circuits`).  Every other shape walks the families'
optimality cones across the clipped chart of the slice, with every circuit:
the chart's sleeve holds points that no unit vectors realize, where profits
can be negative.

Circulations may leave a component's support empty, while a unit-norm
loading vector needs a nonempty one: `_complete_family` fills it without
lowering the objective.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .arrangement import MIN_MARGIN, dedup_hyperplanes, distinct_sign_rows
from .circulation import (
    CirculationInstance,
    circuit_table,
    enumerate_undirected_circuits,
    optimal_at_profits,
    residual_circuits,
    solve_max_profit,
    supports_from_circulation,
)
from .errors import CertificateFailed, InvalidParameters
from .extension import MonomialBasis
from .linalg import (DEFAULT_RANK_TOL, PsdFactor, pivoted_cholesky, solve_pca,
                     symmetrize, top_eigenvalue_sums)
# No solve calls these; perfbench/tracing.py binds them under these names.
from .reference import (build_arc_functional, build_circuit_functional,  # noqa: F401
                        enumerate_affine_cells)
from .spca import Lift, SpcaInstance, braid_masks, reads_braid, shared_functionals, solve_spca


@dataclass(frozen=True)
class SpcaDsInstance:
    """Disjoint-supports problem: PSD matrix K, d components, size cap s."""

    kmatrix: np.ndarray
    d: int
    s: int
    factor: PsdFactor

    @classmethod
    def build(cls, kmatrix, d: int, s: int,
              tol_rank: float = DEFAULT_RANK_TOL) -> "SpcaDsInstance":
        # The factor checks K once, so its errors come before the parameters'.
        factor = pivoted_cholesky(kmatrix, tol_rank)
        kmatrix = np.asarray(kmatrix, dtype=float)
        n = kmatrix.shape[0]
        if d < 1:
            raise InvalidParameters(f"need d >= 1, got d={d}")
        if s < 1:
            raise InvalidParameters(f"need s >= 1, got s={s}")
        if d > n:
            raise InvalidParameters(
                f"d nonempty disjoint supports need d <= n, got d={d}, n={n}"
            )
        return cls(kmatrix=kmatrix, d=d, s=s, factor=factor)

    @property
    def n(self) -> int:
        return self.kmatrix.shape[0]

    @property
    def rank(self) -> int:
        return self.factor.rank


@dataclass(frozen=True)
class CircuitHyperplanes:
    """Arrangement input for an instance: arc functionals and circuit planes."""

    hyperplanes: np.ndarray  # (m, dim) unit normals of `dedup_hyperplanes`
    arc_coeffs: np.ndarray  # (d * n, dim); row i*n+j is the (u_i, w_j) functional
    table: np.ndarray  # `circuit_table` of the circuits with a nonzero functional
    extended_dim: int
    circuits_enumerated: int  # every circuit of the shape
    degenerate_circuits: int
    circuits_pruned: int = 0  # circuits of the shape left out by the selection


@lru_cache(maxsize=64)
def _shape_circuit_table(d: int, n: int) -> np.ndarray:
    """`circuit_table` of every undirected circuit at (d, n), which depend
    on the shape only.  Cached, so read-only."""
    table = circuit_table(enumerate_undirected_circuits(d, n), d, n)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _separating_circuits(d: int, n: int) -> np.ndarray:
    """Mask of the rows of `_shape_circuit_table` that can bound a family
    optimal at profits >= 0, as on the realizable set.

    At profits > 0 every optimal flow is a maximum flow: one that is not
    has a free slot and an unused feature, and t -> u_i -> w_j -> t gains
    p_ij.  A circuit through the hub uses two hub arcs.  One through a
    component arc and a feature arc changes the flow's value, so at an
    optimal flow its residual direction lowers the value and gains < 0:
    it is dropped, unless it is a single arc, whose plane p_ij = 0 keeps
    witnesses off the touch curves.  Every other circuit keeps the value
    and is kept: those missing the hub, those through two component arcs,
    and those through two feature arcs, which swap an unused feature in
    (the torus runs at n > d * s, where a maximum flow leaves one unused).
    A flow optimal among the maximum flows, at profits > 0, is optimal, so
    the kept circuits decide optimality there.  (A feature with a zero
    factor row has zero profit everywhere; no optimal flow needs it, and the
    argument holds without it.)  The selection is closed under permuting the
    components.  Cached, so read-only.
    """
    table = _shape_circuit_table(d, n)
    component_arcs = np.count_nonzero(table[:, d * n : d * n + d], axis=1)
    single_arc = np.count_nonzero(table[:, : d * n], axis=1) == 1
    keep = (component_arcs != 1) | single_arc
    keep.flags.writeable = False
    return keep


def build_circuit_hyperplanes(instance: SpcaDsInstance,
                              selection: np.ndarray | None = None) -> CircuitHyperplanes:
    """One hyperplane per circuit with a nonzero profit functional.

    The circuit functionals are one product of the signed circuit table and
    the arc functionals, equal to `reference.build_circuit_functional` bit for
    bit: a coordinate sums at most two signed terms.  Functionals that cancel
    exactly (duplicate rows) cut nothing and gain nowhere, so they leave the
    table.  Proportional normals cut the same cells and are deduplicated.
    ``selection``, a mask over the rows of the shape's circuit table (the
    solver's torus passes `_separating_circuits`), keeps only those circuits;
    ``circuits_enumerated`` still counts every circuit of the shape.
    """
    d, n, r = instance.d, instance.n, instance.rank
    if r == 0:
        return CircuitHyperplanes(
            hyperplanes=np.zeros((0, 0)), arc_coeffs=np.zeros((d * n, 0)),
            table=circuit_table([], d, n), extended_dim=0, circuits_enumerated=0,
            degenerate_circuits=0,
        )
    basis = MonomialBasis(r, d)
    arc_coeffs = np.zeros((d, n, d, basis.block))
    rows = basis.row_block_coefficients(instance.factor.factor)  # (n, block)
    arc_coeffs[np.arange(d), :, np.arange(d)] = rows
    arc_coeffs = arc_coeffs.reshape(d * n, basis.dim)
    table = _shape_circuit_table(d, n)
    total = table.shape[0]
    if selection is not None:
        table = table[selection]
    functionals = table[:, : d * n] @ arc_coeffs
    live = np.any(functionals, axis=1)
    return CircuitHyperplanes(
        hyperplanes=dedup_hyperplanes(functionals[live], basis.dim),
        arc_coeffs=arc_coeffs,
        table=table[live],
        extended_dim=basis.dim,
        circuits_enumerated=total,
        degenerate_circuits=int(live.size - live.sum()),
        circuits_pruned=total - live.size,
    )


def _slice_geometry(r: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine chart of the unit-trace slice: z = origin + basis @ t, with
    origin (q,) and basis (q, q - d) of orthonormal columns.

    Every block has the same chart around its diagonal point 1/r: a unit
    column per off-diagonal coordinate of `MonomialBasis`, then the Helmert
    columns, an orthonormal basis of the sum-zero diagonal coordinates.
    """
    off = MonomialBasis(r, 1).off_diagonal
    m = np.arange(1, r)
    helmert = np.triu(np.ones((r, r - 1)))
    helmert[m, m - 1] = -m
    block = np.zeros((off.size, off.size - 1))
    block[off, np.arange(off.sum())] = 1.0
    block[~off, off.sum():] = helmert / np.sqrt(m * (m + 1.0))
    return np.tile(np.where(off, 0.0, 1.0 / r), d), np.kron(np.eye(d), block)


_TANGENT_FAN = 12  # tangent halfspaces per coordinate pair in the clip region
_PUSH_HALVINGS = 30  # halvings of a push across a facet before the walk fails


def _slice_region_rows(r: int, d: int) -> np.ndarray:
    """Chart halfspaces a.t + b >= 0, as (a, b) rows with unit a, that every
    lifted point satisfies.

    For a unit vector y the block (y_k * y_kp) is unit-trace positive
    semidefinite, so (v . y)^2 >= 0, the functional
    `MonomialBasis.row_block_coefficients` of v, holds for every direction v,
    and so does |y_k * y_kp| <= 1/2.  A fan of such tangents per coordinate
    pair and the +- bounds of each off-diagonal coordinate, in that order,
    clip each block's chart to a thin sleeve around the realizable points.
    Fan rows parallel to an earlier one are dropped.
    """
    lift = MonomialBasis(r, 1)
    k, kp = np.triu_indices(r, 1)
    theta = np.pi * np.arange(_TANGENT_FAN) / _TANGENT_FAN
    directions = np.zeros((k.size, _TANGENT_FAN, r))
    directions[np.arange(k.size), :, k] = np.cos(theta)
    directions[np.arange(k.size), :, kp] = np.sin(theta)
    fan = lift.row_block_coefficients(directions.reshape(-1, r))
    units = np.eye(lift.block)[lift.off_diagonal]
    bounds = np.stack([units, -units], axis=1).reshape(-1, lift.block)
    origin, basis = _slice_geometry(r, 1)
    rows = np.vstack([fan, bounds]) @ np.column_stack([basis, origin])
    rows[len(fan):, -1] += 0.5
    # Distinct fan tangents are far apart; repeated ones differ by rounding.
    unit = rows[: len(fan)] / np.linalg.norm(rows[: len(fan)], axis=1, keepdims=True)
    keep = np.ones(len(rows), dtype=bool)
    keep[: len(fan)] = ~np.triu(unit @ unit.T > 1.0 - 1e-9, 1).any(axis=0)
    rows = rows[keep] / np.linalg.norm(rows[keep, :-1], axis=1, keepdims=True)
    return np.column_stack([np.kron(np.eye(d), rows[:, :-1]), np.tile(rows[:, -1], d)])


def _walk_families(instance: SpcaDsInstance, planes: CircuitHyperplanes,
                   stage_ms: dict) -> tuple[set, dict]:
    """Families whose optimality cones meet the sleeve, walked facet by facet.

    In chart coordinates t each residual circuit of a flow gains a.t + b; the
    flow's cone, where no gain is positive, belongs to the normal fan of the
    projected transportation polytope, so the cones cover the chart and a
    point inside a cone's facet lies in exactly one other cone.  Breadth
    first from the flow optimal at the chart origin, one LP per distinct gain
    (unit a-part) maximizes the margin mu <= 1 of a facet point t0 over the
    sleeve rows of `_slice_region_rows` and the other gains; past `MIN_MARGIN`
    the assignment at t0 + mu / 2 along the gain's normal is the neighbour
    once it is optimal at t0 within 1e-9 of the largest |arc profit|, else
    the push is halved.  After `_PUSH_HALVINGS`, or a failed LP, the walk
    raises `CertificateFailed`.  The sleeve is convex, so every cone meeting
    it is reached, and with them a family optimal at every realizable point
    (reverse search, Avis and Fukuda 1996).  ``planes`` must hold every
    circuit of the shape: the sleeve holds points that no unit vectors
    realize, where arc profits can be negative, an optimal flow need not be
    a maximum flow, and the circuits that `_separating_circuits` leaves out
    can bound a cone.  Adds the assignments' time to
    ``stage_ms["circulations"]``.  Imports `scipy.optimize.linprog` on entry.
    """
    from scipy.optimize import linprog

    d, n, s, r = instance.d, instance.n, instance.s, instance.rank
    origin, basis = _slice_geometry(r, d)
    m = basis.shape[1]
    affine = planes.arc_coeffs @ np.column_stack([basis, origin])
    affine = affine.reshape(d, n, m + 1)  # arc profits at t: affine @ (t, 1)
    sleeve = _slice_region_rows(r, d)
    counts = dict(circulation_solves=0, facet_lps=0)

    def flow_at(t0, direction, step):
        """The family and residual circuits of the flow optimal at
        t0 + step * direction and, within 1e-9, at t0."""
        at_t0 = affine @ np.append(t0, 1.0)
        slack = 1e-9 * np.abs(at_t0).max()
        for _ in range(_PUSH_HALVINGS):
            tick = time.perf_counter()
            circ = CirculationInstance(d, n, s, affine @ np.append(t0 + step * direction, 1.0))
            flow = solve_max_profit(circ)
            stage_ms["circulations"] += (time.perf_counter() - tick) * 1000.0
            counts["circulation_solves"] += 1
            circuits = residual_circuits(circ, flow, planes.table)
            if np.all(circuits @ at_t0.ravel() <= slack):
                return supports_from_circulation(circ, flow), circuits
            step /= 2.0
        raise CertificateFailed(f"no flow optimal on both sides of the chart point {t0}")

    # The origin's profits tie across components; a generic push settles them.
    generic = np.sin(np.arange(1.0, m + 1.0))
    queue = deque([flow_at(np.zeros(m), generic, sleeve[:, m].min() / 2.0)])
    # One family per flow, so per cone, with the gains of the facets crossed into it.
    found = {queue[0][0]: []}
    while queue:
        family, circuits = queue.popleft()
        gains = circuits @ affine.reshape(d * n, m + 1)
        # Gains constant on the chart (duplicate features) cut nothing.
        gains = gains[np.linalg.norm(gains[:, :m], axis=1) > 1e-12 * np.abs(gains[:, m])]
        gains = dedup_hyperplanes(gains, m + 1, tol=1e-12)
        gains /= np.linalg.norm(gains[:, :m], axis=1, keepdims=True)
        # Rows -sleeve . (t, 1) + mu <= 0 and gain . (t, 1) + mu <= 0 in (t, mu).
        a_ub = np.vstack([-sleeve, gains])
        b_ub = -a_ub[:, m]
        a_ub[:, m] = 1.0
        # A facet lies in exactly two cones, so one crossing finds both.
        crossed = found[family]
        for c, gain in enumerate(gains):
            if any(np.abs(back - gain).max() <= 1e-9 for back in crossed):
                continue
            others = np.arange(len(a_ub)) != len(sleeve) + c
            res = linprog(-np.eye(m + 1)[m], A_ub=a_ub[others], b_ub=b_ub[others],
                          A_eq=np.append(gain[:m], 0.0)[None, :], b_eq=[-gain[m]],
                          bounds=[(None, None)] * m + [(None, 1.0)], method="highs")
            counts["facet_lps"] += 1
            if res.status != 0:
                raise CertificateFailed(f"facet LP failed: {res.message}")
            if res.x[m] <= MIN_MARGIN:
                continue
            neighbour = flow_at(res.x[:m], gain[:m], res.x[m] / 2.0)
            if neighbour[0] not in found:
                found[neighbour[0]] = []
                queue.append(neighbour)
            found[neighbour[0]].append(-gain)
    return set(found), dict(counts, cells_enumerated=len(found))


def _mod_pi(x):
    """``np.mod(x, pi)`` for x in [-pi, 2 pi), bit for bit and NaN kept.

    One shift by pi gives np.mod's result on that range without its
    floating-point remainder, which is slow on NaN entries.
    """
    return np.where(x < 0.0, x + np.pi, np.where(x >= np.pi, x - np.pi, x))


def _circle_solutions(a, b, m):
    """Both solutions of a*cos(2phi) + b*sin(2phi) = m on [0, pi), entrywise.

    Arguments broadcast together; returns two arrays of their shape, NaN
    where the equation has no solution.
    """
    radius = np.hypot(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(radius > 0.0, m / np.where(radius > 0.0, radius, 1.0), 2.0)
    delta = np.where(np.abs(ratio) <= 1.0, np.arccos(np.clip(ratio, -1.0, 1.0)), np.nan)
    psi = np.arctan2(b, a)
    return _mod_pi((psi + delta) / 2.0), _mod_pi((psi - delta) / 2.0)


def _arc_stops(points):
    """Where the arc after each point ends, for rows of points on [0, pi).

    Rows hold sorted points in [0, pi), repeats allowed, NaN for missing
    ones last.  The arc after a point ends at the next one, and the arc
    after the last wraps around to the first plus pi; NaN past the last.
    """
    stops = np.full_like(points, np.nan)
    stops[:, :-1] = points[:, 1:]
    last = np.count_nonzero(~np.isnan(points), axis=1) - 1
    stops[np.arange(points.shape[0]), last] = points[:, 0] + np.pi
    return stops


def _sinusoid_coefficients(normals, d):
    """Per-block frequency-2 representation of functionals on the torus.

    For rank-two blocks and unit y_i = (cos phi_i, sin phi_i), the block
    coordinates are cos^2, cos*sin, sin^2 of phi_i, so a linear functional
    restricted to the torus is sum_i A[i] cos(2 phi_i) + B[i] sin(2 phi_i)
    plus a constant.  Returns (A, B, C) with shapes (p, d), (p, d), (p,).
    """
    normals = np.asarray(normals)
    c11 = normals[:, 0::3]
    c12 = normals[:, 1::3]
    c22 = normals[:, 2::3]
    a = (c11 - c22) / 2.0
    b = c12 / 2.0
    c = ((c11 + c22) / 2.0).sum(axis=1)
    return a, b, c


def _block_swap(normals):
    """The curve that each curve becomes when the two components swap.

    Its unit normal with the two 3-coordinate blocks exchanged is parallel
    or antiparallel to that curve's.  A normal with no partner, or partners
    that do not pair off, raises `CertificateFailed`: the half sweep would
    then miss the regions of the other half.
    """
    units = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    cosines = np.abs(np.hstack([units[:, 3:], units[:, :3]]) @ units.T)
    mirror = np.argmax(cosines, axis=1)
    rows = np.arange(len(units))
    if np.any(cosines[rows, mirror] < 1.0 - 1e-9) or np.any(mirror[mirror] != rows):
        raise CertificateFailed("the torus curves are not closed under swapping the components")
    return mirror


def _pair_crossings(a, b, c, radius_2, mirror=None):
    """Points (phi1, phi2) at which two curves cross, for every pair of curves.

    The second angle is eliminated.  Proportional second-angle parts leave
    a first-angle circle equation, whose points get no second angle (NaN).
    Otherwise (cos 2phi2, sin 2phi2) = u + v cos 2phi1 + w sin 2phi1 and
    the unit-circle condition is a quartic in tan(phi1), solved for all
    pairs by one batch of companion-matrix eigenvalues; the affine map gives
    each root's second angle.  phi1 = pi/2, where tan(phi1) is infinite, is
    returned once with NaN.  ``mirror`` (from `_block_swap`) maps each curve
    to its swap: the crossings of the pair's swap are its points mirrored to
    (phi2, phi1), so of two quartic pairs that swap into each other only the
    first is solved.  Returns the two angle arrays.
    """
    p = a.shape[0]
    i, j = np.triu_indices(p, 1)
    mats = np.stack([np.stack([a[i, 1], b[i, 1]], axis=1),
                     np.stack([a[j, 1], b[j, 1]], axis=1)], axis=1)  # (pairs, 2, 2)
    det = np.linalg.det(mats)
    scale = np.abs(mats).max(axis=(1, 2))
    proportional = (scale > 0.0) & (np.abs(det) <= 1e-12 * scale * scale)
    general = (scale > 0.0) & ~proportional  # scale 0: both curves vertical
    # Proportional parts: subtract the larger one's multiple from the other.
    swap = radius_2[i] < radius_2[j]
    hi = np.where(swap, j, i)[proportional]
    lo = np.where(swap, i, j)[proportional]
    kappa = (a[lo, 1] * a[hi, 1] + b[lo, 1] * b[hi, 1]) / (radius_2[hi] ** 2)
    da, db, dc = a[lo, 0] - kappa * a[hi, 0], b[lo, 0] - kappa * b[hi, 0], c[lo] - kappa * c[hi]
    # Curves differing by a one-signed term meet only where it touches zero,
    # and keep their order on both sides.
    reach = np.hypot(da, db) + np.abs(dc)
    meet = reach - 2.0 * np.abs(dc) > _MIN_RELATIVE_MARGIN * reach
    phi1 = list(_circle_solutions(da[meet], db[meet], -dc[meet]))
    phi2 = [np.full(x.size, np.nan) for x in phi1]
    if not general.any():
        return np.concatenate(phi1), np.concatenate(phi2)
    i, j = i[general], j[general]
    inv = np.linalg.inv(mats[general])

    def solve(x_i, x_j):
        return np.stack([inv[:, 0, 0] * x_i + inv[:, 0, 1] * x_j,
                         inv[:, 1, 0] * x_i + inv[:, 1, 1] * x_j], axis=1)

    # (cos 2phi2, sin 2phi2) = u + v cos 2phi1 + w sin 2phi1
    u = solve(-c[i], -c[j])
    v = solve(-a[i, 0], -a[j, 0])
    w = solve(-b[i, 0], -b[j, 0])
    k_uu = np.sum(u * u, axis=1) - 1.0
    k_vv = np.sum(v * v, axis=1)
    k_ww = np.sum(w * w, axis=1)
    k_uv = 2.0 * np.sum(u * v, axis=1)
    k_uw = 2.0 * np.sum(u * w, axis=1)
    k_vw = 2.0 * np.sum(v * w, axis=1)
    # |u + v cs + w sn|^2 - 1 = 0 with cs = (1-t^2)/(1+t^2), sn = 2t/(1+t^2),
    # multiplied by (1+t^2)^2 and expanded in powers of t = tan(phi1).
    poly = np.stack([
        k_uu - k_uv + k_vv,
        2.0 * k_uw - 2.0 * k_vw,
        2.0 * k_uu - 2.0 * k_vv + 4.0 * k_ww,
        2.0 * k_uw + 2.0 * k_vw,
        k_uu + k_uv + k_vv,
    ], axis=1)
    quartic = poly[:, 0] != 0.0
    solved = quartic.copy()
    if mirror is not None:
        slot = np.full((p, p), -1)
        slot[i, j] = slot[j, i] = np.arange(i.size)
        twin = slot[mirror[i], mirror[j]]  # the swapped pair, -1 if not general
        solved &= ~((twin >= 0) & (twin < np.arange(i.size)) & quartic[twin])
    companion = np.zeros((int(solved.sum()), 4, 4))
    companion[:, 0, :] = -poly[solved, 1:] / poly[solved, :1]
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    roots = [np.linalg.eigvals(companion).ravel()]
    owners = [np.repeat(np.flatnonzero(solved), 4)]
    # The other rows as np.roots solves them, one batch per actual degree:
    # leading zeros lower the degree and trailing zeros are roots at 0.
    low_rows = np.flatnonzero(~quartic & np.any(poly != 0.0, axis=1))
    low = poly[low_rows]
    nonzero = low != 0.0
    lead = np.argmax(nonzero, axis=1)
    trail = np.argmax(nonzero[:, ::-1], axis=1)
    roots.append(np.zeros(np.count_nonzero(trail)))
    owners.append(low_rows[trail > 0])
    degree = 4 - lead - trail
    for deg in np.unique(degree[degree > 0]):
        rows = degree == deg
        coeffs = np.take_along_axis(low[rows], lead[rows, None] + np.arange(deg + 1), axis=1)
        companion = np.zeros((coeffs.shape[0], deg, deg))
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        roots.append(np.linalg.eigvals(companion).ravel())
        owners.append(np.repeat(low_rows[rows], deg))
    roots, owners = np.concatenate(roots), np.concatenate(owners)
    real = np.abs(roots.imag) < 1e-9
    half = np.arctan(roots[real].real)
    owners = owners[real]
    second = (u[owners] + v[owners] * np.cos(2.0 * half)[:, None]
              + w[owners] * np.sin(2.0 * half)[:, None])
    # tan(phi1) -> infinity corresponds to phi1 = pi/2.
    phi1 += [np.mod(half, np.pi), np.array([np.pi / 2.0])]
    phi2 += [_mod_pi(np.arctan2(second[:, 1], second[:, 0]) / 2.0), np.array([np.nan])]
    return np.concatenate(phi1), np.concatenate(phi2)


_MIN_RELATIVE_MARGIN = 1e-12  # torus witnesses closer to a curve are dropped
_SWEEP_ARCS = 1 << 13  # arcs read per block of sweep lines
_TOUCH_SNAP = 1e-7  # pair crossings this near a touch line are that line
_HALF_SLACK = 1e-6  # events this near the edge of the swept half count as in it


def _in_half(phi1, phi2):
    """Whether torus points lie in the swept half phi1 <= phi2, up to
    `_HALF_SLACK` at the diagonal and at the wraps phi2 -> pi == 0 and
    phi1 -> pi == 0.  NaN angles are outside unless the other one wraps."""
    return (phi1 <= phi2 + _HALF_SLACK) | (phi2 <= _HALF_SLACK) | (phi1 >= np.pi - _HALF_SLACK)


def _torus_signs(const, phi2, a2, b2, reach):
    """Interior flags and packed sign rows of the curves at torus points.

    Row k of ``const`` holds every curve's first-angle part plus constant at
    point k, whose second angle is ``phi2[k]``.
    """
    values = const + np.cos(2.0 * phi2)[:, None] * a2 + np.sin(2.0 * phi2)[:, None] * b2
    interior = np.min(np.abs(values) / reach, axis=1) > _MIN_RELATIVE_MARGIN
    return interior, np.packbits(values > 0.0, axis=1)


def _key_words(packed, words):
    """`np.packbits` rows as ``words`` 64-bit words each, for bitwise keys."""
    padded = np.zeros((packed.shape[0], 8 * words), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view(np.uint64)


def _torus_sweep(normals):
    """Witnesses of the sign regions of the torus arrangement (d = 2) that
    meet the half phi1 <= phi2.

    The curves {functional = 0} on the torus of block angles are separable
    sinusoids, so slabs over the first angle enumerate every region, bounded
    where curve pairs cross or a curve has a vertical tangent.  One line per
    slab is cut at every curve's roots and at the diagonal phi2 = phi1, and
    only the arcs starting on or above the diagonal are read.  ``normals``
    must be closed under swapping the two blocks, up to sign, as the
    circuit normals are (`_block_swap` raises otherwise): then
    the arrangement is symmetric under (phi1, phi2) -> (phi2, phi1), and the
    mirrors (phi2, phi1) of the witnesses reach the regions of the other
    half.  No region crosses the diagonal: the circuit through the hub, both
    components and feature j gains (R_j . y_1)^2 - (R_j . y_2)^2, zero
    there.  So only events in the swept half (`_in_half`) bound slabs: the
    crossings and vertical tangents there, and the first angles of the
    mirrors of crossings in the other half, which are crossings too; of two
    curve pairs that swap into each other one quartic is solved
    (`_pair_crossings`).  Lines of a slab see the same regions in the half,
    and a region that crosses the wrap phi2 -> pi == 0 is also read, through
    its mirror, beside phi1 = 0, itself an event: a torus with no other has
    one line.  Curves flat in the second angle and crossings with no second
    angle cut every slab.  A hub curve's triple crossings on the diagonal,
    scattered by the eigensolver, are also vertical tangents.  Along a line a
    curve changes sign only at its roots, so every arc's key comes from one
    evaluated row per line by toggling curve bits in root order (the
    incremental sign sweep of Karystinos, and of Asteris, Papailiopoulos and
    Karystinos); curves are evaluated only at each key's widest arc, blocks
    of lines at a time.  Curves that never change sign by more than the
    margin toggle nothing but still cut the lines; lines within the margin
    of a curve flat in the second angle are skipped.  A witness is kept only
    when every curve value exceeds `_MIN_RELATIVE_MARGIN` times a bound on
    the curve over the torus: a point on a curve would be filed under a
    spurious sign vector.  At an arc's midpoint a curve with a root at the
    arc's end is within radius_2 * width of zero, so arcs no wider than that
    margin are not keyed.  Returns the first witness of each sign vector as
    (phi1, phi2) rows, the number of sweep lines and the number of keys none
    of whose evaluated arcs cleared the margin.
    """
    a, b, c = _sinusoid_coefficients(normals, 2)
    p = a.shape[0]
    reach = np.hypot(a, b).sum(axis=1) + np.abs(c)
    radius_2 = np.hypot(a[:, 1], b[:, 1])
    # A curve whose minority side never clears the margin, such as a single
    # arc's (R_j . y_i)^2 >= 0, has one sign at every witness: it toggles no
    # key, and its crossings move no slab boundary that matters.
    flips = reach - 2.0 * np.abs(c) > _MIN_RELATIVE_MARGIN * reach

    flat = radius_2 == 0.0
    touching = flat & ~flips
    criticals = [np.zeros(1)]  # the wrap edge phi1 = 0 of the swept half
    # Vertical tangents: the second-angle part sits at its maximum, at
    # 2 phi2 = atan2(b2, a2), or at its minimum, at that plus pi.  A
    # one-signed curve flat in the second angle has one, where it touches
    # zero, solved at a ratio of exactly -1 or 1: the double root neither
    # splits nor rounds to no root.  Curves flat in the second angle are
    # whole lines and cut every slab.
    level = np.where(touching, -np.sign(c) * np.hypot(a[:, 0], b[:, 0]), -c)
    peak = _mod_pi(np.arctan2(b[:, 1], a[:, 1]) / 2.0)
    tangents = [_circle_solutions(a[:, 0], b[:, 0], level - radius_2),
                _circle_solutions(a[:, 0], b[:, 0], level + radius_2)]
    for quarter, roots in enumerate(tangents):
        at = _mod_pi(peak + quarter * np.pi / 2.0)
        criticals += [x[flat | _in_half(x, at)] for x in roots]
    touch_lines = tangents[1][1][touching]
    # Crossings in the half phi1 <= phi2 bound slabs, and so do the mirrors
    # of those in the other half: they are crossings of the swapped curves.
    mirror = _block_swap(normals[flips]) if np.count_nonzero(flips) > 1 else None
    cross1, cross2 = _pair_crossings(a[flips], b[flips], c[flips], radius_2[flips], mirror)
    unknown = np.isnan(cross2)  # proportional pairs: their first angles all cut
    crossings = np.concatenate([cross1[unknown | _in_half(cross1, cross2)],
                                cross2[_in_half(cross2, cross1)]])
    # Curve pairs that meet on a touch line have a double root there, which
    # the eigensolver scatters by about 1e-8: the line stands for them all.
    gap = np.abs(crossings[:, None] - touch_lines)
    criticals.append(crossings[np.all(np.minimum(gap, np.pi - gap) >= _TOUCH_SNAP, axis=1)])
    merged = np.concatenate(criticals)
    merged = np.unique(np.round(merged[~np.isnan(merged)], 9))
    starts = np.sort(_mod_pi(merged))
    stops = _arc_stops(starts[None, :])[0]
    lines = _mod_pi((starts + stops)[stops > starts] / 2.0)
    # A curve flat in the second angle is as close to zero on all of a line,
    # so lines within the margin of one hold no witness.
    flat_values = (np.cos(2.0 * lines)[:, None] * a[flat, 0]
                   + np.sin(2.0 * lines)[:, None] * b[flat, 0] + c[flat])
    lines = lines[np.all(np.abs(flat_values) / reach[flat] > _MIN_RELATIVE_MARGIN, axis=1)]

    # Cut columns: the diagonal phi2 = phi1, then each curve's two roots.  A
    # root toggles its curve's bit of the key, packed into 64-bit words; the
    # diagonal and the touch points of one-signed curves toggle nothing.
    words = -(-p // 64)
    fixed = 1
    toggles = np.zeros((fixed + 2 * p, words), dtype=np.uint64)
    toggles[fixed + np.flatnonzero(np.tile(flips, 2))] = np.tile(
        _key_words(np.packbits(np.eye(p, dtype=bool)[flips], axis=1), words), (2, 1)
    )
    step = max(1, _SWEEP_ARCS // toggles.shape[0])
    keys, points, tried, cleared = [], [], [], []
    for start in range(0, lines.size, step):
        phi1 = lines[start:start + step]
        const = np.cos(2.0 * phi1)[:, None] * a[:, 0] + np.sin(2.0 * phi1)[:, None] * b[:, 0] + c
        # A one-signed curve is cut where it comes closest to zero, so a
        # touch point stays a cut however its double root rounds.
        plus, minus = _circle_solutions(
            a[:, 1], b[:, 1], np.where(flips, -const, np.clip(-const, -radius_2, radius_2))
        )
        cuts = np.hstack([phi1[:, None], plus, minus])
        cuts = _mod_pi(cuts)  # a root rounded up to pi is the cut at 0
        order = np.argsort(cuts, axis=1)  # NaN (no root) sorts last
        starts = np.take_along_axis(cuts, order, axis=1)
        stops = _arc_stops(starts)
        widths = np.nan_to_num(stops - starts)  # 0: no arc, or an empty one

        def mids(line, slot):
            return _mod_pi((starts[line, slot] + stops[line, slot]) / 2.0)

        # Along a line a curve changes sign only at its roots, so the key of
        # the arc after each cut is the key of the line's widest arc, read
        # once, with every curve whose root lies between the two toggled.
        prefix = np.bitwise_xor.accumulate(toggles[order], axis=1)
        rows = np.arange(phi1.size)
        widest = np.argmax(widths, axis=1)
        _, reference = _torus_signs(const, mids(rows, widest), a[:, 1], b[:, 1], reach)
        line, slot = np.nonzero((widths > _MIN_RELATIVE_MARGIN) & (starts >= phi1[:, None]))
        arc_keys = prefix[line, slot] ^ (_key_words(reference, words) ^ prefix[rows, widest])[line]
        # Evaluate each key at its widest arc.  A key whose witness is not
        # clear of every curve, or reads other signs, has all its arcs
        # evaluated; the evaluated signs are the ones kept.
        by_key = np.argsort(-widths[line, slot])
        by_key = by_key[np.lexsort(arc_keys[by_key].T)]  # stable: widest first
        sorted_keys = arc_keys[by_key]
        leads = np.ones(by_key.size, dtype=bool)  # first arc of each key
        leads[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
        first = by_key[leads]
        interior, found = _torus_signs(const[line[first]], mids(line[first], slot[first]),
                                       a[:, 1], b[:, 1], reach)
        settled = interior & np.all(_key_words(found, words) == arc_keys[first], axis=1)
        group = np.cumsum(leads) - 1
        unsettled = ~settled[group]
        redo = by_key[unsettled]
        redo_interior, redo_found = _torus_signs(const[line[redo]], mids(line[redo], slot[redo]),
                                                 a[:, 1], b[:, 1], reach)
        tried.append(arc_keys[first])
        cleared.append(interior | (np.bincount(group[unsettled], redo_interior, first.size) > 0))
        chosen = np.concatenate([first[settled], redo[redo_interior]])
        in_order = np.argsort(chosen)
        chosen = chosen[in_order]
        keys.append(np.vstack([found[settled], redo_found[redo_interior]])[in_order])
        points.append(np.column_stack([phi1[line[chosen]], mids(line[chosen], slot[chosen])]))
    keys, points = np.vstack(keys), np.vstack(points)
    tried, cleared = np.vstack(tried).view(np.uint8), np.concatenate(cleared)
    dropped = len(distinct_sign_rows(tried)) - len(distinct_sign_rows(tried[cleared]))
    return points[np.sort(distinct_sign_rows(keys))], lines.size, dropped


def _complete_family(family, factor: PsdFactor, s: int):
    """Give every empty support one feature without lowering the objective.

    Prefers the unused feature with the largest row norm; when every feature
    is taken, steals the largest-norm feature from a support that can spare
    one.  Splitting a support this way never decreases the sum of the
    per-component maxima.
    """
    n = factor.n
    row_norms = np.sum(factor.factor * factor.factor, axis=1) if factor.rank else np.zeros(n)
    sets = [list(t) for t in family]
    pool = sorted(set(range(n)).difference(*sets))
    completions = 0
    for i, t in enumerate(sets):
        if t:
            continue
        completions += 1
        if pool:
            j = max(pool, key=lambda idx: (row_norms[idx], -idx))
            pool.remove(j)
        else:
            donors = [k for k, other in enumerate(sets) if len(other) > 1]
            donor = max(
                donors,
                key=lambda k: (max(row_norms[idx] for idx in sets[k]), -k),
            )
            j = max(sets[donor], key=lambda idx: (row_norms[idx], -idx))
            sets[donor].remove(j)
        sets[i] = [j]
    return tuple(tuple(sorted(t)) for t in sets), completions


@dataclass(frozen=True)
class SpcaDsDiagnostics:
    rank: int
    extended_dim: int
    cells_enumerated: int
    candidates_evaluated: int
    stage_ms: dict
    hyperplanes: int = 0
    circuits_enumerated: int = 0
    circuits_pruned: int = 0  # torus circuits that cannot bound an optimal family
    degenerate_circuits: int = 0
    sweep_lines: int = 0  # slab lines of the rank-2, d = 2 torus sweep
    dropped_witnesses: int = 0  # torus sign keys with no arc clear of the margin
    circulation_solves: int = 0
    facet_lps: int = 0  # margin LPs of the chart walk, one per facet tried
    completions_in_best: int = 0


@dataclass(frozen=True)
class SpcaDsSolution:
    """Disjoint supports (0-based), unit-norm loading columns, objective."""

    supports: tuple[tuple[int, ...], ...]
    x: np.ndarray  # (n, d); column i supported on supports[i]
    objective: float
    diagnostics: SpcaDsDiagnostics


def _family_values(families, factor: PsdFactor) -> np.ndarray:
    """Each family's objective, from one batched LAPACK call on the r x r
    Grams of its supports."""
    supports = [support for family in families for support in family]
    members = np.zeros((len(supports), factor.n))
    for row, support in enumerate(supports):
        members[row, list(support)] = 1.0
    r = factor.rank
    outer = (factor.factor[:, :, None] * factor.factor[:, None, :]).reshape(factor.n, r * r)
    values = top_eigenvalue_sums((members @ outer).reshape(len(supports), r, r), 1)
    return values.reshape(len(families), -1).sum(axis=1)


def _solve_one_component(instance: SpcaDsInstance) -> SpcaDsSolution:
    """d = 1 is sparse PCA with support size min(s, n): a single component's
    value only grows with its support."""
    solution = solve_spca(
        SpcaInstance(instance.kmatrix, 1, min(instance.s, instance.n), instance.factor)
    )
    diag = solution.diagnostics
    diagnostics = SpcaDsDiagnostics(
        rank=instance.rank, extended_dim=diag.extended_dim,
        cells_enumerated=diag.cells_enumerated, candidates_evaluated=diag.candidates_evaluated,
        stage_ms=diag.stage_ms, hyperplanes=diag.hyperplanes,
    )
    return SpcaDsSolution(
        supports=(solution.support,), x=solution.x, objective=solution.objective,
        diagnostics=diagnostics,
    )


def _region_profits(instance: SpcaDsInstance,
                    planes: CircuitHyperplanes) -> tuple[np.ndarray, dict]:
    """Arc profits (m, d, n) at one witness per region of the rank-2, d = 2
    torus meeting phi1 <= phi2, and the counts of the sweep for the
    diagnostics.  A region of the other half is the mirror of one of these,
    and its family is the mirrored family."""
    normals = planes.hyperplanes
    angles, lines, dropped = _torus_sweep(normals) if normals.size else (np.zeros((1, 2)), 0, 0)
    y = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # (m, 2, d)
    return np.swapaxes((instance.factor.factor @ y) ** 2, 1, 2), dict(
        sweep_lines=lines, dropped_witnesses=dropped)


def _families_by_covering(profits: np.ndarray, s: int,
                          table: np.ndarray | None) -> tuple[set, int]:
    """Support families optimal at the regions' profit rows (m, d, n).

    Solves the assignment at the first region not yet covered and covers
    every region where that flow is optimal (`optimal_at_profits` on
    ``table``; one region needs none): about one solve per family.
    """
    _, d, n = profits.shape
    families = set()
    solves = 0
    uncovered = np.ones(profits.shape[0], dtype=bool)
    while uncovered.any():
        remaining = np.flatnonzero(uncovered)
        first, rest = remaining[0], remaining[1:]
        circ = CirculationInstance(d, n, s, profits[first])
        flow = solve_max_profit(circ)
        solves += 1
        families.add(supports_from_circulation(circ, flow))
        uncovered[first] = False
        if rest.size:
            uncovered[rest[optimal_at_profits(circ, flow, profits[rest], table)]] = False
    return families, solves


def _top_set_families(instance: SpcaDsInstance) -> tuple[set, dict]:
    """Every family (S_1, complement) with S_1 a top-k set of the difference
    functionals, k in [max(1, n - s), min(s, n - 1)], and the counts of the
    read: two components with n <= 2s.

    There every feature fits, and adding one never lowers a support's value,
    so some optimal family assigns them all, both supports nonempty.  At its
    optimal y_1, y_2 it scores the sum of (R_j . y_2)^2 plus the sum over
    S_1 of delta_j = <R_j R_j^T, y_1 y_1^T - y_2 y_2^T>, and swapping a
    feature of S_2 with a smaller delta in S_1 would gain: S_1 is a top-k set
    of delta.  delta is linear in the trace-free part of the lifted point, so
    the `Lift` of the trace-free parts of the row functionals reads every
    such set, each size at its own top sets, and a size with no more
    supports than the lift's vertices (`spca.reads_braid`, at the generic
    dimension of that part) takes every support instead.
    """
    n, s, r = instance.n, instance.s, instance.rank
    rows = instance.factor.factor
    basis = MonomialBasis(r, 1)
    coeffs = basis.row_block_coefficients(rows)
    diagonal = ~basis.off_diagonal
    coeffs[:, diagonal] -= coeffs[:, diagonal].mean(axis=1, keepdims=True)
    sizes = range(max(1, n - s), min(s, n - 1) + 1)
    braid = {size for size in sizes if reads_braid(n, size, min(n - 1, r * (r + 1) // 2 - 1))}
    lift = None if len(braid) == len(sizes) else Lift.build(coeffs, np.sum(rows * rows, axis=1))
    families = set()
    for size in sizes:
        for masks in braid_masks(n, size) if size in braid else lift.top_sets(size):
            first = np.nonzero(masks)[1].reshape(-1, size).tolist()
            second = np.nonzero(~masks)[1].reshape(-1, n - size).tolist()
            families.update(zip(map(tuple, first), map(tuple, second)))
    duplicates = shared_functionals(coeffs)[1] if lift is None else lift.duplicates
    return families, dict(
        cells_enumerated=sum(comb(n, size) if size in braid else lift.points for size in sizes),
        extended_dim=n - 1 if lift is None else lift.dim,
        hyperplanes=comb(n, 2) - len(duplicates))


def solve_spca_ds(instance: SpcaDsInstance) -> SpcaDsSolution:
    """Globally optimal disjoint-supports solution for the given instance.

    One component (d = 1) is solved as sparse PCA.  At rank <= 1 the
    unit-trace slice is a single point, and at s = 1 a support {j} is worth
    K_jj everywhere on it: one region, no circuit, and the first component
    takes the largest squared row norm.  Two components with n <= 2s read
    the first support as a top set of the difference functionals
    (`_top_set_families`): every subset of each size where `spca.reads_braid`
    picks the braid, else the vertices of the lift.  No circuit and no
    circulation, and the diagnostics count the vertices and braid supports
    read in ``cells_enumerated``, the dimension of the trace-free span in
    ``extended_dim`` (n - 1 when every size reads the braid) and the
    distinct functional pairs in ``hyperplanes``.  Rank two with two
    components, s >= 2 and n > 2s cuts its regions in closed form on the half
    phi1 <= phi2 of the torus and solves one circulation per family,
    covering the regions where none of its residual circuits gains; the
    other half's families are the mirrored ones.  Its arc profits are
    squares, so it cuts and covers with only the circuits that can bound an
    optimal family (`_separating_circuits`; the diagnostics count the rest
    in ``circuits_pruned``).  Every other shape walks the families'
    optimality cones across the chart (`_walk_families`): its work grows
    with the families and their residual circuits, not with the regions.
    """
    if instance.d == 1:
        return _solve_one_component(instance)
    n, d, s, r = instance.n, instance.d, instance.s, instance.rank
    factor = instance.factor
    stage_ms: dict = {}

    one_region = r <= 1 or s == 1
    top_sets = not one_region and d == 2 and n <= 2 * s
    torus = not (one_region or top_sets) and (r, d) == (2, 2)
    tick = time.perf_counter()
    counts = dict(extended_dim=d * r * (r + 1) // 2)
    if not (one_region or top_sets):
        # Realizable profits are >= 0, so the torus cuts only the circuits
        # that can bound an optimal family; the walk's sleeve is not realizable.
        planes = build_circuit_hyperplanes(
            instance, _separating_circuits(d, n) if torus else None)
        stage_ms["hyperplanes"] = (time.perf_counter() - tick) * 1000.0
        tick = time.perf_counter()
        counts.update(circuits_enumerated=planes.circuits_enumerated,
                      circuits_pruned=planes.circuits_pruned,
                      degenerate_circuits=planes.degenerate_circuits,
                      hyperplanes=len(planes.hyperplanes))
    if top_sets:
        families, read = _top_set_families(instance)
        counts.update(read)
        stage_ms["regions"] = (time.perf_counter() - tick) * 1000.0
    elif one_region or torus:
        if one_region:
            # At rank <= 1 every block of the slice is the point y_i^2 = 1,
            # and at s = 1 a support {j} is worth K_jj = |R_j|^2 wherever y
            # is: one region, where each component's arc profits are the
            # squared row norms.
            profits = np.tile(np.sum(factor.factor * factor.factor, axis=1), (1, d, 1))
        else:
            profits, swept = _region_profits(instance, planes)
            counts.update(swept)
        stage_ms["regions"] = (time.perf_counter() - tick) * 1000.0
        tick = time.perf_counter()
        families, solves = _families_by_covering(profits, s, planes.table if torus else None)
        stage_ms["circulations"] = (time.perf_counter() - tick) * 1000.0
        counts.update(cells_enumerated=profits.shape[0], circulation_solves=solves)
    else:
        stage_ms["circulations"] = 0.0
        families, walked = _walk_families(instance, planes, stage_ms)
        stage_ms["regions"] = (time.perf_counter() - tick) * 1000.0 - stage_ms["circulations"]
        counts.update(walked)

    tick = time.perf_counter()
    completed = [_complete_family(family, factor, s) for family in sorted(families)]
    values = _family_values([family for family, _ in completed], factor)
    # Values within 1e-12 (relative) of the best tie, so the eigensolver's
    # last bits do not choose; ties go to the smallest flattened support list.
    top = values.max() - 1e-12 * abs(values.max())
    tied = [completed[k] for k in np.flatnonzero(values >= top)]
    if torus:
        # The torus half's mirrored families, equal in value (a sum of two
        # per-support values), were not swept.
        tied += [(family[::-1], completions) for family, completions in tied]
    best_family, completions = min(tied, key=lambda c: tuple(j for support in c[0] for j in support))
    stage_ms["evaluation"] = (time.perf_counter() - tick) * 1000.0

    tick = time.perf_counter()
    x = np.zeros((n, d))
    objective = 0.0
    for i, support in enumerate(best_family):
        rows = factor.rows(support)
        if rows.shape[1] == 0:
            # Zero-rank factor: any unit vector on the support is optimal.
            x[support[0], i] = 1.0
            continue
        value, vec = solve_pca(symmetrize(rows @ rows.T), 1)
        x[list(support), i] = vec[:, 0]
        objective += value
    stage_ms["recovery"] = (time.perf_counter() - tick) * 1000.0

    diagnostics = SpcaDsDiagnostics(
        rank=r, candidates_evaluated=len(families),
        stage_ms=stage_ms, completions_in_best=completions, **counts,
    )
    return SpcaDsSolution(
        supports=best_family, x=x, objective=float(objective), diagnostics=diagnostics
    )
