"""Exact sparse PCA with pairwise-disjoint component supports.

Pipeline: factor K = R @ R.T, build one profit functional per u->w arc of the
circulation digraph, one hyperplane per undirected circuit (its signed profit
functional), enumerate the cells of that central arrangement, and solve one
max-profit circulation per cell.  Each cell contributes one candidate family
of disjoint supports; the best family under per-component PCA evaluation is
globally optimal.

Two shapes need none of this.  One component (d = 1) is sparse PCA with
support size min(s, n) and is handed to `solve_spca`.  At rank <= 1 the
unit-trace slice of the lifted space is a single point, so one circulation
on the squared row norms is the only region.  Rank two with d = 2 cuts its
regions in closed form on the torus of block angles; every other shape cuts
the clipped chart of the slice.

Circulations may leave a component's support empty (the restricted selection
problem allows it) while feasible loading vectors need unit norm, hence a
nonempty support.  Empty supports are completed with the unused feature of
largest row norm, stealing from a multi-feature support when every feature is
taken; either move never lowers the evaluated objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arrangement import Cell, Hyperplane, dedup_hyperplanes, enumerate_affine_cells
from .circulation import (
    CirculationInstance,
    enumerate_undirected_circuits,
    solve_max_profit,
    supports_from_circulation,
)
from .errors import InvalidParameters
from .extension import MonomialBasis, build_arc_functional, build_circuit_functional
from .linalg import DEFAULT_RANK_TOL, PsdFactor, as_symmetric, pivoted_cholesky, solve_pca, symmetrize
from .spca import SpcaInstance, solve_spca


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
        kmatrix = as_symmetric(kmatrix)
        n = kmatrix.shape[0]
        if d < 1:
            raise InvalidParameters(f"need d >= 1, got d={d}")
        if s < 1:
            raise InvalidParameters(f"need s >= 1, got s={s}")
        if d > n:
            raise InvalidParameters(
                f"d nonempty disjoint supports need d <= n, got d={d}, n={n}"
            )
        return cls(kmatrix=kmatrix, d=d, s=s, factor=pivoted_cholesky(kmatrix, tol_rank))

    @property
    def n(self) -> int:
        return self.kmatrix.shape[0]

    @property
    def rank(self) -> int:
        return self.factor.rank


@dataclass(frozen=True)
class CircuitHyperplanes:
    """Arrangement input for an instance: arc functionals and circuit planes."""

    hyperplanes: tuple[Hyperplane, ...]
    arc_coeffs: np.ndarray  # (d * n, dim); row i*n+j is the (u_i, w_j) functional
    extended_dim: int
    circuits_enumerated: int
    degenerate_circuits: int


def build_circuit_hyperplanes(instance: SpcaDsInstance) -> CircuitHyperplanes:
    """One hyperplane per circuit with a nonzero profit functional.

    Functionals that cancel exactly (duplicate rows, zero rows) define no
    hyperplane and are skipped; proportional normals are deduplicated since
    they cut the same cells.
    """
    d, n, r = instance.d, instance.n, instance.rank
    if r == 0:
        return CircuitHyperplanes(
            hyperplanes=(), arc_coeffs=np.zeros((d * n, 0)), extended_dim=0,
            circuits_enumerated=0, degenerate_circuits=0,
        )
    basis = MonomialBasis(r, d)
    functionals = {}
    arc_coeffs = np.zeros((d * n, basis.dim))
    for i in range(d):
        for j in range(n):
            functional = build_arc_functional(
                basis, instance.factor.row(j), i, tag=f"arc:{i},{j}"
            )
            functionals[(i, j)] = functional
            arc_coeffs[i * n + j] = functional.coeffs
    circuits = enumerate_undirected_circuits(d, n)
    normals = []
    degenerate = 0
    for circuit in circuits:
        functional = build_circuit_functional(circuit, functionals, basis)
        if functional.is_zero:
            degenerate += 1
            continue
        normals.append(Hyperplane(normal=functional.coeffs))
    hyperplanes = tuple(dedup_hyperplanes(normals, basis.dim))
    return CircuitHyperplanes(
        hyperplanes=hyperplanes,
        arc_coeffs=arc_coeffs,
        extended_dim=basis.dim,
        circuits_enumerated=len(circuits),
        degenerate_circuits=degenerate,
    )


@dataclass(frozen=True)
class _SliceGeometry:
    """Affine chart of the unit-trace slice: z = origin + basis @ t."""

    origin: np.ndarray  # (q,)
    basis: np.ndarray  # (q, q - d), orthonormal columns

    @property
    def t_dim(self) -> int:
        return self.basis.shape[1]


def _slice_geometry(r: int, d: int) -> _SliceGeometry:
    block = r * (r + 1) // 2
    q = d * block
    pair_index = [(k, kp) for k in range(r) for kp in range(k, r)]
    diag_local = [a for a, (k, kp) in enumerate(pair_index) if k == kp]
    off_local = [a for a, (k, kp) in enumerate(pair_index) if k != kp]
    origin = np.zeros(q)
    columns = []
    for i in range(d):
        base = i * block
        for a in diag_local:
            origin[base + a] = 1.0 / r
        for a in off_local:
            col = np.zeros(q)
            col[base + a] = 1.0
            columns.append(col)
        # Helmert vectors: an orthonormal basis of the sum-zero diagonal space.
        for m in range(1, r):
            col = np.zeros(q)
            for lead in range(m):
                col[base + diag_local[lead]] = 1.0
            col[base + diag_local[m]] = -float(m)
            col /= np.sqrt(m * (m + 1.0))
            columns.append(col)
    basis = np.array(columns).T if columns else np.zeros((q, 0))
    return _SliceGeometry(origin=origin, basis=basis)


_TANGENT_FAN = 12  # tangent halfspaces per coordinate pair in the clip region


def _slice_region_rows(geometry: _SliceGeometry, r: int, d: int) -> list[np.ndarray]:
    """Chart halfspaces (a, b), a.t + b >= 0, satisfied by every lifted point.

    For a unit vector y the block matrix (y_k * y_kp) is unit-trace positive
    semidefinite, so every halfspace induced by a rank-one test direction v,
    value (v . y)^2 >= 0, is valid.  A fan of such tangents per coordinate
    pair clips the chart down to a thin sleeve around the set of realizable
    points, which keeps the cell count small.  Constraints constant on the
    slice are dropped (they hold strictly at the chart origin).
    """
    block = r * (r + 1) // 2
    pair_index = [(k, kp) for k in range(r) for kp in range(k, r)]
    q = geometry.origin.shape[0]
    directions = []
    for k in range(r):
        for kp in range(k + 1, r):
            for step in range(_TANGENT_FAN):
                theta = np.pi * step / _TANGENT_FAN
                v = np.zeros(r)
                v[k] = np.cos(theta)
                v[kp] = np.sin(theta)
                directions.append(v)
    rows = []
    for i in range(d):
        base = i * block
        seen = []
        for v in directions:
            coeff = np.zeros(q)
            for a, (k, kp) in enumerate(pair_index):
                coeff[base + a] = v[k] * v[kp] * (1.0 if k == kp else 2.0)
            t_part = geometry.basis.T @ coeff
            const = float(coeff @ geometry.origin)
            if not np.any(t_part):
                continue
            row = np.concatenate([t_part, [const]])
            unit = row / np.linalg.norm(row)
            if any(np.allclose(unit, u) for u in seen):
                continue
            seen.append(unit)
            rows.append(row)
        # |z_{k,kp}| <= 1/2 for off-diagonal products of a unit vector.
        for a, (k, kp) in enumerate(pair_index):
            if k == kp:
                continue
            coeff = np.zeros(q)
            coeff[base + a] = 1.0
            t_part = geometry.basis.T @ coeff
            const = float(coeff @ geometry.origin)
            if not np.any(t_part):
                continue
            rows.append(np.concatenate([t_part, [0.5 + const]]))
            rows.append(np.concatenate([-t_part, [0.5 - const]]))
    return rows


def _lens_box_filter(geometry: _SliceGeometry, r: int, d: int):
    """Box predicate: can a chart box contain a positive semidefinite point?

    Lifted points of real vectors satisfy z_kl^2 <= z_kk * z_ll in every
    block.  Interval arithmetic over the chart box gives a sound necessary
    condition; a box failing it (for any block and pair) cannot meet the
    realizable set, nor can any subset, so such cells are safely discarded.
    """
    block = r * (r + 1) // 2
    pair_index = [(k, kp) for k in range(r) for kp in range(k, r)]
    local = {pair: a for a, pair in enumerate(pair_index)}
    checks = []
    for i in range(d):
        base = i * block
        for k in range(r):
            for kp in range(k + 1, r):
                checks.append(
                    (base + local[(k, kp)], base + local[(k, k)], base + local[(kp, kp)])
                )
    basis = geometry.basis
    origin = geometry.origin

    def keep(lo, hi):
        pos = np.where(basis > 0.0, basis, 0.0)
        neg = np.where(basis < 0.0, basis, 0.0)
        z_lo = origin + pos @ lo + neg @ hi
        z_hi = origin + pos @ hi + neg @ lo
        for off, diag_a, diag_b in checks:
            lo_off, hi_off = z_lo[off], z_hi[off]
            sq_min = 0.0 if lo_off <= 0.0 <= hi_off else min(lo_off**2, hi_off**2)
            prod_max = max(
                z_lo[diag_a] * z_lo[diag_b], z_lo[diag_a] * z_hi[diag_b],
                z_hi[diag_a] * z_lo[diag_b], z_hi[diag_a] * z_hi[diag_b],
            )
            if sq_min > prod_max + 1e-12:
                return False
        return True

    return keep


def _enumerate_slice_cells(
    instance: SpcaDsInstance, planes: CircuitHyperplanes
) -> tuple[list[Cell], int]:
    """Cells of the circuit arrangement restricted to the realizable chart.

    Every lifted point of unit vectors keeps each block's diagonal summing to
    one, so candidates only need the cells meeting that affine slice, further
    clipped to the tangent sleeve of `_slice_region_rows` and pruned by the
    positive-semidefiniteness box test.  Witnesses come back mapped to
    lifted-space coordinates.  Also returns the number of circuit hyperplanes
    that actually cut the slice.
    """
    r, d = instance.rank, instance.d
    geometry = _slice_geometry(r, d)
    m = geometry.t_dim
    free_rows = []
    for plane in planes.hyperplanes:
        t_part = geometry.basis.T @ plane.normal
        const = float(plane.normal @ geometry.origin)
        if not np.any(t_part):
            continue  # constant sign on the slice: never splits it
        free_rows.append(np.concatenate([t_part, [const]]))
    free_rows = [h.normal for h in dedup_hyperplanes(free_rows, m + 1)] if free_rows else []
    region_rows = _slice_region_rows(geometry, r, d)
    raw = enumerate_affine_cells(
        free_rows, region_rows, m, keep_cell=_lens_box_filter(geometry, r, d)
    )
    cells = [
        Cell(
            signs=cell.signs,
            witness=geometry.origin + geometry.basis @ cell.witness,
            margin=cell.margin,
        )
        for cell in raw
    ]
    return cells, len(free_rows)


def _circle_roots(a, b, m):
    """Solutions of a*cos(2phi) + b*sin(2phi) = m on [0, pi)."""
    radius = float(np.hypot(a, b))
    if radius < abs(m) or radius == 0.0:
        return np.empty(0)
    psi = float(np.arctan2(b, a))
    delta = float(np.arccos(np.clip(m / radius, -1.0, 1.0)))
    return np.unique(np.mod([(psi + delta) / 2.0, (psi - delta) / 2.0], np.pi))


def _circle_intervals(points):
    """Midpoints of the arcs the given points cut from the circle [0, pi)."""
    if points.size == 0:
        return np.array([0.1234567 * np.pi])
    pts = np.unique(np.mod(points, np.pi))
    nxt = np.roll(pts, -1)
    nxt[-1] += np.pi
    return np.mod((pts + nxt) / 2.0, np.pi)


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


_SAFETY_LINES = 64
_MIN_RELATIVE_MARGIN = 1e-12  # torus witnesses closer to a curve are dropped


def _torus_region_witnesses(normals, d):
    """One interior angle pair per sign region of the torus arrangement.

    Only d = 2 reaches the torus: one component is solved as sparse PCA.
    The curves {functional = 0} on the torus of block angles are additively
    separable sinusoids, so a slab decomposition over the first angle with
    closed-form roots enumerates every region: slab boundaries are placed at
    the first-angle coordinates of curve-pair crossings and of vertical
    tangents, where the root structure over the second angle can change.
    Regions are deduplicated by sign vector, which is exactly the information
    the per-region circulation uses.  A candidate point is kept only when it
    is strictly interior: every curve value exceeds `_MIN_RELATIVE_MARGIN`
    times a bound on that curve's magnitude over the torus.  A point on a
    curve would otherwise be filed under a spurious sign vector, or shadow
    the real region that owns it.
    """
    a, b, c = _sinusoid_coefficients(normals, d)
    p = a.shape[0]
    reach = np.hypot(a, b).sum(axis=1) + np.abs(c)
    witnesses: dict[bytes, np.ndarray] = {}

    def record(points, values):
        """Keep the first interior point per sign vector (row k of
        ``points`` has curve values ``values[k]``)."""
        interior = np.min(np.abs(values) / reach, axis=1) > _MIN_RELATIVE_MARGIN
        signs = values > 0.0
        for row in np.nonzero(interior)[0]:
            witnesses.setdefault(signs[row].tobytes(), points[row])

    if d != 2:
        raise InvalidParameters("torus regions are implemented for d = 2")

    radius_2 = np.hypot(a[:, 1], b[:, 1])
    criticals = [np.linspace(0.0, np.pi, _SAFETY_LINES, endpoint=False) + 1e-4]
    # Vertical tangents: the second-angle part sits at an extremum.
    for idx in range(p):
        for extremum in (radius_2[idx], -radius_2[idx]):
            criticals.append(
                _circle_roots(a[idx, 0], b[idx, 0], -c[idx] - extremum)
            )
    # Curve-pair crossings: eliminate the second angle.
    for i in range(p):
        for j in range(i + 1, p):
            mat = np.array([[a[i, 1], b[i, 1]], [a[j, 1], b[j, 1]]])
            det = float(np.linalg.det(mat))
            scale = float(np.abs(mat).max())
            if scale == 0.0:
                continue  # both curves vertical; handled by tangents
            if abs(det) <= 1e-12 * scale * scale:
                # Proportional second-angle parts: a combination removes them.
                if radius_2[i] >= radius_2[j]:
                    hi, lo_ = i, j
                else:
                    hi, lo_ = j, i
                if radius_2[hi] == 0.0:
                    continue
                kappa = (
                    (a[lo_, 1] * a[hi, 1] + b[lo_, 1] * b[hi, 1])
                    / (radius_2[hi] ** 2)
                )
                criticals.append(_circle_roots(
                    a[lo_, 0] - kappa * a[hi, 0],
                    b[lo_, 0] - kappa * b[hi, 0],
                    -(c[lo_] - kappa * c[hi]),
                ))
                continue
            inv = np.linalg.inv(mat)
            # (cos 2phi2, sin 2phi2) = u + v cos 2phi1 + w sin 2phi1
            u = inv @ np.array([-c[i], -c[j]])
            v = inv @ np.array([-a[i, 0], -a[j, 0]])
            w = inv @ np.array([-b[i, 0], -b[j, 0]])
            # Unit-circle condition becomes a quartic in tan(phi1).
            # With cs = cos 2phi1 = (1-u^2)/(1+u^2), sn = 2t/(1+t^2):
            # |u + v cs + w sn|^2 - 1 = 0, multiplied by (1+t^2)^2.
            k_uu = float(u @ u) - 1.0
            k_vv = float(v @ v)
            k_ww = float(w @ w)
            k_uv = 2.0 * float(u @ v)
            k_uw = 2.0 * float(u @ w)
            k_vw = 2.0 * float(v @ w)
            # cs = (1-t^2)/(1+t^2), sn = 2t/(1+t^2); expand in powers of t.
            poly = np.array([
                k_uu - k_uv + k_vv,
                2.0 * k_uw - 2.0 * k_vw,
                2.0 * k_uu - 2.0 * k_vv + 4.0 * k_ww,
                2.0 * k_uw + 2.0 * k_vw,
                k_uu + k_uv + k_vv,
            ])
            if np.max(np.abs(poly)) > 0.0:
                roots = np.roots(poly)
                real = roots[np.abs(roots.imag) < 1e-9].real
                criticals.append(np.mod(np.arctan(real), np.pi))
            # tan(phi1) -> infinity corresponds to phi1 = pi/2.
            criticals.append(np.array([np.pi / 2.0]))
    merged = np.unique(np.round(np.concatenate(criticals), 9))
    lines = _circle_intervals(merged)
    cos1 = np.cos(2.0 * lines)
    sin1 = np.sin(2.0 * lines)
    part1 = cos1[:, None] * a[:, 0][None, :] + sin1[:, None] * b[:, 0][None, :]
    psi_2 = np.arctan2(b[:, 1], a[:, 1])
    base_grid = np.linspace(0.0, np.pi, 8, endpoint=False) + 2e-4
    a2_col = a[:, 1][None, :]
    b2_col = b[:, 1][None, :]
    for line_idx, phi1 in enumerate(lines):
        target = -(part1[line_idx] + c)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(radius_2 > 0.0, target / np.where(radius_2 > 0.0, radius_2, 1.0), 2.0)
        valid = np.abs(ratio) <= 1.0
        delta = np.arccos(np.clip(ratio[valid], -1.0, 1.0))
        psi_v = psi_2[valid]
        cuts = np.concatenate([
            base_grid,
            np.mod((psi_v + delta) / 2.0, np.pi),
            np.mod((psi_v - delta) / 2.0, np.pi),
        ])
        phi2_mids = _circle_intervals(cuts)
        cos2 = np.cos(2.0 * phi2_mids)
        sin2 = np.sin(2.0 * phi2_mids)
        values = (
            part1[line_idx][None, :] + c[None, :]
            + cos2[:, None] * a2_col + sin2[:, None] * b2_col
        )
        points = np.column_stack([np.full_like(phi2_mids, phi1), phi2_mids])
        record(points, values)
    return list(witnesses.values())


def candidate_supports_from_cell(
    instance: SpcaDsInstance,
    cell: Cell,
    arc_coeffs: np.ndarray | None = None,
) -> tuple[tuple[int, ...], ...]:
    """The support family recovered from the cell's optimal circulation.

    Profits are the arc functionals evaluated at the cell's interior witness;
    because every circuit functional keeps a fixed sign on the cell, the
    recovered family is optimal for every lifted point inside it.
    """
    if arc_coeffs is None:
        arc_coeffs = build_circuit_hyperplanes(instance).arc_coeffs
    profits = (arc_coeffs @ cell.witness).reshape(instance.d, instance.n)
    circ = CirculationInstance(instance.d, instance.n, instance.s, profits)
    return supports_from_circulation(circ, solve_max_profit(circ))


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
    used = set()
    for t in sets:
        used.update(t)
    pool = sorted(set(range(n)) - used)
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
    circuits_enumerated: int
    degenerate_circuits: int
    hyperplanes: int
    slice_hyperplanes: int
    cells_enumerated: int
    circulation_solves: int
    candidates_evaluated: int
    completions_in_best: int
    stage_ms: dict


@dataclass(frozen=True)
class SpcaDsSolution:
    """Disjoint supports (0-based), unit-norm loading columns, objective."""

    supports: tuple[tuple[int, ...], ...]
    x: np.ndarray  # (n, d); column i supported on supports[i]
    objective: float
    diagnostics: SpcaDsDiagnostics


def _evaluate_family(family, factor: PsdFactor) -> float:
    if factor.rank == 0:
        return 0.0
    total = 0.0
    for support in family:
        rows = factor.rows(support)
        gram = symmetrize(rows.T @ rows)
        value, _ = solve_pca(gram, 1)
        total += value
    return total


def _solve_one_component(instance: SpcaDsInstance) -> SpcaDsSolution:
    """d = 1 is sparse PCA with support size min(s, n).

    A single component's value only grows with its support, and the factor
    is reused, so no arrangement or circulation of this module is needed.
    """
    solution = solve_spca(
        SpcaInstance(instance.kmatrix, 1, min(instance.s, instance.n), instance.factor)
    )
    diag = solution.diagnostics
    diagnostics = SpcaDsDiagnostics(
        rank=instance.rank,
        extended_dim=diag.extended_dim,
        circuits_enumerated=0,
        degenerate_circuits=0,
        hyperplanes=diag.hyperplanes,
        slice_hyperplanes=diag.hyperplanes,
        cells_enumerated=diag.cells_enumerated,
        circulation_solves=0,
        candidates_evaluated=diag.candidates_evaluated,
        completions_in_best=0,
        stage_ms=diag.stage_ms,
    )
    return SpcaDsSolution(
        supports=(solution.support,), x=solution.x, objective=solution.objective,
        diagnostics=diagnostics,
    )


def _region_profits(instance: SpcaDsInstance, planes: CircuitHyperplanes,
                    cell_mode: str) -> tuple[list[np.ndarray], int]:
    """Arc profits (d, n) at one witness per region, and the number of
    hyperplanes that cut the realizable set."""
    d, n = instance.d, instance.n
    if cell_mode == "exact" and instance.rank == 2 and d == 2:
        normals = np.array([h.normal for h in planes.hyperplanes])
        region_angles = _torus_region_witnesses(normals, d) if normals.size else [np.zeros(d)]
        profit_rows = []
        for phis in region_angles:
            y = np.vstack([np.cos(phis), np.sin(phis)])  # (2, d)
            profit_rows.append(((instance.factor.factor @ y) ** 2).T)
        return profit_rows, len(normals)
    cells, slice_hyperplanes = _enumerate_slice_cells(instance, planes)
    all_profits = np.vstack([c.witness for c in cells]) @ planes.arc_coeffs.T
    return [row.reshape(d, n) for row in all_profits], slice_hyperplanes


def solve_spca_ds(instance: SpcaDsInstance, cell_mode: str = "exact") -> SpcaDsSolution:
    """Globally optimal disjoint-supports solution for the given instance.

    One component (d = 1) is solved as sparse PCA.  At rank <= 1 the
    unit-trace slice is a single point, so there is one region and no
    circuit is built.  Otherwise ``cell_mode="exact"`` picks the fastest
    exact region enumeration: the closed-form torus decomposition when the
    factor has rank two and there are two components, else the chart
    arrangement.  ``"chart"`` forces the chart arrangement (mainly for
    cross-checking).  Practical problem sizes follow the region counts:
    rank two with d = 2 runs in seconds at desk scale, while higher ranks or
    more components face the full combinatorial growth of the candidate
    construction.
    """
    if cell_mode not in ("exact", "chart"):
        raise InvalidParameters(f"unknown cell mode {cell_mode!r}")
    if instance.d == 1:
        return _solve_one_component(instance)
    n, d, s, r = instance.n, instance.d, instance.s, instance.rank
    factor = instance.factor
    stage_ms: dict = {}

    tick = time.perf_counter()
    if r <= 1:
        # Every block of the slice is the point y_i^2 = 1: one region, where
        # each component's arc profits are the squared row norms.
        row_norms = np.sum(factor.factor * factor.factor, axis=1)
        profit_rows = [np.tile(row_norms, (d, 1))]
        extended_dim, circuits, degenerate, hyperplanes, slice_hyperplanes = d * r, 0, 0, 0, 0
    else:
        planes = build_circuit_hyperplanes(instance)
        stage_ms["hyperplanes"] = (time.perf_counter() - tick) * 1000.0
        tick = time.perf_counter()
        profit_rows, slice_hyperplanes = _region_profits(instance, planes, cell_mode)
        extended_dim, circuits = planes.extended_dim, planes.circuits_enumerated
        degenerate, hyperplanes = planes.degenerate_circuits, len(planes.hyperplanes)
    families = set()
    for profits in profit_rows:
        circ = CirculationInstance(d, n, s, np.asarray(profits, dtype=float))
        families.add(supports_from_circulation(circ, solve_max_profit(circ)))
    stage_ms["cells_and_circulations"] = (time.perf_counter() - tick) * 1000.0

    tick = time.perf_counter()
    best = None  # (value, flat_key, completed_family, completions)
    for family in sorted(families):
        completed, completions = _complete_family(family, factor, s)
        value = _evaluate_family(completed, factor)
        flat_key = tuple(j for support in completed for j in support)
        key = (-value, flat_key)
        if best is None or key < best[0]:
            best = (key, completed, completions)
    stage_ms["evaluation"] = (time.perf_counter() - tick) * 1000.0

    tick = time.perf_counter()
    _, best_family, completions = best
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
        rank=instance.rank,
        extended_dim=extended_dim,
        circuits_enumerated=circuits,
        degenerate_circuits=degenerate,
        hyperplanes=hyperplanes,
        slice_hyperplanes=slice_hyperplanes,
        cells_enumerated=len(profit_rows),
        circulation_solves=len(profit_rows),
        candidates_evaluated=len(families),
        completions_in_best=completions,
        stage_ms=stage_ms,
    )
    return SpcaDsSolution(
        supports=best_family, x=x, objective=float(objective), diagnostics=diagnostics
    )
