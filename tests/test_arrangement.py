import itertools
import math

import numpy as np
import pytest

from exactspca import spca
from exactspca.arrangement import MIN_MARGIN, dedup_hyperplanes
from exactspca.errors import Degenerate, InvalidParameters
from exactspca.extension import MonomialBasis
from exactspca.linalg import symmetrize
from exactspca.oracle import brute_force_spca
from exactspca.reference import (
    Hyperplane,
    enumerate_affine_cells,
    enumerate_cells,
    expected_generic_cell_count,
    plane_sectors,
    witness_for_signs,
)


def _axis_planes(dim):
    return [Hyperplane(np.eye(dim)[k]) for k in range(dim)]


def test_single_hyperplane_two_cells():
    cells = enumerate_cells([Hyperplane(np.array([1.0, 0.0]))], 2)
    assert len(cells) == 2
    assert {c.signs for c in cells} == {(1,), (-1,)}


def test_two_lines_four_quadrants():
    cells = enumerate_cells(_axis_planes(2), 2)
    assert len(cells) == 4


def test_three_generic_planes_in_r3(rng):
    planes = [Hyperplane(rng.standard_normal(3)) for _ in range(3)]
    cells = enumerate_cells(planes, 3)
    assert len(cells) == 8
    # Sphere-sampling oracle: realizable sign vectors match exactly.
    normals = np.vstack([p.normal / np.linalg.norm(p.normal) for p in planes])
    points = rng.standard_normal((50_000, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    values = points @ normals.T
    keep = np.min(np.abs(values), axis=1) > 1e-6
    realized = {
        tuple(1 if v > 0 else -1 for v in row) for row in values[keep]
    }
    assert realized == {c.signs for c in cells}


def _normals(rng, kind, dim):
    """Normals in R^dim: Gaussian, small integers with repeated, proportional
    and opposite rows, or the spannogram R_j -+ R_k of an integer factor."""
    if kind == "gaussian":
        return rng.standard_normal((int(rng.integers(1, 12)), dim))
    if kind == "integer":
        normals = rng.integers(-3, 4, size=(int(rng.integers(2, 8)), dim))
        normals = normals[np.any(normals, axis=1)]
        normals = np.vstack([normals, normals[:1], 2 * normals[:1], -normals[-1:]])
        return rng.permutation(normals).astype(float)
    factor = rng.integers(-2, 3, size=(int(rng.integers(3, 7)), dim))
    factor[1] = factor[0]
    first, second = np.triu_indices(factor.shape[0], 1)
    normals = np.vstack([factor[first] - factor[second], factor[first] + factor[second]])
    return normals[np.any(normals, axis=1)].astype(float)


def _assert_matches_insertion(normals):
    """Closed-form cells equal those of the same normals padded into R^4,
    which insertion enumerates; every witness carries its own signs."""
    dim = normals.shape[1]
    closed = enumerate_cells(normals, dim)
    padded = enumerate_cells(np.hstack([normals, np.zeros((len(normals), 4 - dim))]), 4)
    assert [c.signs for c in closed] == [c.signs for c in padded]
    unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    for cell in closed:
        values = unit @ cell.witness / np.linalg.norm(cell.witness)
        assert tuple(1 if v > 0.0 else -1 for v in values) == cell.signs
        assert cell.margin > MIN_MARGIN
        assert cell.margin == pytest.approx(float(np.min(np.abs(values))))


def _checked_arrangements(rng, kind, dim, count=25):
    checked = 0
    while checked < count:
        normals = _normals(rng, kind, dim)
        if normals.shape[0] == 0:
            continue
        checked += 1
        yield normals


@pytest.mark.parametrize("kind", ["gaussian", "integer", "spannogram"])
def test_plane_sectors_match_insertion(rng, kind):
    for normals in _checked_arrangements(rng, kind, 2):
        _assert_matches_insertion(normals)


@pytest.mark.parametrize("kind", ["gaussian", "integer", "spannogram"])
def test_space_cells_match_insertion(rng, kind):
    for normals in _checked_arrangements(rng, kind, 3):
        _assert_matches_insertion(normals)


@pytest.mark.parametrize(
    "normals, count",
    [
        pytest.param([[0.0, 0.0, 2.0]], 2, id="one-plane"),
        pytest.param([[1.0, 2.0, 3.0]], 2, id="one-oblique-plane"),
        pytest.param([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], 4, id="two-planes"),
        # The wedges between the two planes are too thin to keep; the wide
        # cells beyond them must be pushed far off either plane.
        pytest.param([[1.0, 0.0, 0.0], [np.cos(1e-10), np.sin(1e-10), 0.0]], 2,
                     id="nearly-parallel-pair"),
        pytest.param([[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 3.0, 0.0]], 4,
                     id="opposite-repeat"),
        pytest.param([[1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [1.0, 1.0, 0.0],
                      [3.0, 6.0, 0.0]], 6, id="pencil"),
        pytest.param([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, -1.0],
                      [2.0, 0.0, 1.0], [-2.0, 0.0, -1.0]], 8, id="repeated"),
    ],
)
def test_space_cells_special_arrangements(normals, count):
    normals = np.array(normals, dtype=float)
    assert len(enumerate_cells(normals, 3)) == count
    _assert_matches_insertion(normals)


def _lifted(factor):
    """Row j: the coefficients c_j of (R_j @ y)**2 in the pairwise products."""
    basis = MonomialBasis(factor.shape[1], 1)
    return np.vstack([basis.row_block_coefficients(row) for row in factor])


def _top_set(values, s):
    return tuple(sorted(np.argsort(-values, kind="stable")[:s].tolist()))


@pytest.mark.parametrize("r,n", [(2, 4), (3, 5), (3, 6), (4, 5)])
def test_braid_parity_with_insertion(rng, r, n):
    # With n - 1 <= r(r+1)/2 generic functionals the difference arrangement
    # of the lift is the braid arrangement: one cell per strict order, so
    # every support is the top-s set of a cell, and the solver generates
    # them all without cutting.
    factor = rng.standard_normal((n, r))
    coeffs = _lifted(factor)
    first, second = np.triu_indices(n, 1)
    cells = enumerate_cells(coeffs[first] - coeffs[second], r * (r + 1) // 2)
    assert len(cells) == math.factorial(n)
    values = {c.signs: np.asarray(c.witness) @ coeffs.T for c in cells}
    assert len({tuple(np.argsort(-v).tolist()) for v in values.values()}) == len(cells)
    for s in range(1, n):
        tops = {_top_set(v, s) for v in values.values()}
        assert tops == set(itertools.combinations(range(n), s))
    # The solver's factor differs from ``factor`` by a rotation, which changes
    # the lifted coordinates but not which orders are cells.
    solution = spca.solve_spca(spca.SpcaInstance.build(symmetrize(factor @ factor.T), 1, 2))
    diag = solution.diagnostics
    assert diag.extended_dim == n - 1
    assert diag.cells_enumerated == math.comb(n, 2)
    assert diag.candidates_evaluated == math.comb(n, 2)
    assert solution.support in {_top_set(v, 2) for v in values.values()}


@pytest.mark.parametrize("r,d,n", [(3, 2, 6), (4, 1, 6), (4, 3, 5)])
def test_tied_lift_takes_insertion(rng, monkeypatch, r, d, n):
    # R_1 = -R_0 gives two features one functional, so the differences are
    # dependent and, with the braid rule off (n - 1 <= r(r+1)/2 here), the
    # solver reads the vertices of a smaller lift.  The lift cut by
    # insertion is the reference: every top-s set of its cells must be a
    # candidate.
    monkeypatch.setattr(spca, "reads_braid", lambda *args: False)
    for trial in range(3):
        while True:
            factor = rng.integers(-2, 3, size=(n, r)).astype(float)
            factor[1] = -factor[0]
            if np.linalg.matrix_rank(factor) == r:
                break
        kmatrix = symmetrize(factor @ factor.T)
        inst = spca.SpcaInstance.build(kmatrix, d, d)
        coeffs = _lifted(inst.factor.factor)
        first, second = np.triu_indices(n, 1)
        offered = coeffs[first] - coeffs[second]
        offered = offered[np.any(np.abs(offered) > 1e-12, axis=1)]
        cells = enumerate_cells(dedup_hyperplanes(offered, offered.shape[1]), offered.shape[1])
        values = np.vstack([c.witness for c in cells]) @ coeffs.T
        for s in range(d, n):
            inst = spca.SpcaInstance.build(kmatrix, d, s)
            result = spca.enumerate_candidate_supports(inst)
            assert result.extended_dim < n - 1
            candidates = set(result.supports)
            assert {_top_set(v, s) for v in values} <= candidates
            solution = spca.solve_spca(inst)
            report = brute_force_spca(kmatrix, d, s)
            assert solution.objective == pytest.approx(report.objective, rel=1e-8, abs=1e-8)
            assert solution.support in report.argmax_supports


def test_no_hyperplanes_single_cell():
    cells = enumerate_cells([], 3)
    assert len(cells) == 1
    assert cells[0].signs == ()


def test_zero_normal_rejected():
    with pytest.raises(Degenerate):
        enumerate_cells([Hyperplane(np.zeros(2))], 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_non_finite_normal_rejected(bad):
    # 1e200 is finite, but its squared norm overflows.
    normals = np.array([[1.0, 2.0], [bad, 0.0]])
    with pytest.raises(Degenerate):
        enumerate_cells(normals, 2)
    with pytest.raises(Degenerate):
        dedup_hyperplanes([Hyperplane(row) for row in normals], 2)


@pytest.mark.parametrize(
    "normals",
    [
        pytest.param(np.ones((3, 2)), id="array-columns"),
        pytest.param(np.ones(3), id="array-one-row"),
        pytest.param([np.ones(3), np.ones(2)], id="ragged-list"),
        pytest.param([Hyperplane(np.ones(2))], id="hyperplane-dim"),
    ],
)
def test_wrong_normal_shape_rejected(normals):
    with pytest.raises(InvalidParameters):
        enumerate_cells(normals, 3)
    with pytest.raises(InvalidParameters):
        witness_for_signs(normals, [1] * len(normals), 3)


@pytest.mark.parametrize("kind", ["gaussian", "integer", "spannogram"])
def test_plane_sector_margins_in_closed_form(rng, kind):
    # sin(width / 2) is the distance from each mid-angle witness to its
    # nearest line; repeated lines leave no sector of their own.
    for normals in _checked_arrangements(rng, kind, 2):
        witnesses, margins = plane_sectors(normals)
        unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        values = np.abs(witnesses @ unit.T)
        assert np.allclose(np.linalg.norm(witnesses, axis=1), 1.0)
        assert np.all(margins > MIN_MARGIN)
        assert np.allclose(margins, np.min(values, axis=1), rtol=1e-9, atol=1e-15)
        distinct = len(dedup_hyperplanes(normals, 2))
        assert len(witnesses) == distinct
        assert len(enumerate_cells(normals, 2)) == 2 * distinct


def test_plane_sectors_of_one_line():
    witnesses, margins = plane_sectors(np.array([[0.0, 3.0], [0.0, -1.0]]))
    assert margins == pytest.approx([1.0])
    assert np.allclose(np.abs(witnesses), [[0.0, 1.0]])


def test_generic_counts_and_soundness(rng):
    for _ in range(30):
        q = int(rng.integers(1, 5))
        p = int(rng.integers(1, 11))
        planes = [Hyperplane(rng.standard_normal(q)) for _ in range(p)]
        cells = enumerate_cells(planes, q)
        assert len(cells) == expected_generic_cell_count(p, q)
        normals = np.vstack([h.normal / np.linalg.norm(h.normal) for h in planes])
        for cell in cells:
            slack = normals @ cell.witness * np.array(cell.signs)
            assert np.min(slack) > 1e-9
            assert cell.margin > 1e-9


def test_cells_come_in_antipodal_pairs(rng):
    planes = [Hyperplane(rng.standard_normal(3)) for _ in range(5)]
    cells = enumerate_cells(planes, 3)
    signs = {c.signs for c in cells}
    assert all(tuple(-s for s in key) in signs for key in signs)


def test_determinism(rng):
    planes = [Hyperplane(rng.standard_normal(3)) for _ in range(6)]
    first = enumerate_cells(planes, 3)
    second = enumerate_cells(planes, 3)
    assert [c.signs for c in first] == [c.signs for c in second]
    assert all(np.array_equal(a.witness, b.witness) for a, b in zip(first, second))


class TestWitnessForSigns:
    def test_single_plane(self):
        witness = witness_for_signs([Hyperplane(np.array([1.0]))], [1])
        assert witness is not None
        assert witness[0] == pytest.approx(1.0)

    def test_quadrant(self):
        witness = witness_for_signs(_axis_planes(2), [1, 1])
        assert witness is not None
        assert np.allclose(witness, [1.0, 1.0])

    def test_contradictory_parallel_planes(self):
        planes = [
            Hyperplane(np.array([1.0, 0.0])),
            Hyperplane(np.array([2.0, 0.0])),
        ]
        assert witness_for_signs(planes, [1, -1]) is None

    def test_matches_enumerated_cells(self, rng):
        planes = [Hyperplane(rng.standard_normal(3)) for _ in range(5)]
        cells = enumerate_cells(planes, 3)
        realizable = {c.signs for c in cells}
        for signs in [(1,) * 5, (-1,) * 5, (1, -1, 1, -1, 1)]:
            witness = witness_for_signs(planes, signs)
            assert (witness is not None) == (signs in realizable)


def _greedy_dedup_reference(normals, tol=1e-9):
    unit = np.array([row / np.linalg.norm(row) for row in normals])
    kept = []
    for idx in range(unit.shape[0]):
        if all(abs(float(unit[idx] @ unit[prev])) < 1.0 - tol for prev in kept):
            kept.append(idx)
    return unit[kept]


@pytest.mark.parametrize("count", [40, 700])
def test_dedup_matches_greedy_loop(rng, count):
    # Near-duplicate, proportional and opposite copies, planted at random
    # positions; at 700 many copies land in another Gram block than their
    # originals.
    normals = rng.standard_normal((count, 3))
    copies = rng.integers(0, count, size=count // 2)
    planted = normals[copies] * rng.choice([-3.0, -1.0, 0.5, 2.0], size=(len(copies), 1))
    planted[::3] += 1e-11 * rng.standard_normal((len(planted[::3]), 3))
    normals = np.vstack([normals, planted])[rng.permutation(count + len(copies))]
    kept = dedup_hyperplanes(normals, 3)
    assert np.array_equal(kept, _greedy_dedup_reference(normals))
    assert len(kept) < len(normals)


def test_dedup_keeps_greedy_chain():
    # b is within tol of a, and c of b but not of a: a and c are kept.
    tol = 1e-6
    normals = np.array([[1.0, 0.0], [np.cos(1.2e-3), np.sin(1.2e-3)],
                        [np.cos(2.4e-3), np.sin(2.4e-3)]])
    assert np.array_equal(dedup_hyperplanes(normals, 2, tol=tol), normals[[0, 2]])


def test_dedup_hyperplanes():
    # The kept unit normals, as one array in input order.
    normals = np.array([[1.0, 0.0], [-3.0, 0.0], [0.0, 2.0], [1.0, 1.0], [2.0, 2.0]])
    kept = dedup_hyperplanes(normals, 2)
    assert kept.shape == (3, 2)
    assert np.allclose(kept, [[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]],
                       rtol=0.0, atol=1e-15)


def test_empty_arrangement_generic_count():
    # No hyperplanes leave the whole space as one cell, in any dimension.
    for q in range(4):
        assert expected_generic_cell_count(0, q) == 1
    for q in range(1, 4):
        assert len(enumerate_cells([], q)) == 1


class TestAffineCells:
    def test_square_region_one_line(self):
        # Unit square, one diagonal cut: two cells.
        region = [
            np.array([1.0, 0.0, 0.0]),   # x >= 0
            np.array([-1.0, 0.0, 1.0]),  # x <= 1
            np.array([0.0, 1.0, 0.0]),   # y >= 0
            np.array([0.0, -1.0, 1.0]),  # y <= 1
        ]
        planes = [np.array([1.0, -1.0, 0.0])]  # x = y
        cells = enumerate_affine_cells(planes, region, 2)
        assert {c.signs for c in cells} == {(1,), (-1,)}
        for cell in cells:
            assert cell.margin > 1e-9

    def test_line_missing_region_gives_one_side(self):
        region = [
            np.array([1.0, 0.0, 0.0]),
            np.array([-1.0, 0.0, 1.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, -1.0, 1.0]),
        ]
        planes = [np.array([1.0, 0.0, -5.0])]  # x = 5, far outside
        cells = enumerate_affine_cells(planes, region, 2)
        assert [c.signs for c in cells] == [(-1,)]

    def test_random_lines_match_sampling(self, rng):
        region = [
            np.array([1.0, 0.0, 1.0]),
            np.array([-1.0, 0.0, 1.0]),
            np.array([0.0, 1.0, 1.0]),
            np.array([0.0, -1.0, 1.0]),
        ]
        planes = [np.concatenate([rng.standard_normal(2), rng.uniform(-0.5, 0.5, 1)])
                  for _ in range(6)]
        cells = enumerate_affine_cells(planes, region, 2)
        matrix = np.vstack(planes)
        points = rng.uniform(-1, 1, size=(200_000, 2))
        values = points @ matrix[:, :2].T + matrix[:, 2]
        keep = np.min(np.abs(values), axis=1) > 1e-4
        realized = {
            tuple(1 if v > 0 else -1 for v in row) for row in values[keep]
        }
        enumerated = {c.signs for c in cells}
        assert realized <= enumerated
        for cell in cells:
            slack = matrix[:, :2] @ cell.witness + matrix[:, 2]
            assert np.min(np.abs(slack)) > 1e-9

    def test_random_planes_in_space_match_sampling(self, rng):
        # Dimension 3 lifts to R^4, where the central cells come from
        # insertion rather than the closed forms of R^2 and R^3.
        region = [np.concatenate([sign * np.eye(3)[k], [1.0]])
                  for k in range(3) for sign in (1.0, -1.0)]
        planes = [np.concatenate([rng.standard_normal(3), rng.uniform(-0.5, 0.5, 1)])
                  for _ in range(5)]
        cells = enumerate_affine_cells(planes, region, 3)
        matrix = np.vstack(planes)
        points = rng.uniform(-1, 1, size=(200_000, 3))
        values = points @ matrix[:, :3].T + matrix[:, 3]
        keep = np.min(np.abs(values), axis=1) > 1e-4
        realized = {tuple(1 if v > 0 else -1 for v in row) for row in values[keep]}
        assert realized <= {c.signs for c in cells}
        assert [c.signs for c in cells] == sorted(c.signs for c in cells)
        unit = matrix / np.linalg.norm(matrix[:, :3], axis=1, keepdims=True)
        for cell in cells:
            assert np.all(np.abs(cell.witness) < 1.0)
            slack = unit[:, :3] @ cell.witness + unit[:, 3]
            assert np.all(np.sign(slack) == cell.signs)
            region_slack = 1.0 - np.max(np.abs(cell.witness))
            assert cell.margin == pytest.approx(min(np.min(np.abs(slack)), region_slack), rel=1e-12)
            assert cell.margin > 0.0
