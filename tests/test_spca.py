import itertools
import math

import numpy as np
import pytest

import exactspca.spca as spca_module
from exactspca.arrangement import dedup_hyperplanes
from exactspca.errors import InvalidParameters, TooLarge
from exactspca.extension import MonomialBasis
from exactspca.linalg import solve_pca, symmetrize
from exactspca.oracle import brute_force_spca
from exactspca.reference import (
    build_row_functional,
    candidate_support_from_point,
    enumerate_cells,
    expected_generic_cell_count,
)
from exactspca.spca import SpcaInstance, _top_masks, enumerate_candidate_supports, solve_spca

from conftest import random_low_rank_psd


def _instance(kmatrix, d, s):
    return SpcaInstance.build(kmatrix, d, s)


def _top_sets(values, s):
    """The s largest entries of each row as sorted indices, ties to the smaller."""
    return np.nonzero(_top_masks(values, s))[1].reshape(-1, s)


class TestCandidateFromPoint:
    def _functionals(self, values):
        class Fixed:
            def __init__(self, v):
                self.v = v

            def __call__(self, _point):
                return self.v

        return [Fixed(v) for v in values]

    def test_sort_and_take(self):
        support = candidate_support_from_point(
            None, self._functionals([5.0, 1.0, 7.0]), 2
        )
        assert support == (0, 2)

    def test_pure_tie_break(self):
        support = candidate_support_from_point(
            None, self._functionals([1.0] * 4), 2
        )
        assert support == (0, 1)

    def test_top_sets_match_stable_argsort(self, rng):
        # Small integers tie often, also across position s.
        values = rng.integers(0, 4, size=(500, 9)).astype(float)
        for s in range(1, 10):
            expected = np.sort(np.argsort(-values, axis=1, kind="stable")[:, :s], axis=1)
            assert np.array_equal(_top_sets(values, s), expected)

    def test_matches_subset_enumeration(self, rng):
        basis = MonomialBasis(2, 1)
        rows = rng.standard_normal((5, 2))
        functionals = [build_row_functional(basis, row) for row in rows]
        for _ in range(30):
            point = rng.standard_normal(basis.dim)
            s = int(rng.integers(1, 5))
            support = candidate_support_from_point(point, functionals, s)
            values = np.array([f(point) for f in functionals])
            best = max(
                (sum(values[list(sub)]) for sub in itertools.combinations(range(5), s))
            )
            assert sum(values[list(support)]) == pytest.approx(best, abs=1e-12)


class TestCandidateEnumeration:
    def test_rank_one_candidates(self, rng):
        q = np.array([2.0, -1.0, 0.5, 3.0])
        kmatrix = symmetrize(np.outer(q, q))
        inst = _instance(kmatrix, 1, 2)
        result = enumerate_candidate_supports(inst)
        # Rank one with d = 1 is the closed form: no arrangement is cut and
        # the one candidate is the top set of q_j^2.
        order = np.argsort(-(q**2), kind="stable")
        assert tuple(sorted(order[:2])) in result.supports
        assert len(result.supports) <= 2
        assert result.cells_enumerated == 1
        assert result.extended_dim == 0

    def test_dominant_coordinate(self):
        q = np.array([2.0, 1.0])
        inst = _instance(symmetrize(np.outer(q, q)), 1, 1)
        result = enumerate_candidate_supports(inst)
        assert (0,) in result.supports

    def test_contains_oracle_support(self, rng):
        for _ in range(10):
            kmatrix = random_low_rank_psd(rng, 6, 2)
            inst = _instance(kmatrix, 1, 2)
            result = enumerate_candidate_supports(inst)
            report = brute_force_spca(kmatrix, 1, 2)
            assert any(sup in result.supports for sup in report.argmax_supports)

    def test_duplicate_rows_recorded(self):
        row = np.array([1.0, 2.0])
        factor = np.vstack([row, row, [0.0, 1.0]])
        kmatrix = symmetrize(factor @ factor.T)
        inst = _instance(kmatrix, 1, 1)
        result = enumerate_candidate_supports(inst)
        assert (0, 1) in result.duplicate_feature_pairs

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_twin_of_first_pivot_recorded(self, rng, sign):
        # R_3 = +-R_0 with R_0 the first pivot; K is built entry by entry,
        # so the twin columns are equal (or opposite) exactly.
        for _ in range(20):
            rows = rng.standard_normal((6, 2))
            rows[0] *= 10.0 / np.linalg.norm(rows[0])
            rows[3] = sign * rows[0]
            inst = _instance((rows[:, None] * rows[None]).sum(axis=2), 1, 2)
            assert (0, 3) in enumerate_candidate_supports(inst).duplicate_feature_pairs

    def test_full_support_shortcut(self, rng):
        kmatrix = random_low_rank_psd(rng, 4, 2)
        inst = _instance(kmatrix, 2, 4)
        result = enumerate_candidate_supports(inst)
        assert result.supports == ((0, 1, 2, 3),)
        assert result.cells_enumerated == 1


class TestSolveSpca:
    def test_rank_one_single_support(self):
        q = np.array([2.0, 1.0, 0.0])
        solution = solve_spca(_instance(symmetrize(np.outer(q, q)), 1, 1))
        assert solution.support == (0,)
        assert solution.objective == pytest.approx(4.0, abs=1e-10)
        assert np.allclose(solution.x[:, 0], [1.0, 0.0, 0.0], atol=1e-10)

    def test_diagonal(self):
        solution = solve_spca(_instance(np.diag([3.0, 2.0, 1.0]), 2, 2))
        assert solution.support == (0, 1)
        assert solution.objective == pytest.approx(5.0, abs=1e-10)

    def test_matches_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 9))
            r = int(rng.integers(1, 3))
            d = int(rng.integers(1, 3))
            s = min(int(rng.integers(d, 4)), n)
            kmatrix = random_low_rank_psd(rng, n, r)
            solution = solve_spca(_instance(kmatrix, d, s))
            report = brute_force_spca(kmatrix, d, s)
            assert solution.objective == pytest.approx(
                report.objective, rel=1e-8, abs=1e-8
            )
            assert solution.support in report.argmax_supports

    def test_feasibility(self, rng):
        for _ in range(15):
            n, r, d, s = 6, 2, 2, 3
            kmatrix = random_low_rank_psd(rng, n, r)
            solution = solve_spca(_instance(kmatrix, d, s))
            gram = solution.x.T @ solution.x
            assert np.max(np.abs(gram - np.eye(d))) < 1e-8
            outside = [j for j in range(n) if j not in solution.support]
            assert not np.any(solution.x[outside])
            assert len(solution.support) == s
            trace = float(np.trace(solution.x.T @ kmatrix @ solution.x))
            assert solution.objective == pytest.approx(trace, rel=1e-8)

    def test_reduced_and_full_objectives_agree(self, rng):
        # The r x r evaluation and the s x s recovery score the same support
        # identically: the nonzero spectra of both Gram forms coincide.
        kmatrix = random_low_rank_psd(rng, 7, 2)
        inst = _instance(kmatrix, 2, 3)
        solution = solve_spca(inst)
        rows = inst.factor.rows(solution.support)
        from exactspca.linalg import solve_pca

        reduced, _ = solve_pca(symmetrize(rows.T @ rows), inst.num_components_reduced)
        assert solution.objective == pytest.approx(reduced, rel=1e-8)

    def test_scale_equivariance(self, rng):
        kmatrix = random_low_rank_psd(rng, 5, 2)
        base = solve_spca(_instance(kmatrix, 1, 2))
        scaled = solve_spca(_instance(symmetrize(3.5 * kmatrix), 1, 2))
        assert scaled.objective == pytest.approx(3.5 * base.objective, rel=1e-8)
        assert scaled.support == base.support

    def test_monotone_in_s(self, rng):
        kmatrix = random_low_rank_psd(rng, 6, 2)
        values = [
            solve_spca(_instance(kmatrix, 1, s)).objective for s in range(1, 7)
        ]
        assert np.all(np.diff(values) >= -1e-10)

    def test_candidates_bounded_by_cells(self, rng):
        kmatrix = random_low_rank_psd(rng, 6, 2)
        solution = solve_spca(_instance(kmatrix, 2, 3))
        diag = solution.diagnostics
        assert 1 <= diag.candidates_evaluated <= diag.cells_enumerated
        # The structured arrangement can only have fewer cells than a generic
        # one with the same hyperplane count and dimension.
        bound = expected_generic_cell_count(diag.hyperplanes, diag.extended_dim)
        assert diag.cells_enumerated <= bound

    def test_zero_matrix(self):
        solution = solve_spca(_instance(np.zeros((4, 4)), 2, 3))
        assert solution.objective == 0.0
        assert solution.support == (0, 1, 2)
        assert np.max(np.abs(solution.x.T @ solution.x - np.eye(2))) < 1e-12

    def test_support_padding_on_sparse_optimum(self):
        # The optimal loading uses one feature; the support still has size s.
        kmatrix = np.diag([1.0, 0.0, 0.0])
        solution = solve_spca(_instance(kmatrix, 1, 2))
        assert len(solution.support) == 2
        assert solution.objective == pytest.approx(1.0, abs=1e-12)
        assert solution.diagnostics.nonzero_rows == 1

    def test_s_equals_n_plain_pca(self, rng):
        kmatrix = random_low_rank_psd(rng, 5, 3)
        solution = solve_spca(_instance(kmatrix, 2, 5))
        top2 = np.sort(np.linalg.eigvalsh(kmatrix))[::-1][:2].sum()
        assert solution.objective == pytest.approx(float(top2), rel=1e-9)

    def test_invalid_parameters(self, rng):
        kmatrix = random_low_rank_psd(rng, 4, 2)
        with pytest.raises(InvalidParameters):
            SpcaInstance.build(kmatrix, 2, 1)  # d > s
        with pytest.raises(InvalidParameters):
            SpcaInstance.build(kmatrix, 1, 5)  # s > n
        with pytest.raises(InvalidParameters):
            SpcaInstance.build(kmatrix, 0, 1)  # d < 1

    def test_candidates_bounded_by_cells_below_rank(self, rng):
        kmatrix = random_low_rank_psd(rng, 6, 3)
        solution = solve_spca(_instance(kmatrix, 2, 3))
        diag = solution.diagnostics
        # Five independent lifted differences: the braid, whose 2n vertices
        # each tie n - 1 features, and their fills are every support.
        assert diag.extended_dim == 5
        assert diag.hyperplanes == 15
        assert diag.cells_enumerated == 12
        assert diag.candidates_evaluated == math.comb(6, 3)
        assert diag.candidates_evaluated <= diag.cells_enumerated * math.comb(5, 2)
        bound = expected_generic_cell_count(diag.hyperplanes, diag.extended_dim)
        assert diag.cells_enumerated <= bound


def _factor_for_path(rng, n, r, integer):
    """A rank-r factor; integer ones carry ties and a row R_1 = -R_0."""
    while True:
        if integer:
            factor = rng.integers(-2, 3, size=(n, r)).astype(float)
            factor[1] = -factor[0]
        else:
            factor = rng.standard_normal((n, r))
        if np.linalg.matrix_rank(factor) == r:
            return factor


def _lift_rank(factor):
    """k: the rank of the lifted differences c_j - c_0 (rotation invariant)."""
    coeffs = MonomialBasis(factor.shape[1], 1).row_block_coefficients(factor)
    return int(np.linalg.matrix_rank(coeffs[1:] - coeffs[0]))


def _expected_dim(factor, space):
    """The ``extended_dim`` of a shape: 0, r on the spannogram, k in the lift."""
    return {"closed": 0, "spannogram": factor.shape[1], "lift": _lift_rank(factor)}[space]


def _variant_factor(rng, n, r, variant):
    """A tied integer factor (R_1 = -R_0) and the scale of its K: near-ties
    perturb the factor by 1e-12, tiny copies scale K by 1e-16."""
    factor = _factor_for_path(rng, n, r, True)
    if variant == "near-tie":
        factor = factor + 1e-12 * rng.standard_normal(factor.shape)
    return factor, 1e-16 if variant == "tiny" else 1.0


def _assert_optimal(kmatrix, d, s, solution):
    """The objective is the oracle's (relative 1e-8, so scale-free) and the
    support attains it."""
    report = brute_force_spca(kmatrix, d, s)
    assert solution.objective == pytest.approx(report.objective, rel=1e-8, abs=0.0)
    support = list(solution.support)
    value, _ = solve_pca(kmatrix[np.ix_(support, support)], d)
    assert value == pytest.approx(report.objective, rel=1e-8, abs=0.0)


# (n, r, d, space read): the closed form (r <= d), the spannogram in R^r, and
# the lift in the k-dimensional span of the lifted differences.  For d = 1
# the space with fewer predicted candidate rows is read.  The Gaussian
# trials of the lifted and braid shapes have k = n - 1, the braid, whose
# supports are generated; their integer trials (R_1 = -R_0) read the
# vertices of a smaller lift.
PATHS = [
    pytest.param(6, 1, 1, "closed", id="closed-form-rank1"),
    pytest.param(6, 2, 2, "closed", id="closed-form-rank2"),
    pytest.param(7, 2, 1, "spannogram", id="spannogram-r2"),
    pytest.param(8, 3, 1, "spannogram", id="spannogram-r3"),
    pytest.param(6, 4, 1, "lift", id="lifted-d1"),
    pytest.param(6, 3, 2, "lift", id="lifted-block"),
    pytest.param(5, 4, 3, "lift", id="braid"),
]


class TestPaths:
    @pytest.mark.parametrize("integer", [False, True], ids=["gaussian", "integer"])
    @pytest.mark.parametrize("n,r,d,space", PATHS)
    def test_matches_oracle(self, rng, n, r, d, space, integer):
        for trial in range(3):
            factor = _factor_for_path(rng, n, r, integer)
            kmatrix = symmetrize(factor @ factor.T)
            s = d + trial % (n - d)
            solution = solve_spca(_instance(kmatrix, d, s))
            assert solution.diagnostics.extended_dim == _expected_dim(factor, space)
            report = brute_force_spca(kmatrix, d, s)
            assert solution.objective == pytest.approx(
                report.objective, rel=1e-8, abs=1e-8
            )
            assert solution.support in report.argmax_supports

    @pytest.mark.parametrize("variant", ["near-tie", "tiny"])
    @pytest.mark.parametrize("n,r,d,space", PATHS)
    def test_matches_oracle_near_ties_and_tiny(self, rng, n, r, d, space, variant):
        for trial in range(3):
            factor, scale = _variant_factor(rng, n, r, variant)
            kmatrix = symmetrize(scale * (factor @ factor.T))
            s = d + trial % (n - d)
            _assert_optimal(kmatrix, d, s, solve_spca(_instance(kmatrix, d, s)))

    @pytest.mark.parametrize("n,r,d,space", PATHS)
    def test_cells_within_prediction(self, rng, n, r, d, space):
        for _ in range(3):
            factor = _factor_for_path(rng, n, r, False)
            kmatrix = symmetrize(factor @ factor.T)
            result = enumerate_candidate_supports(_instance(kmatrix, d, d + 1))
            assert result.extended_dim == _expected_dim(factor, space)
            # The vertex count is known before any vertex is read.
            assert 1 <= result.cells_enumerated == result.predicted_cells

    @pytest.mark.parametrize("n,r,d,space", [p for p in PATHS if p.values[3] != "closed"])
    def test_every_ranking_has_its_candidate(self, rng, n, r, d, space):
        # Every region of constant top-s set has a straddling vertex, so the
        # top-s set at any sampled Y is one of the candidates.
        factor = _factor_for_path(rng, n, r, False)
        inst = _instance(symmetrize(factor @ factor.T), d, 3)
        result = enumerate_candidate_supports(inst)
        assert result.extended_dim == _expected_dim(factor, space)
        rows = inst.factor.factor
        for _ in range(2000):
            values = np.sum((rows @ rng.standard_normal((r, d))) ** 2, axis=1)
            top = tuple(sorted(np.argsort(-values)[:3].tolist()))
            assert top in result.supports

    def test_space_choice_for_one_component(self, rng):
        # d = 1 reads the space with fewer predicted candidate rows, vertices
        # times C(g, g // 2).  Up to n = r(r+1)/2 + 1 generic features that is
        # the braid of the lift (k = n - 1), above it the spannogram in R^r;
        # rank 5 at n = 20 reads the spannogram's 252,909 vertices, not the
        # lift's 31,008 that each tie 15 features.
        for n, r, dim in ((4, 2, 3), (5, 2, 2), (7, 2, 2), (7, 3, 6), (8, 3, 3),
                          (9, 3, 3), (11, 4, 10), (12, 4, 4)):
            kmatrix = random_low_rank_psd(rng, n, r)
            assert solve_spca(_instance(kmatrix, 1, 3)).diagnostics.extended_dim == dim

    def test_rank3_spannogram_reach(self, rng):
        # 132 planes in R^3: by insertion this shape took half a minute.
        kmatrix = random_low_rank_psd(rng, 12, 3)
        solution = solve_spca(_instance(kmatrix, 1, 4))
        assert solution.diagnostics.extended_dim == 3
        assert solution.diagnostics.cells_enumerated <= solution.diagnostics.predicted_cells
        report = brute_force_spca(kmatrix, 1, 4)
        assert solution.objective == pytest.approx(report.objective, rel=1e-8, abs=1e-8)
        assert solution.support in report.argmax_supports

    @pytest.mark.parametrize("n,r,d", [(9, 4, 1), (11, 4, 3), (7, 3, 2), (4, 2, 1)])
    def test_braid_cuts_nothing(self, rng, n, r, d):
        # By insertion rank 4, d = 1 took 5.6 s at n = 8 and 53 s at n = 9
        # (2-vCPU VM).  With k = n - 1 independent lifted differences the
        # fills of the 2n vertices are every support, generated directly.
        kmatrix = random_low_rank_psd(rng, n, r)
        s = d + 1
        solution = solve_spca(_instance(kmatrix, d, s))
        diag = solution.diagnostics
        assert diag.extended_dim == n - 1
        assert diag.cells_enumerated == diag.predicted_cells == 2 * n
        assert diag.hyperplanes == n * (n - 1) // 2
        assert diag.candidates_evaluated == math.comb(n, s)
        report = brute_force_spca(kmatrix, d, s)
        assert solution.objective == pytest.approx(report.objective, rel=1e-8, abs=1e-8)
        assert solution.support in report.argmax_supports

    @pytest.mark.parametrize("n,s", [(16, 4), (16, 8)])
    def test_rank4_reach(self, rng, n, s):
        # By insertion rank 4, d = 1 did not finish n = 12 in 600 s; the
        # spannogram's C(n, 4) 8 + C(n, 3) vertices are read in blocks.
        kmatrix = random_low_rank_psd(rng, n, 4)
        solution = solve_spca(_instance(kmatrix, 1, s))
        diag = solution.diagnostics
        assert diag.extended_dim == 4
        assert diag.cells_enumerated == diag.predicted_cells == math.comb(n, 4) * 8 + math.comb(n, 3)
        assert diag.hyperplanes == n * (n - 1)
        _assert_optimal(kmatrix, 1, s, solution)

    @pytest.mark.parametrize("r,n", [(3, 7), (4, 6)])
    def test_vertices_cover_the_cut_spannogram(self, rng, r, n):
        # Insertion parity for d = 1: every top-s set of a cell of the cut
        # spannogram is a vertex candidate, on tied integer factors whose
        # lift (k < n - 1) is not the braid.
        factor = _factor_for_path(rng, n, r, True)
        inst = _instance(symmetrize(factor @ factor.T), 1, 1)
        rows = inst.factor.factor
        cells = enumerate_cells(dedup_hyperplanes(_spannogram_lines(rows), r), r)
        values = (np.vstack([c.witness for c in cells]) @ rows.T) ** 2
        for s in range(1, n):
            result = enumerate_candidate_supports(_instance(inst.kmatrix, 1, s))
            assert result.extended_dim < n - 1
            candidates = set(result.supports)
            for top in _top_sets(values, s).tolist():
                assert tuple(top) in candidates

    @pytest.mark.parametrize("scale", [1.0, 1e-16])
    def test_one_dimensional_lift_reads_both_rays(self, scale):
        # R_1 = -R_0 and R_2 orthogonal: two functionals, so k = 1 and the
        # regions are the rays +-w.  On one of them {0, 1} is the top-2 set
        # with no tie at position 2, and it is the optimum (2 against 1.5).
        factor = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, np.sqrt(1.5)]])
        kmatrix = symmetrize(scale * (factor @ factor.T))
        solution = solve_spca(_instance(kmatrix, 1, 2))
        assert solution.diagnostics.extended_dim == 1
        assert solution.support == (0, 1)
        _assert_optimal(kmatrix, 1, 2, solution)

    def test_spannogram_records_opposite_rows(self, rng):
        # Rows 5 and 6 are small, so pivoting never picks them and their
        # factor rows come out exactly opposite: one functional, no plane.
        factor = rng.standard_normal((7, 2))
        factor[5] = 0.1 * factor[5]
        factor[6] = -factor[5]
        kmatrix = symmetrize(factor @ factor.T)
        inst = _instance(kmatrix, 1, 2)
        assert np.array_equal(inst.factor.row(6), -inst.factor.row(5))
        result = enumerate_candidate_supports(inst)
        assert result.extended_dim == 2
        assert (5, 6) in result.duplicate_feature_pairs
        report = brute_force_spca(kmatrix, 1, 2)
        assert solve_spca(inst).support in report.argmax_supports


def _spannogram_lines(rows):
    """The lines R_j -+ R_k, in the solver's order, of every pair whose
    functionals differ."""
    first, second = np.triu_indices(rows.shape[0], 1)
    lines = np.stack([rows[first] - rows[second], rows[first] + rows[second]], axis=1)
    distinct = np.all(np.any(lines, axis=2), axis=1)
    return lines[distinct].reshape(-1, rows.shape[1])


class TestPlaneSectors:
    """Rank 2, d = 1: the sectors between the sorted lines, read in arrays."""

    @pytest.mark.parametrize("n", [8, 12, 30])
    def test_reads_no_arrangement(self, rng, n):
        kmatrix = random_low_rank_psd(rng, n, 2)
        s = max(2, n // 4)
        inst = _instance(kmatrix, 1, s)
        solution = solve_spca(inst)
        diag = solution.diagnostics
        assert diag.extended_dim == 2
        assert diag.hyperplanes == n * (n - 1)
        # One vertex per line, and one per feature at level 0.
        assert diag.predicted_cells == diag.cells_enumerated == n * n
        assert 1 <= diag.candidates_evaluated <= diag.cells_enumerated
        if n <= 10:
            report = brute_force_spca(kmatrix, 1, s)
            assert solution.objective == pytest.approx(report.objective, rel=1e-8, abs=1e-8)
            assert solution.support in report.argmax_supports

    @pytest.mark.parametrize("tie", ["opposite", "double"])
    def test_ties_match_oracle(self, rng, tie):
        # R_1 = -R_0 offers no line for the pair; R_2 = 2 R_0 repeats the
        # line of each pair (0, j) as one of the pair (2, j), and the empty
        # sectors between repeated lines are dropped.
        for n in range(3, 10):
            while True:
                factor = rng.integers(-2, 3, size=(n, 2)).astype(float)
                if tie == "opposite":
                    factor[1] = -factor[0]
                else:
                    factor[2] = 2.0 * factor[0]
                if np.linalg.matrix_rank(factor) == 2:
                    break
            kmatrix = symmetrize(factor @ factor.T)
            for s in range(1, n + 1):
                solution = solve_spca(_instance(kmatrix, 1, s))
                report = brute_force_spca(kmatrix, 1, s)
                assert solution.objective == pytest.approx(
                    report.objective, rel=1e-8, abs=1e-8
                )
                assert solution.support in report.argmax_supports

    @pytest.mark.parametrize("n", [20, 35, 50])
    def test_parity_with_cut_sectors(self, rng, n):
        # Every top-s set of the cut, deduplicated arrangement is a
        # candidate; near-parallel lines the dedup merged add thin sectors.
        inst = _instance(random_low_rank_psd(rng, n, 2), 1, 3)
        rows = inst.factor.factor
        cells = enumerate_cells(dedup_hyperplanes(_spannogram_lines(rows), 2), 2)
        witnesses = np.vstack([c.witness for c in cells])
        del cells
        for s in (3, n // 3):
            result = enumerate_candidate_supports(_instance(inst.kmatrix, 1, s))
            assert result.extended_dim == 2
            candidates = set(result.supports)
            for values in (witnesses @ rows.T) ** 2:
                top = tuple(sorted(np.argsort(-values, kind="stable")[:s].tolist()))
                assert top in candidates

    def test_reach(self, rng):
        # By cutting, n = 100 took 87 s and 3.5 GB and n = 150 ran out of
        # memory (2-vCPU VM); the blocked sector read stays O(n^2).
        n, s = 300, 60
        kmatrix = random_low_rank_psd(rng, n, 2)
        inst = _instance(kmatrix, 1, s)
        solution = solve_spca(inst)
        diag = solution.diagnostics
        assert diag.extended_dim == 2
        assert diag.cells_enumerated <= diag.predicted_cells
        rows = inst.factor.factor
        directions = rng.standard_normal((2000, 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        sampled = np.sort(np.argsort(-(directions @ rows.T) ** 2, axis=1)[:, :s], axis=1)
        blocks = rows[sampled]
        lower = np.max(np.linalg.eigvalsh(blocks.transpose(0, 2, 1) @ blocks)[:, -1])
        upper = np.linalg.eigvalsh(kmatrix)[-1]
        assert lower - 1e-8 * upper <= solution.objective <= upper * (1 + 1e-10)


class TestIdenticalFeatures:
    """Features with one functional (zero rows, R_j = +-R_k), or within the
    tie band of a zero row, tie everywhere: each such class fills in order."""

    def test_fills_take_identical_features_in_order(self, rng):
        # 30 zero rows and copies of row 0 tie at every level-0 vertex; every
        # combination of them would be C(31, 11) fills per vertex.
        factor = np.vstack([rng.standard_normal((10, 2)), np.zeros((30, 2))])
        factor[[10, 11, 12]] = [factor[0], -factor[0], factor[0]]
        kmatrix = symmetrize(factor @ factor.T)
        solution = solve_spca(_instance(kmatrix, 1, 20))
        assert solution.diagnostics.candidates_evaluated < 100
        assert solution.objective == pytest.approx(np.linalg.eigvalsh(kmatrix)[-1], rel=1e-10)
        assert solution.support == tuple(range(20))

    @pytest.mark.parametrize("scale", [1e-6, 1e-10])
    def test_rows_of_tiny_norm_fill_in_order(self, rng, scale):
        # 30 rows that add under 1e-9 to any score form one class.  Those of
        # 1e-10 the others' norm tie with 0 at every level-0 vertex without
        # being equal: every combination would be C(30, 10) fills, past the
        # cap.  Any 10 of them score within 1e-11 of each other.
        factor = np.vstack([rng.standard_normal((10, 2)), scale * rng.standard_normal((30, 2))])
        kmatrix = symmetrize(factor @ factor.T)
        solution = solve_spca(_instance(kmatrix, 1, 20))
        assert solution.diagnostics.candidates_evaluated < 100
        assert solution.objective == pytest.approx(np.linalg.eigvalsh(kmatrix)[-1], rel=1e-10)
        assert solution.support[:10] == tuple(range(10))

    @pytest.mark.parametrize("r, scale", [(2, 1e-6), (2, 1e-10), (3, 1e-6), (3, 1e-10),
                                          (4, 1e-6)])
    def test_rows_of_tiny_norm_match_oracle(self, rng, r, scale):
        # The lift compares squares, in which rows of 1e-6 the others' norm
        # span directions of 1e-12: read as such, every k-subset of the
        # rank-4 lift held two of them and was dropped as rank-deficient.
        for _ in range(3):
            factor = np.vstack([rng.standard_normal((6, r)), scale * rng.standard_normal((6, r))])
            kmatrix = symmetrize(factor @ factor.T)
            for d in range(1, r):
                for s in range(d, 12):
                    _assert_optimal(kmatrix, d, s, solve_spca(_instance(kmatrix, d, s)))

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_block_diagonal_ties_read_once(self, rng, monkeypatch, duplicate):
        # A rank-2 block of 20 features and a rank-1 block: every level-0
        # vertex orthogonal to the first block is one point where its 20
        # features tie, reached from about 4,700 subsets; it is read once,
        # also when two of the 20 are one feature (a class of two), and
        # across the blocks of vertices (its fills are about 94,000-126,000).
        factor = np.zeros((26, 3))
        factor[:20, :2] = rng.standard_normal((20, 2))
        factor[20:, 2] = 3.0 * rng.standard_normal(6)
        if duplicate:
            factor[1] = factor[0]
        built = []
        vertex_masks = spca_module._vertex_masks

        def counted(*args):
            masks = vertex_masks(*args)
            built.extend(len(mask) for mask in masks)
            return masks

        monkeypatch.setattr(spca_module, "_vertex_masks", counted)
        solution = solve_spca(_instance(symmetrize(factor @ factor.T), 1, 14))
        assert solution.diagnostics.candidates_evaluated < 200_000
        assert sum(built) < 200_000
        small = factor[[*range(8), *range(20, 24)]]
        kmatrix = symmetrize(small @ small.T)
        for s in range(1, 12):
            _assert_optimal(kmatrix, 1, s, solve_spca(_instance(kmatrix, 1, s)))

    def test_too_many_fills_raise(self, rng):
        # 30 features of a rank-2 block tie at 0 where the rank-1 block
        # peaks, and s = 21 leaves 15 of them to fill: C(30, 15) > 2^22.
        factor = np.zeros((36, 3))
        factor[:30, :2] = rng.standard_normal((30, 2))
        factor[30:, 2] = 3.0 * rng.standard_normal(6)
        with pytest.raises(TooLarge):
            solve_spca(_instance(symmetrize(factor @ factor.T), 1, 21))

    @pytest.mark.parametrize("r", [2, 3])
    def test_match_oracle(self, rng, r):
        for _ in range(3):
            factor = np.vstack([rng.standard_normal((6, r)), np.zeros((3, r))])
            factor[[6, 7]] = [factor[0], -factor[1]]
            kmatrix = symmetrize(factor @ factor.T)
            for d in range(1, r):
                for s in range(d, 9):
                    _assert_optimal(kmatrix, d, s, solve_spca(_instance(kmatrix, d, s)))


class TestTies:
    """Tied supports: the lex-smallest of those within 1e-12 of the best."""

    def test_ties_go_to_the_lex_smallest_support(self):
        # Integer factors with R_1 = -R_0 tie features 0 and 1 everywhere,
        # and often others; the batched eigensolver's last bits used to pick
        # among them (n = 5, r = 3, d = 1, s = 1 returned (3,) for (0,)).
        rng = np.random.default_rng(11)
        for n, r, _ in itertools.product(range(4, 8), (2, 3), range(3)):
            factor = _factor_for_path(rng, n, r, True)
            for scale in (1.0, 1e-16):
                kmatrix = symmetrize(scale * (factor @ factor.T))
                for d in range(1, r):
                    for s in range(d, n + 1):
                        solution = solve_spca(_instance(kmatrix, d, s))
                        values = {sup: solve_pca(kmatrix[np.ix_(sup, sup)], d)[0]
                                  for sup in itertools.combinations(range(n), s)}
                        best = max(values.values())
                        tied = [sup for sup, v in values.items() if v >= best - 1e-12 * abs(best)]
                        assert solution.support == min(tied)
