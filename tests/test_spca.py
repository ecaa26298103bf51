import itertools
import math

import numpy as np
import pytest

from exactspca.errors import InvalidParameters
from exactspca.extension import MonomialBasis, build_row_functional
from exactspca.linalg import symmetrize
from exactspca.oracle import brute_force_spca
from exactspca.spca import (
    SpcaInstance,
    candidate_support_from_point,
    enumerate_candidate_supports,
    solve_spca,
)

from conftest import random_low_rank_psd


def _instance(kmatrix, d, s):
    return SpcaInstance.build(kmatrix, d, s)


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
        from exactspca.spca import _top_sets

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
        from exactspca.arrangement import expected_generic_cell_count

        kmatrix = random_low_rank_psd(rng, 6, 2)
        solution = solve_spca(_instance(kmatrix, 2, 3))
        diag = solution.diagnostics
        assert 1 <= diag.candidates_evaluated <= diag.cells_enumerated
        assert diag.best_cell_signs is not None
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
        from exactspca.arrangement import expected_generic_cell_count

        kmatrix = random_low_rank_psd(rng, 6, 3)
        solution = solve_spca(_instance(kmatrix, 2, 3))
        diag = solution.diagnostics
        assert diag.extended_dim == 6  # one lifted block of r(r+1)/2
        assert diag.hyperplanes > 0
        assert 1 <= diag.candidates_evaluated <= diag.cells_enumerated
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


# (n, r, d, dimension cut): the closed form (r <= d), the spannogram in R^r,
# the lift of one r(r+1)/2 block for d = 1 at rank >= 4 where it predicts
# less work, and the one-block lift for 1 < d < r.  With n - 1 <= r(r+1)/2
# the lift is the braid arrangement, whose cells are read, not cut, unless
# the factor has R_1 = -R_0: so the Gaussian trials of the lifted and braid
# shapes take the braid and their integer trials cut the lift by insertion.
PATHS = [
    pytest.param(6, 1, 1, 0, id="closed-form-rank1"),
    pytest.param(6, 2, 2, 0, id="closed-form-rank2"),
    pytest.param(7, 2, 1, 2, id="spannogram-r2"),
    pytest.param(8, 3, 1, 3, id="spannogram-r3"),
    pytest.param(6, 4, 1, 10, id="lifted-d1"),
    pytest.param(6, 3, 2, 6, id="lifted-block"),
    pytest.param(5, 4, 3, 10, id="braid"),
]


class TestPaths:
    @pytest.mark.parametrize("integer", [False, True], ids=["gaussian", "integer"])
    @pytest.mark.parametrize("n,r,d,dim", PATHS)
    def test_matches_oracle(self, rng, n, r, d, dim, integer):
        for trial in range(3):
            factor = _factor_for_path(rng, n, r, integer)
            kmatrix = symmetrize(factor @ factor.T)
            s = d + trial % (n - d)
            solution = solve_spca(_instance(kmatrix, d, s))
            assert solution.diagnostics.extended_dim == dim
            report = brute_force_spca(kmatrix, d, s)
            assert solution.objective == pytest.approx(
                report.objective, rel=1e-8, abs=1e-8
            )
            assert solution.support in report.argmax_supports

    @pytest.mark.parametrize("n,r,d,dim", PATHS)
    def test_cells_within_prediction(self, rng, n, r, d, dim):
        for _ in range(3):
            factor = _factor_for_path(rng, n, r, False)
            kmatrix = symmetrize(factor @ factor.T)
            result = enumerate_candidate_supports(_instance(kmatrix, d, d + 1))
            assert result.extended_dim == dim
            assert 1 <= result.cells_enumerated <= result.predicted_cells

    @pytest.mark.parametrize("n,r,d,dim", [p for p in PATHS if p.values[3] > 0])
    def test_every_ranking_has_its_candidate(self, rng, n, r, d, dim):
        # Each cell must fix the ranking of the n quadratics, so the top-s set
        # at any sampled Y is one of the candidates.
        factor = _factor_for_path(rng, n, r, False)
        inst = _instance(symmetrize(factor @ factor.T), d, 3)
        result = enumerate_candidate_supports(inst)
        assert result.extended_dim == dim
        rows = inst.factor.factor
        for _ in range(2000):
            values = np.sum((rows @ rng.standard_normal((r, d))) ** 2, axis=1)
            top = tuple(sorted(np.argsort(-values)[:3].tolist()))
            assert top in result.supports

    def test_space_choice_for_one_component(self, rng):
        # Up to n = r(r+1)/2 + 1 generic features read the braid of the lift.
        # Above it ranks 2 and 3 always cut the spannogram, whose cells come
        # in closed form.  At rank 4 (from n = 12, or below with ties) the
        # space with fewer predicted cell tests is cut: the lift up to n = 8,
        # the spannogram above.  Solving tied shapes that large takes about a
        # minute, so that choice is read off the model.
        from exactspca.spca import _choose_space

        for n, r, dim in ((4, 2, 3), (5, 2, 2), (7, 2, 2), (7, 3, 6), (8, 3, 3),
                          (9, 3, 3), (11, 4, 10)):
            kmatrix = random_low_rank_psd(rng, n, r)
            assert solve_spca(_instance(kmatrix, 1, 3)).diagnostics.extended_dim == dim
        for n, dim in ((8, 10), (9, 4)):
            assert _choose_space(n, 4, 1, n * (n - 1) // 2)[1] == dim

    def test_rank3_spannogram_reach(self, rng):
        # 132 planes in R^3: by insertion this shape took half a minute.
        kmatrix = random_low_rank_psd(rng, 12, 3)
        solution = solve_spca(_instance(kmatrix, 1, 4))
        assert solution.diagnostics.extended_dim == 3
        assert solution.diagnostics.cells_enumerated <= solution.diagnostics.predicted_cells
        report = brute_force_spca(kmatrix, 1, 4)
        assert solution.objective == pytest.approx(report.objective, rel=1e-8, abs=1e-8)
        assert solution.support in report.argmax_supports

    @pytest.mark.parametrize("dim", [2, 3])
    def test_insertion_bounds_count_generic_prefixes(self, rng, dim):
        # On generic hyperplanes the predicted cell tests are exactly the
        # cells of each prefix the next insertion splits.
        from exactspca.arrangement import enumerate_cells
        from exactspca.spca import _insertion_bounds

        normals = rng.standard_normal((7, dim))
        prefix_cells = [len(enumerate_cells(normals[:h], dim)) for h in range(8)]
        assert _insertion_bounds(7, dim, np.inf) == (prefix_cells[-1], sum(prefix_cells[:-1]))
        assert _insertion_bounds(7, dim, 10)[0] == 10

    @pytest.mark.parametrize("n,r,d", [(9, 4, 1), (11, 4, 3), (7, 3, 2), (4, 2, 1)])
    def test_braid_cuts_nothing(self, rng, monkeypatch, n, r, d):
        # By insertion rank 4, d = 1 took 5.6 s at n = 8 and 53 s at n = 9
        # (2-vCPU VM); the braid reads every support without cutting.
        def refuse(*args, **kwargs):
            raise AssertionError("the braid must not cut cells")

        monkeypatch.setattr("exactspca.spca.enumerate_cells", refuse)
        kmatrix = random_low_rank_psd(rng, n, r)
        s = d + 1
        solution = solve_spca(_instance(kmatrix, d, s))
        diag = solution.diagnostics
        assert diag.extended_dim == r * (r + 1) // 2
        assert diag.cells_enumerated == diag.predicted_cells == math.factorial(n)
        assert diag.hyperplanes == n * (n - 1) // 2
        assert diag.candidates_evaluated == math.comb(n, s)
        report = brute_force_spca(kmatrix, d, s)
        assert solution.objective == pytest.approx(report.objective, rel=1e-8, abs=1e-8)
        assert solution.support in report.argmax_supports

    def test_cut_cell_signs_belong_to_the_winner(self, rng):
        # The one witness kept per support gives the signs of a cell of the
        # cut arrangement whose top-s set is the winning support.
        from exactspca.arrangement import dedup_hyperplanes, enumerate_cells

        rows = rng.standard_normal((8, 2))
        inst = _instance(symmetrize(rows @ rows.T), 1, 3)
        solution = solve_spca(inst)
        assert solution.diagnostics.extended_dim == 2
        rows = inst.factor.factor
        first, second = np.triu_indices(8, 1)
        normals = np.stack([rows[first] - rows[second], rows[first] + rows[second]], axis=1)
        cells = enumerate_cells(dedup_hyperplanes(normals.reshape(-1, 2), 2), 2)
        tops = {c.signs: tuple(sorted(np.argsort(-(rows @ c.witness) ** 2,
                                                  kind="stable")[:3].tolist()))
                for c in cells}
        assert tops[solution.diagnostics.best_cell_signs] == solution.support

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
    def test_reads_no_arrangement(self, rng, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("rank 2, d = 1 must not build hyperplanes or cells")

        monkeypatch.setattr("exactspca.spca.enumerate_cells", refuse)
        monkeypatch.setattr("exactspca.spca.dedup_hyperplanes", refuse)
        kmatrix = random_low_rank_psd(rng, n, 2)
        s = max(2, n // 4)
        inst = _instance(kmatrix, 1, s)
        solution = solve_spca(inst)
        diag = solution.diagnostics
        assert diag.extended_dim == 2
        assert diag.hyperplanes == n * (n - 1)
        assert diag.predicted_cells == 2 * diag.hyperplanes
        assert 1 <= diag.candidates_evaluated <= diag.cells_enumerated <= diag.predicted_cells
        # The winner's signs are taken over the offered lines, and a point
        # with those signs ranks the winning support on top.
        lines = _spannogram_lines(inst.factor.factor)
        assert len(diag.best_cell_signs) == len(lines)
        from exactspca.arrangement import witness_for_signs

        point = witness_for_signs(lines, diag.best_cell_signs, 2)
        values = (inst.factor.factor @ point) ** 2
        assert tuple(sorted(np.argsort(-values)[:s].tolist())) == solution.support
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
        from exactspca.arrangement import dedup_hyperplanes, enumerate_cells

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
