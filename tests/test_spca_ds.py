from math import comb

import numpy as np
import pytest

import exactspca.spca_ds as spca_ds_module
from exactspca.arrangement import dedup_hyperplanes
from exactspca.circulation import (
    CirculationInstance,
    enumerate_undirected_circuits,
    is_optimal,
    optimal_at_profits,
    residual_circuits,
    solve_max_profit,
    supports_from_circulation,
)
from exactspca.errors import CertificateFailed, InvalidParameters
from exactspca.extension import MonomialBasis
from exactspca.linalg import symmetrize
from exactspca.oracle import brute_force_spca_ds
from exactspca.reference import build_arc_functional, build_circuit_functional
from exactspca.spca import SpcaInstance, solve_spca
from exactspca.spca_ds import (
    SpcaDsInstance,
    _block_swap,
    _circle_solutions,
    _complete_family,
    _families_by_covering,
    _family_values,
    _in_half,
    _mod_pi,
    _pair_crossings,
    _region_profits,
    _separating_circuits,
    _shape_circuit_table,
    _sinusoid_coefficients,
    _slice_geometry,
    _slice_region_rows,
    _torus_sweep,
    _walk_families,
    build_circuit_hyperplanes,
    solve_spca_ds,
)

from conftest import random_low_rank_psd


def _instance(kmatrix, d, s):
    return SpcaDsInstance.build(kmatrix, d, s)


class TestCircuitHyperplanes:
    def test_rank_one_collapses_to_one_hyperplane(self):
        q = np.array([2.0, 1.0])
        planes = build_circuit_hyperplanes(_instance(symmetrize(np.outer(q, q)), 1, 1))
        # All circuit functionals are multiples of the single lifted square.
        assert len(planes.hyperplanes) == 1
        assert planes.circuits_enumerated == 3

    def test_zero_matrix_empty(self):
        planes = build_circuit_hyperplanes(_instance(np.zeros((3, 3)), 2, 1))
        assert planes.hyperplanes.size == 0
        assert planes.extended_dim == 0

    def test_rank_one_two_blocks_dedup(self):
        q = np.array([2.0, 1.0])
        planes = build_circuit_hyperplanes(_instance(symmetrize(np.outer(q, q)), 2, 1))
        # 13 circuits collapse to 7 distinct lines in the 2-dim lifted space:
        # the two axes, the difference line, and four mixed directions.
        assert planes.circuits_enumerated == 13
        assert len(planes.hyperplanes) == 7

    def test_degenerate_circuits_counted(self):
        row = np.array([1.0, 2.0])
        factor = np.vstack([row, row])
        kmatrix = symmetrize(factor @ factor.T)
        planes = build_circuit_hyperplanes(_instance(kmatrix, 2, 1))
        assert planes.degenerate_circuits > 0

    @pytest.mark.parametrize("d,n,r", [
        (1, 2, 2), (1, 4, 3), (2, 2, 2), (2, 3, 2), (2, 4, 3), (3, 3, 2), (3, 4, 2), (3, 4, 3),
    ])
    @pytest.mark.parametrize("kind", ["gaussian", "same", "negated", "repeated"])
    def test_table_matches_per_circuit_functionals(self, d, n, r, kind):
        # The table's product equals the per-circuit sums of arc
        # functionals bit for bit, with the same degenerate circuits.  Integer
        # factors with R_1 = R_0 or R_1 = -R_0, or a repeated Gaussian row,
        # make circuits cancel exactly where the factor rows come out equal.
        rng = np.random.default_rng(100 * d + 10 * n + r)
        if kind == "gaussian" or kind == "repeated":
            factor = rng.standard_normal((n, r))
            if kind == "repeated":
                factor[-1] = factor[0]
        else:
            factor = rng.integers(-3, 4, size=(n, r)).astype(float)
            factor[1] = factor[0] if kind == "same" else -factor[0]
        inst = _instance(symmetrize(factor @ factor.T), d, 1)
        planes = build_circuit_hyperplanes(inst)
        basis = MonomialBasis(inst.rank, d)
        arcs = {
            (i, j): build_arc_functional(basis, inst.factor.row(j), i)
            for i in range(d) for j in range(n)
        }
        np.testing.assert_array_equal(
            planes.arc_coeffs, [arcs[i, j].coeffs for i in range(d) for j in range(n)]
        )
        reference = [
            build_circuit_functional(circuit, arcs, basis).coeffs
            for circuit in enumerate_undirected_circuits(d, n)
        ]
        live = np.array([row for row in reference if np.any(row)]).reshape(-1, basis.dim)
        assert planes.circuits_enumerated == len(reference)
        assert planes.degenerate_circuits == len(reference) - len(live)
        if kind == "gaussian":
            assert planes.degenerate_circuits == 0
        np.testing.assert_array_equal(planes.table[:, : d * n] @ planes.arc_coeffs, live)
        np.testing.assert_array_equal(planes.hyperplanes, dedup_hyperplanes(live, basis.dim))

    @pytest.mark.parametrize("s", [1, 2])
    def test_cover_with_duplicate_features_matches_is_optimal(self, s):
        # Duplicate features make degenerate circuits of exactly zero profit,
        # which the table leaves out; coverage still equals the Bellman-Ford
        # certificate row by row.
        factor = np.random.default_rng(12).standard_normal((3, 2))
        factor[2] = factor[0]
        inst = _instance(symmetrize(factor @ factor.T), 2, s)
        planes = build_circuit_hyperplanes(inst)
        assert planes.degenerate_circuits > 0
        profits = _region_profits(inst, planes)[0]
        covered = 0
        for first in range(0, len(profits), 40):
            circ = CirculationInstance(2, 3, s, profits[first])
            flow = solve_max_profit(circ)
            mask = optimal_at_profits(circ, flow, profits, planes.table)
            expected = [is_optimal(CirculationInstance(2, 3, s, row), flow)[0] for row in profits]
            np.testing.assert_array_equal(mask, expected)
            covered += int(mask.sum())
        assert 0 < covered < len(profits) * len(range(0, len(profits), 40))


class TestSolveSpcaDs:
    def test_rank_one_disjoint_singletons(self):
        q = np.array([3.0, 2.0, 1.0])
        solution = solve_spca_ds(_instance(symmetrize(np.outer(q, q)), 2, 1))
        assert solution.supports == ((0,), (1,))
        assert solution.objective == pytest.approx(13.0, abs=1e-10)

    def test_single_component_equals_spca(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 7))
            r = int(rng.integers(1, 3))
            s = min(int(rng.integers(1, 4)), n)
            kmatrix = random_low_rank_psd(rng, n, r)
            ds = solve_spca_ds(_instance(kmatrix, 1, s))
            plain = solve_spca(SpcaInstance.build(kmatrix, 1, s))
            assert ds.objective == pytest.approx(plain.objective, rel=1e-8)

    def test_matches_oracle_rank_one(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 7))
            s = int(rng.integers(1, 3))
            kmatrix = random_low_rank_psd(rng, n, 1)
            solution = solve_spca_ds(_instance(kmatrix, 2, s))
            report = brute_force_spca_ds(kmatrix, 2, s)
            assert solution.objective == pytest.approx(
                report.objective, rel=1e-8, abs=1e-8
            )

    def test_matches_oracle_rank_two(self, rng):
        for _ in range(3):
            s = int(rng.integers(1, 3))
            kmatrix = random_low_rank_psd(rng, 4, 2)
            solution = solve_spca_ds(_instance(kmatrix, 2, s))
            report = brute_force_spca_ds(kmatrix, 2, s)
            assert solution.objective == pytest.approx(
                report.objective, rel=1e-8, abs=1e-8
            )

    def test_scaled_down_instance_matches_oracle(self, rng):
        # Optimality is invariant under positive scaling: at K * 1e-16 every
        # arc profit is below 1e-16, and the regions must still be told apart.
        for s in (2, 3, 2, 3):
            kmatrix = 1e-16 * random_low_rank_psd(rng, 3, 2)
            solution = solve_spca_ds(_instance(kmatrix, 2, s))
            assert solution.diagnostics.candidates_evaluated > 1
            assert solution.objective == pytest.approx(
                brute_force_spca_ds(kmatrix, 2, s).objective, rel=1e-8, abs=0.0
            )

    @pytest.mark.parametrize("scale", [1.0, 1e-16])
    def test_tied_integer_torus_matches_oracle(self, scale):
        # Integer factors with R_1 = -R_0 tie arcs and cancel circuits.  The
        # torus runs at n > 2s only: below, the solver reads top sets.
        rng = np.random.default_rng(21)
        for n, s in ((5, 2), (6, 2), (7, 3)):
            inst = None
            while inst is None or inst.rank != 2:
                factor = rng.integers(-3, 4, size=(n, 2)).astype(float)
                factor[1] = -factor[0]
                kmatrix = scale * symmetrize(factor @ factor.T)
                inst = _instance(kmatrix, 2, s)
            solution = solve_spca_ds(inst)
            assert solution.diagnostics.sweep_lines > 0
            assert solution.objective == pytest.approx(
                brute_force_spca_ds(kmatrix, 2, s).objective, rel=1e-9, abs=0.0
            )

    def test_ties_do_not_hang_on_last_bits(self, monkeypatch):
        # Integer factors with R_1 = -R_0 give tied families.  Nudging every
        # family's value by a few ulps, as another eigensolver would, must not
        # change the answer: ties go to the smallest flattened family.
        rng = np.random.default_rng(11)
        exact = spca_ds_module._family_values
        for n, s in [(3, 2), (5, 2), (4, 2)] * 3:
            inst = None
            while inst is None or inst.rank != 2:
                factor = rng.integers(-2, 3, size=(n, 2)).astype(float)
                factor[1] = -factor[0]
                inst = _instance(symmetrize(factor @ factor.T), 2, s)
            expected = solve_spca_ds(inst).supports
            for sign in (1.0, -1.0):
                def nudged(families, factor, sign=sign):
                    values = exact(families, factor)
                    ramp = sign * np.arange(len(values)) * 4e-16 * np.max(np.abs(values))
                    return values + ramp

                monkeypatch.setattr(spca_ds_module, "_family_values", nudged)
                assert solve_spca_ds(inst).supports == expected
                monkeypatch.undo()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_walk_finds_every_torus_family(self, rng, n):
        # The torus cuts every region at rank 2, d = 2; the walk, called on
        # the same shape, reaches every family optimal in one of them.
        for s in (1, 2):
            inst = _instance(random_low_rank_psd(rng, n, 2), 2, s)
            planes = build_circuit_hyperplanes(inst)
            torus, _ = _families_by_covering(_region_profits(inst, planes)[0], s, planes.table)
            walked, counts = _walk_families(inst, planes, {"circulations": 0.0})
            assert torus <= walked
            assert counts["cells_enumerated"] == len(walked)
            assert counts["facet_lps"] > 0

    # Both shapes past the torus at n = 3 and 4, with s = 2 and 3 (s = 1 is
    # one region).  Gaussian draws walk 700-3,800 facet LPs (2-12 s a solve)
    # at rank 2, d = 3 with n = 4 or s = 2, and 500-800 at rank 3, d = 2,
    # n = 4, so those shapes take the integer draws only, and rank 2, n = 4
    # no 1e-16 copy.  Rank 3, d = 2 has n <= 2s here, which the solver reads
    # as top sets, so its walk runs stage by stage (n = 5 walks about 1,500
    # LPs, 4.5 s a solve).
    @pytest.mark.parametrize("r,d,n,s,kinds", [
        (3, 2, 3, 3, ("gaussian", "integer", "tiny")),
        (3, 2, 3, 2, ("gaussian", "integer", "tiny")),
        (3, 2, 4, 3, ("integer", "tiny")),
        (3, 2, 4, 2, ("integer", "tiny")),
        (2, 3, 3, 3, ("gaussian", "integer", "tiny")),
        (2, 3, 3, 2, ("integer", "tiny")),
        (2, 3, 4, 3, ("integer",)),
        (2, 3, 4, 2, ("integer",)),
    ])
    def test_walk_matches_oracle(self, r, d, n, s, kinds):
        # Integer factors with R_1 = -R_0 (where n > r leaves the rank at r)
        # tie features exactly, and their 1e-16 copies ("tiny") must walk to
        # the same optimum.
        rng = np.random.default_rng(1000 * r + 100 * d + 10 * n + s)
        factors = {}
        for kind in ("gaussian", "integer"):
            factor = None
            while factor is None or np.linalg.matrix_rank(factor) < r:
                if kind == "gaussian":
                    factor = rng.standard_normal((n, r))
                else:
                    factor = rng.integers(-3, 4, size=(n, r)).astype(float)
                    if n > r:
                        factor[1] = -factor[0]
            factors[kind] = factor
        for kind in kinds:
            factor = factors["integer" if kind == "tiny" else kind]
            kmatrix = symmetrize(factor @ factor.T) * (1e-16 if kind == "tiny" else 1.0)
            inst = _instance(kmatrix, d, s)
            expected = brute_force_spca_ds(kmatrix, d, s).objective
            solution = solve_spca_ds(inst)
            assert solution.objective == pytest.approx(expected, rel=1e-8, abs=0.0)
            if d == 2 and n <= 2 * s:
                objective, families, counts = _walked(inst)
                assert inst.rank == r and counts["facet_lps"] > 0
                assert counts["cells_enumerated"] == families
                assert objective == pytest.approx(expected, rel=1e-8, abs=0.0)
                continue
            diag = solution.diagnostics
            assert diag.rank == r and diag.sweep_lines == 0 and diag.facet_lps > 0
            assert diag.cells_enumerated == diag.candidates_evaluated
            assert set(diag.stage_ms) >= {"regions", "circulations"}

    @pytest.mark.parametrize("r,d", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_walk_chart_and_sleeve(self, rng, r, d):
        # The chart is orthonormal with unit trace per block, and the sleeve
        # holds the lifted point of any unit vectors.  Its fan repeats only
        # the r coordinate axes, each r - 1 times; every other fan row stays.
        origin, basis = _slice_geometry(r, d)
        lift = MonomialBasis(r, d)
        diagonal = ~MonomialBasis(r, 1).off_diagonal
        assert basis.shape == (lift.dim, lift.dim - d)
        assert np.allclose(basis.T @ basis, np.eye(lift.dim - d), rtol=0.0, atol=1e-14)
        points = origin[:, None] + basis @ rng.standard_normal((lift.dim - d, 50))
        traces = points.reshape(d, lift.block, 50)[:, diagonal].sum(axis=1)
        assert np.allclose(traces, 1.0, rtol=0.0, atol=1e-12)
        sleeve = _slice_region_rows(r, d)
        assert np.allclose(np.linalg.norm(sleeve[:, :-1], axis=1), 1.0, rtol=0.0, atol=1e-14)
        for _ in range(50):
            y = rng.standard_normal((r, d))
            t = basis.T @ (lift.ext(y / np.linalg.norm(y, axis=0)) - origin)
            assert np.all(sleeve[:, :-1] @ t + sleeve[:, -1] >= -1e-12)
        fan = sleeve[: len(sleeve) // d - r * (r - 1)]
        assert len(fan) == 12 * r * (r - 1) // 2 - r * (r - 2)
        fan = fan / np.linalg.norm(fan, axis=1, keepdims=True)
        assert np.max(np.triu(fan @ fan.T, 1)) < 1.0 - 1e-6

    def test_feasibility(self, rng):
        for _ in range(4):
            kmatrix = random_low_rank_psd(rng, 4, 2)
            s = int(rng.integers(1, 3))
            solution = solve_spca_ds(_instance(kmatrix, 2, s))
            flat = [j for sup in solution.supports for j in sup]
            assert len(flat) == len(set(flat))
            for i, support in enumerate(solution.supports):
                assert 1 <= len(support) <= s
                assert abs(np.linalg.norm(solution.x[:, i]) - 1.0) < 1e-8
                outside = [j for j in range(4) if j not in support]
                assert not np.any(solution.x[outside, i])
            factor = SpcaDsInstance.build(kmatrix, 2, s).factor
            recomputed = sum(
                float(np.linalg.norm(factor.factor.T @ solution.x[:, i]) ** 2)
                for i in range(2)
            )
            assert solution.objective == pytest.approx(recomputed, rel=1e-8)

    def test_same_cell_resolves_consistently(self, rng):
        # Re-solving the circulation at other interior points of the same
        # sign region gives circulations of equal value at those points.
        from exactspca.circulation import CirculationInstance, solve_max_profit

        kmatrix = random_low_rank_psd(rng, 4, 2)
        inst = _instance(kmatrix, 2, 1)
        planes = build_circuit_hyperplanes(inst)
        normals = planes.hyperplanes
        basis = MonomialBasis(2, 2)
        y0 = rng.standard_normal((2, 2))
        y0 /= np.linalg.norm(y0, axis=0, keepdims=True)
        base_point = basis.ext(y0)
        base_signs = np.sign(normals @ base_point)
        profits0 = (planes.arc_coeffs @ base_point).reshape(2, 4)
        circ0 = CirculationInstance(2, 4, 1, profits0)
        family = solve_max_profit(circ0)
        base_family_value = family.profit(circ0)
        checked = 0
        for _ in range(200):
            if checked >= 5:
                break
            y = y0 + 0.05 * rng.standard_normal((2, 2))
            y /= np.linalg.norm(y, axis=0, keepdims=True)
            point = basis.ext(y)
            if not np.array_equal(np.sign(normals @ point), base_signs):
                continue
            checked += 1
            profits = (planes.arc_coeffs @ point).reshape(2, 4)
            circ = CirculationInstance(2, 4, 1, profits)
            best = solve_max_profit(circ).profit(circ)
            # The base family stays optimal anywhere in the region.
            value_of_base = sum(
                profits[i, j] for i, sup in enumerate(
                    (tuple(np.nonzero(family.a0[i])[0]) for i in range(2))
                ) for j in sup
            )
            assert value_of_base == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_objective_monotone_in_s(self, rng):
        kmatrix = random_low_rank_psd(rng, 4, 2)
        values = [
            solve_spca_ds(_instance(kmatrix, 2, s)).objective for s in (1, 2)
        ]
        assert np.all(np.diff(values) >= -1e-10)

    def test_objective_monotone_in_d(self, rng):
        kmatrix = random_low_rank_psd(rng, 4, 2)
        one = solve_spca_ds(_instance(kmatrix, 1, 2)).objective
        two = solve_spca_ds(_instance(kmatrix, 2, 2)).objective
        assert two >= one - 1e-10

    def test_zero_matrix_completion(self):
        solution = solve_spca_ds(_instance(np.zeros((3, 3)), 2, 1))
        assert solution.supports == ((0,), (1,))
        assert solution.objective == 0.0
        assert solution.diagnostics.completions_in_best == 2

    def test_completion_steals_when_pool_empty(self):
        # Two features, two components, s = 2 at rank one: the circulation
        # may park both features on one component; completion must split.
        q = np.array([2.0, 1.0])
        solution = solve_spca_ds(_instance(symmetrize(np.outer(q, q)), 2, 2))
        assert solution.supports == ((0,), (1,)) or solution.supports == ((1,), (0,))
        assert solution.objective == pytest.approx(5.0, rel=1e-10)

    def test_invalid_parameters(self, rng):
        kmatrix = random_low_rank_psd(rng, 3, 1)
        with pytest.raises(InvalidParameters):
            SpcaDsInstance.build(kmatrix, 4, 1)  # d > n
        with pytest.raises(InvalidParameters):
            SpcaDsInstance.build(kmatrix, 0, 1)
        with pytest.raises(InvalidParameters):
            SpcaDsInstance.build(kmatrix, 1, 0)

    def test_diagnostics_counts(self, rng):
        kmatrix = random_low_rank_psd(rng, 5, 2)
        solution = solve_spca_ds(_instance(kmatrix, 2, 2))
        diag = solution.diagnostics
        assert diag.circuits_enumerated == 145
        # n = 5 > d * s: the torus leaves out the 40 circuits t-u-w-u-w-t,
        # which change the flow's value; the single arcs stay as touch cuts.
        assert diag.circuits_pruned == 40
        # One solve per family; the other regions are certified in batch.
        assert 1 <= diag.candidates_evaluated <= diag.circulation_solves < diag.cells_enumerated
        assert set(diag.stage_ms) >= {"regions", "circulations"}


class TestReductions:
    def test_one_component_with_s_above_n_matches_oracle(self, rng):
        # d = 1 is sparse PCA with support size min(s, n).
        for r in (0, 1, 2, 3):
            for n in (3, 4):
                kmatrix = random_low_rank_psd(rng, n, r)
                solution = solve_spca_ds(_instance(kmatrix, 1, n + 2))
                report = brute_force_spca_ds(kmatrix, 1, n + 2)
                assert solution.objective == pytest.approx(
                    report.objective, rel=1e-8, abs=1e-8
                )
                (support,) = solution.supports
                assert set(support) <= set(range(n))
                assert abs(np.linalg.norm(solution.x[:, 0]) - 1.0) < 1e-8

    def test_one_component_solves_no_circulation(self, rng):
        for n, r, s in ((5, 0, 2), (6, 1, 2), (6, 2, 3), (5, 3, 2)):
            kmatrix = random_low_rank_psd(rng, n, r)
            diag = solve_spca_ds(_instance(kmatrix, 1, s)).diagnostics
            assert diag.circulation_solves == 0
            assert diag.circuits_enumerated == 0

    @pytest.mark.parametrize("r", [0, 1])
    def test_rank_at_most_one_is_one_region(self, rng, r):
        for n, d, s in ((3, 2, 1), (5, 2, 2), (6, 3, 1), (4, 3, 2), (4, 2, 3)):
            kmatrix = random_low_rank_psd(rng, n, r)
            solution = solve_spca_ds(_instance(kmatrix, d, s))
            diag = solution.diagnostics
            assert diag.circuits_enumerated == 0
            assert diag.cells_enumerated == 1
            top = np.sort(np.diag(kmatrix))[::-1][: min(d * s, n)].sum()
            assert solution.objective == pytest.approx(top, rel=1e-10, abs=1e-12)
            assert solution.objective == pytest.approx(
                brute_force_spca_ds(kmatrix, d, s).objective, rel=1e-8, abs=1e-8
            )

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    def test_single_feature_supports_are_one_region(self, monkeypatch, r, d):
        # At s = 1 a support {j} is worth K_jj = |R_j|^2 at any rank, so every
        # component has the same profit row: one region, one assignment on
        # the squared row norms, no circuit, no torus and no walk.  The first
        # component takes the largest K_jj, at every rank.
        def refuse(*args, **kwargs):
            raise AssertionError("s = 1 cut or walked the regions")

        for name in ("build_circuit_hyperplanes", "_torus_sweep", "_walk_families"):
            monkeypatch.setattr(spca_ds_module, name, refuse)
        rng = np.random.default_rng(10 * r + d)
        for n in range(d, 7):
            tied = rng.integers(-3, 4, size=(n, r)).astype(float)
            tied[1] = -tied[0]
            zero_row = rng.standard_normal((n, r))
            zero_row[rng.integers(n)] = 0.0
            factors = {"gaussian": rng.standard_normal((n, r)), "tied": tied,
                       "zero-row": zero_row, "binary": rng.integers(0, 2, size=(n, r)) * 1.0}
            for kind, factor in factors.items():
                for scale in (1.0, 1e-16):
                    kmatrix = scale * symmetrize(factor @ factor.T)
                    solution = solve_spca_ds(_instance(kmatrix, d, 1))
                    diag = solution.diagnostics
                    assert diag.cells_enumerated == diag.circulation_solves == 1
                    assert diag.sweep_lines == diag.facet_lps == diag.circuits_enumerated == 0
                    assert [len(support) for support in solution.supports] == [1] * d
                    if kind == "gaussian":
                        top = np.argsort(-np.diag(kmatrix), kind="stable")[:d]
                        assert solution.supports == tuple((j,) for j in top)
                    assert solution.objective == pytest.approx(
                        brute_force_spca_ds(kmatrix, d, 1).objective, rel=1e-9, abs=0.0
                    )

    def test_rank_one_builds_no_circuit_table(self, monkeypatch):
        # At rank <= 1 the one region needs no circuit: a wide rank-1 shape
        # (1,408 circuits at d = 2, n = 11) must not enumerate them.
        def refuse(*args, **kwargs):
            raise AssertionError("rank <= 1 built the circuit table")

        monkeypatch.setattr(spca_ds_module, "enumerate_undirected_circuits", refuse)
        monkeypatch.setattr(spca_ds_module, "circuit_table", refuse)
        q = np.random.default_rng(3).standard_normal(11)
        kmatrix = symmetrize(np.outer(q, q))
        solution = solve_spca_ds(_instance(kmatrix, 2, 5))
        assert solution.diagnostics.circuits_enumerated == 0
        top = np.sort(np.diag(kmatrix))[::-1][:10].sum()
        assert solution.objective == pytest.approx(top, rel=1e-10)


class TestTorusWitnesses:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3)])
    def test_witnesses_strictly_interior_with_distinct_keys(self, rng, d, n):
        for _ in range(3):
            inst = _instance(random_low_rank_psd(rng, n, 2), d, 1)
            normals = build_circuit_hyperplanes(inst).hyperplanes
            a, b, c = _sinusoid_coefficients(normals, d)
            scale = np.hypot(a, b).sum(axis=1) + np.abs(c)
            keys = set()
            witnesses = _torus_sweep(normals)[0]
            for phis in witnesses:
                cos, sin = np.cos(phis), np.sin(phis)
                lifted = np.column_stack([cos * cos, cos * sin, sin * sin]).ravel()
                values = normals @ lifted
                assert np.min(np.abs(values) / scale) > 1e-12
                keys.add((values > 0.0).tobytes())
            assert len(keys) == len(witnesses)


def _torus_factor(rng, n, integer):
    """Gaussian rows, or small integer rows with R_1 = -R_0 (at n = 2, where
    that leaves rank one, R_1 is R_0 turned by a right angle: equal norms)."""
    if not integer:
        return rng.standard_normal((n, 2))
    while True:
        factor = rng.integers(-2, 3, size=(n, 2)).astype(float)
        factor[1] = -factor[0] if n > 2 else [-factor[0, 1], factor[0, 0]]
        if np.linalg.matrix_rank(factor) == 2:
            return factor


@pytest.mark.parametrize("integer", [False, True], ids=["gaussian", "integer"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_torus_witnesses_cover_grid_regions(rng, n, integer):
    # Every sign vector seen on a 256 x 256 grid of angle pairs, away from
    # the curves, must be the sign vector of some witness or of its mirror
    # (phi2, phi1), also at K * 1e-16: the sweep reads the half phi1 <= phi2.
    factor = _torus_factor(rng, n, integer)

    def lifted(phis):
        cos, sin = np.cos(phis), np.sin(phis)
        return np.stack([cos * cos, cos * sin, sin * sin], axis=2).reshape(len(phis), -1)

    for k_scale in (1.0, 1e-16):
        inst = _instance(k_scale * symmetrize(factor @ factor.T), 2, 1)
        normals = build_circuit_hyperplanes(inst).hyperplanes
        a, b, c = _sinusoid_coefficients(normals, 2)
        scale = np.hypot(a, b).sum(axis=1) + np.abs(c)
        witnesses = _torus_sweep(normals)[0]
        witnesses = np.vstack([witnesses, witnesses[:, ::-1]])
        known = {row.tobytes() for row in (lifted(witnesses) @ normals.T) > 0.0}
        grid = (np.arange(256) + 0.5) * np.pi / 256
        seen = set()
        for phi1 in grid:
            phis = np.column_stack([np.full_like(grid, phi1), grid])
            values = lifted(phis) @ normals.T
            clear = np.min(np.abs(values) / scale, axis=1) > 1e-9
            seen.update(row.tobytes() for row in values[clear] > 0.0)
        assert seen and seen <= known


@pytest.mark.parametrize("seed,draw,n,scale,point", [
    (5, 17, 3, 1.0, (1.93963335, 2.64621287)),
    (400, 5, 4, 1e-16, (2.84359539, 2.44331832)),
])
def test_torus_witnesses_keep_region_beside_touch_point(seed, draw, n, scale, point):
    # A single arc's curve (R_j . y_i)^2 only touches zero and toggles no
    # sign, but its touch points must still cut the sweep lines, or an arc
    # midpoint lands on one and its region is lost.  The first region
    # (relative margin 3.3e-4 at the point) is split in half by a touch
    # line; the second (margin 2.9e-5) sits beside a touch point whose
    # double root rounds to no root at all.  The sweep reads the half
    # phi1 <= phi2, so each witness stands for its mirror (phi2, phi1) too.
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        factor = rng.standard_normal((n, 2))
    inst = _instance(scale * symmetrize(factor @ factor.T), 2, 1)
    normals = build_circuit_hyperplanes(inst).hyperplanes

    def signs(phis):
        cos, sin = np.cos(phis), np.sin(phis)
        lifted = np.stack([cos * cos, cos * sin, sin * sin], axis=2).reshape(len(phis), -1)
        return {row.tobytes() for row in (lifted @ normals.T) > 0.0}

    witnesses = _torus_sweep(normals)[0]
    assert signs(np.array([point])) <= signs(np.vstack([witnesses, witnesses[:, ::-1]]))


def _tangent_oval():
    """One curve, cos(2 phi1 - 2 alpha) + cos(2 phi2) = 2 - eps: an oval
    about 0.014 wide around (alpha, 0)."""
    alpha, eps = 0.307, 1e-4
    a0, b0, c = np.cos(2 * alpha), np.sin(2 * alpha), -(2.0 - eps)
    return np.array([[a0 + c, 2 * b0, c - a0, 1.0, 0.0, -1.0]])


def test_torus_witnesses_find_tangent_slab_region():
    # No crossing bounds the oval, so only the slab between its two
    # vertical tangents finds the inside: its line, cut at the oval's two
    # roots, is the one that meets it.
    normal = _tangent_oval()
    witnesses = _torus_sweep(normal)[0]
    cos, sin = np.cos(witnesses), np.sin(witnesses)
    values = np.stack([cos * cos, cos * sin, sin * sin], axis=2).reshape(len(witnesses), -1) @ normal.T
    assert sorted(bool(v) for v in values[:, 0] > 0.0) == [False, True]


def test_torus_sweep_cuts_one_line_per_slab():
    # The oval's events are its two vertical tangents and the wrap edge
    # phi1 = 0 of the swept half: three slabs, one line each.
    assert _torus_sweep(_tangent_oval())[1] == 3


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e5])
def test_hub_curve_crossings_are_vertical_tangents(rng, scale):
    # The hub curve (R_j . y_1)^2 = (R_j . y_2)^2 is the diagonal and the
    # line phi2 = 2 theta_j - phi1, which cross at phi1 = theta_j and
    # theta_j + pi/2.  `_pair_crossings` scatters those triple roots, but
    # both are the curve's vertical tangents, which `_torus_sweep` solves in
    # closed form and keeps as events (selected here as it selects them):
    # the slabs stay bounded there, and a scattered crossing only adds a
    # spurious event.
    basis = MonomialBasis(2, 2)
    rows = scale * np.vstack([rng.standard_normal((40, 2)),
                              rng.integers(1, 4, (20, 2)) * rng.choice([-1, 1], (20, 2)),
                              [[1.0, 0.0], [0.0, -2.0], [3.0, 3.0]]])
    for row in rows:
        theta = np.arctan2(row[1], row[0])
        square = basis.row_block_coefficients(row)
        for sign in (1.0, -1.0):
            a, b, c = _sinusoid_coefficients(sign * np.hstack([square, -square])[None, :], 2)
            radius_2 = np.hypot(a[:, 1], b[:, 1])
            peak = _mod_pi(np.arctan2(b[:, 1], a[:, 1]) / 2.0)
            events = []
            for quarter, level in enumerate((-c - radius_2, -c + radius_2)):
                at = _mod_pi(peak + quarter * np.pi / 2.0)
                events += [x[_in_half(x, at)] for x in _circle_solutions(a[:, 0], b[:, 0], level)]
            events = np.concatenate(events)
            for target in (theta, theta + np.pi / 2.0):
                gap = np.mod(events - target, np.pi)
                assert np.min(np.minimum(gap, np.pi - gap)) < 1e-12, (row, sign, target, events)


@pytest.mark.parametrize("scale", [1.0, 1e-16])
@pytest.mark.parametrize("integer", [False, True], ids=["gaussian", "integer"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_torus_normals_closed_under_block_swap(rng, n, integer, scale):
    # The half sweep's premise: swapping the components maps every circuit
    # normal onto a normal of the set, up to sign.
    factor = _torus_factor(rng, n, integer)
    inst = _instance(scale * symmetrize(factor @ factor.T), 2, 1)
    normals = build_circuit_hyperplanes(inst).hyperplanes
    units = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    swapped = np.hstack([units[:, 3:], units[:, :3]])
    cosines = np.abs(swapped @ units.T)
    assert np.all(np.abs(cosines.max(axis=1) - 1.0) < 1e-12)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("n", [3, 4])
def test_torus_families_cover_grid_assignments(rng, n, s):
    # Without the sweep: the assignment optimal at each point of a 64 x 64
    # grid of angle pairs, away from the curves, is a covered family in one
    # support order or the other.
    factor = rng.standard_normal((n, 2))
    inst = _instance(symmetrize(factor @ factor.T), 2, s)
    _assert_cover_holds_grid_assignments(inst, build_circuit_hyperplanes(inst))


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_separating_circuits_cover_grid_assignments(rng, n, s):
    # As above, on the planes the solver builds: the torus cuts and covers
    # with the circuits that can bound an optimal family only, and the grid
    # points need only clear those curves.
    factor = rng.standard_normal((n, 2))
    inst = _instance(symmetrize(factor @ factor.T), 2, s)
    planes = build_circuit_hyperplanes(inst, _separating_circuits(2, n))
    assert planes.circuits_pruned > 0
    _assert_cover_holds_grid_assignments(inst, planes)


def _assert_cover_holds_grid_assignments(inst, planes):
    n, s = inst.n, inst.s
    families, _ = _families_by_covering(_region_profits(inst, planes)[0], s, planes.table)
    normals = planes.hyperplanes
    a, b, c = _sinusoid_coefficients(normals, 2)
    scale = np.hypot(a, b).sum(axis=1) + np.abs(c)
    grid = (np.arange(64) + 0.5) * np.pi / 64
    phis = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=2).reshape(-1, 2)
    cos, sin = np.cos(phis), np.sin(phis)
    values = np.stack([cos * cos, cos * sin, sin * sin], axis=2).reshape(len(phis), -1) @ normals.T
    clear = phis[np.min(np.abs(values) / scale, axis=1) > 1e-9]
    assert len(clear) > 0
    y = np.stack([np.cos(clear), np.sin(clear)], axis=1)  # (m, 2, d)
    profits = np.swapaxes((inst.factor.factor @ y) ** 2, 1, 2)
    for row in profits:
        circ = CirculationInstance(2, n, s, row)
        family = supports_from_circulation(circ, solve_max_profit(circ))
        assert family in families or family[::-1] in families


def _circular_gap(x, y):
    gap = np.abs(x - y) % np.pi
    return np.minimum(gap, np.pi - gap)


def _transversal_crossings(a, b, c, radius_2, pair):
    """The crossings of one pair of curves that are transversal and not at
    phi1 or phi2 = pi/2, or None when the pair leaves a second angle
    unknown (proportional parts)."""
    phi1, phi2 = _pair_crossings(a[pair], b[pair], c[pair], radius_2[pair])
    unknown = np.isnan(phi2)
    if np.any(unknown & (phi1 != np.pi / 2.0)):
        return None
    points = np.column_stack([phi1, phi2])[~unknown]
    # Gradients of both curves at each point, against the curves' scale:
    # tangencies and singular points (a hub curve's diagonal meets its
    # reflected line) are roots the eigensolver scatters.
    d1 = 2.0 * (b[pair, :1] * np.cos(2.0 * points[:, 0]) - a[pair, :1] * np.sin(2.0 * points[:, 0]))
    d2 = 2.0 * (b[pair, 1:] * np.cos(2.0 * points[:, 1]) - a[pair, 1:] * np.sin(2.0 * points[:, 1]))
    reach = np.hypot(a[pair], b[pair]).sum(axis=1) + np.abs(c[pair])
    cross = np.abs(d1[0] * d2[1] - d1[1] * d2[0]) / (reach[0] * reach[1])
    # A crossing at phi1 = pi/2 is the returned pi/2 with no second angle.
    off_axis = np.all(_circular_gap(points, np.pi / 2.0) > 1e-9, axis=1)
    return points[(cross > 1e-3) & off_axis]


@pytest.mark.parametrize("scale", [1.0, 1e-16])
@pytest.mark.parametrize("integer", [False, True], ids=["gaussian", "integer"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_crossings_of_swapped_pairs_are_mirrored(rng, n, integer, scale):
    # The sweep solves one of each two pairs that swap into each other and
    # reads the other's crossings as the mirrors (phi2, phi1) of its own.
    factor = _torus_factor(rng, n, integer)
    inst = _instance(scale * symmetrize(factor @ factor.T), 2, 1)
    normals = build_circuit_hyperplanes(inst).hyperplanes
    a, b, c = _sinusoid_coefficients(normals, 2)
    reach = np.hypot(a, b).sum(axis=1) + np.abs(c)
    flips = reach - 2.0 * np.abs(c) > 1e-12 * reach  # the curves the sweep pairs
    a, b, c, normals = a[flips], b[flips], c[flips], normals[flips]
    radius_2 = np.hypot(a[:, 1], b[:, 1])
    mirror = _block_swap(normals)
    pairs = np.column_stack(np.triu_indices(len(normals), 1))
    pairs = pairs[rng.permutation(len(pairs))[:150]]
    compared = 0
    for pair in pairs:
        own = _transversal_crossings(a, b, c, radius_2, pair)
        swapped = _transversal_crossings(a, b, c, radius_2, mirror[pair])
        if own is None or swapped is None:
            continue
        mirrored = swapped[:, ::-1]
        assert len(own) == len(mirrored), (pair, own, mirrored)
        if len(own):
            gaps = np.maximum(_circular_gap(own[:, None, 0], mirrored[None, :, 0]),
                              _circular_gap(own[:, None, 1], mirrored[None, :, 1]))
            assert gaps.min(axis=1).max() < 1e-5 and gaps.min(axis=0).max() < 1e-5
        compared += len(own)
    assert compared > 0 or (integer and n == 2)


def test_block_swap_needs_a_partner_for_every_curve():
    # Swapping the components swaps the two 3-coordinate blocks of a normal:
    # the first two normals swap into each other and the third into its
    # negation.  Without the second, the first has no partner and the half
    # sweep would miss the mirrors of its regions.
    normals = np.array([[1.0, 0.0, -1.0, 2.0, 1.0, 0.0],
                        [2.0, 1.0, 0.0, 1.0, 0.0, -1.0],
                        [1.0, 0.0, -1.0, -1.0, 0.0, 1.0]])
    assert _block_swap(normals).tolist() == [1, 0, 2]
    with pytest.raises(CertificateFailed):
        _block_swap(normals[[0, 2]])


@pytest.mark.parametrize("draw,point", [
    (1, (2.88932318, 3.1408281)),
    (9, (2.42217461, 3.14059611)),
    (46, (1.40739981, 3.14066344)),
])
def test_torus_witnesses_keep_regions_beside_the_wrap(draw, point):
    # Regions beside phi2 -> pi == 0 (relative margins 5.6e-5 to 8.1e-4 at
    # these points) cross the wrap: the sweep finds them through the
    # mirrors of witnesses near phi1 = 0, as slab events are cut only in
    # the half phi1 <= phi2.
    rng = np.random.default_rng(7)
    for _ in range(draw):
        factor = rng.standard_normal((3, 2))
    inst = _instance(symmetrize(factor @ factor.T), 2, 1)
    normals = build_circuit_hyperplanes(inst).hyperplanes

    def signs(phis):
        cos, sin = np.cos(phis), np.sin(phis)
        lifted = np.stack([cos * cos, cos * sin, sin * sin], axis=2).reshape(len(phis), -1)
        return {row.tobytes() for row in (lifted @ normals.T) > 0.0}

    witnesses = _torus_sweep(normals)[0]
    assert signs(np.array([point])) <= signs(np.vstack([witnesses, witnesses[:, ::-1]]))


@pytest.mark.parametrize("n,draws", [(3, 6), (4, 2)])
def test_generic_torus_drops_no_witness(rng, n, draws):
    # An arc no wider than the witness margin beside a root cannot clear it
    # and is not keyed, so on generic factors every key finds its witness.
    # The sweep runs stage by stage: the solver reads n <= 2s as top sets.
    for _ in range(draws):
        factor = rng.standard_normal((n, 2))
        inst = _instance(symmetrize(factor @ factor.T), 2, 2)
        _, swept = _region_profits(inst, build_circuit_hyperplanes(inst, _separating_circuits(2, n)))
        assert swept["sweep_lines"] > 0
        assert swept["dropped_witnesses"] == 0


@pytest.mark.parametrize("n,integer,draws", [(3, False, 8), (3, True, 8), (4, False, 2)])
def test_half_slab_events_find_the_regions_of_every_event(monkeypatch, rng, n, integer, draws):
    # Cutting slabs only at the events of the half phi1 <= phi2 (and the
    # mirrors of the others), with one quartic per swapped pair of pairs,
    # finds the regions that cutting at every crossing and tangent finds.
    def region_signs(normals):
        witnesses = _torus_sweep(normals)[0]
        phis = np.vstack([witnesses, witnesses[:, ::-1]])
        cos, sin = np.cos(phis), np.sin(phis)
        lifted = np.stack([cos * cos, cos * sin, sin * sin], axis=2).reshape(len(phis), -1)
        return {row.tobytes() for row in (lifted @ normals.T) > 0.0}

    cases = []
    for _ in range(draws):
        factor = _torus_factor(rng, n, integer)
        inst = _instance(symmetrize(factor @ factor.T), 2, 1)
        normals = build_circuit_hyperplanes(inst).hyperplanes
        cases.append((normals, region_signs(normals)))
    monkeypatch.setattr(spca_ds_module, "_in_half", lambda phi1, phi2: np.ones(np.shape(phi1), bool))
    monkeypatch.setattr(spca_ds_module, "_block_swap", lambda normals: np.arange(len(normals)))
    for normals, half in cases:
        assert half == region_signs(normals)


@pytest.mark.parametrize("d,n,total,kept", [(2, 3, 36, 24), (2, 4, 78, 54), (3, 3, 150, 78)])
def test_separating_circuits_counts(d, n, total, kept):
    # The circuits t-u-w-u-w-t, through one component arc and one feature
    # arc, are left out: 24 of the 78 at (d, n) = (2, 4).
    selection = _separating_circuits(d, n)
    assert selection.size == len(enumerate_undirected_circuits(d, n)) == total
    assert np.count_nonzero(selection) == kept


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_separating_circuits_closed_under_swapping_components(rng, n, s):
    # The half sweep mirrors the kept circuits: swapping u_0 and u_1 maps
    # the kept rows of the table onto themselves, up to traversal sign.  The
    # selection takes no s, so at every s the rows it leaves out must gain
    # less than zero, where residual, at a flow optimal at positive profits.
    table = _shape_circuit_table(2, n)
    keep = _separating_circuits(2, n)
    swapped = table[:, : 2 * n].reshape(-1, 2, n)[:, ::-1].reshape(-1, 2 * n)
    rows = {row.tobytes() for row in table[keep, : 2 * n]}
    for row in swapped[keep]:
        assert row.tobytes() in rows or (-row + 0.0).tobytes() in rows
    for profits in rng.uniform(0.1, 1.0, size=(10, 2, n)):
        circ = CirculationInstance(2, n, s, profits)
        gains = residual_circuits(circ, solve_max_profit(circ), table[~keep]) @ profits.ravel()
        assert np.all(gains < 0.0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dropped_circuits_never_gain_at_optimal_flows(rng, n):
    # The lemma behind the pruned torus, without the sweep: at a torus point
    # every arc profit (R_j . y_i)^2 is positive, and for the flow optimal
    # there each circuit left out is not residual, or gains strictly less
    # than zero in its residual direction.  Random points, and points on
    # each dropped circuit's own curve, where it gains zero both ways and so
    # must not be residual at all.
    dropped = np.asarray(_shape_circuit_table(2, n))[~_separating_circuits(2, n)]
    for s in (1, 2, 3):
        for _ in range(2):
            inst = _instance(random_low_rank_psd(rng, n, 2), 2, s)
            factor, arc_coeffs = inst.factor.factor, build_circuit_hyperplanes(inst).arc_coeffs
            a, b, c = _sinusoid_coefficients(dropped[:, : 2 * n] @ arc_coeffs, 2)
            # Draw one angle and solve each curve for the other, the one it
            # depends on more (a circuit on one component has no other).
            solved = np.argmax(np.hypot(a, b), axis=1)
            rows = np.arange(len(dropped))
            drawn = rng.uniform(0.0, np.pi, size=len(dropped))
            level = -(a[rows, 1 - solved] * np.cos(2.0 * drawn)
                      + b[rows, 1 - solved] * np.sin(2.0 * drawn) + c)
            on_curves = [np.where(solved[:, None] == 1, np.column_stack([drawn, root]),
                                  np.column_stack([root, drawn]))
                         for root in _circle_solutions(a[rows, solved], b[rows, solved], level)]
            phis = np.vstack([rng.uniform(0.0, np.pi, size=(20, 2))] + on_curves)
            phis = phis[~np.isnan(phis).any(axis=1)]
            assert len(phis) > 20
            y = np.stack([np.cos(phis), np.sin(phis)], axis=1)  # (points, 2, d)
            for profits in np.swapaxes((factor @ y) ** 2, 1, 2):
                circ = CirculationInstance(2, n, s, profits)
                flow = solve_max_profit(circ)
                gains = residual_circuits(circ, flow, dropped) @ profits.ravel()
                assert np.all(gains < -1e-9 * profits.max())


def _pruned_torus(inst):
    """Best family value and pruned-circuit count of the pruned torus
    stages run directly: the solver sends s = 1 to its one-region branch
    and n <= 2s to its top sets."""
    n, s = inst.n, inst.s
    planes = build_circuit_hyperplanes(inst, _separating_circuits(2, n))
    profits, _ = _region_profits(inst, planes)
    families, _ = _families_by_covering(profits, s, planes.table)
    completed = [_complete_family(family, inst.factor, s)[0] for family in families]
    return _family_values(completed, inst.factor).max(), planes.circuits_pruned


@pytest.mark.parametrize("s, n", [(s, n) for s in (1, 2, 3) for n in (3, 4, 5, 6)
                                  if (s, n) != (1, 6)])
def test_pruned_torus_matches_oracle(n, s):
    # Each regime: n < d * s (some slot stays free), n = d * s and n > d * s
    # (some feature stays unused).  Gaussian factors, integer factors with
    # R_1 = -R_0, which tie features exactly, a zero row, whose feature has
    # zero profit everywhere, and their 1e-16 copies.  At s = 1 the solver
    # takes its one region, and at n <= 2s it reads top sets: there the
    # pruned torus is run stage by stage, on the unscaled factors only (the
    # n > 2s rows hold it to the 1e-16 copies).
    rng = np.random.default_rng(100 * n + s)
    factors = [_torus_factor(rng, n, integer) for integer in (False, True, False, True)]
    factors.append(rng.standard_normal((n, 2)) * (np.arange(n) > 0)[:, None])
    for factor in factors:
        for scale in (1.0, 1e-16):
            kmatrix = scale * symmetrize(factor @ factor.T)
            inst = _instance(kmatrix, 2, s)
            solution = solve_spca_ds(inst)
            expected = brute_force_spca_ds(kmatrix, 2, s).objective
            assert solution.objective == pytest.approx(expected, rel=1e-9, abs=0.0)
            if s > 1 and n > 2 * s:
                assert solution.diagnostics.circuits_pruned > 0
            elif s == 1 or scale == 1.0:
                objective, pruned = _pruned_torus(inst)
                assert pruned > 0
                assert objective == pytest.approx(expected, rel=1e-9, abs=0.0)
                if s > 1:  # two independent routes: the torus and the top sets
                    top_sets = _family_values([solution.supports], inst.factor)[0]
                    assert top_sets == pytest.approx(objective, rel=1e-12, abs=0.0)

def _walked(inst):
    """Best family value, family count and counts of the chart walk run
    stage by stage: the solver reads two components with n <= 2s as top
    sets."""
    families, counts = _walk_families(inst, build_circuit_hyperplanes(inst), {"circulations": 0.0})
    completed = [_complete_family(family, inst.factor, inst.s)[0] for family in families]
    return _family_values(completed, inst.factor).max(), len(families), counts


def _top_set_factors(rng, n, r):
    """Gaussian, tied integer (R_1 = -R_0), zero-row, R_1 = -R_0 beside a
    zero row, and faint-row (norm 1e-12) factors."""
    tied = rng.integers(-2, 3, size=(n, r)).astype(float)
    tied[1] = -tied[0]
    zero_row = rng.standard_normal((n, r))
    zero_row[-1] = 0.0
    faint = rng.standard_normal((n, r))
    faint[-1] *= 1e-12 / np.linalg.norm(faint[-1])
    return {"gaussian": rng.standard_normal((n, r)), "tied": tied, "zero-row": zero_row,
            "negated-zero": np.vstack([tied[:2], zero_row[-1:], rng.standard_normal((n - 3, r))]),
            "faint": faint}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_top_sets_match_oracle(monkeypatch, r):
    # Two components with n <= 2s: every family (S_1, complement) with S_1 a
    # top set of the trace-free difference functionals, with no circuit,
    # circulation, torus or walk.  Each size k in [max(1, n - s), min(s, n - 1)]
    # reads 2 C(n, k') vertices, k' the dimension of the functionals' span.
    def refuse(*args, **kwargs):
        raise AssertionError("n <= 2s cut, swept, walked or solved a circulation")

    for name in ("build_circuit_hyperplanes", "_torus_sweep", "_walk_families", "solve_max_profit"):
        monkeypatch.setattr(spca_ds_module, name, refuse)
    rng = np.random.default_rng(40 + r)
    for n in range(3, 7):
        # The smallest window, [n - s, s], and the widest, [1, n - 1].
        for s in sorted({-(-n // 2), n - 1}):
            for kind, factor in _top_set_factors(rng, n, r).items():
                kmatrix = symmetrize(factor @ factor.T)
                if np.linalg.matrix_rank(factor) < 2:
                    continue
                expected = brute_force_spca_ds(kmatrix, 2, s).objective
                for scale in (1.0, 1e-16, 1e8):
                    solution = solve_spca_ds(_instance(scale * kmatrix, 2, s))
                    diag = solution.diagnostics
                    assert diag.sweep_lines == diag.facet_lps == 0
                    assert diag.circulation_solves == diag.completions_in_best == 0
                    sizes = min(s, n - 1) - max(1, n - s) + 1
                    assert diag.cells_enumerated == sizes * 2 * comb(n, diag.extended_dim)
                    assert diag.extended_dim <= min(n - 1, diag.rank * (diag.rank + 1) // 2 - 1)
                    assert solution.objective == pytest.approx(
                        scale * expected, rel=1e-9, abs=0.0), (kind, n, s, scale)
