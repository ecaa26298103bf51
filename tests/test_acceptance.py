"""Acceptance gate for the package.

Eight criteria, each printed as a PASS/FAIL line.  Criteria 1-2 certify the
two solvers against brute force at desk scale, 3-6 certify the supporting
machinery, 7-8 check the candidate bookkeeping and solution feasibility on
the same instance sets.  Run with ``pytest tests/test_acceptance.py -s`` to
see the lines as they are produced.
"""

import time

import numpy as np
import pytest

from exactspca.circulation import (
    CirculationInstance,
    enumerate_undirected_circuits,
    is_optimal,
    solve_max_profit,
)
from exactspca.linalg import symmetric_eig, symmetrize
from exactspca.oracle import (
    brute_force_max_profit,
    brute_force_spca,
    brute_force_spca_ds,
)
from exactspca.reference import Hyperplane, enumerate_cells, expected_generic_cell_count
from exactspca.spca import SpcaInstance, enumerate_candidate_supports, solve_spca
from exactspca.spca_ds import SpcaDsInstance, solve_spca_ds

from conftest import undirected_circuit_chis_bruteforce

REL_TOL = 1e-8


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    return passed


def _relative_gap(value, reference):
    return abs(value - reference) / (1.0 + abs(reference))


@pytest.fixture(scope="module")
def spca_runs():
    """200 random instances: solver vs brute force, with diagnostics kept."""
    rng = np.random.default_rng(811_001)
    runs = []
    started = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(4, 9))
        r = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        s = int(rng.integers(d, 5))
        factor = rng.standard_normal((n, r))
        kmatrix = symmetrize(factor @ factor.T)
        instance = SpcaInstance.build(kmatrix, d, s)
        solution = solve_spca(instance)
        report = brute_force_spca(kmatrix, d, s)
        candidates = enumerate_candidate_supports(instance)
        runs.append(
            {
                "n": n, "r": r, "d": d, "s": s,
                "kmatrix": kmatrix,
                "solution": solution,
                "oracle": report,
                "candidates": candidates,
            }
        )
    elapsed = time.perf_counter() - started
    return runs, elapsed


@pytest.fixture(scope="module")
def spca_ds_runs():
    """60 rank-one and 20 rank-two instances against brute force."""
    rng = np.random.default_rng(811_002)
    runs = []
    started = time.perf_counter()
    for _ in range(60):
        n = int(rng.integers(3, 7))
        s = int(rng.integers(1, 3))
        factor = rng.standard_normal((n, 1))
        kmatrix = symmetrize(factor @ factor.T)
        solution = solve_spca_ds(SpcaDsInstance.build(kmatrix, 2, s))
        report = brute_force_spca_ds(kmatrix, 2, s)
        runs.append({"n": n, "r": 1, "s": s, "kmatrix": kmatrix,
                     "solution": solution, "oracle": report})
    for _ in range(20):
        s = int(rng.integers(1, 3))
        factor = rng.standard_normal((4, 2))
        kmatrix = symmetrize(factor @ factor.T)
        solution = solve_spca_ds(SpcaDsInstance.build(kmatrix, 2, s))
        report = brute_force_spca_ds(kmatrix, 2, s)
        runs.append({"n": 4, "r": 2, "s": s, "kmatrix": kmatrix,
                     "solution": solution, "oracle": report})
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_1_spca_oracle_equivalence(spca_runs):
    runs, elapsed = spca_runs
    mismatched = [
        run for run in runs
        if _relative_gap(run["solution"].objective, run["oracle"].objective) > REL_TOL
        or run["solution"].support not in run["oracle"].argmax_supports
    ]
    detail = (
        f"{len(runs) - len(mismatched)}/{len(runs)} instances match brute force "
        f"(objective at 1e-8 relative, support among maximizers) in {elapsed:.1f}s"
    )
    passed = _report(1, not mismatched and elapsed < 300.0, detail)
    assert passed


def test_criterion_2_spca_ds_oracle_equivalence(spca_ds_runs):
    runs, elapsed = spca_ds_runs
    mismatched = [
        run for run in runs
        if _relative_gap(run["solution"].objective, run["oracle"].objective) > REL_TOL
    ]
    detail = (
        f"{len(runs) - len(mismatched)}/{len(runs)} instances match brute force "
        f"at 1e-8 relative in {elapsed:.1f}s"
    )
    passed = _report(2, not mismatched and elapsed < 900.0, detail)
    assert passed


def test_criterion_3_gram_spectrum_identities():
    rng = np.random.default_rng(811_003)
    worst = 0.0
    for _ in range(500):
        s = int(rng.integers(1, 11))
        r = int(rng.integers(1, 5))
        m = rng.standard_normal((s, r))
        big = symmetric_eig(symmetrize(m @ m.T)).eigenvalues
        small = symmetric_eig(symmetrize(m.T @ m)).eigenvalues
        for d in range(1, 6):
            k = min(d, r)
            lhs = float(np.sum(big[:k]))
            rhs = float(np.sum(small[:k]))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    detail = f"500 factor pairs, top-eigenvalue sums agree; worst gap {worst:.2e}"
    assert _report(3, worst <= 1e-9, detail)


def test_criterion_4_circulation_certification():
    rng = np.random.default_rng(811_004)
    failures = 0
    for _ in range(500):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        s = int(rng.integers(1, 4))
        inst = CirculationInstance(d, n, s, rng.standard_normal((d, n)) * 2.0)
        flow = solve_max_profit(inst)
        reference = brute_force_max_profit(inst)
        optimal, _ = is_optimal(inst, flow)
        if abs(flow.profit(inst) - reference.objective) > 1e-9 or not optimal:
            failures += 1
    detail = f"{500 - failures}/500 instances: solver profit matches assignment " \
             f"enumeration and the certificate confirms optimality"
    assert _report(4, failures == 0, detail)


def test_criterion_5_arrangement_completeness():
    rng = np.random.default_rng(811_005)
    count_failures = 0
    sample_misses = 0
    for _ in range(50):
        q = int(rng.integers(1, 5))
        p = int(rng.integers(1, 11))
        planes = [Hyperplane(rng.standard_normal(q)) for _ in range(p)]
        cells = enumerate_cells(planes, q)
        if len(cells) != expected_generic_cell_count(p, q):
            count_failures += 1
            continue
        signs = {c.signs for c in cells}
        normals = np.vstack([h.normal / np.linalg.norm(h.normal) for h in planes])
        points = rng.standard_normal((10_000, q))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        values = points @ normals.T
        keep = np.min(np.abs(values), axis=1) > 1e-7
        for row in values[keep]:
            if tuple(1 if v > 0 else -1 for v in row) not in signs:
                sample_misses += 1
    detail = (
        f"50 random central arrangements: {50 - count_failures} exact counts, "
        f"{sample_misses} sphere-sample misses out of 500000 points"
    )
    assert _report(5, count_failures == 0 and sample_misses == 0, detail)


def test_criterion_6_circuit_enumeration_counts():
    # First half: the structured enumeration must agree with a generic
    # brute-force cycle enumerator on the graph, and must list every circuit
    # once (a duplicate would inflate the circuit and hyperplane counts).
    grid_ok = True
    for d in range(1, 4):
        for n in range(1, 5):
            keys = [c.canonical_key() for c in enumerate_undirected_circuits(d, n)]
            if len(keys) != len(set(keys)):
                grid_ok = False
            if set(keys) != undirected_circuit_chis_bruteforce(d, n):
                grid_ok = False
    # Second half: pinned totals of the two smallest digraphs (hub t, edges
    # t-u_i, u_i-w_j, w_j-t), counted by hand.
    #   (d=1, n=2): 3 circuits, t-u0-w0-t, t-u0-w1-t and t-w0-u0-w1-t.
    #   (d=2, n=2): 13 circuits, by family:
    #     4 balanced with one u      t-u_i-w_j-t              (2 u's x 2 w's)
    #     4 balanced with two u's    t-u_a-w_x-u_b-w_y-t      (2 for u_a x 2 for w_x)
    #     2 entering and leaving t via u's   t-u0-w_x-u1-t    (2 choices of w)
    #     2 entering and leaving t via w's   t-w0-u_i-w1-t    (2 choices of u)
    #     1 alternating 4-cycle      u0-w0-u1-w1-u0
    # The circuits through t on one vertex class are needed: on (1, 2) the
    # certificate that the flow on w0 is not optimal under profits [[1, 2]]
    # is t->w0->u0->w1->t, and its hyperplane p[0, 0] = p[0, 1] is what
    # tells which feature of the component is better.
    count_12 = len(enumerate_undirected_circuits(1, 2))
    count_22 = len(enumerate_undirected_circuits(2, 2))
    pinned_ok = (count_12, count_22) == (3, 13)
    detail = (
        f"enumeration matches the brute-force cycle oracle without duplicates "
        f"on the full grid: {grid_ok}; pinned totals want (3, 13), the graphs "
        f"have ({count_12}, {count_22}) circuits"
    )
    assert _report(6, grid_ok and pinned_ok, detail)


def test_criterion_7_candidate_counts(spca_runs):
    runs, _ = spca_runs
    failures = 0
    for run in runs:
        candidates = run["candidates"]
        count = len(candidates.supports)
        if not 1 <= count <= candidates.cells_enumerated:
            failures += 1
            continue
        if not any(sup in candidates.supports for sup in run["oracle"].argmax_supports):
            failures += 1
    detail = (
        f"{len(runs) - failures}/{len(runs)} instances: 1 <= candidates <= cells "
        f"and an optimal support is among the candidates"
    )
    assert _report(7, failures == 0, detail)


def test_criterion_8_solution_feasibility(spca_runs, spca_ds_runs):
    runs, _ = spca_runs
    ds_runs, _ = spca_ds_runs
    failures = 0
    for run in runs:
        solution = run["solution"]
        d, s, n = run["d"], run["s"], run["n"]
        gram = solution.x.T @ solution.x
        if np.max(np.abs(gram - np.eye(d))) > 1e-8:
            failures += 1
            continue
        outside = [j for j in range(n) if j not in solution.support]
        if np.any(solution.x[outside]) or len(solution.support) != s:
            failures += 1
    for run in ds_runs:
        solution = run["solution"]
        s, n = run["s"], run["n"]
        flat = [j for sup in solution.supports for j in sup]
        if len(flat) != len(set(flat)):
            failures += 1
            continue
        for i, support in enumerate(solution.supports):
            norm_gap = abs(np.linalg.norm(solution.x[:, i]) - 1.0)
            outside = [j for j in range(n) if j not in support]
            if (norm_gap > 1e-8 or np.any(solution.x[outside, i])
                    or not 1 <= len(support) <= s):
                failures += 1
                break
    total = len(runs) + len(ds_runs)
    detail = (
        f"{total - failures}/{total} solutions satisfy orthonormality, unit "
        f"norms, exact support disjointness and the cardinality bounds"
    )
    assert _report(8, failures == 0, detail)
