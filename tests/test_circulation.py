import time

import numpy as np
import pytest

from exactspca.circulation import (
    Circulation,
    CirculationInstance,
    check_circulation,
    circuit_table,
    enumerate_undirected_circuits,
    is_optimal,
    optimal_at_profits,
    residual_circuits,
    solve_max_profit,
    supports_from_circulation,
    _residual_arcs,
)
from exactspca.errors import CertificateFailed, InfeasibleFlow, InvalidParameters
from exactspca.oracle import brute_force_max_profit
from exactspca.reference import circuit_profit, zero_circulation

from conftest import directed_simple_cycles, undirected_circuit_chis_bruteforce


def _instance(d, n, s, profits):
    return CirculationInstance(d, n, s, np.asarray(profits, dtype=float))


def _table(d, n):
    return circuit_table(enumerate_undirected_circuits(d, n), d, n)


class TestSolveMaxProfit:
    def test_single_component_picks_best(self):
        inst = _instance(1, 2, 1, [[3.0, 5.0]])
        flow = solve_max_profit(inst)
        assert flow.profit(inst) == pytest.approx(5.0)
        assert supports_from_circulation(inst, flow) == ((1,),)

    def test_capacity_forces_tradeoff(self):
        # Both features on one component would leave 8 on the table.
        inst = _instance(2, 2, 1, [[9.0, 1.0], [8.0, 7.0]])
        flow = solve_max_profit(inst)
        assert flow.profit(inst) == pytest.approx(16.0)
        assert supports_from_circulation(inst, flow) == ((0,), (1,))

    def test_nonpositive_profits_zero_flow(self):
        inst = _instance(2, 3, 2, [[-1.0, 0.0, -2.0], [-3.0, -4.0, 0.0]])
        flow = solve_max_profit(inst)
        assert flow.profit(inst) == pytest.approx(0.0)
        assert supports_from_circulation(inst, flow) == ((), ())

    def test_greedy_is_not_enough(self):
        # Greedy assignment takes (1,1)=9 first and ends at 9; optimum is 15.
        inst = _instance(2, 2, 1, [[9.0, 8.0], [7.0, 0.0]])
        flow = solve_max_profit(inst)
        assert flow.profit(inst) == pytest.approx(15.0)

    def test_matches_bruteforce(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            profits = rng.standard_normal((d, n)) * 3.0
            inst = _instance(d, n, s, profits)
            flow = solve_max_profit(inst)
            report = brute_force_max_profit(inst)
            assert flow.profit(inst) == pytest.approx(report.objective, abs=1e-9)
            optimal, certificate = is_optimal(inst, flow)
            assert optimal and certificate is None

    @pytest.mark.parametrize("kind", ["tied", "squared"])
    def test_matches_bruteforce_on_ties(self, rng, kind):
        # Small integer profits tie; squares of a rank-2 integer factor at
        # d angles are the torus's arc profits, with R_1 = -R_0 tying rows.
        for _ in range(60):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 8))
            s = int(rng.integers(1, 4))
            if kind == "tied":
                profits = rng.integers(-2, 4, size=(d, n)).astype(float)
            else:
                factor = rng.integers(-2, 3, size=(n, 2)).astype(float)
                if n > 1:
                    factor[1] = -factor[0]
                angles = rng.uniform(0.0, np.pi, d)
                profits = (factor @ np.stack([np.cos(angles), np.sin(angles)])).T ** 2
            inst = _instance(d, n, s, profits)
            flow = solve_max_profit(inst)
            assert flow.profit(inst) == pytest.approx(brute_force_max_profit(inst).objective, abs=1e-9)

    def test_every_push_keeps_a_feasible_flow(self, rng, monkeypatch):
        flows = []

        def recording(instance, f):
            check_circulation(instance, f)
            flows.append(f.profit(instance))
            return is_optimal(instance, f)

        monkeypatch.setattr("exactspca.circulation.is_optimal", recording)
        pushes = 0
        for _ in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 8))
            s = int(rng.integers(1, 4))
            inst = _instance(d, n, s, rng.integers(-2, 6, size=(d, n)).astype(float))
            flows.clear()
            solve_max_profit(inst)
            # Each push gains the positive profit of its circuit.
            assert np.all(np.diff(flows) > 0.0)
            assert len(flows) - 1 <= d * n
            pushes += len(flows) - 1
        assert pushes > 0

    def test_identical_rows_need_no_push(self, monkeypatch):
        # Rank <= 1: every component has the same profit row, so the greedy
        # start is optimal and the one certificate call accepts it.
        calls = []

        def counting(instance, f):
            calls.append(f)
            return is_optimal(instance, f)

        monkeypatch.setattr("exactspca.circulation.is_optimal", counting)
        row = np.random.default_rng(3).standard_normal(300) ** 2
        inst = _instance(2, 300, 40, np.vstack([row, row]))
        tick = time.perf_counter()
        flow = solve_max_profit(inst)
        assert time.perf_counter() - tick < 1.0
        assert len(calls) == 1
        assert flow.profit(inst) == pytest.approx(np.sort(row)[-80:].sum())

    def test_push_cap_raises_typed_error(self, monkeypatch):
        # A certificate that never runs out stops after d * n pushes.
        inst = _instance(2, 3, 1, [[3.0, 5.0, 1.0], [2.0, 4.0, 6.0]])
        circuit = is_optimal(inst, zero_circulation(inst))[1]
        calls = []

        def endless(instance, f):
            calls.append(f)
            return False, circuit

        monkeypatch.setattr("exactspca.circulation.is_optimal", endless)
        with pytest.raises(CertificateFailed, match="after 6 pushes"):
            solve_max_profit(inst)
        assert len(calls) == 2 * 3 + 1

    def test_failed_certificate_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            "exactspca.circulation.is_optimal", lambda *args, **kwargs: (False, None)
        )
        with pytest.raises(CertificateFailed):
            solve_max_profit(_instance(1, 2, 1, [[3.0, 5.0]]))

    def test_deterministic(self, rng):
        profits = rng.standard_normal((3, 4))
        inst = _instance(3, 4, 2, profits)
        first = solve_max_profit(inst)
        second = solve_max_profit(inst)
        assert np.array_equal(first.a0, second.a0)


class TestIsOptimal:
    def test_zero_flow_with_negative_profits(self):
        inst = _instance(2, 2, 1, [[-1.0, -2.0], [-3.0, -4.0]])
        optimal, certificate = is_optimal(inst, zero_circulation(inst))
        assert optimal and certificate is None

    def test_zero_flow_certificate(self):
        inst = _instance(1, 2, 1, [[3.0, 5.0]])
        optimal, certificate = is_optimal(inst, zero_circulation(inst))
        assert not optimal
        assert certificate.profit == pytest.approx(5.0)
        # The certificate is the triangle through the better feature: t, u_0, w_1.
        assert certificate.vertices == (0, 1, 3)
        assert ("a0", 0, 1, 1) in certificate.arc_keys

    def test_single_unit_flips_never_improve(self, rng):
        for _ in range(20):
            d, n, s = 2, 3, 2
            inst = _instance(d, n, s, rng.standard_normal((d, n)))
            flow = solve_max_profit(inst)
            base = flow.profit(inst)
            for i in range(d):
                for j in range(n):
                    a0 = flow.a0.copy()
                    if a0[i, j] == 1:
                        a0[i, j] = 0
                    elif flow.aw[j] == 0 and flow.au[i] < s:
                        a0[i, j] = 1
                    else:
                        continue
                    candidate = Circulation(
                        a0=a0, au=a0.sum(axis=1), aw=a0.sum(axis=0)
                    )
                    check_circulation(inst, candidate)
                    assert candidate.profit(inst) <= base + 1e-9

    @pytest.mark.parametrize("integer_profits", [False, True])
    def test_agrees_with_bruteforce_on_random_flows(self, rng, integer_profits):
        # Small integer profits make ties, hence zero-profit residual circuits.
        for _ in range(300):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            if integer_profits:
                profits = rng.integers(-2, 4, size=(d, n)).astype(float)
            else:
                profits = rng.standard_normal((d, n))
            inst = _instance(d, n, s, profits)
            a0 = np.zeros((d, n), dtype=int)
            for j in range(n):
                i = int(rng.integers(-1, d))
                if i >= 0 and a0[i].sum() < s:
                    a0[i, j] = 1
            flow = Circulation(a0=a0, au=a0.sum(axis=1), aw=a0.sum(axis=0))
            best = brute_force_max_profit(inst).objective
            optimal, certificate = is_optimal(inst, flow)
            assert optimal == (flow.profit(inst) >= best - 1e-9)
            if optimal:
                assert certificate is None
                continue
            assert certificate.profit > 0.0
            arc_profit = sum(
                key[3] * profits[key[1], key[2]]
                for key in certificate.arc_keys if key[0] == "a0"
            )
            assert certificate.profit == pytest.approx(arc_profit, abs=1e-12)

    @pytest.mark.parametrize("integer_profits", [False, True])
    def test_batched_certificate_on_random_flows(self, rng, integer_profits):
        # Half of each batch favours the flow's own arcs, so some rows are
        # covered and some are not.
        covered_rows = uncovered_rows = 0
        for _ in range(60):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            a0 = np.zeros((d, n), dtype=int)
            for j in range(n):
                i = int(rng.integers(-1, d))
                if i >= 0 and a0[i].sum() < s:
                    a0[i, j] = 1
            flow = Circulation(a0=a0, au=a0.sum(axis=1), aw=a0.sum(axis=0))
            if integer_profits:
                rows = rng.integers(-2, 4, size=(12, d, n)).astype(float)
                rows[6:] += 3.0 * (2 * a0 - 1)
            else:
                rows = rng.standard_normal((12, d, n))
                rows[6:] += 2.0 * (2 * a0 - 1)
            covered = optimal_at_profits(_instance(d, n, s, rows[0]), flow, rows, _table(d, n))
            assert covered.shape == (12,)
            for profits, mark in zip(rows, covered):
                inst = _instance(d, n, s, profits)
                optimal, _ = is_optimal(inst, flow)
                if integer_profits:
                    assert mark == optimal
                if mark:
                    assert optimal
                    best = brute_force_max_profit(inst).objective
                    assert flow.profit(inst) == pytest.approx(best, abs=1e-9)
            covered_rows += int(covered.sum())
            uncovered_rows += int((~covered).sum())
        assert covered_rows > 0 and uncovered_rows > 0

    def test_batched_certificate_ignores_scale(self, rng):
        # Rows at most 1 in magnitude, shrunk by an exact power of two far
        # below the 1e-15 slack of is_optimal, are covered exactly as before.
        masks = []
        for _ in range(60):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            a0 = np.zeros((d, n), dtype=int)
            for j in range(n):
                i = int(rng.integers(-1, d))
                if i >= 0 and a0[i].sum() < s:
                    a0[i, j] = 1
            flow = Circulation(a0=a0, au=a0.sum(axis=1), aw=a0.sum(axis=0))
            rows = rng.standard_normal((12, d, n))
            rows[6:] += 2.0 * (2 * a0 - 1)
            rows /= 2.0 ** np.ceil(np.log2(np.abs(rows).max(axis=(1, 2))))[:, None, None]
            inst = _instance(d, n, s, rows[0])
            covered = optimal_at_profits(inst, flow, rows, _table(d, n))
            tiny = optimal_at_profits(inst, flow, rows * 2.0 ** -60, _table(d, n))
            np.testing.assert_array_equal(tiny, covered)
            masks.append(covered)
        masks = np.concatenate(masks)
        assert masks.any() and not masks.all()

    def test_infeasible_flow_rejected(self):
        inst = _instance(1, 2, 1, [[1.0, 2.0]])
        bad = Circulation(
            a0=np.array([[1, 1]]), au=np.array([2]), aw=np.array([1, 1])
        )
        with pytest.raises(InfeasibleFlow):
            is_optimal(inst, bad)
        lopsided = Circulation(
            a0=np.array([[1, 0]]), au=np.array([0]), aw=np.array([1, 0])
        )
        with pytest.raises(InfeasibleFlow):
            is_optimal(inst, lopsided)

    @pytest.mark.parametrize("a0,au,aw,message", [
        ([[1, 0], [0, 0]], [1.0, 0.0], [1, 0], "integer"),
        ([[2, 0], [0, 0]], [2, 0], [2, 0], "u->w"),
        ([[-1, 0], [0, 0]], [-1, 0], [-1, 0], "u->w"),
        ([[1, 1], [0, 0]], [3, 0], [1, 1], "t->u"),
        ([[1, 0], [0, 0]], [1, -1], [1, 0], "t->u"),
        ([[0, 0], [0, 0]], [0, 0], [0, 2], "w->t"),
        ([[1, 0], [0, 0]], [0, 1], [1, 0], "component vertex"),
        ([[1, 0], [0, 0]], [1, 0], [0, 1], "feature vertex"),
    ])
    def test_infeasible_flow_names_its_fault(self, a0, au, aw, message):
        inst = _instance(2, 2, 2, [[1.0, 2.0], [3.0, 4.0]])
        flow = Circulation(a0=np.array(a0), au=np.array(au), aw=np.array(aw))
        with pytest.raises(InfeasibleFlow, match=message):
            check_circulation(inst, flow)

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-16])
    def test_certificate_holds_at_every_scale(self, scale):
        # Features 0 -> u_1 and 1 -> u_0 earn 2 against the optimum 8
        # (0 -> u_0, 2 -> u_1); an absolute tolerance certified the
        # suboptimal flow once the profits fell below it.
        inst = _instance(2, 3, 1, scale * np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 5.0]]))
        a0 = np.array([[0, 1, 0], [1, 0, 0]])
        poor = Circulation(a0=a0, au=a0.sum(axis=1), aw=a0.sum(axis=0))
        optimal, certificate = is_optimal(inst, poor)
        assert not optimal and certificate.profit > 0.0
        best = solve_max_profit(inst)
        assert supports_from_circulation(inst, best) == ((0,), (2,))
        assert is_optimal(inst, best) == (True, None)


class TestSupports:
    def test_supports_from_flow(self):
        inst = _instance(2, 2, 1, [[9.0, 1.0], [8.0, 7.0]])
        flow = solve_max_profit(inst)
        assert supports_from_circulation(inst, flow) == ((0,), (1,))

    def test_zero_flow_empty_supports(self):
        inst = _instance(2, 3, 1, [[1.0, 1.0, 1.0]] * 2)
        assert supports_from_circulation(inst, zero_circulation(inst)) == ((), ())

    def test_support_sizes_bounded(self, rng):
        for _ in range(20):
            d, n, s = 2, 5, 2
            inst = _instance(d, n, s, np.abs(rng.standard_normal((d, n))))
            family = supports_from_circulation(inst, solve_max_profit(inst))
            assert all(len(t) <= s for t in family)
            flat = [j for t in family for j in t]
            assert len(flat) == len(set(flat))


class TestCircuits:
    def test_smallest_graph(self):
        circuits = enumerate_undirected_circuits(1, 1)
        assert len(circuits) == 1
        assert circuits[0].chi == {(0, 0): 1}

    @pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (2, 2), (1, 4), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)])
    def test_matches_generic_cycle_enumeration(self, d, n):
        mine = {c.canonical_key() for c in enumerate_undirected_circuits(d, n)}
        brute = undirected_circuit_chis_bruteforce(d, n)
        assert mine == brute

    def test_counts_small_graphs(self):
        # Full undirected circuit counts, confirmed by the generic cycle
        # enumeration oracle.  Totals that only count balanced through-hub
        # and alternating circuits (2 at (1, 2); 8 + 1 = 9 at (2, 2)) miss
        # the circuits entering and leaving the hub on the same vertex class
        # (1 and 4 of them); the residual-circuit mapping test below shows
        # those extra circuits arise from feasible flows, so the optimality
        # certificates need them.
        assert len(enumerate_undirected_circuits(1, 2)) == 3
        assert len(enumerate_undirected_circuits(2, 2)) == 13

    def test_chi_entries_valid(self):
        for circuit in enumerate_undirected_circuits(2, 3):
            assert set(circuit.chi.values()) <= {-1, 1}
            assert len(set(circuit.u_sequence)) == len(circuit.u_sequence)
            assert len(set(circuit.w_sequence)) == len(circuit.w_sequence)
            assert circuit.kind in ("through_t", "alternating")

    def test_residual_circuits_map_into_enumeration(self, rng):
        # Every directed circuit of a residual graph corresponds, up to
        # traversal direction, to an enumerated undirected circuit with the
        # same profit.
        d, n, s = 2, 3, 2
        enumerated = {
            c.canonical_key(): c for c in enumerate_undirected_circuits(d, n)
        }
        profits = rng.standard_normal((d, n))
        inst = _instance(d, n, s, profits)
        for assignment in ([(0,), (1,)], [(0, 1), ()], [(), ()], [(2,), (0, 1)]):
            a0 = np.zeros((d, n), dtype=int)
            for i, feats in enumerate(assignment):
                for j in feats:
                    a0[i, j] = 1
            flow = Circulation(a0=a0, au=a0.sum(axis=1), aw=a0.sum(axis=0))
            check_circulation(inst, flow)
            arcs = _residual_arcs(inst, flow)
            pairs = [(a[0], a[1]) for a in arcs]
            for cycle in directed_simple_cycles(inst.num_vertices, pairs):
                chi = {}
                for ai in cycle:
                    key = arcs[ai][4]
                    if key[0] == "a0":
                        chi[(key[1], key[2])] = key[3]
                if not chi:
                    continue
                items = tuple(sorted(chi.items()))
                flipped = tuple((arc, -sign) for arc, sign in items)
                canon = min(items, flipped)
                assert canon in enumerated
                residual_profit = -sum(arcs[ai][2] for ai in cycle)
                reference = circuit_profit(enumerated[canon], profits)
                assert abs(abs(residual_profit) - abs(reference)) < 1e-12

    @pytest.mark.parametrize("d,n,s", [(1, 3, 2), (2, 2, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2)])
    def test_table_reads_the_residual_cycles(self, rng, d, n, s):
        # The table's rows for a flow are exactly the directed circuits of
        # its residual graph, each signed as traversed.
        table = _table(d, n)
        for _ in range(6):
            a0 = np.zeros((d, n), dtype=int)
            for j in range(n):
                i = int(rng.integers(-1, d))
                if i >= 0 and a0[i].sum() < s:
                    a0[i, j] = 1
            flow = Circulation(a0=a0, au=a0.sum(axis=1), aw=a0.sum(axis=0))
            inst = _instance(d, n, s, np.zeros((d, n)))
            arcs = _residual_arcs(inst, flow)
            cycles = set()
            for cycle in directed_simple_cycles(inst.num_vertices, [(a[0], a[1]) for a in arcs]):
                row = np.zeros(d * n)
                for ai in cycle:
                    key = arcs[ai][4]
                    if key[0] == "a0":
                        row[key[1] * n + key[2]] = key[3]
                if row.any():
                    cycles.add(tuple(row))
            rows = residual_circuits(inst, flow, table)
            assert len(rows) == len(cycles)
            assert {tuple(row) for row in rows} == cycles

    def test_table_hub_columns_conserve_flow(self):
        table = _table(3, 3)
        assert table.shape == (150, 9 + 3 + 3)
        for circuit, row in zip(enumerate_undirected_circuits(3, 3), table):
            expected = np.zeros(9)
            for (i, j), sign in circuit.chi_items:
                expected[i * 3 + j] = sign
            np.testing.assert_array_equal(row[:9], expected)
            hub_u, hub_w = row[9:12], row[12:]
            # Through the hub the circuit uses two hub arcs; otherwise none.
            assert np.abs(np.concatenate([hub_u, hub_w])).sum() == (2 if circuit.through_t else 0)

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidParameters):
            enumerate_undirected_circuits(0, 2)


class TestCircuitProfit:
    def test_triangle(self):
        circuits = enumerate_undirected_circuits(1, 1)
        assert circuit_profit(circuits[0], [[4.0]]) == pytest.approx(4.0)

    def test_alternating_four_cycle(self):
        alternating = next(
            c for c in enumerate_undirected_circuits(2, 2)
            if c.kind == "alternating"
        )
        profits = np.array([[1.0, 2.0], [3.0, 4.0]])
        # chi: +(0,0) -(1,0) +(1,1) -(0,1) => 1 - 3 + 4 - 2 = 0
        assert circuit_profit(alternating, profits) == pytest.approx(0.0)

    def test_zero_profits(self):
        for circuit in enumerate_undirected_circuits(2, 2):
            assert circuit_profit(circuit, np.zeros((2, 2))) == 0.0


def test_instance_validation():
    with pytest.raises(InvalidParameters):
        CirculationInstance(0, 2, 1, np.zeros((0, 2)))
    with pytest.raises(InvalidParameters):
        CirculationInstance(1, 2, 1, np.zeros((2, 2)))
    with pytest.raises(InvalidParameters):
        CirculationInstance(1, 2, 1, np.array([[np.inf, 0.0]]))
