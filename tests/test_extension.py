import numpy as np
import pytest

from exactspca.circulation import enumerate_undirected_circuits
from exactspca.errors import DimensionMismatch, InvalidCircuit
from exactspca.extension import MonomialBasis
from exactspca.reference import (
    build_arc_functional,
    build_circuit_functional,
    build_row_functional,
    circuit_profit,
)


def test_basis_dimension_formula():
    for r in range(1, 6):
        for cols in range(1, 5):
            basis = MonomialBasis(r, cols)
            assert basis.dim == cols * (r * r + r) // 2
            assert len(basis.indices()) == basis.dim


def test_ext_unit_vector():
    basis = MonomialBasis(2, 1)
    assert np.allclose(basis.ext(np.array([[1.0], [0.0]])), [1.0, 0.0, 0.0])


def test_ext_products():
    basis = MonomialBasis(2, 1)
    assert np.allclose(basis.ext(np.array([[2.0], [3.0]])), [4.0, 6.0, 9.0])


def test_ext_two_columns():
    basis = MonomialBasis(1, 2)
    assert np.allclose(basis.ext(np.array([[1.0, 1.0]])), [1.0, 1.0])


def test_ext_shape_check():
    basis = MonomialBasis(2, 1)
    with pytest.raises(DimensionMismatch):
        basis.ext(np.zeros((3, 1)))


def test_row_functional_coefficients():
    basis = MonomialBasis(2, 1)
    functional = build_row_functional(basis, np.array([1.0, 2.0]))
    assert np.allclose(functional.coeffs, [1.0, 4.0, 4.0])


def test_zero_row_gives_zero_functional():
    basis = MonomialBasis(2, 3)
    functional = build_row_functional(basis, np.zeros(2))
    assert functional.is_zero


def test_scalar_row_two_columns():
    basis = MonomialBasis(1, 2)
    functional = build_row_functional(basis, np.array([3.0]))
    assert np.allclose(functional.coeffs, [9.0, 9.0])
    y = np.array([[0.5, -2.0]])
    assert functional(basis.ext(y)) == pytest.approx(9.0 * (0.25 + 4.0))


def test_row_functional_matches_norm(rng):
    basis = MonomialBasis(3, 2)
    for _ in range(1000):
        row = rng.standard_normal(3)
        y = rng.standard_normal((3, 2))
        functional = build_row_functional(basis, row)
        truth = float(np.linalg.norm(row @ y) ** 2)
        assert abs(functional(basis.ext(y)) - truth) <= 1e-10 * (1.0 + truth)


def test_arc_functional_isolates_component(rng):
    basis = MonomialBasis(2, 3)
    row = rng.standard_normal(2)
    functional = build_arc_functional(basis, row, 1)
    y = rng.standard_normal((2, 3))
    truth = float((row @ y[:, 1]) ** 2)
    assert functional(basis.ext(y)) == pytest.approx(truth, rel=1e-12, abs=1e-12)
    assert not np.any(functional.coeffs[: basis.block])
    assert not np.any(functional.coeffs[2 * basis.block :])


def _arc_functionals(basis, rows):
    return {
        (i, j): build_arc_functional(basis, rows[j], i)
        for i in range(basis.num_cols)
        for j in range(rows.shape[0])
    }


def test_triangle_circuit_functional(rng):
    d, n, r = 2, 2, 2
    basis = MonomialBasis(r, d)
    rows = rng.standard_normal((n, r))
    functionals = _arc_functionals(basis, rows)
    triangle = next(
        c for c in enumerate_undirected_circuits(d, n)
        if c.chi == {(0, 0): 1}
    )
    combined = build_circuit_functional(triangle, functionals, basis)
    assert np.allclose(combined.coeffs, functionals[(0, 0)].coeffs)


def test_alternating_circuit_signs(rng):
    d, n, r = 2, 2, 2
    basis = MonomialBasis(r, d)
    rows = rng.standard_normal((n, r))
    functionals = _arc_functionals(basis, rows)
    alternating = next(
        c for c in enumerate_undirected_circuits(d, n) if c.kind == "alternating"
    )
    combined = build_circuit_functional(alternating, functionals, basis)
    expected = sum(
        sign * functionals[arc].coeffs for arc, sign in alternating.chi.items()
    )
    assert np.allclose(combined.coeffs, expected)
    # Signs alternate around the cycle: +(u0,w0) -(u1,w0) +(u1,w1) -(u0,w1).
    assert alternating.chi == {(0, 0): 1, (1, 0): -1, (1, 1): 1, (0, 1): -1}


def test_cancelling_circuit_flagged_degenerate(rng):
    d, n, r = 2, 2, 2
    basis = MonomialBasis(r, d)
    row = rng.standard_normal(r)
    rows = np.vstack([row, row])  # duplicate features cancel alternating sums
    functionals = _arc_functionals(basis, rows)
    alternating = next(
        c for c in enumerate_undirected_circuits(d, n) if c.kind == "alternating"
    )
    combined = build_circuit_functional(alternating, functionals, basis)
    assert combined.is_zero


def test_circuit_functional_matches_profit(rng):
    d, n, r = 2, 3, 2
    basis = MonomialBasis(r, d)
    rows = rng.standard_normal((n, r))
    functionals = _arc_functionals(basis, rows)
    circuits = enumerate_undirected_circuits(d, n)
    for _ in range(50):
        y = rng.standard_normal((r, d))
        point = basis.ext(y)
        profits = (rows @ y) ** 2  # (n, d) -> transpose for (i, j) indexing
        profits = profits.T
        circuit = circuits[int(rng.integers(0, len(circuits)))]
        direct = circuit_profit(circuit, profits)
        lifted = build_circuit_functional(circuit, functionals, basis)(point)
        assert abs(direct - lifted) <= 1e-10 * (1.0 + abs(direct))


def test_invalid_circuit_rejected():
    basis = MonomialBasis(2, 1)
    with pytest.raises(InvalidCircuit):
        build_circuit_functional({}, {}, basis)
    with pytest.raises(InvalidCircuit):
        build_circuit_functional({(0, 0): 2}, {}, basis)
