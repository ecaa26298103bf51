import numpy as np
import pytest

from exactspca import reference, spca, spca_ds
from exactspca.linalg import symmetrize
from exactspca.oracle import brute_force_spca, brute_force_spca_ds

# The names under which the solver modules import from `reference`: the
# benchmark's tracer binds them there, and no solve calls them.
_TRACED_BINDINGS = {
    ("spca", "enumerate_cells"),
    ("spca", "build_row_functional"),
    ("spca_ds", "enumerate_affine_cells"),
    ("spca_ds", "build_arc_functional"),
    ("spca_ds", "build_circuit_functional"),
}


def _refuse_reference(monkeypatch):
    """Make every function and class of `reference`, and every binding of
    one in `spca` and `spca_ds`, raise; returns the bindings patched."""
    defined = {
        name: value for name, value in vars(reference).items()
        if callable(value) and getattr(value, "__module__", None) == reference.__name__
    }

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a solve reached reference.{name}")
        return call

    for name in defined:
        monkeypatch.setattr(reference, name, refuse(name))
    bound = set()
    for module in (spca, spca_ds):
        for name, value in list(vars(module).items()):
            if any(value is original for original in defined.values()):
                monkeypatch.setattr(module, name, refuse(name))
                bound.add((module.__name__.rsplit(".", 1)[1], name))
    return bound


def _spca_path(diag, n, r):
    if diag.extended_dim == 0:
        return "closed-form"
    if diag.extended_dim == n - 1:
        return "braid"
    return "spannogram" if diag.extended_dim == r else "lift"


def _spca_ds_path(diag, d, r):
    if d == 1:
        return "one-component"
    if r <= 1:
        return "rank-one"
    if diag.cells_enumerated == 1 and diag.circuits_enumerated == 0:
        return "singletons"
    if diag.circulation_solves == 0:
        return "top-sets"
    if diag.sweep_lines > 0:
        return "torus"
    return "walk" if diag.facet_lps > 0 else "unknown"


# (problem, path, rank, n, d, s): one shape per solve path.  The spannogram
# and lift rows have more supports than vertices, past the braid.
@pytest.mark.parametrize("problem,path,r,n,d,s", [
    ("spca", "closed-form", 2, 6, 2, 3),
    ("spca", "spannogram", 3, 13, 1, 5),
    ("spca", "lift", 3, 8, 2, 4),
    ("spca", "braid", 3, 6, 2, 3),
    ("spca", "braid", 2, 8, 1, 3),
    ("spca_ds", "one-component", 2, 5, 1, 2),
    ("spca_ds", "rank-one", 1, 4, 2, 2),
    ("spca_ds", "torus", 2, 5, 2, 2),
    ("spca_ds", "singletons", 3, 4, 2, 1),
    ("spca_ds", "top-sets", 2, 4, 2, 2),
    ("spca_ds", "top-sets", 3, 4, 2, 2),
    ("spca_ds", "walk", 2, 3, 3, 2),
])
def test_no_solve_reaches_the_reference(monkeypatch, problem, path, r, n, d, s):
    factor = np.random.default_rng(10 * r + n).standard_normal((n, r))
    kmatrix = symmetrize(factor @ factor.T)
    if problem == "spca":
        expected = brute_force_spca(kmatrix, d, s).objective
        assert _refuse_reference(monkeypatch) == _TRACED_BINDINGS
        solution = spca.solve_spca(spca.SpcaInstance.build(kmatrix, d, s))
        assert _spca_path(solution.diagnostics, n, r) == path
    else:
        expected = brute_force_spca_ds(kmatrix, d, s).objective
        assert _refuse_reference(monkeypatch) == _TRACED_BINDINGS
        solution = spca_ds.solve_spca_ds(spca_ds.SpcaDsInstance.build(kmatrix, d, s))
        assert _spca_ds_path(solution.diagnostics, d, solution.diagnostics.rank) == path
    assert solution.objective == pytest.approx(expected, rel=1e-8, abs=0.0)
