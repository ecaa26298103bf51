"""Only the chart walk and `reference` load `scipy.optimize`.

Sparse PCA, `factor`, the oracles and the disjoint solves at rank <= 1 or
s = 1 (one region), at d = 2 with n <= 2s (top sets) and at rank 2, d = 2
(the torus) run without loading `scipy`; the walk of a disjoint solve with
three components loads `scipy.optimize` for its facet LPs.  The pytest
process has scipy loaded through other tests, so each probe runs in a fresh
interpreter against this checkout's sources.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

_NO_SCIPY_PATHS = """
import contextlib, io, sys
import numpy as np
import exactspca
from exactspca import cli

path = sys.argv[1]
kmatrix = np.loadtxt(path, delimiter=",")
rank_one = np.outer(kmatrix[0], kmatrix[0])
factor = np.random.default_rng(1).standard_normal((4, 3))
rank_three = factor @ factor.T
exactspca.solve_spca(exactspca.SpcaInstance.build(kmatrix, d=1, s=2))
exactspca.solve_spca_ds(exactspca.SpcaDsInstance.build(kmatrix, d=1, s=2))
solution = exactspca.solve_spca_ds(exactspca.SpcaDsInstance.build(kmatrix, d=2, s=2))
assert solution.diagnostics.sweep_lines > 0
exactspca.solve_spca_ds(exactspca.SpcaDsInstance.build(rank_one, d=2, s=1))
solution = exactspca.solve_spca_ds(exactspca.SpcaDsInstance.build(rank_three, d=2, s=1))
assert solution.diagnostics.rank == 3 and solution.diagnostics.cells_enumerated == 1
solution = exactspca.solve_spca_ds(exactspca.SpcaDsInstance.build(rank_three, d=2, s=2))
diag = solution.diagnostics
assert diag.rank == 3 and diag.facet_lps == diag.sweep_lines == diag.circulation_solves == 0
exactspca.brute_force_spca(kmatrix, d=1, s=2)
exactspca.brute_force_spca_ds(kmatrix, d=2, s=1)
for argv in (["solve-spca", "--d", "1", "--s", "2"], ["factor"],
             ["solve-spca-ds", "--d", "2", "--s", "2"],
             ["oracle-spca", "--d", "1", "--s", "2"],
             ["oracle-spca-ds", "--d", "2", "--s", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--input", path]) == 0, argv
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""

_WALK_SOLVE = """
import sys
import numpy as np
import exactspca

kmatrix = np.loadtxt(sys.argv[1], delimiter=",")
solution = exactspca.solve_spca_ds(exactspca.SpcaDsInstance.build(kmatrix, d=3, s=2))
assert solution.diagnostics.facet_lps > 0
print("scipy.optimize" in sys.modules)
"""


def _probe(script, tmp_path, n):
    factor = np.random.default_rng(0).standard_normal((n, 2))
    path = tmp_path / "k.csv"
    np.savetxt(path, factor @ factor.T, delimiter=",")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_sparse_pca_factor_and_oracles_load_no_scipy(tmp_path):
    # Rank 2 at n = 5 > 2s: the torus.
    assert _probe(_NO_SCIPY_PATHS, tmp_path, n=5) == "[]"


def test_disjoint_solve_loads_scipy_optimize(tmp_path):
    # Rank 2 with three components walks the chart (about 650 LPs); rank 3
    # with two walks only at n > 2s, about 1,500 LPs at n = 5.
    assert _probe(_WALK_SOLVE, tmp_path, n=3) == "True"
