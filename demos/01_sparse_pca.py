"""Sparse PCA on a low-rank covariance, certified against brute force.

Builds a random covariance of rank two, asks for two components supported on
at most three shared features, and compares the exact solver with the
enumeration oracle.  With as many components as the rank, every support
scores trace(K_SS), so the solver takes the closed form and reads no
arrangement; one component at the same rank reads the candidates at the
vertices of the rank-two spannogram, where two features tie.  On the first
four features alone (n - 1 <= r(r+1)/2) the lifted differences are
independent and form the braid arrangement: every strict order is a
region, so every support is a candidate and the supports are generated
directly.
"""

import numpy as np

from exactspca import SpcaInstance, brute_force_spca, solve_spca, symmetrize

rng = np.random.default_rng(7)
n, r, d, s = 8, 2, 2, 3

factor = rng.standard_normal((n, r))
kmatrix = symmetrize(factor @ factor.T)

instance = SpcaInstance.build(kmatrix, d, s)
solution = solve_spca(instance)

print(f"covariance: {n} features, numerical rank {instance.rank}")
print(f"optimal objective: {solution.objective:.6f}")
print(f"optimal support (0-based): {solution.support}")
print("loadings (rows outside the support are exactly zero):")
print(np.array_str(solution.x, precision=4, suppress_small=True))

def describe(diag, features):
    if diag.extended_dim == 0:
        space = "closed form, no arrangement"
    elif diag.extended_dim == r:
        space = f"vertices of the spannogram in R^{r}"
    elif diag.extended_dim == features - 1:
        space = f"braid of the lift in R^{diag.extended_dim}, every support generated"
    else:
        space = f"vertices of the lift in R^{diag.extended_dim}"
    return (
        f"{space}: {diag.hyperplanes} hyperplanes, {diag.cells_enumerated} vertices "
        f"(predicted {diag.predicted_cells}), "
        f"{diag.candidates_evaluated} distinct candidates"
    )


print(f"\ncandidate construction, d={d}: {describe(solution.diagnostics, n)}")
one = solve_spca(SpcaInstance.build(kmatrix, 1, s))
print(f"candidate construction, d=1: {describe(one.diagnostics, n)}")
few = solve_spca(SpcaInstance.build(kmatrix[:4, :4], 1, 2))
print(f"candidate construction, d=1, first 4 features: {describe(few.diagnostics, 4)}")

report = brute_force_spca(kmatrix, d, s)
print(f"\nbrute force over {report.instances_enumerated} supports: "
      f"{report.objective:.6f}")
assert abs(solution.objective - report.objective) <= 1e-8 * (1 + report.objective)
assert solution.support in report.argmax_supports
print("solver agrees with the oracle and its support is a certified maximizer")
