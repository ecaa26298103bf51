"""Cells of central hyperplane arrangements with interior witnesses.

For normals in general position the number of full-dimensional cells has a
closed form; the enumerator reproduces it exactly and hands back a strictly
interior witness point per cell.  In R^3, as here, the cells themselves come
in closed form: each plane's sectors, cut by the other planes, are pushed off
the plane to both sides.  ``witness_for_signs`` decides one sign vector by a
linear program instead.  These enumerators are the references the tests
hold the solvers to; no solve calls them.
"""

import numpy as np

from exactspca.reference import (
    Hyperplane,
    enumerate_cells,
    expected_generic_cell_count,
    witness_for_signs,
)

rng = np.random.default_rng(3)
dim, count = 3, 6

planes = [Hyperplane(rng.standard_normal(dim)) for _ in range(count)]
cells = enumerate_cells(planes, dim)
print(f"{count} random central hyperplanes in R^{dim}: {len(cells)} cells "
      f"(formula: {expected_generic_cell_count(count, dim)})")

normals = np.vstack([p.normal / np.linalg.norm(p.normal) for p in planes])
for cell in cells[:4]:
    slack = normals @ cell.witness * np.array(cell.signs)
    print(f"signs {cell.signs}  margin {cell.margin:.4f}  min slack {slack.min():.4f}")
print("...")

# Witness lookup for a specific sign vector, and an infeasible request.
target = cells[0].signs
print(f"\nwitness for {target}: {witness_for_signs(planes, target)}")
realizable = {c.signs for c in cells}
impossible = next(
    signs
    for bits in range(2**count)
    if (signs := tuple(1 if bits >> k & 1 else -1 for k in range(count)))
    not in realizable
)
found = witness_for_signs(planes, impossible)
print(f"witness for {impossible}: "
      f"{'found' if found is not None else 'infeasible (no such cell)'}")
