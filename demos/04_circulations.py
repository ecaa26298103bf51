"""Max-profit circulations and their optimality certificates.

Features may each serve one component, components hold at most s features;
the best assignment is a max-profit integer circulation.  Greedy assignment
fails on coupled profits; pushing flow around each positive-profit residual
circuit that the optimality certificate finds repairs it, and the absence
of such circuits certifies the result.
"""

import numpy as np

from exactspca import (
    CirculationInstance,
    brute_force_max_profit,
    enumerate_undirected_circuits,
    is_optimal,
    solve_max_profit,
    supports_from_circulation,
)
from exactspca.reference import zero_circulation

profits = np.array([[9.0, 8.0], [7.0, 0.0]])
inst = CirculationInstance(d=2, n=2, s=1, profits=profits)
print("profits:\n", profits)
print("greedy would grab 9 first and finish with 9.")

flow = solve_max_profit(inst)
print(f"greedy start, then cycle canceling: profit {flow.profit(inst):.1f}, "
      f"supports {supports_from_circulation(inst, flow)}")

reference = brute_force_max_profit(inst)
print(f"assignment enumeration agrees: {reference.objective:.1f}")

optimal, certificate = is_optimal(inst, zero_circulation(inst))
print(f"\nzero circulation optimal? {optimal}")
print(f"violated residual circuit: vertices {certificate.vertices}, "
      f"profit {certificate.profit:.1f}")

circuits = enumerate_undirected_circuits(2, 2)
kinds = {}
for circuit in circuits:
    kinds[circuit.kind] = kinds.get(circuit.kind, 0) + 1
print(f"\nundirected circuits of the 2x2 digraph: {len(circuits)} total, {kinds}")
