"""Seeded instance sets, reference objectives and the solve call per instance.

Import only after ``checkout.use_checkout_source()``: this module binds the
exactspca package found in the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import exactspca
from exactspca import cli

REL_TOL = 1e-8  # a solve must match its reference objective this closely

# The entry points a solve goes through, looked up at call time so that the
# traced run can rebind them (see tracing.LayerPatch).
build_spca = exactspca.SpcaInstance.build
solve_spca = exactspca.solve_spca
build_spca_ds = exactspca.SpcaDsInstance.build
solve_spca_ds = exactspca.solve_spca_ds
cli_main = cli.main


@dataclass(frozen=True)
class Spec:
    """One instance shape: solver entry point, n, factor rank, d and s.

    ``solver`` is ``spca`` or ``spca-ds`` for the library calls and
    ``cli-spca`` or ``cli-spca-ds`` for ``cli.main`` on a CSV file.
    """

    solver: str
    n: int
    rank: int
    d: int
    s: int

    @property
    def disjoint(self) -> bool:
        return self.solver.endswith("spca-ds")

    @property
    def via_cli(self) -> bool:
        return self.solver.startswith("cli-")


# Each workload stresses other layers; see LAYERS.md for the traced shares.
SPECS: dict[str, tuple[Spec, ...]] = {
    # Central arrangement cells dominate: 646, 1094 and 1742 cells at rank 2
    # for n = 8, 9, 10, and 720 and 5040 at rank 3 for n = 6, 7.  Many
    # mid-size instances keep the seed-to-seed spread of a pass small.
    "spca-cells": (
        *(Spec("spca", 8, 2, d, s) for d, s in ((1, 3), (2, 4), (1, 4), (2, 3), (1, 5), (2, 5))),
        *(Spec("spca", 9, 2, d, s) for d, s in ((1, 4), (2, 5), (1, 3), (2, 4))),
        Spec("spca", 10, 2, 2, 4),
        Spec("spca", 10, 2, 1, 5),
        *(Spec("spca", 6, 3, d, s) for d, s in ((1, 3), (2, 4), (1, 4), (2, 3))),
        Spec("spca", 7, 3, 1, 3),
    ),
    # One circulation per region: the closed-form torus at rank 2 (d = 2 and
    # d = 1) and the clipped affine chart at rank 3.  Region counts vary with
    # the matrix (718-1002 for n=3, d=2), so the set mixes many instances and
    # leaves out rank-2 d=2 n=4 (3 s) and rank-3 n=5, whose costs alone vary
    # by 15-20% across seeds.  As many instances are cheaper (d=1) as dearer
    # (d=2) than the eight rank-3 ones, so the median latency falls inside
    # that group rather than on a group boundary.
    "ds-regions": (
        *(Spec("spca-ds", 3, 2, 2, s) for s in (1, 2, 3, 1, 2, 3)),
        *(Spec("spca-ds", n, 2, 1, s) for n in (10, 11, 12) for s in (2, 3)),
        *(Spec("spca-ds", 4, 3, 1, s) for s in (2, 3, 2, 3, 2, 3, 2, 3)),
    ),
    # Rank one: two cells and one flow, so hyperplane and circuit
    # construction plus CSV ingest and JSON output carry the cost.
    "wide-cli": (
        Spec("cli-spca", 250, 1, 1, 60),
        Spec("cli-spca", 300, 1, 1, 80),
        Spec("cli-spca-ds", 120, 1, 1, 40),
        Spec("cli-spca-ds", 150, 1, 1, 50),
        Spec("cli-spca-ds", 10, 1, 2, 4),
        Spec("cli-spca-ds", 11, 1, 2, 5),
    ),
}

# Small instances on the same code paths: the warm-up before timing, and the
# instance sets of the benchmark's self-test.
WARMUP_SPECS: dict[str, tuple[Spec, ...]] = {
    "spca-cells": (Spec("spca", 5, 2, 1, 2), Spec("spca", 5, 3, 2, 3)),
    "ds-regions": (
        Spec("spca-ds", 2, 2, 2, 1),
        Spec("spca-ds", 5, 2, 1, 2),
        Spec("spca-ds", 3, 3, 1, 2),
    ),
    "wide-cli": (
        Spec("cli-spca", 20, 1, 1, 5),
        Spec("cli-spca-ds", 20, 1, 1, 5),
        Spec("cli-spca-ds", 5, 1, 2, 2),
    ),
}


@dataclass(frozen=True)
class Instance:
    spec: Spec
    kmatrix: np.ndarray
    csv_path: str | None  # the matrix as CSV, for the CLI solvers


def generate(specs, seed: int, draw: int, workdir: Path) -> list[Instance]:
    """Random low-rank PSD matrices for ``specs``; CSV files for CLI specs.

    The matrices depend on ``seed`` and ``draw`` only: each pass over a
    workload draws its own, so no matrix is solved in two passes.
    """
    rng = np.random.default_rng((seed, draw))
    instances = []
    for index, spec in enumerate(specs):
        factor = rng.standard_normal((spec.n, spec.rank))
        kmatrix = exactspca.symmetrize(factor @ factor.T)
        csv_path = None
        if spec.via_cli:
            csv_path = str(workdir / f"k{index:02d}.csv")
            np.savetxt(csv_path, kmatrix, delimiter=",")
        instances.append(Instance(spec=spec, kmatrix=kmatrix, csv_path=csv_path))
    return instances


def reference_objective(instance: Instance) -> float:
    """The optimum by an independent route: closed form or brute force.

    For a rank-one K = f f' every support's objective is the sum of its
    f_j^2 = K_jj, so the optimum sums the top s diagonal entries (sparse
    PCA) or the top d*s (disjoint supports).  Higher ranks use the oracles.
    With one component the disjoint problem allows supports of size at most
    s, and by eigenvalue interlacing the best of them has size exactly s, so
    the sparse PCA oracle (C(n, s) supports instead of 2^n) gives the same
    optimum.
    """
    spec, kmatrix = instance.spec, instance.kmatrix
    if spec.rank == 1:
        top = spec.d * spec.s if spec.disjoint else spec.s
        return float(np.sort(np.diag(kmatrix))[::-1][:top].sum())
    if spec.disjoint and spec.d > 1:
        return exactspca.brute_force_spca_ds(kmatrix, spec.d, spec.s).objective
    if spec.disjoint:
        return exactspca.brute_force_spca(kmatrix, 1, min(spec.s, spec.n)).objective
    return exactspca.brute_force_spca(kmatrix, spec.d, spec.s).objective


def solve(instance: Instance):
    """One closed-loop solve: matrix -> build -> solve (or CSV -> CLI -> JSON)."""
    spec = instance.spec
    if spec.via_cli:
        command = "solve-spca-ds" if spec.disjoint else "solve-spca"
        argv = [command, "--input", instance.csv_path, "--d", str(spec.d), "--s", str(spec.s)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        return code, out.getvalue()
    if spec.disjoint:
        return solve_spca_ds(build_spca_ds(instance.kmatrix, spec.d, spec.s))
    return solve_spca(build_spca(instance.kmatrix, spec.d, spec.s))


def objective_of(instance: Instance, output) -> float:
    """The objective a solve returned; reads the CLI's JSON document back."""
    if instance.spec.via_cli:
        code, text = output
        if code != 0:
            raise RuntimeError(f"exactspca CLI exited with code {code}")
        return float(json.loads(text)["objective"])
    return float(output.objective)


def warm_up(name: str, seed: int, workdir: Path) -> None:
    """Solve the workload's small instances once, filling lazy caches."""
    workdir.mkdir()
    for instance in generate(WARMUP_SPECS[name], seed, 0, workdir):
        objective_of(instance, solve(instance))


def matches(objective: float, reference: float) -> bool:
    return abs(objective - reference) <= REL_TOL * abs(reference)
