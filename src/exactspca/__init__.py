"""Exact global solvers for sparse PCA on low-rank covariance matrices.

Two problems are solved to certified global optimality when the covariance
factor has small rank: sparse PCA (one support of size s shared by d
orthonormal components) and its disjoint-supports variant (d unit-norm
components with pairwise disjoint supports of size at most s).  Both solvers
enumerate a provably sufficient family of candidate supports from sign
regions of lifted quadratic profits, then score each candidate with small
dense eigensolves.  Brute-force reference solvers certify everything at desk
scale (`exactspca.oracle`); the cell enumerators and lifted functionals that
the tests hold the solvers to are in `exactspca.reference`, which no solve
calls and the top level does not export.
"""

from .arrangement import dedup_hyperplanes
from .circulation import (
    Circulation,
    CirculationInstance,
    ResidualCircuit,
    UndirectedCircuit,
    check_circulation,
    enumerate_undirected_circuits,
    is_optimal,
    solve_max_profit,
    supports_from_circulation,
)
from .errors import (
    AsymmetryTooLarge,
    CertificateFailed,
    Degenerate,
    DimensionMismatch,
    ExactSpcaError,
    InfeasibleFlow,
    InvalidCircuit,
    InvalidParameters,
    NoConvergence,
    NonFiniteInput,
    NotPositiveSemidefinite,
    NotSquare,
    NotSymmetric,
    ParseError,
    TooLarge,
)
from .extension import MonomialBasis
from .linalg import (
    EigenResult,
    PsdFactor,
    as_symmetric,
    pivoted_cholesky,
    solve_pca,
    symmetric_eig,
    symmetrize,
)
from .oracle import (
    OracleReport,
    brute_force_max_profit,
    brute_force_spca,
    brute_force_spca_ds,
)
from .spca import (
    CandidateSupports,
    SpcaInstance,
    SpcaSolution,
    enumerate_candidate_supports,
    solve_spca,
)
from .spca_ds import (
    CircuitHyperplanes,
    SpcaDsInstance,
    SpcaDsSolution,
    build_circuit_hyperplanes,
    solve_spca_ds,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryTooLarge",
    "CandidateSupports",
    "CertificateFailed",
    "Circulation",
    "CirculationInstance",
    "CircuitHyperplanes",
    "Degenerate",
    "DimensionMismatch",
    "EigenResult",
    "ExactSpcaError",
    "InfeasibleFlow",
    "InvalidCircuit",
    "InvalidParameters",
    "MonomialBasis",
    "NoConvergence",
    "NonFiniteInput",
    "NotPositiveSemidefinite",
    "NotSquare",
    "NotSymmetric",
    "OracleReport",
    "ParseError",
    "PsdFactor",
    "ResidualCircuit",
    "SpcaDsInstance",
    "SpcaDsSolution",
    "SpcaInstance",
    "SpcaSolution",
    "TooLarge",
    "UndirectedCircuit",
    "as_symmetric",
    "brute_force_max_profit",
    "brute_force_spca",
    "brute_force_spca_ds",
    "build_circuit_hyperplanes",
    "check_circulation",
    "dedup_hyperplanes",
    "enumerate_candidate_supports",
    "enumerate_undirected_circuits",
    "is_optimal",
    "pivoted_cholesky",
    "solve_max_profit",
    "solve_pca",
    "solve_spca",
    "solve_spca_ds",
    "supports_from_circulation",
    "symmetric_eig",
    "symmetrize",
]
