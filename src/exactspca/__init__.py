"""Exact global solvers for sparse PCA on low-rank covariance matrices.

Two problems are solved to certified global optimality when the covariance
factor has small rank: sparse PCA (one support of size s shared by d
orthonormal components) and its disjoint-supports variant (d unit-norm
components with pairwise disjoint supports of size at most s).  Both solvers
enumerate a provably sufficient family of candidate supports from sign
regions of lifted quadratic profits, then score each candidate with small
dense eigensolves.  Brute-force reference solvers certify everything at desk
scale.
"""

from .arrangement import (
    Cell,
    Hyperplane,
    dedup_hyperplanes,
    enumerate_affine_cells,
    enumerate_cells,
    expected_generic_cell_count,
    witness_for_signs,
)
from .circulation import (
    Circulation,
    CirculationInstance,
    ResidualCircuit,
    UndirectedCircuit,
    check_circulation,
    circuit_profit,
    enumerate_undirected_circuits,
    is_optimal,
    solve_max_profit,
    supports_from_circulation,
    zero_circulation,
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
from .extension import (
    ExtendedFunctional,
    MonomialBasis,
    build_arc_functional,
    build_circuit_functional,
    build_row_functional,
)
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
    candidate_support_from_point,
    enumerate_candidate_supports,
    solve_spca,
)
from .spca_ds import (
    CircuitHyperplanes,
    SpcaDsInstance,
    SpcaDsSolution,
    build_circuit_hyperplanes,
    candidate_supports_from_cell,
    solve_spca_ds,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryTooLarge",
    "CandidateSupports",
    "Cell",
    "CertificateFailed",
    "Circulation",
    "CirculationInstance",
    "CircuitHyperplanes",
    "Degenerate",
    "DimensionMismatch",
    "EigenResult",
    "ExactSpcaError",
    "ExtendedFunctional",
    "Hyperplane",
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
    "build_arc_functional",
    "build_circuit_functional",
    "build_circuit_hyperplanes",
    "build_row_functional",
    "candidate_support_from_point",
    "candidate_supports_from_cell",
    "check_circulation",
    "circuit_profit",
    "dedup_hyperplanes",
    "enumerate_affine_cells",
    "enumerate_candidate_supports",
    "enumerate_cells",
    "enumerate_undirected_circuits",
    "expected_generic_cell_count",
    "is_optimal",
    "pivoted_cholesky",
    "solve_max_profit",
    "solve_pca",
    "solve_spca",
    "solve_spca_ds",
    "supports_from_circulation",
    "symmetric_eig",
    "symmetrize",
    "witness_for_signs",
    "zero_circulation",
]
