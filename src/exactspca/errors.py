"""Exception types shared across the library."""


class ExactSpcaError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteInput(ExactSpcaError):
    """A matrix argument holds NaN or infinite entries."""


class NotSymmetric(ExactSpcaError):
    """A matrix argument is not symmetric as stored."""


class NotPositiveSemidefinite(ExactSpcaError):
    """A pivot fell below the negativity tolerance during factorization."""


class NoConvergence(ExactSpcaError):
    """LAPACK's symmetric eigensolver failed to converge."""


class DimensionMismatch(ExactSpcaError):
    """An array has a shape incompatible with the configured dimensions."""


class InvalidCircuit(ExactSpcaError):
    """A circuit object does not describe a valid circuit of the digraph."""


class Degenerate(ExactSpcaError):
    """A zero hyperplane normal reached the arrangement enumerator."""


class InfeasibleFlow(ExactSpcaError):
    """A flow violates arc capacities or conservation."""


class CertificateFailed(ExactSpcaError):
    """A computed circulation failed its optimality certificate, or the
    disjoint solver's chart walk could not verify a neighbour across a
    facet."""


class InvalidParameters(ExactSpcaError):
    """Problem parameters (d, s, n) are outside the solvable range."""


class TooLarge(ExactSpcaError):
    """An enumeration would exceed its cap: the brute-force oracles' support
    count, or the fills of one degenerate tie in the sparse-PCA vertex read."""


class ParseError(ExactSpcaError):
    """An input file could not be parsed as a numeric matrix."""


class NotSquare(ExactSpcaError):
    """A covariance input file is not a square matrix."""


class AsymmetryTooLarge(ExactSpcaError):
    """A covariance input file is asymmetric beyond tolerance."""
