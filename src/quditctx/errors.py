"""Exception types shared across the package."""


class QuditCtxError(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(QuditCtxError, ValueError):
    """The qudit dimension is not a prime number."""


class ZeroInverseError(QuditCtxError, ZeroDivisionError):
    """Attempted to invert 0 modulo d."""


class EvenDimensionError(QuditCtxError, ValueError):
    """Operation is only defined for odd prime dimension."""


class ShapeMismatchError(QuditCtxError, ValueError):
    """Operands act on different numbers of qudits or different dimensions."""


class IdentityPauliError(QuditCtxError, ValueError):
    """Eigenprojectors of the identity operator are not defined."""


class IdentityFactorError(QuditCtxError, ValueError):
    """Rank-1 decomposition requires both tensor factors to be non-identity."""


class DimensionOverflowError(QuditCtxError, ValueError):
    """Requested dense matrix exceeds the configured size cap."""


class NotHermitianError(QuditCtxError, ValueError):
    """Matrix is not Hermitian within tolerance."""


class BadConnectionSetError(QuditCtxError, ValueError):
    """Cayley connection set contains the identity or is not inverse-closed."""


class BudgetExceededError(QuditCtxError, RuntimeError):
    """Problem size exceeds the configured enumeration or solver cap."""


class InvalidHintError(QuditCtxError, ValueError):
    """Supplied partition is not a cover of the graph by cliques."""


class UnsupportedDimensionError(QuditCtxError, ValueError):
    """No construction is available for this dimension."""


class DecompositionMismatchError(QuditCtxError, ValueError):
    """Reconstructed projector sum does not reproduce the Bell operator."""


class SearchFailedError(QuditCtxError, RuntimeError):
    """Bounded search did not find a configuration satisfying the identity."""


class DimacsFormatError(QuditCtxError, ValueError):
    """DIMACS graph text is malformed or disagrees with its problem line."""
