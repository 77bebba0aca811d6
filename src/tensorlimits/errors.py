"""Exceptions shared across the package.

Every error raised on purpose derives from TensorLimitsError so callers
(and the command line driver) can tell validation failures from bugs.
"""


class TensorLimitsError(Exception):
    """Base class for all deliberate failures."""


class UnsupportedType(TensorLimitsError):
    """Cartan type outside the supported families A, B, C, D, G2, F4."""


class WeylCapExceeded(TensorLimitsError):
    """The Weyl group order exceeds the enumeration cap."""


class TableCapExceeded(TensorLimitsError):
    """Enumerating a tensor-power table would hold more rows than repchar.MAX_TABLE_ROWS."""


class RankTooLarge(TensorLimitsError):
    """The requested grid computation is limited to small rank."""


class GridCapExceeded(TensorLimitsError):
    """A density grid would hold more points than densities.MAX_GRID_POINTS."""


class BasisMismatch(TensorLimitsError):
    """Vectors were given in incompatible or unknown coordinate bases."""


class NotDominant(TensorLimitsError):
    """A highest weight argument has a negative fundamental coordinate or the wrong rank."""


class NegativeMultiplicity(TensorLimitsError):
    """Decomposition produced a negative count, so the input was not a character."""


class DegenerateSpec(TensorLimitsError):
    """Tensor specification with zero variance (every factor trivial)."""


class InadmissibleN(TensorLimitsError):
    """A tensor power N for which some factor multiplicity tau*N is not an integer."""


class OutsideDomain(TensorLimitsError):
    """Density evaluation requested outside the density's domain."""


class TraceNotZero(TensorLimitsError):
    """Eigenvalue vector expected to sum to zero does not."""
