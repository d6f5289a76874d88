"""Exception types shared across the package."""


class QKneserError(Exception):
    """Base class for all package-specific errors."""


class NotPrimePowerError(QKneserError, ValueError):
    """q has two or more distinct prime factors."""


class UnsupportedFieldError(QKneserError, ValueError):
    """q is a prime power but outside the built-in modulus table."""


class BadQError(QKneserError, ValueError):
    """A counting formula was called with q < 2."""


class AmbientMismatchError(QKneserError, ValueError):
    """Subspaces, or rows given as vectors, do not lie in one GF(q)^n."""


class EmptyMatrixError(QKneserError, ValueError):
    """canonicalize() was given a matrix with no rows."""


class OutOfRangeError(QKneserError, ValueError):
    """Parameters fall outside the range where a formula is asserted, or
    an input lies outside a construction's domain."""


class DimMismatchError(QKneserError, ValueError):
    """A subspace argument has the wrong dimension for the construction."""


class NotIndependentError(QKneserError, ValueError):
    """The given vertex set induces an edge."""


class MalformedTreeError(QKneserError, ValueError):
    """Tree edges of a decomposition do not form a tree, or the elimination
    order it is built from is not a permutation of the vertices."""


class MalformedFileError(QKneserError, ValueError):
    """A .gr or .td file violates the expected format."""


class UsageError(QKneserError, ValueError):
    """Command-line options that the chosen command cannot use."""


class TooLargeError(QKneserError):
    """Enumeration, construction or search would exceed a size limit, or
    a primality question lies beyond the proven test (CLI exit 3)."""
