"""Exception taxonomy shared across the package."""
from __future__ import annotations


class XVineError(Exception):
    """Base class for all errors raised by this package."""


# --- vine structures ---------------------------------------------------------

class NotATree(XVineError):
    """An edge set is not a spanning tree on its node set."""


class ProximityViolation(XVineError):
    """Adjacent tree edges fail to share exactly one component."""


class WrongCardinality(XVineError):
    """A tree has the wrong number of edges or an edge the wrong arity."""


class UnknownEdge(XVineError):
    """An edge reference does not match any edge of the vine."""


class MissingSubset(XVineError):
    """A required subset value is absent from a user-supplied mapping."""


class NonpositiveValue(XVineError):
    """A value that must be strictly positive is not."""


class InfeasibleDiagonal(XVineError):
    """A requested structure-matrix diagonal cannot be realized."""


class MalformedMatrix(XVineError):
    """An integer array is not a valid structure matrix."""


class TruncatedVine(XVineError):
    """Operation requires an untruncated vine."""


# --- numerics ----------------------------------------------------------------

class DomainError(XVineError):
    """Argument outside the mathematical domain of the function."""


class NoConvergence(XVineError):
    """An iterative routine failed to reach its tolerance."""


class BracketFailure(XVineError):
    """A root bracket could not be established."""


# --- model / queries ---------------------------------------------------------

class InvalidIndex(XVineError):
    """Conditional index (i, D) is not resolvable on this vine."""


class RecursionUnavailable(XVineError):
    """No recursion path exists for the requested conditional."""


# --- estimation --------------------------------------------------------------

class DegenerateColumn(XVineError):
    """A data column is constant and cannot be rank-transformed."""


class InsufficientData(XVineError):
    """Too few effective observations for the requested fit."""


class InfeasibleLevel(XVineError):
    """Requested truncation level outside 1..d-1."""
