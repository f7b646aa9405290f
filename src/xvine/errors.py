"""Exception taxonomy shared across the package, and the argument checks of
the public functions that raise it."""
from __future__ import annotations

import math
import operator
from functools import partial
from numbers import Real

import numpy as np


class XVineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(XVineError):
    """Argument outside the mathematical domain of the function."""


# --- vine structures ---------------------------------------------------------

class NotATree(XVineError):
    """An edge set is not a spanning tree on its node set."""


class ProximityViolation(XVineError):
    """Adjacent tree edges fail to share exactly one component."""


class WrongCardinality(XVineError):
    """A tree has the wrong number of edges or an edge the wrong arity."""


class UnknownEdge(DomainError):
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


# --- argument checks -------------------------------------------------------

def _count(n, name: str = "sample size", least: float = 0) -> int:
    """n as an int; DomainError unless it is an integer (numpy's too, not a
    bool) >= least."""
    if isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        need = "nonnegative" if least == 0 else f"at least {least}"
        raise DomainError(f"{name} must be {need}, got {n}")
    return n


def _real(x, name: str):
    """x as given; DomainError unless it is a finite real number (numpy's
    too, not a bool)."""
    if isinstance(x, bool) or not isinstance(x, Real) or not -math.inf < x < math.inf:
        raise DomainError(f"{name} must be a finite real number, got {x!r}")
    return x


def _arrays(name: str, *arrays, need: str = "", ok=None) -> list[np.ndarray]:
    """The arrays as float arrays, a float64 one as it is; DomainError unless
    each has a numpy integer or float dtype (not bool, complex, text or
    objects such as None, nor ragged), ok(array) holds everywhere (NaN should
    fail it), and they broadcast together."""
    out = []
    for arr in arrays:
        try:
            arr = np.asarray(arr)
        except ValueError:   # ragged
            arr = None
        if arr is None or arr.dtype.kind not in "fiu":
            raise DomainError(f"{name} needs real-valued arguments")
        arr = arr.astype(float, copy=False)
        if ok is not None and not np.all(ok(arr)):
            raise DomainError(f"{name} needs {need}")
        out.append(arr)
    try:
        np.broadcast_shapes(*(arr.shape for arr in out))
    except ValueError:
        raise DomainError(f"{name} needs arguments that broadcast together") from None
    return out


_pos = partial(_arrays, need="strictly positive and finite arguments",
               ok=lambda a: (a > 0.0) & (a < np.inf))
_unit = partial(_arrays, need="arguments in [0, 1]", ok=lambda a: (a >= 0.0) & (a <= 1.0))
