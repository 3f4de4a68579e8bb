"""Exception types shared across the package.

Construction and search failures are split into caller errors (bad parameters,
guard violations) and internal errors (a certified invariant did not hold).
The CLI maps these onto distinct exit codes.
"""

from __future__ import annotations


class OrthoseqError(Exception):
    """Base class for all package errors."""


class ParameterOutOfRange(OrthoseqError):
    """A parameter is outside the supported range (caller error)."""


class UnsupportedCase(OrthoseqError):
    """The requested parameters are provably infeasible for this family."""


class GuardExceeded(OrthoseqError):
    """An enumeration or search exceeded its configured resource guard."""


class DegreeMismatch(OrthoseqError):
    """A vertex has unequal in- and out-degree; no Eulerian circuit exists."""

    def __init__(self, vertex_label, in_degree: int, out_degree: int):
        self.vertex_label = vertex_label
        self.in_degree = in_degree
        self.out_degree = out_degree
        super().__init__(
            f"vertex {vertex_label!r} has in-degree {in_degree} != out-degree {out_degree}"
        )


class NotConnected(OrthoseqError):
    """The arc-carrying vertices are not strongly connected."""


class InsufficientDegree(OrthoseqError):
    """Rewiring requires degree >= 3 at the chosen vertex."""


class TooManyForbidden(OrthoseqError):
    """More forbidden circuits than the rewiring guarantee supports."""


class SearchExhausted(OrthoseqError):
    """A construction found no acceptable rewiring from any of its starts."""


class NotPrimePower(OrthoseqError):
    """The alphabet size must be a prime power for this construction."""


class NotCoprime(OrthoseqError):
    """Stream lengths must be coprime for index-synchronous composition."""


class CertificationError(OrthoseqError):
    """A construction produced an object that failed its own certificate.

    This is always an internal error: every surfaced result must pass the
    independent verifier first.
    """
