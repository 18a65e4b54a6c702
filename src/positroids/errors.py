"""Exception types shared across the package, and its integer and list checks.

It imports nothing, so a usage error loads no more than it and the CLI.
"""


def _int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, not {type(value).__name__}")


def _list(value) -> list:
    """A JSON array, so that a reader never iterates a string or an object."""
    if isinstance(value, list):
        return value
    raise TypeError(f"expected a list, not {type(value).__name__}")


class PositroidError(ValueError):
    """Base class for all domain errors raised by this package."""


class BadRange(PositroidError):
    """Parameters outside the supported (n, k, m) range."""


class NotReduced(PositroidError):
    """Operation requires a reduced diagram."""


class NotLe(PositroidError):
    """Operation requires a row-and-column sorted diagram."""


class Crossing(PositroidError):
    """Lattice paths cross where a noncrossing family is required."""


class NonLollipopFixedPoint(PositroidError):
    """A trip returned to its start without a degree-one neighbor."""


class BadBoundary(PositroidError):
    """Boundary vertex unsuitable for the requested surgery."""


class BadAttachment(PositroidError):
    """Boundary vertex is not attached to a trivalent internal vertex."""


class NotBCFWGraph(PositroidError):
    """Graph is not produced by the recursive construction."""


class MissingVariable(PositroidError):
    """An edge weight was not supplied."""


class RankDeficient(PositroidError):
    """Matrix does not have full row rank."""


class NotTotallyPositive(PositroidError):
    """A maximal minor is not strictly positive."""


class RankLoss(PositroidError):
    """A linear map dropped the rank of its argument."""


class ShapeMismatch(PositroidError):
    """Operands have incompatible dimensions."""


class NotK2BCFW(PositroidError):
    """Diagram is not a two-row member of the recursive family."""


class TemplateMismatch(PositroidError):
    """Vectors do not fit the required sign template."""


class NotInSpan(PositroidError):
    """Vector lies outside the relevant subspace."""


class SumMismatch(PositroidError):
    """Claimed decomposition does not sum to the target vector."""


class SearchExhausted(PositroidError):
    """Randomized search failed within its attempt budget."""


class NoMatch(PositroidError):
    """No vector with the required image exists."""


class InvariantViolated(RuntimeError):
    """A property the code guarantees failed to hold: a bug, not bad input.

    Deliberately not a :class:`PositroidError`, so it is never reported as a
    usage error.
    """
