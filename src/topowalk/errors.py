"""Exception types shared across the package."""


class WalkError(Exception):
    """Base class for all errors raised by topowalk."""


class InvalidInputError(WalkError):
    """An argument violates a documented precondition."""


class UnknownProtocolError(WalkError, KeyError):
    """Registry lookup failed; the message lists the valid ids."""

    __str__ = Exception.__str__  # KeyError's would print the message quoted


class UnsupportedProtocolError(WalkError):
    """The requested operation has no analytic form for this protocol."""


class GaplessError(WalkError):
    """n or a group velocity was requested at (or too close to) a gap closing.

    This is a signal, not a failure: the quantities are genuinely undefined
    where the bands touch.
    """


class BoundaryStateError(WalkError):
    """A topological invariant is undefined because d passes the origin."""


class DegenerateGridError(WalkError):
    """A grid computation found no usable points: none at all, or no gap-open ones."""


class ClassificationError(WalkError):
    """Symmetry findings are mutually inconsistent; carries the residuals."""
