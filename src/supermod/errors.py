"""Exception types shared across the package."""

__all__ = [
    "SupermodError",
    "CycleError",
    "SizeError",
    "EmptyCoalitionError",
    "NotSupermodularError",
    "LatticeMismatchError",
    "CrossCheckError",
    "ConsistencyError",
]


class SupermodError(Exception):
    """Base class for all library errors."""


class CycleError(SupermodError, ValueError):
    """The cover relations induce a cycle, so no partial order exists."""


class SizeError(SupermodError):
    """An enumeration exceeded its configured cap."""


class EmptyCoalitionError(SupermodError, ValueError):
    """The empty coalition is not allowed here."""


class NotSupermodularError(SupermodError, ValueError):
    """The operation is only defined for supermodular games."""


class LatticeMismatchError(SupermodError, TypeError):
    """Operands are bound to different lattices."""


class CrossCheckError(SupermodError, RuntimeError):
    """A self-check of the library failed: two criteria disagree or a
    certificate does not hold.  A program defect, not an answer."""


class ConsistencyError(SupermodError, ValueError):
    """A point configuration fails a payoff-array consistency condition.

    kind is "shared-element" when two chains disagree on the total of a
    coalition they both pass through, or "zero-coordinate" when a chain
    passes through a principal down-set but the added player's coordinate
    is nonzero.  witness carries the offending permutations, coalition
    mask, or player.
    """

    def __init__(self, message, kind, witness):
        super().__init__(message)
        self.kind = kind
        self.witness = witness
