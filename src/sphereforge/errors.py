"""Exception hierarchy shared by all sphereforge modules."""


class SphereforgeError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(SphereforgeError):
    """Input violates a basic size or shape precondition."""


class DisjointnessViolation(SphereforgeError):
    """Vertex sets that must be disjoint overlap."""


class FaceNotFound(SphereforgeError):
    """A simplex or grid cell is not part of the complex or region."""


class NotPseudomanifold(SphereforgeError):
    """Some codimension-1 face lies in three or more maximal cells."""


class InvalidOrder(SphereforgeError):
    """A proposed shelling order is not a permutation of the facets."""


class NoBoundaryContact(SphereforgeError):
    """A cell has no facet on the boundary of its ball."""


class SingleSimplexBall(SphereforgeError):
    """A ball consisting of one maximal simplex cannot be carved."""


class IncompatibleFamily(SphereforgeError):
    """Missing faces collide, touch the boundary, or are degenerate."""


class BallOverlap(SphereforgeError):
    """Two balls to be carved share a maximal simplex."""


class ChoiceLengthMismatch(SphereforgeError):
    """A choice vector does not match the number of free cells."""


class HypothesisNotSatisfied(SphereforgeError):
    """A hole is not a ball, or a band misses the condition for its shelling order."""


class LiftConstructionFailed(SphereforgeError):
    """An internally constructed lift failed its own regularity check."""


class EpsSearchExhausted(SphereforgeError):
    """No dyadic perturbation scale up to 2**-64 certified the target."""


class DegenerateCell(SphereforgeError):
    """A claimed subdivision cell does not span full dimension."""


class DeltaTooLarge(SphereforgeError):
    """Raising hole centers by the given amount breaks regularity."""


class InternalInvariantViolation(SphereforgeError):
    """A construction produced output violating one of its own guarantees."""


class InputParseError(SphereforgeError):
    """A JSON artifact could not be parsed into the expected structure."""
