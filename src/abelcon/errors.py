"""Exception types shared across the toolkit."""


class AbelconError(Exception):
    """Base class for all errors raised by this package; an error in a line
    of input carries that line."""

    def __init__(self, message="", line=None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


class InvalidPresentation(AbelconError):
    """Graph data does not define a valid presentation."""


class UnknownVertex(AbelconError):
    """A vertex name is not declared in the presentation."""


class PresentationMismatch(AbelconError):
    """Operands were built over different presentations."""


class IdentityElement(AbelconError):
    """Operation is not defined for the identity."""


class EmptySet(AbelconError):
    """A nonempty vertex set is required."""


class NotAbelianPrimitive(AbelconError):
    """Vertex does not induce a well-defined exponent-sum homomorphism."""


class ParseError(AbelconError):
    """Malformed textual input."""


class UnknownVariable(AbelconError):
    """A variable name is not declared in the instance."""


class IncompleteAssignment(AbelconError):
    """Assignment does not cover every instance variable."""


class RankTooSmall(AbelconError):
    """Free target presentation must have rank at least two."""


class AbelianTarget(AbelconError):
    """Target group is abelian; the encoding requires a nonabelian target."""


class InfiniteAbelianisation(AbelconError):
    """Operation requires every vertex order to be finite."""


class NotFlattened(AbelconError):
    """Instance must be flattened to short-form equations first."""


class NotAnIntegerSolution(AbelconError):
    """Supplied integers do not solve the source polynomial system."""


class NotASolution(AbelconError):
    """Supplied assignment does not satisfy the compiled instance."""


class DecodeInconsistency(AbelconError):
    """Decoded integers fail the source system; indicates a compiler bug."""


class RadiusCapExceeded(AbelconError):
    """Requested ball radius lies outside 0..cap."""


class IntegerTooLong(AbelconError):
    """An integer is too large to convert or expand: more digits than the
    interpreter converts to text, or a power or multiplier above sys.maxsize."""


class RecipeError(AbelconError):
    """A witness recipe in a sidecar cannot be evaluated."""
