"""Exception hierarchy.

Three families matter downstream: schema/usage problems (CLI exit 2),
numerical failures (exit 3), and verification failures (exit 4).
"""


class CubicflexError(Exception):
    pass


class SchemaError(CubicflexError):
    """Malformed input document or bad argument shape."""


class DegenerateInputError(SchemaError):
    """Structurally invalid object (zero form, dependent spanning set...)."""


class NumericalError(CubicflexError):
    """A numerical routine could not reach its contract."""


class RootFindingError(NumericalError):
    def __init__(self, message, iterates=None, residuals=None):
        super().__init__(message)
        self.iterates = iterates
        self.residuals = residuals


class MultiplicityError(NumericalError):
    """Cluster cardinality and derivative smallness disagree."""


class CommonComponentError(NumericalError):
    """The two curves share a component; the intersection is not finite."""


class ChartError(NumericalError):
    """The inflection resultant in the fixed frame did not resolve: the
    singular point's multiplicity did not fit, a simple inflection point
    failed its Newton polish, or the wrong number of them was found."""


class MatchingError(NumericalError):
    """Point-set labelling failed (ambiguous match or cardinality mismatch)."""


class TrackingError(NumericalError):
    """Continuation broke down (step underflow, residual blow-up...)."""


class CrossingError(NumericalError):
    """Discriminant-crossing search failed or was inconsistent."""


class VerificationError(CubicflexError):
    """A claimed value did not verify."""
