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
    """A polynomial root did not converge or a coefficient is not finite."""


class MultiplicityError(NumericalError):
    """Cluster cardinality and derivative smallness disagree."""


class CommonComponentError(NumericalError):
    """The two curves share a component; the intersection is not finite."""


class ChartError(NumericalError):
    """The inflection resultant in the fixed frame did not resolve: the
    singular point's multiplicity did not fit, or the Newton solve on the
    cubic found the wrong number of simple inflection points."""


class MatchingError(NumericalError):
    """Point-set labelling failed (ambiguous match or cardinality mismatch)."""


class TrackingError(NumericalError):
    """Continuation broke down (step underflow, residual blow-up...)."""


class CrossingError(NumericalError):
    """Discriminant-crossing search failed or was inconsistent."""


class VerificationError(CubicflexError):
    """A claimed value did not verify."""
