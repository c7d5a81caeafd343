"""Inflection points of plane cubics and their monodromy.

The package computes the nine inflection points of a plane cubic, tracks
them numerically along loops in coefficient space, extracts the induced
permutations, and verifies the classical group-theoretic and enumerative
facts about the monodromy group (the Hessian group of order 216) and the
discriminant hypersurface.
"""

from .errors import (CubicflexError, SchemaError, DegenerateInputError,
                     NumericalError, RootFindingError, MultiplicityError,
                     CommonComponentError, ChartError, MatchingError,
                     TrackingError, CrossingError, VerificationError)
from .forms import (CubicForm, ProjPoint, Pencil, Net, proj_distance,
                    fermat_cubic, triangle_cubic, node_family, cusp_family,
                    hesse_pencil)
from .locus import (InflectionPoint, InflectionSet, SingularPoint,
                    SingularSet, hesse_base_points, inflection_points,
                    label_against, singular_points, singular_sets)
from .perms import (Perm, PermGroup, closure, conjugate_in_s9, coset_action,
                    hesse_group, local_cusp_group)
from .strata import (Certificate, Crossing, NetCusp, PencilCrossings,
                     StratumLabel, classify, classify_all, discriminant_value,
                     net_cusp_members, pencil_crossings,
                     pencil_discriminant_fit)
from .track import (Arc, Line, Loop, MonodromyResult, bypass_loop,
                    circle_loop, generate_global_monodromy,
                    line_bypass_permutations, local_monodromy, track_loop)
from .invariants import (CurveNumerics, SurfaceNumerics, covering_euler,
                         hurwitz_double_cover_genus, invariant_chain,
                         noether_chi, plane_curve_genus)

__all__ = [
    "CubicflexError", "SchemaError", "DegenerateInputError", "NumericalError",
    "RootFindingError", "MultiplicityError", "CommonComponentError",
    "ChartError", "MatchingError", "TrackingError", "CrossingError",
    "VerificationError",
    "CubicForm", "ProjPoint", "Pencil", "Net", "proj_distance",
    "fermat_cubic", "triangle_cubic", "node_family", "cusp_family",
    "hesse_pencil",
    "InflectionPoint", "InflectionSet", "SingularPoint", "SingularSet",
    "hesse_base_points", "inflection_points", "label_against",
    "singular_points", "singular_sets",
    "Perm", "PermGroup", "closure", "conjugate_in_s9", "coset_action",
    "hesse_group", "local_cusp_group",
    "Certificate", "Crossing", "NetCusp", "PencilCrossings", "StratumLabel",
    "classify", "classify_all", "discriminant_value", "net_cusp_members",
    "pencil_crossings",
    "pencil_discriminant_fit",
    "Arc", "Line", "Loop", "MonodromyResult", "bypass_loop", "circle_loop",
    "generate_global_monodromy", "line_bypass_permutations",
    "local_monodromy", "track_loop",
    "CurveNumerics", "SurfaceNumerics", "covering_euler",
    "hurwitz_double_cover_genus", "invariant_chain", "noether_chi",
    "plane_curve_genus",
]

__version__ = "0.1.0"
