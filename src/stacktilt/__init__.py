"""stacktilt: tilting bundles of line bundles on toric Fano DM stacks
of Picard rank one and two, with exact combinatorial verification."""

from .abgroup import FgAbelianGroup, GroupElement, GroupHom, direct_sum_group
from .graded_order import GradedDegreeGroup, SignSplit
from .stacky_geom import (CohomologyOracle, StackyPolytope, gale_dual,
                          group_to_polytope, parse_polytope)
from .tilting import (TiltingClass, classify_rank1, classify_rank2,
                      endomorphism_quiver, verify_class)

__version__ = "0.1.0"

__all__ = [
    "FgAbelianGroup", "GroupElement", "GroupHom", "direct_sum_group",
    "GradedDegreeGroup", "SignSplit", "CohomologyOracle", "StackyPolytope",
    "gale_dual", "group_to_polytope", "parse_polytope", "TiltingClass",
    "classify_rank1", "classify_rank2", "endomorphism_quiver", "verify_class",
    "__version__",
]
