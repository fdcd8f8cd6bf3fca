"""charclass: degrees of Segre and Chern-Schwartz-MacPherson classes,
topological Euler characteristics, and maximum likelihood degrees of closed
subschemes of complex projective space, from homogeneous ideal generators.

Quick start::

    import random
    from charclass import Ring, FieldSpec, Ideal, euler_characteristic

    R = Ring(("x", "y", "z", "w"), FieldSpec(2147483647))
    x, y, z, w = R.gens()
    I = Ideal(R, [x*z - y*y, y*w - z*z, x*w - y*z])   # twisted cubic
    euler_characteristic(I, rng=random.Random(7))      # -> 2

The heavy lifting happens over a large random prime field as a proxy for
the complex numbers; all reported quantities are small exact integers.
"""

__version__ = "0.1.0"

from .errors import (
    CharclassError,
    DomainError,
    GenericityError,
    NumericBackendError,
    ParseError,
    ResourceError,
)
from .poly import (
    FieldSpec,
    Polynomial,
    Ring,
    directional_derivative,
    homogenize,
)
from .squarefree import poly_gcd, squarefree_part
from .groebner import (
    buchberger,
    exact_divide,
    normal_form,
    s_polynomial,
)
from .ideals import (
    Ideal,
    SchemeStats,
    dimension_and_degree,
    ideal_quotient,
    intersect,
    jacobian_ideal,
    random_element_of_degree,
    saturation,
)
from .segre import (
    ResidualDegrees,
    SegreDegrees,
    residual_degrees_symbolic,
    segre_degrees,
    segre_from_residuals,
)
from .csm import (
    ClassExpr,
    CsmResult,
    MlResult,
    SegreProfile,
    affine_euler,
    csm_degrees_from_segre,
    csm_from_shadow,
    csm_hypersurface,
    csm_inclusion_exclusion,
    csm_subscheme,
    euler_characteristic,
    ml_degree,
    segre_from_shadow,
    shadow_from_segre,
)
from .homotopy import (
    PathEndpoint,
    StraightLineHomotopy,
    classify_endpoint,
    residual_degrees_numeric,
    track_path,
)
from .problemfile import ProblemFile, parse_expression, parse_problem

__all__ = [
    "CharclassError", "DomainError", "GenericityError", "NumericBackendError",
    "ParseError", "ResourceError",
    "FieldSpec", "Ring", "Polynomial", "homogenize",
    "directional_derivative", "squarefree_part", "poly_gcd",
    "buchberger", "normal_form", "s_polynomial", "exact_divide",
    "Ideal", "SchemeStats", "dimension_and_degree",
    "ideal_quotient", "saturation", "intersect", "jacobian_ideal",
    "random_element_of_degree",
    "ResidualDegrees", "SegreDegrees", "residual_degrees_symbolic",
    "segre_from_residuals", "segre_degrees",
    "ClassExpr", "SegreProfile", "CsmResult", "MlResult",
    "shadow_from_segre", "segre_from_shadow", "csm_from_shadow",
    "csm_degrees_from_segre", "csm_hypersurface", "csm_inclusion_exclusion",
    "csm_subscheme",
    "euler_characteristic", "affine_euler", "ml_degree",
    "PathEndpoint", "StraightLineHomotopy", "track_path",
    "classify_endpoint", "residual_degrees_numeric",
    "ProblemFile", "parse_problem", "parse_expression",
]
