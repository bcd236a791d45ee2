"""Numerical enumeration of symmetric tensor rank decompositions.

The core pipeline writes a rank-r decomposition search as a square
polynomial system, tracks its solutions around monodromy loops in
coefficient space until the count stabilizes, and sorts the findings
into real, autoconjugate and conjugate-pair classes, which settles
identifiability over the reals versus the complex numbers.  Companion
modules cover the secant-line geometry of an elliptic quartic curve and
real point counts of linear sections of Segre varieties.
"""

from .homotopy import (
    PathStatus,
    SingularJacobianError,
    condition_estimate,
    solve_total_degree,
    track,
)
from .monodromy import (
    SampledStartError,
    SolutionRegistry,
    StopPolicy,
    canonical_distance,
    solve,
    triangle_loop,
)
from .poly import DimensionMismatchError, PolySystem, monomials, multinomial
from .realcert import (
    AUTOCONJUGATE,
    CONJUGATE_PAIR_MEMBER,
    REAL,
    ClassifiedSet,
    UnpairedDecompositionError,
    classify,
    is_real_point,
)
from .waring import (
    Decomposition,
    NonGenericFormError,
    Summand,
    TensorParams,
    WaringSpec,
    build_system,
    bundled_fixture_path,
    decomposition_sampler,
    enumerate_decompositions,
    is_admissible,
    load_start,
    random_real_start,
    reconstruction_error,
    sylvester_oracle,
    tensor_from_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "AUTOCONJUGATE",
    "CONJUGATE_PAIR_MEMBER",
    "ClassifiedSet",
    "Decomposition",
    "DimensionMismatchError",
    "NonGenericFormError",
    "PathStatus",
    "PolySystem",
    "REAL",
    "SampledStartError",
    "SingularJacobianError",
    "SolutionRegistry",
    "StopPolicy",
    "Summand",
    "TensorParams",
    "UnpairedDecompositionError",
    "WaringSpec",
    "build_system",
    "bundled_fixture_path",
    "canonical_distance",
    "classify",
    "condition_estimate",
    "decomposition_sampler",
    "enumerate_decompositions",
    "is_admissible",
    "is_real_point",
    "load_start",
    "monomials",
    "multinomial",
    "random_real_start",
    "reconstruction_error",
    "solve",
    "solve_total_degree",
    "sylvester_oracle",
    "tensor_from_decomposition",
    "track",
    "triangle_loop",
]
