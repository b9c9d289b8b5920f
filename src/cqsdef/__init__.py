"""Exact-arithmetic toolkit for one-parameter toric deformations of
two-dimensional cyclic quotient singularities."""

from .lattice import (
    Cone2,
    InvariantError,
    cf_expand,
    dual_cone,
    hilbert_basis_2d,
    primitive,
)
from .cqs import (
    CqsModel,
    HypersurfaceError,
    InvalidSingularityError,
    cqs_new,
    from_display_coords,
    to_display_coords,
)
from .chains import ZeroChain, enumerate_K, is_t_singularity
from .minkowski import (
    Decomposition,
    Segment,
    enum_decompositions,
    segment,
    segment_length,
)
from .totalspace import (
    Deformation,
    GeneratorRelations,
    VersalMap,
    build_deformation,
    components_of,
    deformation_equations,
    generator_relations,
    nu_count,
    versal_map,
)
from .fibers import SingularityList, general_fiber, is_smoothing
from .resolutions import (
    Fan3,
    FanDecomposition,
    PResolutionFan,
    assemble_fan3,
    canonical_model,
    fan_decomposition,
    p_resolution_fan,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
