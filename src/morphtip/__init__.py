"""Kinematics and grasp analysis for an origami shape-morphing fingertip.

The toolkit models a fingertip whose four leaf facets are driven by
slider-crank linkages around a ball-jointed central terrace:

* :mod:`morphtip.linkage` - one half-plane transmission: servo angle to
  facet angle, its inverse, and the tilted-plane pair condition;
* :mod:`morphtip.fingertip` - the assembled fingertip: morphing
  primitives, terrace spring equilibrium, surface profiles, pointer-rod
  tracing and quasi-static transitions;
* :mod:`morphtip.grasp` - 2D cross-section analysis of two opposing
  fingertips: contacts, pivot pinch lines, form/force closure and the
  passive-centering cradle landscape (imported on first use of one of
  its names, because importing it loads numpy);
* :mod:`morphtip.cli` - the ``morphtip`` command with deterministic
  CSV/JSON output.
"""

from .errors import (
    DegenerateContacts,
    InvalidParams,
    MorphtipError,
    OutOfRange,
    Penetration,
    Unreachable,
    Unsupported,
)
from .fingertip import (
    Concave,
    Convex,
    ExternalLoad,
    FingertipConfig,
    FingertipState,
    Flat,
    MorphPrimitive,
    TiltedPlanar,
    pair_tilt_residuals,
    plan_primitive,
    pointer_top,
    state_from_thetas,
    surface_profile,
    terrace_equilibrium,
    transition_trajectory,
)
from .linkage import (
    LinkageParams,
    attainable_facet_range,
    attainable_tilt_range,
    forward_facet,
    inverse_facet,
    operating_range,
    planar_condition_angle,
    slider_point,
    solve_planar_pair,
    tilt_line_residual,
)

__version__ = "0.1.0"

# Names resolved by __getattr__ (PEP 562): importing grasp loads numpy,
# which `import morphtip` and the linkage-only commands do without.
_GRASP_EXPORTS = frozenset({
    "Circle",
    "Closure",
    "Contact",
    "ConvexPolygon",
    "GraspScene",
    "ObjectXSection",
    "closure_classify",
    "cradle_height",
    "find_contacts",
    "pivot_feasible",
    "place_left",
    "place_right",
    "scene_between",
})


def __getattr__(name: str):
    if name not in _GRASP_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import grasp

    value = getattr(grasp, name)
    globals()[name] = value  # later lookups skip this function
    return value


__all__ = [
    "Circle",
    "Closure",
    "Concave",
    "Contact",
    "Convex",
    "ConvexPolygon",
    "DegenerateContacts",
    "ExternalLoad",
    "FingertipConfig",
    "FingertipState",
    "Flat",
    "GraspScene",
    "InvalidParams",
    "LinkageParams",
    "MorphPrimitive",
    "MorphtipError",
    "ObjectXSection",
    "OutOfRange",
    "Penetration",
    "TiltedPlanar",
    "Unreachable",
    "Unsupported",
    "attainable_facet_range",
    "attainable_tilt_range",
    "closure_classify",
    "cradle_height",
    "find_contacts",
    "forward_facet",
    "inverse_facet",
    "operating_range",
    "pair_tilt_residuals",
    "pivot_feasible",
    "place_left",
    "place_right",
    "plan_primitive",
    "planar_condition_angle",
    "pointer_top",
    "scene_between",
    "slider_point",
    "solve_planar_pair",
    "state_from_thetas",
    "surface_profile",
    "terrace_equilibrium",
    "tilt_line_residual",
    "transition_trajectory",
]
