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
  passive-centering cradle landscape;
* :mod:`morphtip.cli` - the ``morphtip`` command with deterministic
  CSV/JSON output.

Each public name is stated once, in :data:`_EXPORTS`, under the module
that defines it, and is imported from there on first use (PEP 562).  So
``import morphtip`` loads none of the modules above.  None of them loads
numpy until a call or attribute asks for an array.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DegenerateContacts", "InvalidParams", "MorphtipError", "OutOfRange", "Penetration",
               "Unreachable", "Unsupported"),
    "fingertip": ("Concave", "Convex", "ExternalLoad", "FingertipConfig", "FingertipState", "Flat",
                  "MorphPrimitive", "TiltedPlanar", "pair_tilt_residuals", "plan_primitive",
                  "pointer_top", "state_from_thetas", "surface_profile", "terrace_equilibrium",
                  "transition_trajectory"),
    "linkage": ("LinkageParams", "attainable_facet_range", "attainable_tilt_range", "forward_facet",
                "inverse_facet", "operating_range", "planar_condition_angle", "slider_point",
                "solve_planar_pair", "tilt_line_residual"),
    "grasp": ("Circle", "Closure", "Contact", "ConvexPolygon", "GraspScene", "ObjectXSection",
              "closure_classify", "cradle_height", "find_contacts", "pivot_feasible", "place_left",
              "place_right", "scene_between"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
