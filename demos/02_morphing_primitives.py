"""The three morphing primitives and a quasi-static mode transition.

A fingertip plans its four servo commands from a symbolic primitive:
Concave (cradle), Convex (small-patch pinch), TiltedPlanar (reorientation).
The under-actuated terrace settles to the spring-energy minimum.

Run: python3 demos/02_morphing_primitives.py
"""

import math

from morphtip import (
    Concave,
    Convex,
    FingertipConfig,
    Flat,
    TiltedPlanar,
    pair_tilt_residuals,
    plan_primitive,
    terrace_equilibrium,
    transition_trajectory,
)

cfg = FingertipConfig()


def show(name, state):
    th = ", ".join(f"{math.degrees(t):7.3f}" for t in state.thetas)
    ph = ", ".join(f"{math.degrees(p):7.3f}" for p in state.phis)
    tilt = ", ".join(f"{math.degrees(t):6.3f}" for t in state.terrace_tilt)
    print(f"{name:<22} thetas [{th}] deg")
    print(f"{'':<22} phis   [{ph}] deg   terrace ({tilt}) deg")
    print(f"{'':<22} profile x: "
          + "  ".join(f"({p[0]:7.2f},{p[1]:6.2f})" for p in state.profile_x))


print("=" * 76)
print("PRIMITIVES (servo order: +x, -x, +y, -y)")
print("=" * 76)
show("Flat", plan_primitive(cfg, Flat()))
show("Concave(20 deg)", plan_primitive(cfg, Concave(math.radians(20.0))))
show("Convex(-15 deg)", plan_primitive(cfg, Convex(math.radians(-15.0))))
st = plan_primitive(cfg, TiltedPlanar(math.radians(5.0)))
show("TiltedPlanar(5 deg)", st)

# Distance of the two hinges from the line through the two facet tips.
(x0, y0), hinge_neg, hinge_pos, (x3, y3) = st.profile_x_points
ex, ey = x3 - x0, y3 - y0
dev = max(abs(ex * (y - y0) - ey * (x - x0)) for x, y in (hinge_neg, hinge_pos)) / math.hypot(ex, ey)
print(f"\ntilted-planar profile deviation from a straight line: {dev:.2e} mm")

print()
print("=" * 76)
print("TERRACE EQUILIBRIUM (under-actuation)")
print("=" * 76)
print("symmetric facets (12, 12) deg      ->",
      math.degrees(terrace_equilibrium(math.radians(12), math.radians(12), cfg.spring_k)), "deg")
print("antisymmetric facets (5, -5) deg   ->",
      math.degrees(terrace_equilibrium(math.radians(5), math.radians(-5), cfg.spring_k)), "deg")
print("level facets, 4 N*mm object torque ->",
      math.degrees(terrace_equilibrium(0.0, 0.0, cfg.spring_k, 4.0)), "deg")

print()
print("=" * 76)
print("TRANSITION: concave peak to convex floor, 3 degrees per step")
print("=" * 76)
from morphtip import forward_facet

phi_hi = forward_facet(cfg.linkage, math.radians(15.0))
phi_lo = forward_facet(cfg.linkage, math.radians(-21.0))
states = transition_trajectory(cfg, Concave(phi_hi), Convex(phi_lo))
print(f"{len(states)} states; facet angle per step:")
print("  " + " ".join(f"{math.degrees(s.phis[0]):7.2f}" for s in states))

states = transition_trajectory(cfg, Concave(math.radians(20.0)), TiltedPlanar(math.radians(5.0)))
res = pair_tilt_residuals(cfg, states)
print(f"\nConcave(20 deg) -> TiltedPlanar(5 deg): {len(states)} states")
print("x-pair straight-line residual per step (only the endpoint is planar):")
print("  " + " ".join(f"{r:.1e}" for r in res[:, 0]))
