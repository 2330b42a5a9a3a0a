"""Walk through the slider-crank transmission of one facet.

The servo crank hangs below the surface and pushes a slider along the
facet guide.  Command angle theta (offset from the neutral crank angle)
maps to facet angle phi; positive theta raises the facet (concave),
negative lowers it (convex).

Run: python3 demos/01_linkage_fk_ik.py
"""

import math

from morphtip import (
    LinkageParams,
    attainable_facet_range,
    forward_facet,
    inverse_facet,
    operating_range,
    slider_point,
)

params = LinkageParams()  # 15 mm terrace half, 20 mm crank, 30 deg neutral

print("=" * 64)
print("FORWARD MAP: 13-step angular stroke, 3 degrees per step")
print("=" * 64)
print(f"{'theta':>8}  {'phi':>10}  {'slider x':>9}  {'slider y':>9}")
for i in range(13):
    theta_deg = 15.0 - 3.0 * i
    theta = math.radians(theta_deg)
    phi = forward_facet(params, theta)
    bx, by = slider_point(params, theta)
    print(f"{theta_deg:7.0f}d  {math.degrees(phi):9.3f}d  {bx:9.3f}  {by:9.3f}")

# The gearing is strongly nonlinear: near the concave end a 3-degree servo
# step moves the facet by ~30 degrees, near the convex end by ~2.5.

print()
print("=" * 64)
print("OPERATING RANGE AND JAM")
print("=" * 64)
lo, hi = operating_range(params)
phi_lo, phi_hi = attainable_facet_range(params)
print(f"servo range : {math.degrees(lo):8.3f} .. {math.degrees(hi):8.3f} deg")
print(f"facet range : {math.degrees(phi_lo):8.3f} .. {math.degrees(phi_hi):8.3f} deg")
print("The concave side is jam-limited: past the limit the slider would")
print("pass inside the hinge.  Commanding theta = +18 deg:")
try:
    forward_facet(params, math.radians(18.0))
except Exception as exc:
    print(f"  -> {type(exc).__name__}: {exc}")

print()
print("=" * 64)
print("INVERSE MAP")
print("=" * 64)
for phi_deg in (0.0, 8.0, 30.0, -20.0):
    theta = inverse_facet(params, math.radians(phi_deg))
    back = forward_facet(params, theta)
    print(f"phi {phi_deg:7.2f}d  ->  theta {math.degrees(theta):8.4f}d   "
          f"(readback {math.degrees(back):8.4f}d)")

theta = inverse_facet(params, 0.35)
print(f"\nFK readback residual of the closed form at phi=0.35 rad: "
      f"{abs(forward_facet(params, theta) - 0.35):.2e} rad")
