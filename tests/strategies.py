"""Hypothesis strategies for random valid fingertip geometries and grasp contact sets."""

from __future__ import annotations

import math

from hypothesis import assume, strategies as st

from morphtip import (
    Concave,
    Contact,
    Convex,
    FingertipConfig,
    FingertipState,
    Flat,
    LinkageParams,
    MorphPrimitive,
    TiltedPlanar,
    attainable_tilt_range,
    forward_facet,
    operating_range,
    plan_primitive,
)


@st.composite
def linkage_params(draw) -> LinkageParams:
    """Slider-crank geometries with a usable jam-free stroke.

    The screen is stated here from the geometry, not taken from the
    library: the slider sits at least 1 mm outward of the hinge at
    neutral, and the servo interval where the slider stays outward of the
    hinge (``sin(alpha0 - theta) > (l_oc - oa_x) / l_ab``, crank inside
    the half-turn) keeps at least 20 degrees of the commanded stroke and
    reaches 3 degrees on the concave side.
    """
    l_oc = draw(st.floats(10.0, 20.0))
    l_ab = draw(st.floats(14.0, 26.0))
    alpha0 = math.radians(draw(st.floats(18.0, 50.0)))
    oa_x = draw(st.floats(4.0, 16.0))
    theta_min = -math.radians(draw(st.floats(20.0, 45.0)))
    theta_max = math.radians(draw(st.floats(20.0, 45.0)))
    assume(oa_x + l_ab * math.sin(alpha0) - l_oc >= 1.0)
    s0 = (l_oc - oa_x) / l_ab
    edge = math.asin(s0) if s0 > 0.0 else 0.0
    lo = max(theta_min, alpha0 - math.pi + edge)
    hi = min(theta_max, alpha0 - edge)
    assume(hi - lo >= math.radians(20.0) and hi >= math.radians(3.0))
    return LinkageParams(l_oc=l_oc, l_ab=l_ab, alpha0=alpha0, oa_x=oa_x,
                         theta_min=theta_min, theta_max=theta_max)


@st.composite
def fingertip_configs(draw) -> FingertipConfig:
    return FingertipConfig(
        linkage=draw(linkage_params()),
        facet_len=draw(st.floats(12.0, 25.0)),
        spring_k=draw(st.floats(5.0, 20.0)),
        step_deg=draw(st.floats(2.0, 5.0)),
    )


@st.composite
def zero_free_configs(draw) -> FingertipConfig:
    """fingertip_configs whose servo stroke excludes 0, on either side.

    The stroke keeps one end of the jam-free interval and moves the other
    end to a fraction of it, so Flat's zero command lies outside it.
    """
    cfg = draw(fingertip_configs())
    lo, hi = operating_range(cfg.linkage)
    f = draw(st.floats(0.05, 0.8))
    stroke = {"theta_min": f * hi} if draw(st.booleans()) else {"theta_max": f * lo}
    return cfg.replace(linkage=cfg.linkage.replace(**stroke))


@st.composite
def plannable_primitives(draw, cfg: FingertipConfig) -> MorphPrimitive:
    """A random primitive that ``cfg`` can plan.

    Concave (Convex) when the operating range reaches above (below) 0, at
    the facet angle of a command in that part of the range; TiltedPlanar
    when 0 lies inside the range, at a fraction of the attainable tilt;
    Flat when the range holds 0.
    """
    p = cfg.linkage
    lo, hi = operating_range(p)
    # Flat comes last: Hypothesis leans toward the first choice.
    kinds = ["concave"] * (hi > 0.0) + ["convex"] * (lo < 0.0)
    kinds += ["tilted-planar"] * (lo < 0.0 < hi) + ["flat"] * (lo <= 0.0 <= hi)
    kind = draw(st.sampled_from(kinds))
    if kind == "flat":
        return Flat()
    if kind == "tilted-planar":
        tilt = attainable_tilt_range(p)[1]
        return TiltedPlanar(draw(st.floats(-1.0, 1.0)) * tilt, draw(st.floats(-1.0, 1.0)) * tilt)
    frac = draw(st.floats(0.05, 1.0))
    if kind == "concave":
        near = max(lo, 0.0)
        return Concave(forward_facet(p, near + frac * (hi - near)))
    near = min(hi, 0.0)
    return Convex(forward_facet(p, near + frac * (lo - near)))


@st.composite
def planned_primitives(draw) -> tuple[FingertipConfig, FingertipState]:
    """A random geometry and its plan of a random primitive it can reach.

    Concave and convex depths are a fraction of the facet angle at the
    end of the jam-free stroke, and tilts a fraction of the attainable
    tilt, of either sign.
    """
    cfg = draw(fingertip_configs())
    p = cfg.linkage
    kind = draw(st.sampled_from(("flat", "concave", "convex", "tilted-planar")))
    if kind == "flat":
        prim = Flat()
    elif kind == "tilted-planar":
        tilt = attainable_tilt_range(p)[1]
        prim = TiltedPlanar(draw(st.floats(-0.9, 0.9)) * tilt, draw(st.floats(-0.9, 0.9)) * tilt)
    else:
        lo, hi = operating_range(p)
        frac = draw(st.floats(0.05, 1.0))
        prim = (Concave(frac * forward_facet(p, hi)) if kind == "concave"
                else Convex(frac * forward_facet(p, lo)))
    return cfg, plan_primitive(cfg, prim)


# Fractions of an interval, ends included.
fractions = st.floats(0.0, 1.0)


@st.composite
def two_sided_contacts(draw) -> list[Contact]:
    """3-16 contacts, at least one on each side, as two fingertips grasping make them.

    Two sets in three are ``ring`` contacts on a circle of radius 3-60 mm
    about the origin, a left one within 1 rad of its leftmost point and a
    right one within 1 rad of its rightmost.  Each normal points at the
    centre, turned by one twist of 0.1-0.4 rad either way, the same for the
    whole set, give or take 0.05 rad: the torques mostly share a sign, so the
    set is seldom form closure, and friction above the twist often closes
    it through one left/right pair.  ``free`` contacts put points within
    30 mm of the origin and normals anywhere.
    """
    n = draw(st.integers(3, 16))
    sides = ["left", "right"] + draw(
        st.lists(st.sampled_from(("left", "right")), min_size=n - 2, max_size=n - 2))
    contacts = []
    if draw(st.sampled_from(("ring", "ring", "free"))) == "ring":
        r = draw(st.floats(3.0, 60.0))
        twist = draw(st.floats(0.1, 0.4)) * draw(st.sampled_from((-1.0, 1.0)))
        for i, side in enumerate(sides):
            a = (0.5 * math.pi + draw(st.floats(-1.0, 1.0))) * (1.0 if side == "right" else -1.0)
            turn = twist + draw(st.floats(-0.05, 0.05))
            x, y = r * math.sin(a), -r * math.cos(a)
            contacts.append(Contact((x, y), (-math.sin(a + turn), math.cos(a + turn)), side, i))
    else:
        coord = st.floats(-30.0, 30.0)
        for i, side in enumerate(sides):
            a = draw(st.floats(0.0, 2.0 * math.pi))
            contacts.append(Contact((draw(coord), draw(coord)), (math.cos(a), math.sin(a)), side, i))
    return contacts
