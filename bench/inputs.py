"""Seeded input generators for the in-process workloads.

Everything random is drawn here from one ``numpy.random.Generator`` built
from ``--seed``; the workloads only replay what this module produced.
Validity screens and contact placements are restated here from the
geometry, not taken from the library, so the library only ever receives
inputs that were built independently of the code paths it is judged on.

Two pools are built:

* ``design_pool`` - random valid slider-crank geometries, each with the
  fractions that place its FK samples, IK targets (one of them outside
  the attainable facet range), planar tilts and primitive depths;
* ``grasp_pool`` - two-finger scenes: about 70% circles (flat pinch,
  concave seat, convex pinch) and 30% convex polygons of 4, 8 or 32
  vertices, with random size and friction, and a few percent placed to
  overlap a profile so that ``find_contacts`` must raise ``Penetration``.

A run draws operations from a pool with a seeded index stream, so inputs
repeat; the share is reported with the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import morphtip as mt

DESIGN_POOL = 400
GRASP_POOL = 400
INDEX_STREAM = 1 << 16

FK_SAMPLES = 64
IK_TARGETS = 8
PLANAR_TILTS = 8
# Share of scenes that are circles; the rest are polygons.
CIRCLE_SHARE = 0.7
# Share of scenes pushed into overlap with both profiles.
PENETRATION_SHARE = 0.04
# Horizontal overlap of a planned penetration (mm); the depth the library
# measures along the contact normal stays above 1e-3 mm for these profiles.
OVERLAP_MM = (0.01, 0.2)
POLY_SIDES = (4, 8, 32)


# ---------------------------------------------------------------------------
# design-sweep


@dataclass(frozen=True, eq=False)
class DesignInput:
    """One geometry and the fractions that place every query on it."""

    cfg: mt.FingertipConfig
    fk_fracs: tuple[float, ...]  # 64 fractions of the operating range
    ik_fracs: tuple[float, ...]  # 8 fractions of the attainable facet range
    unreachable_at: int  # index into ik_fracs whose target lies outside
    tilt_fracs: tuple[float, ...]  # 8 fractions of the attainable tilt range
    concave_frac: float  # of the highest attainable facet angle
    convex_frac: float  # of the lowest attainable facet angle
    planar_fracs: tuple[float, float]  # tilt_x, tilt_y of TiltedPlanar


def _jam_free_range(l_oc, l_ab, alpha0, oa_x, theta_min, theta_max):
    """Servo interval where the crank tip stays outward of the hinge."""
    s0 = (l_oc - oa_x) / l_ab
    edge = math.asin(min(1.0, s0)) if s0 > 0.0 else 0.0
    return max(theta_min, alpha0 - math.pi + edge), min(theta_max, alpha0 - edge)


def _design_geometry(rng: np.random.Generator) -> mt.FingertipConfig:
    while True:
        l_oc = rng.uniform(10.0, 20.0)
        l_ab = rng.uniform(14.0, 26.0)
        alpha0 = math.radians(rng.uniform(18.0, 50.0))
        oa_x = rng.uniform(4.0, 16.0)
        theta_min = -math.radians(rng.uniform(20.0, 45.0))
        theta_max = math.radians(rng.uniform(20.0, 45.0))
        if oa_x + l_ab * math.sin(alpha0) - l_oc < 1.0:
            continue
        lo, hi = _jam_free_range(l_oc, l_ab, alpha0, oa_x, theta_min, theta_max)
        if hi - lo < math.radians(20.0) or hi < math.radians(3.0):
            continue
        params = mt.LinkageParams(l_oc=l_oc, l_ab=l_ab, alpha0=alpha0, oa_x=oa_x,
                                  theta_min=theta_min, theta_max=theta_max)
        return mt.FingertipConfig(
            linkage=params,
            facet_len=rng.uniform(12.0, 25.0),
            spring_k=rng.uniform(5.0, 20.0),
            step_deg=rng.uniform(2.0, 5.0),
        )


def design_pool(rng: np.random.Generator, size: int = DESIGN_POOL) -> list[DesignInput]:
    pool = []
    for _ in range(size):
        cfg = _design_geometry(rng)
        pool.append(DesignInput(
            cfg=cfg,
            fk_fracs=tuple(rng.uniform(0.001, 0.999, FK_SAMPLES).tolist()),
            ik_fracs=tuple(rng.uniform(0.02, 0.98, IK_TARGETS).tolist()),
            unreachable_at=int(rng.integers(IK_TARGETS)),
            tilt_fracs=tuple(rng.uniform(-0.95, 0.95, PLANAR_TILTS).tolist()),
            concave_frac=float(rng.uniform(0.1, 0.9)),
            convex_frac=float(rng.uniform(0.1, 0.9)),
            planar_fracs=(float(rng.uniform(-0.9, 0.9)), float(rng.uniform(-0.9, 0.9))),
        ))
    return pool


def unreachable_target(a_lo: float, a_hi: float, frac: float) -> float:
    """A facet angle outside [a_lo, a_hi], on the side ``frac`` selects.

    Above the range when frac >= 0.5 and the range leaves room below 80
    degrees, else below it; the distance grows with frac from 0.02 rad.
    """
    delta = 0.02 + 0.3 * abs(frac - 0.5)
    if frac >= 0.5 and a_hi + delta < math.radians(80.0):
        return a_hi + delta
    return a_lo - delta


# ---------------------------------------------------------------------------
# grasp-batch


@dataclass(frozen=True, eq=False)
class GraspInput:
    """One scene plus what the generator knows about it."""

    kind: str  # circle-flat | circle-concave | circle-convex | poly4 | poly8 | poly32
    scene: mt.GraspScene
    left_local: np.ndarray  # left profile in its own fingertip frame
    penetrating: bool
    # Resting heights of the circle over left_local at u = 0, +0.1, -0.1,
    # from the generator's own sweep (None for polygons).
    cradle_expected: tuple[float, float, float] | None


def _profile(cfg: mt.FingertipConfig, prim) -> np.ndarray:
    return mt.plan_primitive(cfg, prim).profile_x


def _touch_x_circle(profile: np.ndarray, r: float, cy: float) -> float:
    """Largest centre x at which a circle at height cy touches the profile.

    The circle comes from +x; candidates are tangency with a segment's
    interior (from its +x side) and contact with a segment endpoint.
    """
    best = -math.inf
    for a, b in zip(profile[:-1], profile[1:]):
        for p in (a, b):
            dy = p[1] - cy
            if abs(dy) <= r:
                best = max(best, p[0] + math.sqrt(r * r - dy * dy))
        d = b - a
        length = math.hypot(d[0], d[1])
        if length == 0.0:
            continue
        n = np.array([d[1], -d[0]]) / length
        if n[0] < 0:
            n = -n
        if n[0] <= 1e-12:
            continue
        cx = a[0] + (r - n[1] * (cy - a[1])) / n[0]
        foot = np.array([cx, cy]) - r * n
        t = float((foot - a) @ d) / (length * length)
        if 0.0 <= t <= 1.0:
            best = max(best, cx)
    return best


def _span_x(a: np.ndarray, b: np.ndarray, y: float) -> float | None:
    """x where segment ab crosses the horizontal line at y, if it does."""
    lo, hi = min(a[1], b[1]), max(a[1], b[1])
    if not lo <= y <= hi:
        return None
    if a[1] == b[1]:
        return max(a[0], b[0])
    t = (y - a[1]) / (b[1] - a[1])
    return a[0] + t * (b[0] - a[0])


def _touch_x_polygon(profile: np.ndarray, verts: np.ndarray, cy: float) -> float:
    """Largest centre x at which a polygon (vertices about its centre) touches.

    The polygon comes from +x; a first contact is a polygon vertex on a
    profile segment or a profile vertex on a polygon edge.
    """
    best = -math.inf
    segs = list(zip(profile[:-1], profile[1:]))
    for v in verts:
        for a, b in segs:
            x = _span_x(a, b, cy + v[1])
            if x is not None:
                best = max(best, x - v[0])
    edges = list(zip(verts, np.roll(verts, -1, axis=0)))
    for p in profile:
        for v0, v1 in edges:
            # Leftmost crossing of the horizontal through p with this edge.
            lo, hi = min(v0[1], v1[1]), max(v0[1], v1[1])
            y = p[1] - cy
            if not lo <= y <= hi:
                continue
            if v0[1] == v1[1]:
                x = min(v0[0], v1[0])
            else:
                x = v0[0] + (y - v0[1]) / (v1[1] - v0[1]) * (v1[0] - v0[0])
            best = max(best, p[0] - x)
    return best


def _regular_polygon(n: int, radius: float, edge_facing: bool) -> np.ndarray:
    """CCW regular n-gon about the origin, mirror-symmetric about x = 0.

    ``edge_facing`` puts an edge normal to the x axis on each side;
    otherwise a vertex points along each of +x and -x.
    """
    start = math.pi / n if edge_facing else 0.0
    ang = start + 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def _mu(rng: np.random.Generator) -> float:
    # Low friction leaves some two-contact grasps on tilted facets open.
    return 0.0 if rng.random() < 0.5 else float(rng.uniform(0.02, 0.6))


def _polygon_tip(rng, cfg) -> np.ndarray:
    """Flat (40%) or concave 10-35 degrees (60%)."""
    if rng.random() < 0.4:
        return _profile(cfg, mt.Flat())
    return _profile(cfg, mt.Concave(math.radians(rng.uniform(10.0, 35.0))))


def _grasp_input(rng, cfg, kind, penetrating):
    mu = _mu(rng)
    if kind.startswith("circle"):
        if kind == "circle-flat":
            left = _profile(cfg, mt.Flat())
            r, cy = rng.uniform(5.0, 25.0), rng.uniform(-10.0, 10.0)
        elif kind == "circle-concave":
            phi = math.radians(rng.uniform(10.0, 30.0))
            left = _profile(cfg, mt.Concave(phi))
            r = cfg.linkage.l_oc / math.tan(phi / 2.0) * rng.uniform(1.01, 1.05)
            cy = 0.0
        else:
            left = _profile(cfg, mt.Convex(-math.radians(rng.uniform(15.0, 33.0))))
            r, cy = rng.uniform(4.0, 12.0), rng.uniform(-8.0, 8.0)
        right = left

        def touch(local, y):
            return _touch_x_circle(mt.place_left(local), r, y)

        cradle = tuple(touch(left, u) for u in (0.0, 0.1, -0.1))
    else:
        n = int(kind[4:])
        verts = _regular_polygon(n, rng.uniform(12.0, 35.0), bool(rng.random() < 0.5))
        # Half the polygons sit between two different tips, so that contact
        # normals differ in angle and friction decides closure.
        left = _polygon_tip(rng, cfg)
        right = left if rng.random() < 0.5 else _polygon_tip(rng, cfg)
        # Centred polygons rest on both facets of a concave tip (form closure
        # for a square); offset ones touch one feature per side.
        cy = 0.0 if rng.random() < 0.5 else rng.uniform(-5.0, 5.0)

        def touch(local, y):
            return _touch_x_polygon(mt.place_left(local), verts, y)

        cradle = None
    # The object is mirror-symmetric about its vertical axis, so its
    # distance to the right tip is the left-tip sweep of the right profile.
    cx, to_right = touch(left, cy), touch(right, cy)
    if penetrating:
        overlap = rng.uniform(*OVERLAP_MM)
        cx, to_right = cx - overlap, to_right - overlap
    if kind.startswith("circle"):
        obj = mt.Circle(r, (cx, cy))
    else:
        obj = mt.ConvexPolygon(verts + np.array([cx, cy]))
    scene = mt.scene_between(left, right, cx + to_right, obj, mu)
    return GraspInput(kind, scene, left, penetrating, cradle)


def grasp_pool(rng: np.random.Generator, size: int = GRASP_POOL) -> list[GraspInput]:
    cfg = mt.FingertipConfig()
    n_circle = round(size * CIRCLE_SHARE)
    kinds = (
        [("circle-flat", "circle-concave", "circle-convex")[i % 3] for i in range(n_circle)]
        + [f"poly{POLY_SIDES[i % 3]}" for i in range(size - n_circle)]
    )
    n_pen = max(1, round(size * PENETRATION_SHARE))
    pen = set(rng.choice(size, n_pen, replace=False).tolist())
    pool = [_grasp_input(rng, cfg, kind, i in pen) for i, kind in enumerate(kinds)]
    order = rng.permutation(size)
    return [pool[i] for i in order]


def index_stream(rng: np.random.Generator, pool_size: int) -> np.ndarray:
    """Which pool entry each operation uses; wraps around when exhausted.

    Back-to-back shuffles of the pool, so every input recurs equally often
    and a run's mix matches the pool's whatever the seed.
    """
    rounds = -(-INDEX_STREAM // pool_size)
    return np.concatenate([rng.permutation(pool_size) for _ in range(rounds)])
