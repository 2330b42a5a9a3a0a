"""2D cross-section grasp analysis for a pair of opposing fingertips.

Scene frame: the left fingertip's ball joint sits at the origin with its
surface facing +x; the right fingertip is the mirror image at x = gap.
A fingertip profile given in its own frame (position along the plate,
outward height) is placed with :func:`scene_between`.

The model is rigid-body, first-order and quasi-static: contacts are
frictionless points or friction cones in the plane, closure is decided on
wrench rays, and the passive-centering claim is checked as a gravitational
support landscape of a circle over the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateContacts, InvalidParams, Penetration, Unsupported

# Boundary-touch tolerance for contact detection (mm).
CONTACT_TOL = 1e-7
# Overlap beyond this depth invalidates the quasi-static pose (mm).
PENETRATION_TOL = 1e-6
# Contacts closer than this are reported once (mm).
DEDUP_TOL = 1e-4
# Strict-interior margin for wrench-hull containment (normalized wrenches).
HULL_TOL = 1e-9
# Rounding slack when testing that no wrench ray lies beyond a triple's
# plane, and the smallest triple cross product that still spans a plane.
_PLANE_TOL = 1e-12
# Anti-parallelism tolerance for the pivot pinch line (rad).
PIVOT_ANGLE_TOL = 1e-3


@dataclass(frozen=True)
class Circle:
    """Circular object cross-section."""

    radius: float
    center: tuple[float, float]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidParams("circle radius must be positive and finite")
        if not all(math.isfinite(c) for c in self.center):
            raise InvalidParams("circle center must be finite")


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Convex polygon cross-section, vertices counter-clockwise.

    ``edges[j]`` runs from vertex j to vertex j + 1 and ``normals[j]`` is
    that edge's unit inward normal; they and the centroid are computed
    once, on construction, and are read-only.
    """

    vertices: np.ndarray
    edges: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)
    centroid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise InvalidParams("polygon needs at least 3 points of shape (n, 2)")
        if not np.all(np.isfinite(verts)):
            raise InvalidParams("polygon vertices must be finite")
        edges = np.roll(verts, -1, axis=0) - verts
        turn = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * turn[:, 1] - edges[:, 1] * turn[:, 0]
        if np.any(cross <= 0):
            raise InvalidParams("polygon must be strictly convex and counter-clockwise")
        normals = np.column_stack([-edges[:, 1], edges[:, 0]])  # CCW: left-hand normal points inward
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        object.__setattr__(self, "vertices", verts)
        # Contacts share rows of ``normals``; read-only arrays keep that safe.
        for name, value in (("edges", edges), ("normals", normals), ("centroid", verts.mean(axis=0))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


ObjectXSection = Union[Circle, ConvexPolygon]


@dataclass(frozen=True, eq=False)
class Contact:
    """One object-profile touch point.

    ``normal`` is the unit direction a compressive contact force pushes
    the object (from the profile into the object); ``side``/``segment``
    name the touching profile feature.
    """

    point: np.ndarray
    normal: np.ndarray
    side: str
    segment: int


@dataclass(frozen=True, eq=False)
class GraspScene:
    """Two placed fingertip profiles, a gap, an object and friction."""

    left_profile: np.ndarray
    right_profile: np.ndarray
    gap: float
    obj: ObjectXSection
    mu: float

    def __post_init__(self) -> None:
        for name in ("left_profile", "right_profile"):
            poly = np.asarray(getattr(self, name), dtype=float)
            if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 2:
                raise InvalidParams(f"{name} must be a polyline of shape (n, 2)")
            if not np.all(np.isfinite(poly)):
                raise InvalidParams(f"{name} must be finite")
            if not _polyline_is_simple(poly):
                raise InvalidParams(f"{name} must not self-intersect")
            object.__setattr__(self, name, poly)
        if not (math.isfinite(self.gap) and self.gap > 0):
            raise InvalidParams("gap must be positive and finite")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise InvalidParams("friction coefficient must be non-negative")


class Closure(Enum):
    NONE = "none"
    FORCE_CLOSURE = "force_closure"
    FORM_CLOSURE = "form_closure"


def _polyline_is_simple(poly: np.ndarray) -> bool:
    """True when no two non-adjacent segments of the polyline intersect."""

    def orient(a, b, c) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    segs = [(poly[i], poly[i + 1]) for i in range(len(poly) - 1)]
    for i in range(len(segs)):
        for j in range(i + 2, len(segs)):
            (a, b), (c, d) = segs[i], segs[j]
            if (orient(a, b, c) * orient(a, b, d) < 0
                    and orient(c, d, a) * orient(c, d, b) < 0):
                return False
    return True


def place_left(profile_local: np.ndarray) -> np.ndarray:
    """Place a fingertip profile facing +x with its ball joint at origin."""
    p = np.asarray(profile_local, dtype=float)
    return np.column_stack([p[:, 1], p[:, 0]])


def place_right(profile_local: np.ndarray, gap: float) -> np.ndarray:
    """Place the mirrored fingertip facing -x with its ball joint at (gap, 0)."""
    p = np.asarray(profile_local, dtype=float)
    return np.column_stack([gap - p[:, 1], p[:, 0]])


def scene_between(
    left_local: np.ndarray,
    right_local: np.ndarray,
    gap: float,
    obj: ObjectXSection,
    mu: float,
) -> GraspScene:
    """Build a scene from two profiles given in their own fingertip frames."""
    return GraspScene(
        left_profile=place_left(left_local),
        right_profile=place_right(right_local, gap),
        gap=gap,
        obj=obj,
        mu=mu,
    )


def _closest_on_segments(points: np.ndarray, starts: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest point on every segment to every point, and its distance.

    Segment i runs from ``starts[i]`` to ``starts[i] + dirs[i]``.  Returns
    the closest points, shape (segments, points, 2), and the distances,
    shape (segments, points).  A zero-length segment is its start point.
    """
    rel = points - starts[:, None]
    along = rel[..., 0] * dirs[:, None, 0] + rel[..., 1] * dirs[:, None, 1]
    dd = np.einsum("ij,ij->i", dirs, dirs)[:, None]
    t = np.divide(along, dd, out=np.zeros_like(along), where=dd != 0.0)
    t.clip(0.0, 1.0, out=t)
    q = starts[:, None] + t[..., None] * dirs[:, None]
    gap = points - q
    return q, np.hypot(gap[..., 0], gap[..., 1])


def _circle_contacts(starts: np.ndarray, dirs: np.ndarray, labels: list[tuple[str, int]],
                     circle: Circle) -> list[Contact]:
    center = np.asarray(circle.center, dtype=float)
    q, dist = _closest_on_segments(center[None], starts, dirs)
    q, dist = q[:, 0], dist[:, 0]
    over = np.flatnonzero(dist < circle.radius - PENETRATION_TOL)
    if len(over):
        g = over[0]
        raise Penetration(
            f"circle overlaps the {labels[g][0]} profile by {circle.radius - dist[g]:.3g} mm",
            witness=(float(q[g, 0]), float(q[g, 1])),
        )
    touch = np.flatnonzero((np.abs(dist - circle.radius) <= CONTACT_TOL) & (dist > 0))
    return [Contact(point=q[g], normal=(center - q[g]) / dist[g], side=labels[g][0], segment=labels[g][1])
            for g in touch]


def _polygon_contacts(starts: np.ndarray, dirs: np.ndarray, ends: np.ndarray,
                      labels: list[tuple[str, int]], poly: ConvexPolygon) -> list[Contact]:
    verts, normals = poly.vertices, poly.normals
    # Along segment i the inward distance to edge line j is c + t*s, t in
    # [0, 1]; the segment's depth is the maximum of their lower envelope.
    rel = starts[:, None] - verts
    c = rel[..., 0] * normals[:, 0] + rel[..., 1] * normals[:, 1]
    s = dirs @ normals.T
    cp, sp = c.T[:, :, None], s.T[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # [p, i, q]: the t at which edge lines p and q cross along segment i.
        cross = (c - cp) / (sp - s)
    # The lower envelope of the rising lines (s > 0) falls below a falling
    # line q at q's last crossing with one of them.  The envelope of all
    # lines peaks at the earliest such point over the falling lines, or at
    # t = 0 (1) when no line rises (falls); flat lines only cap the peak.
    drop = np.where(sp > 0, cross, -np.inf).max(axis=0)
    t = np.where(s < 0, drop, np.inf).min(axis=1).clip(0.0, 1.0)
    depth = np.min(c + t[:, None] * s, axis=1)
    over = np.flatnonzero(depth > PENETRATION_TOL)
    if len(over):
        g = over[0]
        witness = starts[g] + t[g] * dirs[g]
        raise Penetration(
            f"polygon overlaps the {labels[g][0]} profile by {depth[g]:.3g} mm",
            witness=(float(witness[0]), float(witness[1])),
        )
    seg_len = np.hypot(dirs[:, 0], dirs[:, 1])
    live = seg_len > 0.0
    # Object vertex resting on a profile segment.
    q, dist = _closest_on_segments(verts, starts, dirs)
    on_segment = (dist <= CONTACT_TOL) & live[:, None]
    # Profile corner (segment start, then end) resting on an object edge:
    # the first edge it touches.  A corner more than CONTACT_TOL inside the
    # polygon is at least that far from every edge, so it never counts.
    corners = np.stack([starts, ends], axis=1)
    _, edge_dist = _closest_on_segments(corners.reshape(-1, 2), verts, poly.edges)
    on_edge = (edge_dist <= CONTACT_TOL).T.reshape(len(starts), 2, -1)
    edge = on_edge.argmax(axis=2)
    at_corner = on_edge.any(axis=2) & live[:, None]
    out = []
    for g in np.flatnonzero(on_segment.any(axis=1) | at_corner.any(axis=1)):
        side, i = labels[g]
        for j in np.flatnonzero(on_segment[g]):
            n = np.array([-dirs[g, 1], dirs[g, 0]]) / seg_len[g]
            if float(n @ (poly.centroid - q[g, j])) < 0:
                n = -n
            out.append(Contact(point=q[g, j], normal=n, side=side, segment=i))
        for end in np.flatnonzero(at_corner[g]):
            out.append(Contact(point=corners[g, end], normal=normals[edge[g, end]],
                               side=side, segment=i))
    return out


def find_contacts(scene: GraspScene) -> list[Contact]:
    """All points where the object touches a profile, deduplicated.

    Raises Penetration when the object overlaps a profile by more than
    PENETRATION_TOL (the pose is not quasi-statically valid); the first
    offending segment, left profile before right, is reported.
    """
    profiles = (("left", scene.left_profile), ("right", scene.right_profile))
    # Both profiles' segments in scan order, with (side, index) labels.
    starts = np.concatenate([p[:-1] for _, p in profiles])
    ends = np.concatenate([p[1:] for _, p in profiles])
    labels = [(side, i) for side, p in profiles for i in range(len(p) - 1)]
    if isinstance(scene.obj, Circle):
        raw = _circle_contacts(starts, ends - starts, labels, scene.obj)
    else:
        raw = _polygon_contacts(starts, ends - starts, ends, labels, scene.obj)
    kept: list[Contact] = []
    for c in raw:
        if all(float(np.hypot(*(c.point - k.point))) > DEDUP_TOL for k in kept):
            kept.append(c)
    kept.sort(key=lambda c: (c.side, c.segment, float(c.point[0]), float(c.point[1])))
    return kept


def cradle_height(
    profiles: Union[np.ndarray, Sequence[Sequence[float]], Sequence[np.ndarray]],
    circle_radius: float,
    u: float,
) -> float:
    """Resting height of a circle dropped onto support profiles at offset u.

    ``profiles`` is one profile, as an (n, 2) array or a sequence of
    (x, y) points such as ``FingertipState.profile_x_points``, or a
    sequence of profiles.  The profiles are treated as rigid supports in
    a y-up frame (a fingertip cross-section from ``surface_profile`` is
    already in that frame); gravity acts along -y and the circle's center
    is held at x = u.  The returned value is the support function of the
    polyline(s): the lowest non-penetrating center height.  h(u) sampled
    over u is the potential landscape whose curvature decides passive
    centering.

    Raises Unsupported when nothing under x = u can carry the circle.
    """
    if not (math.isfinite(circle_radius) and circle_radius > 0):
        raise InvalidParams("circle_radius must be positive and finite")
    if not math.isfinite(u):
        raise InvalidParams("u must be finite")
    if isinstance(profiles, np.ndarray):
        profile_list = [profiles]
    elif len(profiles) > 0 and np.ndim(profiles[0]) == 1:  # one profile, as its points
        profile_list = [np.asarray(profiles, dtype=float)]
    else:
        profile_list = [np.asarray(p, dtype=float) for p in profiles]
    best = -math.inf
    for profile in profile_list:
        for a, b in zip(profile[:-1], profile[1:]):
            seg = b - a
            seg_len = float(np.hypot(*seg))
            if seg_len > 0.0:
                n = np.array([-seg[1], seg[0]]) / seg_len
                if n[1] < 0:
                    n = -n
                if n[1] > 1e-12:
                    # Tangency on the segment interior, touching from above.
                    x_t = u - circle_radius * n[0]
                    if seg[0] != 0.0:
                        t = (x_t - a[0]) / seg[0]
                        if 0.0 <= t <= 1.0:
                            y_t = a[1] + t * seg[1]
                            best = max(best, y_t + circle_radius * n[1])
            for p in (a, b):
                dx = u - p[0]
                if abs(dx) <= circle_radius:
                    best = max(best, p[1] + math.sqrt(circle_radius**2 - dx * dx))
    if best == -math.inf:
        raise Unsupported(f"circle of radius {circle_radius} falls through at u={u}")
    return best


def _wrench_rays(points: np.ndarray, normals: np.ndarray, mu: float) -> np.ndarray:
    """Unit wrench rays (fx, fy, tau/rho) of the contact set, one row each.

    mu = 0 gives one normal ray per contact; mu > 0 gives the two friction
    cone edges.  Torque is taken about the mean contact point and scaled by
    the contact spread so all three wrench components are commensurate.
    """
    r = points - points.mean(axis=0)
    rho = max(1.0, float(np.max(np.hypot(r[:, 0], r[:, 1]))))
    if mu > 0.0:
        tangent = normals[:, ::-1] * (-mu, mu)  # mu * (-n_y, n_x)
        forces = np.stack([normals + tangent, normals - tangent], axis=1).reshape(-1, 2)
        r = np.repeat(r, 2, axis=0)
    else:
        forces = normals
    w = np.empty((len(forces), 3))
    w[:, :2] = forces
    w[:, 2] = (r[:, 0] * forces[:, 1] - r[:, 1] * forces[:, 0]) / rho
    w /= np.sqrt(np.einsum("ij,ij->i", w, w))[:, None]
    return w


@lru_cache(maxsize=64)
def _triples(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (i, j, k) over every ray triple i < j < k of m rays."""
    idx = np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)
    idx.flags.writeable = False
    return idx[:, 0], idx[:, 1], idx[:, 2]


def _hull_margin(rays: np.ndarray) -> float:
    """Smallest offset of the origin inside the supporting planes of conv(rays).

    A plane through three rays is supporting when no ray lies strictly
    beyond it; these are exactly the facet planes of the hull.  The value
    is positive only when the origin is strictly inside a full-dimensional
    hull, and is then the Ferrari-Canny epsilon of the ray set.  A plane
    holding every ray is supporting on both sides, so a flat ray set gives
    at most 0; -inf means no three rays span a plane.
    """
    i, j, k = _triples(len(rays))
    # Triples run along the columns: a, u, v and the plane normals n are 3 x T.
    a = rays.T[:, i]
    u = rays.T[:, j] - a
    v = rays.T[:, k] - a
    n = u[[1, 2, 0]] * v[[2, 0, 1]] - u[[2, 0, 1]] * v[[1, 2, 0]]
    norm = np.sqrt(np.einsum("it,it->t", n, n))
    d = np.einsum("it,it->t", n, a)
    beyond = rays @ n - d
    spans = norm > _PLANE_TOL
    slack = _PLANE_TOL * norm
    offset = d / np.maximum(norm, _PLANE_TOL)
    offsets = np.concatenate([
        offset[spans & (beyond.max(axis=0) <= slack)],
        -offset[spans & (beyond.min(axis=0) >= -slack)],
    ])
    return float(offsets.min()) if len(offsets) else -math.inf


def _origin_strictly_inside(rays: np.ndarray) -> bool:
    """True when the origin lies strictly inside conv(rays) in 3D.

    Equivalent to the rays positively spanning the whole wrench space.
    Degenerate ray sets (hull not full-dimensional) count as not closed.
    """
    return _hull_margin(rays) >= HULL_TOL


def closure_classify(contacts: Sequence[Contact], mu: float) -> Closure:
    """Grade of grasp closure achieved by a contact set.

    FORM_CLOSURE: the frictionless normal wrenches alone positively span
    the planar wrench space (origin strictly inside their convex hull).
    FORCE_CLOSURE: the friction-cone edge wrenches do.  Form closure is
    the stronger verdict and implies force closure for any mu >= 0;
    boundary cases are graded conservatively as not closed.
    """
    if len(contacts) == 0:
        raise InvalidParams("closure classification needs at least one contact")
    if not (math.isfinite(mu) and mu >= 0.0):
        raise InvalidParams("friction coefficient must be non-negative")
    pts = np.array([c.point for c in contacts])
    spread = np.max(np.hypot(*(pts - pts[0]).T)) if len(pts) > 1 else 0.0
    if len(contacts) > 1 and spread <= DEDUP_TOL:
        raise DegenerateContacts("all contacts coincide; wrench basis is degenerate")
    normals = np.array([c.normal for c in contacts], dtype=float)
    # Fewer than four wrench rays never span the 3-D wrench space.
    if len(contacts) >= 4 and _origin_strictly_inside(_wrench_rays(pts, normals, 0.0)):
        return Closure.FORM_CLOSURE
    if mu > 0.0 and len(contacts) >= 2 and _origin_strictly_inside(_wrench_rays(pts, normals, mu)):
        return Closure.FORCE_CLOSURE
    return Closure.NONE


def pivot_feasible(contacts: Sequence[Contact]) -> bool:
    """True when the contact set is a pure pinch line.

    Requires exactly one contact per side with anti-parallel normals whose
    common line joins the two contact points; the grasped object is then
    free to rotate about that line in the first-order model.
    """
    left = [c for c in contacts if c.side == "left"]
    right = [c for c in contacts if c.side == "right"]
    if len(left) != 1 or len(right) != 1:
        return False
    nl, nr = left[0].normal, right[0].normal
    if _angle_between(nl, -nr) > PIVOT_ANGLE_TOL:
        return False
    dp = right[0].point - left[0].point
    span = float(np.hypot(*dp))
    if span < 1e-9:
        return True
    return _angle_between(dp / span, nl) <= PIVOT_ANGLE_TOL


def _angle_between(u: np.ndarray, v: np.ndarray) -> float:
    cross = abs(u[0] * v[1] - u[1] * v[0])
    dot = float(u @ v)
    return math.atan2(cross, dot)
