"""2D cross-section grasp analysis for a pair of opposing fingertips.

Scene frame: the left fingertip's ball joint sits at the origin with its
surface facing +x; the right fingertip is the mirror image at x = gap.
A fingertip profile given in its own frame (position along the plate,
outward height) is placed with :func:`scene_between`.

The model is rigid-body, first-order and quasi-static: contacts are
frictionless points or friction cones in the plane, closure is decided on
wrench rays, and the passive-centering claim is checked as a gravitational
support landscape of a circle over the profile (:func:`cradle_height`),
whose curvature sign under a scene's circle is :func:`cradle_sign`.
Contacts, closure and pivot verdicts are computed on plain Python floats:
contacts in one scan over both profiles' segments, which skips every
segment and corner beyond a polygon's bounding circle, and closure with
one early-exit facet test on wrench rays built once per call, which a
frictional set skips when the same test, at a wider margin, passes on the
cone rays of one pair of contacts on opposite sides.  Neither shortcut
changes a result.

Inputs are read, derived and checked on construction: :class:`Circle`,
:class:`ConvexPolygon` and :class:`GraspScene` (whose profiles must not
touch themselves, a check made once per profile) refuse a bad one with
InvalidParams naming it, and :func:`find_contacts` scans what they store.
This module alone knows the scene frame: :func:`_place` puts a profile in
it, and :func:`cradle_sign` reads the left one back out.
Scenes and contacts hold Python floats, and compare and hash by them.
Their ndarray attributes (``Contact.point``/``normal``,
``GraspScene.left_profile``/``right_profile`` and
``ConvexPolygon.vertices``) and the arrays :func:`place_left` and
:func:`place_right` return are built on each request by ``errors._array``,
the one place numpy is imported; this module imports nothing else from
the package, so it loads neither the fingertip model nor the linkage.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, combinations

from .errors import (DegenerateContacts, InvalidParams, Penetration, Record, Unsupported,
                     _array, _array_of, check_number, positive)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

# A polyline or polygon as (x, y) points.
Points = tuple[tuple[float, float], ...]

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
# How far inside the hull of a contact pair's four cone rays the origin
# must lie for the pair to certify force closure (see closure_classify).
_PAIR_TOL = HULL_TOL + 4.0 * _PLANE_TOL
# A feature whose line lies farther than this from a point is not within
# CONTACT_TOL of it: the second CONTACT_TOL is slack for the rounding of the
# line distance, a few ulps of the coordinates, far below it up to 1e6 mm.
_NEAR = 2.0 * CONTACT_TOL
# Anti-parallelism tolerance for the pivot pinch line (rad).
PIVOT_ANGLE_TOL = 1e-3
# Offset (mm) of the two cradle samples either side of the profile center.
CRADLE_DELTA = 0.1


def _read_pair(pair) -> tuple[float, float]:
    """pair as two floats; TypeError or ValueError unless it is two numbers.

    Text is not a number here, though ``float`` would parse it; an
    integer too large for a float is OverflowError.  Two floats, what
    ``tolist()`` of a float array holds, are taken as they are.
    """
    x, y = pair
    if type(x) is not float or type(y) is not float:
        text = (str, bytes, bytearray)
        if isinstance(pair, text) or isinstance(x, text) or isinstance(y, text):
            raise TypeError("text is not a pair of numbers")
        x, y = float(x), float(y)
    return x, y


def _finite_pair(pair, name: str) -> tuple[float, float]:
    """pair as two finite floats, read by :func:`_read_pair`; else InvalidParams naming it.

    [1.0], "12" and [[1.0], [2.0]] are not pairs of numbers; an integer
    too large for a float (OverflowError) is not finite.
    """
    try:
        x, y = _read_pair(pair)
    except (TypeError, ValueError, OverflowError) as exc:
        must = "be finite" if isinstance(exc, OverflowError) else "be a pair of numbers (x, y)"
        raise InvalidParams(f"{name} must {must}", field=name) from None
    check_number(name, x)
    check_number(name, y)
    return x, y


def _non_negative(value: float) -> bool:
    return value >= 0


def _radius(value: float) -> bool:
    """A positive value whose square is finite, a radius :func:`cradle_height` can take."""
    return value > 0 and math.isfinite(value * value)


def _read_points(points, name: str, least: int) -> Points:
    """points as at least ``least`` finite (x, y) pairs of floats.

    ``points`` is any (n, 2) array-like of numbers, an ndarray read
    through its ``tolist()``; anything else, ragged, text or not numbers
    included, is InvalidParams naming it.  This is the one reader of every
    profile and polygon.
    """
    if hasattr(points, "tolist"):  # an ndarray, as nested lists of Python numbers
        points = points.tolist()
    try:
        pairs = tuple(map(_read_pair, points))
    except OverflowError:  # an integer too large for a float
        raise InvalidParams(f"{name} must be finite", field=name) from None
    except (TypeError, ValueError):  # ragged, text or not numbers
        pairs = ()
    if len(pairs) < least:
        raise InvalidParams(f"{name} must have at least {least} points of shape (n, 2)", field=name)
    if not all(map(math.isfinite, chain.from_iterable(pairs))):
        raise InvalidParams(f"{name} must be finite", field=name)
    return pairs


class Circle(Record):
    """Circular object cross-section.

    The radius's square must be finite, as :func:`cradle_height` takes it.
    ``center`` is read as one finite (x, y) pair and stored as two floats.
    """

    _fields = ("radius", "center")

    def __init__(self, radius: float, center: tuple[float, float]) -> None:
        check_number("radius", radius, "be positive and its square finite", _radius)
        vars(self).update(radius=radius, center=_finite_pair(center, "center"))


class ConvexPolygon(Record):
    """Convex polygon cross-section, vertices counter-clockwise.

    ``vertices`` is read as at least three finite (x, y) points, stored
    as floats in ``vertex_points``.  ``features[j]`` is
    ``(vx, vy, ex, ey, nx, ny)``: vertex j, the edge from it to vertex
    j + 1 and that edge's unit inward normal.  They, the ``(x, y)``
    centroid and ``reach``, the largest distance of a vertex from the
    centroid, are derived once, on construction, as the Python floats
    :func:`find_contacts` scans; a polygon so large that an edge's cross
    product or squared length overflows is refused.  The
    ``vertices`` attribute is the points as an (n, 2) ndarray, built anew
    on every access.
    """

    _fields = ("vertex_points",)
    vertices = _array_of("vertex_points")

    def __init__(self, vertices) -> None:
        verts = _read_points(vertices, "vertices", 3)
        edges = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])]
        features = []
        for (vx, vy), (ex, ey), (tx, ty) in zip(verts, edges, edges[1:] + edges[:1]):
            cross, square = ex * ty - ey * tx, ex * ex + ey * ey
            if not (math.isfinite(cross) and math.isfinite(square)):
                raise InvalidParams("vertices must keep each edge's cross product and squared "
                                    "length finite", field="vertices")
            # An edge whose squared length underflows to 0 has no direction either.
            if cross <= 0.0 or square == 0.0:
                raise InvalidParams("vertices must be a strictly convex polygon in "
                                    "counter-clockwise order", field="vertices")
            norm = math.sqrt(square)  # CCW: the left-hand normal points inward
            features.append((vx, vy, ex, ey, -ey / norm, ex / norm))
        # Summed vertex by vertex, from the first, as numpy's mean over rows does.
        sx, sy = verts[0]
        for vx, vy in verts[1:]:
            sx, sy = sx + vx, sy + vy
        gx, gy = sx / len(verts), sy / len(verts)
        vars(self).update(vertex_points=verts, features=tuple(features), centroid=(gx, gy),
                          reach=max(abs(complex(vx - gx, vy - gy)) for vx, vy in verts))


ObjectXSection = Circle | ConvexPolygon


class Contact(Record):
    """One object-profile touch point.

    ``normal`` is the unit direction a compressive contact force pushes
    the object (from the profile into the object); ``side``/``segment``
    name the touching profile feature.  ``point`` and ``normal`` are read
    as (x, y) pairs and stored as floats in ``point_xy``/``normal_xy``;
    the ``point`` and ``normal`` attributes are ndarrays built from them
    on every access.  ``side`` must be "left" or "right" and ``segment`` a
    non-negative int, not a bool; each is checked after the pairs, and a
    refusal is InvalidParams naming it.
    """

    _fields = ("point_xy", "normal_xy", "side", "segment")
    point = _array_of("point_xy")
    normal = _array_of("normal_xy")

    def __init__(self, point, normal, side: str, segment: int) -> None:
        point_xy, normal_xy = _finite_pair(point, "point"), _finite_pair(normal, "normal")
        if not (isinstance(side, str) and side in ("left", "right")):
            raise InvalidParams(f"side must be 'left' or 'right', got {side!r}", field="side")
        if isinstance(segment, bool) or not isinstance(segment, int) or segment < 0:
            raise InvalidParams(f"segment must be a non-negative int, got {segment!r}",
                                field="segment")
        vars(self).update(point_xy=point_xy, normal_xy=normal_xy, side=side, segment=segment)

    @classmethod
    def _of(cls, px: float, py: float, nx: float, ny: float, side: str, segment: int) -> Contact:
        """The contact :func:`find_contacts` derived, its floats stored as they are.

        They need no reading: a touch point lies within CONTACT_TOL of a
        finite object, and a normal is a finite segment's or edge's unit
        normal, or the unit vector to a circle's center from a point at
        its radius.
        """
        contact = object.__new__(cls)
        vars(contact).update(point_xy=(px, py), normal_xy=(nx, ny), side=side, segment=segment)
        return contact


class GraspScene(Record):
    """Two placed fingertip profiles, a gap, an object and friction.

    Each profile is read as at least two finite (x, y) points, stored as
    floats in ``left_points``/``right_points`` and checked, once, not to
    touch itself; a segment of zero length counts as touching itself, and
    one whose squared length overflows, which no closest-point test can
    measure, is refused too.  ``obj`` must be a :class:`Circle` or a
    :class:`ConvexPolygon`, checked last, else InvalidParams names it.
    The ``left_profile`` and ``right_profile`` attributes are the points
    as (n, 2) ndarrays, built anew on every access.
    """

    _fields = ("left_points", "right_points", "gap", "obj", "mu")
    left_profile = _array_of("left_points")
    right_profile = _array_of("right_points")

    def __init__(self, left_profile, right_profile, gap: float, obj: ObjectXSection,
                 mu: float) -> None:
        placed = []
        for name, profile in (("left_profile", left_profile), ("right_profile", right_profile)):
            points = _read_points(profile, name, 2)
            if any(math.isinf((bx - ax) * (bx - ax) + (by - ay) * (by - ay))
                   for (ax, ay), (bx, by) in zip(points, points[1:])):
                raise InvalidParams(f"{name} must keep each segment's squared length finite",
                                    field=name)
            if not _polyline_is_simple(points):
                raise InvalidParams(f"{name} must not self-intersect", field=name)
            placed.append(points)
        check_number("gap", gap, "be positive and finite", positive)
        check_number("mu", mu, "be non-negative and finite", _non_negative)
        if not isinstance(obj, (Circle, ConvexPolygon)):
            raise InvalidParams(f"obj must be a Circle or a ConvexPolygon, got {obj!r}",
                                field="obj")
        vars(self).update(left_points=placed[0], right_points=placed[1], gap=gap, obj=obj, mu=mu)


class Closure(Enum):
    NONE = "none"
    FORCE_CLOSURE = "force_closure"
    FORM_CLOSURE = "form_closure"


def _polyline_is_simple(points: Sequence[Sequence[float]]) -> bool:
    """True when the polyline through ``points`` does not touch itself.

    Segments that are not neighbours share no point, and neighbours share
    only their joint: a segment that turns straight back along the one
    before it overlaps that one.  A segment whose squared length is 0 (a
    repeated point, or two points so close that the square underflows)
    has no direction and is refused too.  Two segments whose bounding
    boxes are apart share no point, so they skip the orientation tests.
    """

    def orient(a, b, c) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on(a, b, c) -> bool:  # c, on the line through a and b, lies on segment ab
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    for a, b, c in zip(points, points[1:], points[2:]):
        back = (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1]) < 0
        if back and orient(a, b, c) == 0:  # bc turns straight back along ab
            return False
    segs = list(zip(points[:-1], points[1:]))
    boxes = [(min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])) for a, b in segs]
    for i, ((a, b), (x0, x1, y0, y1)) in enumerate(zip(segs, boxes)):
        if (b[0] - a[0]) * (b[0] - a[0]) + (b[1] - a[1]) * (b[1] - a[1]) == 0.0:
            return False
        for (c, d), (u0, u1, v0, v1) in zip(segs[i + 2:], boxes[i + 2:]):
            if u0 > x1 or u1 < x0 or v0 > y1 or v1 < y0:
                continue
            ends = ((a, b, c), (a, b, d), (c, d, a), (c, d, b))
            o = [orient(*e) for e in ends]
            if (o[0] * o[1] < 0 and o[2] * o[3] < 0) or any(
                    turn == 0 and on(*e) for turn, e in zip(o, ends)):
                return False
    return True


def _place(profile_local, name: str, *gap: float) -> Points:
    """The profile ``name``, read as :class:`GraspScene` reads one, placed in the scene.

    Without ``gap`` it faces +x with its ball joint at the origin; with
    it, it is mirrored about x = gap/2, to face -x with its ball joint at
    (gap, 0).  A given gap, None included, is checked once the profile is
    read and before any subtraction: one that is no finite number, or
    that puts a point out of float range (float subtraction overflows to
    inf), is InvalidParams naming it.
    """
    placed = tuple((y, x) for x, y in _read_points(profile_local, name, 2))
    if gap:  # the one gap given, which may be None
        check_number("gap", gap[0], "keep the mirrored profile's points finite")
        placed = tuple((gap[0] - x, y) for x, y in placed)
        if not all(math.isfinite(x) for x, _ in placed):
            raise InvalidParams("gap must keep the mirrored profile's points finite", field="gap")
    return placed


def place_left(profile_local: np.ndarray) -> np.ndarray:
    """Place a fingertip profile facing +x with its ball joint at origin.

    ``profile_local`` is read as :class:`GraspScene` reads a profile.
    """
    return _array(_place(profile_local, "profile_local"))


def place_right(profile_local: np.ndarray, gap: float) -> np.ndarray:
    """Place the mirrored fingertip facing -x with its ball joint at (gap, 0).

    ``profile_local`` is read as :class:`GraspScene` reads a profile; a
    gap that puts a placed point out of float range is InvalidParams.
    """
    return _array(_place(profile_local, "profile_local", gap))


def scene_between(
    left_local: np.ndarray,
    right_local: np.ndarray,
    gap: float,
    obj: ObjectXSection,
    mu: float,
) -> GraspScene:
    """Build a scene from two profiles given in their own fingertip frames.

    Each local profile is read once, as :func:`place_left` and
    :func:`place_right` read theirs, and an error names it.
    """
    return GraspScene(
        left_profile=_place(left_local, "left_local"),
        right_profile=_place(right_local, "right_local", gap),
        gap=gap,
        obj=obj,
        mu=mu,
    )


def _closest(px: float, py: float, ax: float, ay: float, dx: float,
             dy: float) -> tuple[float, float, float]:
    """Closest point to (px, py) on the segment from (ax, ay) along (dx, dy).

    Returns the point and its distance (Ericson, *Real-Time Collision
    Detection*, 2005, 5.1.2).  ``dx*dx + dy*dy`` is never 0: a profile
    segment or polygon edge of squared length 0 is refused when its
    :class:`GraspScene` or :class:`ConvexPolygon` is built.
    """
    dd = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / dd
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    qx, qy = ax + t * dx, ay + t * dy
    # abs() of a complex is the C library's hypot, as in fingertip._profile.
    return qx, qy, abs(complex(px - qx, py - qy))


def _polygon_depth(ax: float, ay: float, dx: float, dy: float,
                   features: tuple) -> tuple[float, float] | None:
    """Where along a segment it lies deepest inside a convex polygon, and how deep.

    ``features`` are the polygon's, as :class:`ConvexPolygon` holds them.
    Returns (t, depth) for the point (ax + t*dx, ay + t*dy).  Along the
    segment the inward distance to edge line j is c + t*s, t in [0, 1];
    the depth is the peak of their lower envelope.  A Cyrus-Beck clip
    (1978) against the polygon shrunk by PENETRATION_TOL/2 first answers
    None for a segment that cannot reach PENETRATION_TOL.
    """
    lo, hi, lines = 0.0, 1.0, []
    for vx, vy, _, _, nx, ny in features:
        c = (ax - vx) * nx + (ay - vy) * ny
        s = dx * nx + dy * ny
        inner = c - 0.5 * PENETRATION_TOL
        if s > 0.0:
            lo = max(lo, -inner / s)
        elif s < 0.0:
            hi = min(hi, -inner / s)
        elif inner < 0.0:
            return None
        if lo > hi:
            return None
        lines.append((c, s))
    rising = [(c, s) for c, s in lines if s > 0.0]
    # The lower envelope of the rising lines falls below a falling line q
    # at q's last crossing with one of them.  The envelope of all lines
    # peaks at the earliest such point over the falling lines, or at t = 0
    # (1) when no line rises (falls); flat lines only cap the peak.
    t = math.inf
    for cq, sq in lines:
        if sq < 0.0:
            t = min(t, max(((cq - cp) / (sp - sq) for cp, sp in rising), default=-math.inf))
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return t, min(c + t * s for c, s in lines)


def _resting_edge(px: float, py: float, features: tuple) -> tuple[float, float] | None:
    """Inward normal of the first object edge within CONTACT_TOL of (px, py).

    ``features`` are the polygon's, as :class:`ConvexPolygon` holds them.
    An edge whose line lies farther than _NEAR is skipped before the
    closest-point test.  None when no edge is that close.
    """
    for vx, vy, ex, ey, mx, my in features:
        if (-_NEAR <= (px - vx) * mx + (py - vy) * my <= _NEAR
                and _closest(px, py, vx, vy, ex, ey)[2] <= CONTACT_TOL):
            return mx, my
    return None


def find_contacts(scene: GraspScene) -> list[Contact]:
    """All points where the object touches a profile, deduplicated.

    Raises Penetration when the object overlaps a profile by more than
    PENETRATION_TOL (the pose is not quasi-statically valid); the first
    offending segment, left profile before right, is reported.  One scan
    over both profiles' segments does the work on Python floats.

    A polygon lies within its ``reach`` of its centroid, so a profile
    segment or corner farther than ``reach + 2*_NEAR`` from the centroid
    is more than 2*_NEAR from every point of it: it neither touches within
    CONTACT_TOL nor overlaps, and the scan skips it.  Contacts, their
    order and any Penetration are the same as without the cull.
    """
    obj = scene.obj
    circle = isinstance(obj, Circle)
    if circle:
        (cx, cy), r = obj.center, obj.radius
    else:
        features, (gx, gy), far = obj.features, obj.centroid, obj.reach + 2.0 * _NEAR
    raw = []  # (px, py, nx, ny, side, segment) in scan order
    for side, points in (("left", scene.left_points), ("right", scene.right_points)):
        for i, ((ax, ay), (bx, by)) in enumerate(zip(points, points[1:])):
            dx, dy = bx - ax, by - ay
            if circle:
                qx, qy, dist = _closest(cx, cy, ax, ay, dx, dy)
                if dist < r - PENETRATION_TOL:
                    raise Penetration(f"circle overlaps the {side} profile by {r - dist:.3g} mm",
                                      witness=(qx, qy))
                if abs(dist - r) <= CONTACT_TOL and dist > 0:
                    raw.append((qx, qy, (cx - qx) / dist, (cy - qy) / dist, side, i))
                continue
            if _closest(gx, gy, ax, ay, dx, dy)[2] > far:
                continue  # both its corners are at least as far
            deepest = _polygon_depth(ax, ay, dx, dy, features)
            if deepest is not None and deepest[1] > PENETRATION_TOL:
                t, depth = deepest
                raise Penetration(f"polygon overlaps the {side} profile by {depth:.3g} mm",
                                  witness=(ax + t * dx, ay + t * dy))
            seg_len = abs(complex(dx, dy))
            nx, ny = -dy / seg_len, dx / seg_len
            # Object vertex resting on the segment; n is flipped to point
            # into the object.
            for vx, vy, _, _, _, _ in features:
                if -_NEAR <= (vx - ax) * nx + (vy - ay) * ny <= _NEAR:
                    qx, qy, dist = _closest(vx, vy, ax, ay, dx, dy)
                    if dist <= CONTACT_TOL:
                        flip = nx * (gx - qx) + ny * (gy - qy) < 0
                        raw.append((qx, qy, -nx if flip else nx, -ny if flip else ny, side, i))
            # Profile corner resting on an object edge, tested once, from the
            # first segment in scan order that reaches it: corner i + 1 from
            # segment i, and corner 0 from segment 0 too.  A corner that
            # rests on an edge lies within reach + CONTACT_TOL of the
            # centroid, and so does the closest point of the segment before
            # it, which the cull at reach + 2*_NEAR therefore never skips.
            # A corner more than CONTACT_TOL inside the polygon is at least
            # that far from every edge, so it never counts.
            for px, py in points[0 if i == 0 else i + 1:i + 2]:
                if abs(complex(px - gx, py - gy)) <= far:
                    rest = _resting_edge(px, py, features)
                    if rest is not None:
                        raw.append((px, py, *rest, side, i))
    kept: list[tuple] = []
    for c in raw:
        if all(abs(complex(c[0] - k[0], c[1] - k[1])) > DEDUP_TOL for k in kept):
            kept.append(c)
    kept.sort(key=lambda c: (c[4], c[5], c[0], c[1]))
    return [Contact._of(*c) for c in kept]


def cradle_height(profile: np.ndarray | Sequence[Sequence[float]], circle_radius: float,
                  u: float) -> float:
    """Resting height of a circle dropped onto a support profile at offset u.

    ``profile`` is one polyline of at least two finite (x, y) points, as
    an (n, 2) array-like: an ndarray, ``FingertipState.profile_x_points``
    or a list of [x, y] pairs.  It is treated as a rigid support in a
    y-up frame (a fingertip cross-section from ``surface_profile`` is
    already in that frame); gravity acts along -y and the circle's center
    is held at x = u.  The returned value is the support function of the
    polyline: the lowest non-penetrating center height.  h(u) sampled
    over u is the potential landscape whose curvature decides passive
    centering.

    Raises InvalidParams for a radius that is not positive or whose
    square is not finite, a u that is not finite, or a profile of another
    shape, of fewer than two points, with a non-finite coordinate or with
    a segment whose squared length is not finite, as :class:`GraspScene`
    refuses one; raises Unsupported when nothing under x = u can carry
    the circle.  The numbers and the profile are checked here, and
    :func:`_support` does the rest.
    """
    check_number("circle_radius", circle_radius, "be positive and its square finite", _radius)
    check_number("u", u)
    best = _support(_read_points(profile, "profile", 2), circle_radius, u)
    if best == -math.inf:
        raise Unsupported(f"circle of radius {circle_radius} falls through at u={u}")
    return best


def _support(points: Points, r: float, u: float) -> float:
    """:func:`cradle_height` of read points and checked numbers, unchecked.

    Returns -inf, not Unsupported, when nothing carries the circle.  A
    segment whose squared length is not finite is still InvalidParams
    naming ``profile``, found in the one loop over the points; points that
    a :class:`GraspScene` holds, with x and y swapped or not, have none.
    """
    best = -math.inf
    # Each vertex b adds its cap and each segment ab its interior tangency,
    # touching from above; the first b is vertex 0 itself, with no segment.
    ax, ay = points[0]
    for bx, by in points:
        dx = u - bx
        if abs(dx) <= r:
            best = max(best, by + math.sqrt(r**2 - dx * dx))
        sx, sy = bx - ax, by - ay
        if sx * sx + sy * sy == math.inf:
            raise InvalidParams("profile must keep each segment's squared length finite",
                                field="profile")
        if sx != 0.0:
            # (nx, ny) is the segment's upward unit normal; abs() of a
            # complex is the C library's hypot, as in fingertip._profile.
            seg_len = math.copysign(abs(complex(sx, sy)), sx)
            nx, ny = -sy / seg_len, sx / seg_len
            if ny > 1e-12:
                t = (u - r * nx - ax) / sx
                if 0.0 <= t <= 1.0:
                    best = max(best, ay + t * sy + r * ny)
        ax, ay = bx, by
    return best


def cradle_sign(scene: GraspScene) -> int | None:
    """Sign of the cradle-landscape curvature under the scene's circle.

    The left profile is taken back into its own fingertip frame, as the
    inverse of :func:`_place` (which swaps each point's x and y), and the
    landscape is sampled at its center and CRADLE_DELTA either side by
    :func:`_support`, the core of :func:`cradle_height`: the scene already
    read and checked the points, and swapping x and y keeps every
    segment's squared length.  1 when the landscape curves up (a
    centering well), -1 when it curves down and 0 within 1e-9 mm.  Only
    the left profile is read, so with a different right one the sign
    describes the left fingertip.  None for a polygon, or when the circle
    falls through at any sample.

    Only a profile that rises under the circle's center, such as an
    explicit ridge polyline, gives -1.  A Convex primitive gives 0: at all
    three samples the circle rests on the flat 2*l_oc terrace, and the
    lowered facets never carry it.
    """
    if not isinstance(scene.obj, Circle):
        return None
    local, r = [(y, x) for x, y in scene.left_points], scene.obj.radius
    h0, up, down = (_support(local, r, u) for u in (0.0, CRADLE_DELTA, -CRADLE_DELTA))
    if -math.inf in (h0, up, down):
        return None
    curv = up + down - 2.0 * h0
    return 1 if curv > 1e-9 else -1 if curv < -1e-9 else 0


def _wrench_rays(rows: list[tuple[float, float, float, float]], form: bool,
                 mu: float) -> tuple[list[tuple[float, ...]], list[tuple[float, ...]]]:
    """Unit wrench rays (fx, fy, tau/rho) of the contact set: its normal rays and its cone rays.

    ``rows`` are the contacts' ``point_xy + normal_xy``, ``(px, py, nx, ny)``.
    Torque is taken about the mean contact point and scaled by the contact
    spread rho, both computed once, so all three wrench components are
    commensurate.  The normal rays, one per contact, are built when
    ``form`` is set; the cone rays when mu > 0: contact i's two friction
    cone edges n + mu*t then n - mu*t, t = (-n_y, n_x), are rays 2i and
    2i + 1.  A list not built is empty.
    """
    mx, my = rows[0][0], rows[0][1]
    for px, py, _, _ in rows[1:]:
        mx, my = mx + px, my + py
    mx, my = mx / len(rows), my / len(rows)
    # abs() of a complex is the C library's hypot, as in fingertip._profile.
    rho = max(1.0, max(abs(complex(px - mx, py - my)) for px, py, _, _ in rows))
    normals, cones = [], []
    for px, py, nx, ny in rows:
        rx, ry = px - mx, py - my
        forces = ((nx, ny, normals),) if form else ()
        if mu > 0.0:
            forces += (nx - ny * mu, ny + nx * mu, cones), (nx + ny * mu, ny - nx * mu, cones)
        for fx, fy, rays in forces:
            tz = (rx * fy - ry * fx) / rho
            # fx*fx + tz*tz first, then fy*fy: the order numpy's einsum sums three
            # terms in, so rays and verdicts match an array version bit for bit.
            norm = math.sqrt((fx * fx + tz * tz) + fy * fy)
            rays.append((fx / norm, fy / norm, tz / norm))
    return normals, cones


def _origin_strictly_inside(rays: Sequence[Sequence[float]], margin: float = HULL_TOL) -> bool:
    """True when the origin lies at least ``margin`` inside conv(rays) in 3D.

    This is the facet test of Ferrari and Canny ("Planning optimal
    grasps", 1992): a plane through three rays is supporting when no ray
    lies strictly beyond it, and these are exactly the facet planes of the
    hull.  The origin is inside when it lies at least ``margin`` within
    every one of them, which is the rays positively spanning the whole
    wrench space with a Ferrari-Canny epsilon of at least ``margin``.  The
    scan drops a plane as soon as rays lie on both of its sides and
    answers False at the first supporting plane the origin is not that
    far inside.  A plane holding every ray is supporting on both sides,
    so a flat ray set is not closed.  A hull that holds the origin is a
    solid with at least four facets, so the scan answers True only once it
    has found four supporting planes.  A triple whose cross product is at
    most _PLANE_TOL spans no plane and is skipped, so a set with fewer
    planes is not closed: on four rays, that is any set in which two rays
    nearly coincide, such as a pinch at a mu so small that each contact's
    two cone edges all but merge, where the planes left are lost in
    rounding.  The closure tests use HULL_TOL; a contact pair's
    certificate, the scan of its four cone rays, uses _PAIR_TOL.
    """
    spanned = 0  # supporting planes found
    for (ax, ay, az), (bx, by, bz), (cx, cy, cz) in combinations(rays, 3):
        ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm <= _PLANE_TOL:
            continue
        d = nx * ax + ny * ay + nz * az
        hi, lo = d + _PLANE_TOL * norm, d - _PLANE_TOL * norm
        above = below = False
        for wx, wy, wz in rays:
            height = nx * wx + ny * wy + nz * wz
            if height > hi:
                if below:
                    break
                above = True
            elif height < lo:
                if above:
                    break
                below = True
        else:
            # Rays all below the plane put the origin d/norm inside it;
            # rays all above, -d/norm.
            if (not above and d / norm < margin) or (not below and -d / norm < margin):
                return False
            spanned += 1
    return spanned >= 4


def closure_classify(contacts: Sequence[Contact], mu: float) -> Closure:
    """Grade of grasp closure achieved by a contact set.

    FORM_CLOSURE: the frictionless normal wrenches alone positively span
    the planar wrench space (origin strictly inside their convex hull).
    FORCE_CLOSURE: the friction-cone edge wrenches do.  Form closure is
    the stronger verdict and implies force closure for any mu >= 0;
    boundary cases are graded conservatively as not closed.  The verdict
    is decided on the Python floats each contact stores.

    :func:`_wrench_rays` builds the set's rays once: its normal rays for
    the form test, which needs at least four contacts, and its friction
    cones' edge rays when mu > 0.  :func:`_origin_strictly_inside`, the
    one facet test, decides both grades.  With more than two contacts, a
    pair certificate comes before the force scan: two contacts on
    different sides whose four cone rays pass the facet test at the
    margin _PAIR_TOL = HULL_TOL + 4*_PLANE_TOL are force closure (Nguyen,
    "Constructing force-closure grasps", 1988).  The certificate changes
    no verdict: it is the same test on a subset, at a margin
    _PAIR_TOL - _PLANE_TOL > HULL_TOL.  A subset's hull lies in the
    whole set's, and every plane the scan counts as supporting has the
    whole hull within _PLANE_TOL beyond it; the rest of the margin is
    slack for rounding.  With two contacts the pair is the whole ray set,
    so the scan decides alone, as it does for a set that no pair
    certifies.

    An extreme mu can grade a pinch as open: the two cone edges of a
    contact are unit rays, and they flatten the wrench hull below HULL_TOL
    as mu nears 0 or grows without bound.  The flat pinch of a circle of
    radius 10 mm (two contacts) is FORCE_CLOSURE only for mu between
    sqrt(2)*HULL_TOL (1.4e-9) and its inverse (7.1e8).
    """
    if len(contacts) == 0:
        raise InvalidParams("contacts must hold at least one contact", field="contacts")
    check_number("mu", mu, "be non-negative and finite", _non_negative)
    rows = [c.point_xy + c.normal_xy for c in contacts]
    x0, y0 = rows[0][0], rows[0][1]
    if len(rows) > 1 and max(abs(complex(px - x0, py - y0)) for px, py, _, _ in rows) <= DEDUP_TOL:
        raise DegenerateContacts("all contacts coincide; wrench basis is degenerate")
    # Fewer than four wrench rays never span the 3-D wrench space.
    form = len(rows) >= 4
    if not (form or mu > 0.0):
        return Closure.NONE
    normals, cones = _wrench_rays(rows, form, mu)
    if form and _origin_strictly_inside(normals):
        return Closure.FORM_CLOSURE
    # Contact i's two cone edges are rays 2i and 2i + 1.
    if cones and (len(rows) > 2 and any(
            _origin_strictly_inside(cones[2 * i:2 * i + 2] + cones[2 * j:2 * j + 2], _PAIR_TOL)
            for i, j in combinations(range(len(rows)), 2)
            if contacts[i].side != contacts[j].side) or _origin_strictly_inside(cones)):
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
    (lx, ly, nx, ny), (rx, ry, mx, my) = (c.point_xy + c.normal_xy for c in left + right)
    if _angle_between(nx, ny, -mx, -my) > PIVOT_ANGLE_TOL:
        return False
    dx, dy = rx - lx, ry - ly
    span = abs(complex(dx, dy))
    if span < 1e-9:
        return True
    return _angle_between(dx / span, dy / span, nx, ny) <= PIVOT_ANGLE_TOL


def _angle_between(ux: float, uy: float, vx: float, vy: float) -> float:
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
