import hashlib
import math
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from strategies import planned_primitives, two_sided_contacts
from morphtip import (
    Circle,
    Closure,
    Concave,
    Contact,
    Convex,
    ConvexPolygon,
    DegenerateContacts,
    FingertipConfig,
    Flat,
    GraspScene,
    InvalidParams,
    Penetration,
    TiltedPlanar,
    Unsupported,
    attainable_tilt_range,
    closure_classify,
    cradle_height,
    cradle_sign,
    find_contacts,
    pivot_feasible,
    plan_primitive,
    scene_between,
)
from morphtip import grasp
from morphtip.grasp import (
    CONTACT_TOL,
    CRADLE_DELTA,
    DEDUP_TOL,
    HULL_TOL,
    PENETRATION_TOL,
    _origin_strictly_inside,
    place_left,
    place_right,
)

CFG = FingertipConfig()
L_OC = CFG.linkage.l_oc


# Profiles that are not (n, 2) arrays of at least two finite points.
MALFORMED_PROFILES = [
    pytest.param([[0.0, 0.0], [math.nan, 1.0], [5.0, 0.0]], id="nan"),
    pytest.param([[0.0, 0.0], [math.inf, 1.0], [5.0, 0.0]], id="inf"),
    pytest.param([[0.0, 0.0], [1.0, -math.inf]], id="-inf"),
    pytest.param([0.0, 1.0, 2.0], id="1-d"),
    pytest.param([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], id="3-columns"),
    pytest.param([[0.0, 0.0]], id="one-point"),
    pytest.param([], id="empty"),
    pytest.param([[0.0, 0.0], [1.0]], id="ragged"),
    pytest.param("ab", id="non-numeric"),
    pytest.param([[0.0, 0.0], [10**400, 0.0]], id="int-too-large"),
    pytest.param([["-5", "0"], ["5", "0"]], id="numeric-strings"),
]


def profile(prim) -> np.ndarray:
    return plan_primitive(CFG, prim).profile_x


def flat_pinch_scene(r: float = 10.0, mu: float = 0.0, c_y: float = 0.0) -> GraspScene:
    flat = profile(Flat())
    return scene_between(flat, flat, 2 * r, Circle(r, (r, c_y)), mu)


def concave_seat_scene(phi_deg: float = 20.0, r: float = 88.0, mu: float = 0.0) -> GraspScene:
    """Circle tangent to all four facets of two opposing concave fingertips."""
    phi = math.radians(phi_deg)
    prof = profile(Concave(phi))
    gap = 2.0 * (r - L_OC * math.sin(phi)) / math.cos(phi)
    assert gap / 2.0 > r, "circle must clear the terrace plane"
    return scene_between(prof, prof, gap, Circle(r, (gap / 2.0, 0.0)), mu)


def square_seat_scene(phi_deg: float = 30.0, half_side: float = 20.0, mu: float = 0.0) -> GraspScene:
    """Axis-aligned square with its four corners resting on the four facets."""
    phi = math.radians(phi_deg)
    prof = profile(Concave(phi))
    a = half_side
    half_gap = a + (a - L_OC) * math.tan(phi)
    sq = np.array([
        [half_gap - a, -a], [half_gap + a, -a],
        [half_gap + a, a], [half_gap - a, a],
    ])
    return scene_between(prof, prof, 2 * half_gap, ConvexPolygon(sq), mu)


def convex_pinch_scene(r: float = 8.0, mu: float = 0.0, c_y: float = 3.0) -> GraspScene:
    conv = profile(Convex(math.radians(-30.0)))
    return scene_between(conv, conv, 2 * r, Circle(r, (r, c_y)), mu)


def arc_seat_scene(k: int, mu: float = 0.3) -> GraspScene:
    """A circle of radius 20 mm seated in two k-segment arcs, touching every segment.

    The profile's points lie at radius 20/cos(h) about the circle's centre
    (21, 0), h = 60 deg / k, over 120 deg centred on 180 deg, so each
    segment is tangent to the circle at its middle; the right profile is
    the mirror image at gap 42 mm.  The scene has 2k contacts.
    """
    h = math.radians(60.0 / k)
    reach = 20.0 / math.cos(h)
    angles = [math.radians(120.0) + 2.0 * h * i for i in range(k + 1)]
    local = [(reach * math.sin(a), 21.0 + reach * math.cos(a)) for a in angles]
    return scene_between(local, local, 42.0, Circle(20.0, (21.0, 0.0)), mu)


def touch_shift(profile: np.ndarray, verts: np.ndarray, first) -> float | None:
    """x shift of a placed profile at which it first touches a polygon.

    ``first=min`` sweeps the profile in from -x, ``first=max`` from +x.  A
    first touch is a polygon vertex on a profile segment or a profile
    corner on a polygon edge, each met along a horizontal line.  None when
    the two never meet.
    """
    def crossings(points, chain):
        for a, b in chain:
            if a[1] != b[1]:
                for p in points:
                    if min(a[1], b[1]) <= p[1] <= max(a[1], b[1]):
                        yield p, a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])

    segments = list(zip(profile[:-1], profile[1:]))
    edges = list(zip(verts, np.roll(verts, -1, axis=0)))
    shifts = ([v[0] - x for v, x in crossings(verts, segments)]
              + [x - p[0] for p, x in crossings(profile, edges)])
    return first(shifts, default=None)


def circle_touch_shift(profile: np.ndarray, center, r: float, first) -> float | None:
    """x shift of a placed profile at which it first touches a circle.

    ``first=min`` sweeps the profile in from -x, ``first=max`` from +x.  A
    first touch is a profile corner on the circle or a segment tangent to
    it.  None when the two never meet.
    """
    toward = 1.0 if first is min else -1.0  # x direction from profile to circle
    shifts = [center[0] - p[0] - toward * math.sqrt(r * r - (center[1] - p[1]) ** 2)
              for p in profile if abs(center[1] - p[1]) <= r]
    for a, b in zip(profile[:-1], profile[1:]):
        d = b - a
        if d[1] == 0.0:
            continue
        n = np.array([-d[1], d[0]]) * toward / abs(d[1])
        n /= np.hypot(*n)
        shift = (float(n @ (np.asarray(center) - a)) - r) / n[0]
        t = float((np.asarray(center) - r * n - a - [shift, 0.0]) @ d) / float(d @ d)
        if 0.0 <= t <= 1.0:
            shifts.append(shift)
    return first(shifts, default=None)


def assert_matches_enumeration(scene: GraspScene, scale: float = 1.0) -> None:
    """find_contacts equals the scalar enumeration oracle on one scene.

    Points, witnesses and depths agree within 1e-12 mm, times ``scale``
    for a scene scaled up by it.
    """
    tol = 1e-12 * max(1.0, scale)
    pen, expected = oracles.contacts_by_enumeration(scene, CONTACT_TOL, PENETRATION_TOL, DEDUP_TOL)
    if pen is not None:
        side, i, depth = pen
        with pytest.raises(Penetration) as exc:
            find_contacts(scene)
        assert f"the {side} profile by {depth:.3g} mm" in str(exc.value)
        witness = exc.value.witness
        placed = scene.left_profile if side == "left" else scene.right_profile
        assert oracles.distance_to_segment(witness, placed[i], placed[i + 1]) <= tol
        assert abs(oracles.depth_at(scene.obj, witness) - depth) <= tol
        return
    got = find_contacts(scene)
    assert [(c.side, c.segment) for c in got] == [c[:2] for c in expected]
    for c, (_, _, point, normal) in zip(got, expected):
        assert np.max(np.abs(c.point - point)) <= tol
        assert np.max(np.abs(c.normal - normal)) <= 1e-12


def scaled(scene: GraspScene, factor: float) -> GraspScene:
    """A polygon scene with every length multiplied by factor, a power of two, so exactly."""

    def times(points):
        return [(x * factor, y * factor) for x, y in points]

    return GraspScene(times(scene.left_points), times(scene.right_points), scene.gap * factor,
                      ConvexPolygon(times(scene.obj.vertex_points)), scene.mu)


def lopsided_square_scene(phi_deg: float = 30.0, half_side: float = 20.0, mu: float = 0.0) -> GraspScene:
    """A square seated on a concave left fingertip and pressed by a flat right one."""
    phi = math.radians(phi_deg)
    a = half_side
    cx = a + (a - L_OC) * math.tan(phi)
    sq = np.array([[cx - a, -a], [cx + a, -a], [cx + a, a], [cx - a, a]])
    return scene_between(profile(Concave(phi)), profile(Flat()), cx + a, ConvexPolygon(sq), mu)


def mirror_swapped(scene: GraspScene) -> GraspScene:
    """The scene reflected about x = gap / 2, so the two fingertips trade sides."""

    def flip(points: np.ndarray) -> np.ndarray:
        return np.column_stack([scene.gap - points[:, 0], points[:, 1]])

    obj = scene.obj
    if isinstance(obj, Circle):
        obj = Circle(obj.radius, (scene.gap - obj.center[0], obj.center[1]))
    else:
        obj = ConvexPolygon(flip(obj.vertices)[::-1])  # reversed: a reflection turns CCW to CW
    return GraspScene(flip(scene.right_profile), flip(scene.left_profile), scene.gap, obj, scene.mu)


def shifted(scene: GraspScene, dx: float) -> GraspScene:
    """The scene with the object and both profiles moved by dx along the pinch line."""
    move = np.array([dx, 0.0])
    obj = scene.obj
    if isinstance(obj, Circle):
        obj = Circle(obj.radius, (obj.center[0] + dx, obj.center[1]))
    else:
        obj = ConvexPolygon(obj.vertices + move)
    return GraspScene(scene.left_profile + move, scene.right_profile + move, scene.gap, obj,
                      scene.mu)


# Scene builders, by friction coefficient, whose closure class must not
# depend on where the scene sits or on which side is called left.
INVARIANCE_SCENES = {
    "flat-pinch": lambda mu: flat_pinch_scene(mu=mu),
    "flat-pinch-off-axis": lambda mu: flat_pinch_scene(mu=mu, c_y=4.0),
    "concave-seat": lambda mu: concave_seat_scene(mu=mu),
    "square-seat": lambda mu: square_seat_scene(mu=mu),
    "square-seat-45deg": lambda mu: square_seat_scene(phi_deg=45.0, half_side=18.0, mu=mu),
    "lopsided-square": lambda mu: lopsided_square_scene(mu=mu),
}
INVARIANCE_MUS = (0.0, 0.1, 0.3, 0.5, 1.0)


def oracle_closed(contacts, mu: float) -> bool:
    return oracles.closed_by_wrench_sampling(
        [c.point for c in contacts], [c.normal for c in contacts], mu
    )


class TestFindContacts:
    def test_flat_pinch_two_antipodal(self):
        cts = find_contacts(flat_pinch_scene())
        assert len(cts) == 2
        left = next(c for c in cts if c.side == "left")
        right = next(c for c in cts if c.side == "right")
        assert left.normal == pytest.approx([1.0, 0.0])
        assert right.normal == pytest.approx([-1.0, 0.0])
        assert left.point == pytest.approx([0.0, 0.0])
        assert right.point == pytest.approx([20.0, 0.0])

    def test_open_gap_no_contacts(self):
        flat = profile(Flat())
        scene = scene_between(flat, flat, 40.0, Circle(10.0, (20.0, 0.0)), 0.0)
        assert find_contacts(scene) == []

    def test_concave_seat_four_contacts(self):
        cts = find_contacts(concave_seat_scene())
        assert len(cts) == 4
        assert sum(c.side == "left" for c in cts) == 2
        assert sum(c.side == "right" for c in cts) == 2
        # each contact sits on a facet segment, not on the terrace
        assert all(c.segment in (0, 2) for c in cts)

    def test_square_seat_four_corner_contacts(self):
        cts = find_contacts(square_seat_scene())
        assert len(cts) == 4
        phi = math.radians(30.0)
        mags = {(round(abs(c.normal[0]), 6), round(abs(c.normal[1]), 6)) for c in cts}
        assert mags == {(round(math.cos(phi), 6), round(math.sin(phi), 6))}

    def test_penetration_raises_with_witness(self):
        flat = profile(Flat())
        scene = scene_between(flat, flat, 18.0, Circle(10.0, (9.0, 0.0)), 0.0)
        with pytest.raises(Penetration) as exc:
            find_contacts(scene)
        assert exc.value.witness is not None

    def test_polygon_penetration_raises(self):
        flat = profile(Flat())
        sq = np.array([[-1.0, -5.0], [9.0, -5.0], [9.0, 5.0], [-1.0, 5.0]])
        scene = scene_between(flat, flat, 30.0, ConvexPolygon(sq), 0.0)
        with pytest.raises(Penetration):
            find_contacts(scene)

    def test_translation_invariance(self):
        base = concave_seat_scene()
        shift = np.array([7.3, -4.1])
        obj = base.obj
        moved = GraspScene(
            left_profile=base.left_profile + shift,
            right_profile=base.right_profile + shift,
            gap=base.gap,
            obj=Circle(obj.radius, (obj.center[0] + shift[0], obj.center[1] + shift[1])),
            mu=base.mu,
        )
        a = find_contacts(base)
        b = find_contacts(moved)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert cb.point == pytest.approx(ca.point + shift, abs=1e-9)
            assert cb.normal == pytest.approx(ca.normal, abs=1e-12)
            assert (ca.side, ca.segment) == (cb.side, cb.segment)

    def test_memory_stays_linear_in_the_vertex_count(self):
        # The scan holds each vertex a fixed number of times; a grid of
        # segments x edges x edges would need about 96 MB here.
        flat = profile(Flat())
        ang = 2.0 * np.pi * np.arange(1000) / 1000
        r = 12.0
        poly = ConvexPolygon(np.column_stack([r + r * np.cos(ang), r * np.sin(ang)]))
        scene = scene_between(flat, flat, 2 * r, poly, 0.0)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            cts = find_contacts(scene)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(c.side, c.segment) for c in cts] == [("left", 1), ("right", 1)]
        assert peak < 1_000_000
        assert elapsed < 1.0

    def test_edge_on_edge_square_between_flats(self):
        # square face flush on both flat profiles: two contacts per side
        flat = profile(Flat())
        a = 6.0
        sq = np.array([[0.0, -a], [2 * a, -a], [2 * a, a], [0.0, a]])
        scene = scene_between(flat, flat, 2 * a, ConvexPolygon(sq), 0.0)
        cts = find_contacts(scene)
        assert sum(c.side == "left" for c in cts) == 2
        assert sum(c.side == "right" for c in cts) == 2
        for c in cts:
            assert abs(c.normal[0]) == pytest.approx(1.0)

    def test_each_profile_corner_is_tested_once(self, monkeypatch):
        # Both hinges of each flat profile rest on a face of the square, and
        # each hinge ends two segments; the first of them reports it.
        flat = profile(Flat())
        sq = np.array([[0.0, -20.0], [40.0, -20.0], [40.0, 20.0], [0.0, 20.0]])
        scene, calls = scene_between(flat, flat, 40.0, ConvexPolygon(sq), 0.0), []
        resting = grasp._resting_edge
        monkeypatch.setattr(grasp, "_resting_edge", lambda px, py, features:
                            calls.append((px, py)) or resting(px, py, features))
        cts = find_contacts(scene)
        assert [(c.side, c.segment, c.point_xy[1]) for c in cts] == [
            ("left", 0, -20.0), ("left", 0, -15.0), ("left", 1, 15.0), ("left", 2, 20.0),
            ("right", 0, -20.0), ("right", 0, -15.0), ("right", 1, 15.0), ("right", 2, 20.0)]
        assert len(calls) == len(set(calls)) == 4


@st.composite
def fingertip_profiles(draw) -> np.ndarray:
    """A flat, concave, convex or random polyline profile in the tip frame."""
    kind = draw(st.sampled_from(("flat", "concave", "convex", "polyline")))
    if kind == "flat":
        return profile(Flat())
    if kind != "polyline":
        phi = math.radians(draw(st.floats(5.0, 30.0)))
        return profile(Concave(phi) if kind == "concave" else Convex(-phi))
    n = draw(st.integers(2, 6))
    # Strictly increasing plate positions keep the polyline simple.
    steps = draw(st.lists(st.floats(2.0, 25.0), min_size=n - 1, max_size=n - 1))
    pos = -35.0 + np.concatenate([[0.0], np.cumsum(steps)])
    heights = draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
    return np.column_stack([pos, heights])


@st.composite
def polygon_scenes(draw) -> GraspScene:
    """A convex polygon of 3-64 vertices between two random profiles.

    ``touch`` sweeps the polygon onto the left profile and the right
    profile onto the polygon; ``vertex`` rests a polygon vertex on a point
    of a left segment, ``corner`` rests a left profile corner on a polygon
    edge, each then closed by the right profile; ``push`` moves a touching
    polygon into one profile, or just off it by less than the penetration
    tolerance; ``free`` places everything at random.
    """
    k = draw(st.integers(3, 64))
    jitter = np.array(draw(st.lists(st.floats(0.0, 0.8), min_size=k, max_size=k)))
    radius, aspect = draw(st.floats(3.0, 40.0)), draw(st.floats(0.3, 1.0))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    ang = 2.0 * math.pi * (np.arange(k) + jitter) / k
    ellipse = np.column_stack([radius * np.cos(ang), aspect * radius * np.sin(ang)])
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    verts = ellipse @ rot.T + [0.0, draw(st.floats(-10.0, 10.0))]
    left_local, right_local = draw(fingertip_profiles()), draw(fingertip_profiles())
    left = place_left(left_local)
    placement = draw(st.sampled_from(("touch", "vertex", "corner", "push", "free")))
    if placement == "free":
        verts = verts + [draw(st.floats(0.0, 80.0)), 0.0]
        gap = draw(st.floats(1.0, 150.0))
    else:
        if placement == "vertex":
            i = draw(st.integers(0, len(left) - 2))
            a, b = left[i], left[i + 1]
            u = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
            n = np.array([b[1] - a[1], a[0] - b[0]])
            n = n if n[0] > 0 or (n[0] == 0 and n[1] > 0) else -n
            verts = verts + (a + u * (b - a) - verts[np.argmin(verts @ n)])
        elif placement == "corner":
            corner = left[draw(st.integers(0, len(left) - 1))]
            edges = np.roll(verts, -1, axis=0) - verts
            j = int(np.argmax(-edges[:, 1] / np.hypot(edges[:, 0], edges[:, 1])))
            u = draw(st.floats(0.0, 1.0))
            verts = verts + (corner - (verts[j] + u * edges[j]))
        else:
            shift = touch_shift(left, verts, min)
            assume(shift is not None)
            verts = verts - [shift, 0.0]
        gap = touch_shift(place_right(right_local, 0.0), verts, max)
        assume(gap is not None)
        if placement == "push":
            push = draw(st.one_of(st.floats(0.001, 0.5), st.sampled_from((5e-7, -5e-7))))
            if draw(st.booleans()):
                verts = verts - [push, 0.0]
            else:
                gap -= push
    assume(gap > 0.0)
    return scene_between(left_local, right_local, gap, ConvexPolygon(verts), 0.0)


@st.composite
def circle_scenes(draw) -> GraspScene:
    """A circle between two random profiles.

    The circle touches the left profile; the right one touches it too, or
    is pushed by ``push`` mm into it (> 0) or away from it (< 0), 5e-7 mm
    lying between the contact and penetration tolerances.
    """
    left_local, right_local = draw(fingertip_profiles()), draw(fingertip_profiles())
    r, c_y = draw(st.floats(3.0, 40.0)), draw(st.floats(-10.0, 10.0))
    push = draw(st.sampled_from((0.0, 0.0, 0.3, 0.01, -0.01, 5e-7, -5e-7)))
    shift = circle_touch_shift(place_left(left_local), (0.0, c_y), r, min)
    assume(shift is not None)
    c_x = -shift
    gap = circle_touch_shift(place_right(right_local, 0.0), (c_x, c_y), r, max)
    assume(gap is not None and gap - push > 0.0)
    return scene_between(left_local, right_local, gap - push, Circle(r, (c_x, c_y)), 0.0)


class TestContactsAgainstEnumeration:
    @settings(max_examples=300)
    @given(polygon_scenes())
    def test_polygon_scenes_match_enumeration(self, scene):
        assert_matches_enumeration(scene)

    @settings(max_examples=200)
    @given(polygon_scenes(), st.sampled_from((-10, 0, 20)))
    def test_polygon_scenes_match_enumeration_at_other_scales(self, scene, k):
        # 2^-10 to 2^20 is the range over which the grasp verdicts keep
        # their meaning; the cull must find what the full scan finds there.
        assert_matches_enumeration(scaled(scene, 2.0 ** k), 2.0 ** k)

    @settings(max_examples=100)
    @given(circle_scenes())
    def test_circle_scenes_match_enumeration(self, scene):
        assert_matches_enumeration(scene)

    @settings(max_examples=200)
    @given(st.one_of(polygon_scenes(), circle_scenes()))
    def test_contacts_hold_what_the_public_constructor_would(self, scene):
        # find_contacts stores its floats unread: each point is finite, each
        # normal a finite unit vector, and Contact(...) stores them alike.
        try:
            contacts = find_contacts(scene)
        except Penetration:
            return
        for c in contacts:
            floats = c.point_xy + c.normal_xy
            assert all(type(v) is float and math.isfinite(v) for v in floats)
            assert math.hypot(*c.normal_xy) == pytest.approx(1.0, abs=1e-12)
            assert repr(Contact(c.point_xy, c.normal_xy, c.side, c.segment)) == repr(c)


@st.composite
def star_polylines(draw) -> list[list[float]]:
    """A simple polyline of 2-7 points, in general neither x- nor y-monotone.

    The points wind once around a centre at increasing angles, with less
    than a half-turn between neighbours and less than a full turn in
    all, so each segment keeps to its own wedge and only neighbours meet.
    """
    n = draw(st.integers(2, 7))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    angles = draw(st.floats(0.0, 2.0 * math.pi)) + np.concatenate([[0.0], np.cumsum(steps)])
    radii = draw(st.lists(st.floats(2.0, 40.0), min_size=n, max_size=n))
    cx, cy = draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))
    return [[cx + rad * math.cos(a), cy + rad * math.sin(a)] for rad, a in zip(radii, angles)]


@st.composite
def convex_polygons(draw) -> list[list[float]]:
    """A strictly convex counter-clockwise polygon of 3-64 vertices.

    The vertices lie on an ellipse, at increasing multiples of 1/720 of a
    turn, so three neighbours always turn left by far more than rounding.
    """
    steps = sorted(draw(st.sets(st.integers(0, 719), min_size=3, max_size=64)))
    a, b = draw(st.floats(1.0, 1000.0)), draw(st.floats(1.0, 1000.0))
    cx, cy = draw(st.floats(-1000.0, 1000.0)), draw(st.floats(-1000.0, 1000.0))
    return [[cx + a * math.cos(math.pi * k / 360.0), cy + b * math.sin(math.pi * k / 360.0)]
            for k in steps]


class TestCradle:
    def test_concave_strict_minimum(self):
        phi = math.radians(20.0)
        prof = profile(Concave(phi))
        h0 = cradle_height(prof, 88.0, 0.0)
        for du in (0.1, -0.1):
            assert cradle_height(prof, 88.0, du) - h0 == pytest.approx(
                abs(du) * math.tan(phi), abs=1e-9
            )

    def test_flat_constant_over_terrace_span(self):
        prof = profile(Flat())
        r = 5.0
        hs = [cradle_height(prof, r, u) for u in np.linspace(-L_OC, L_OC, 21)]
        assert all(h == r for h in hs)

    def test_convex_unstable_seat(self):
        prof = profile(Convex(math.radians(-20.0)))
        r = 20.0
        h0 = cradle_height(prof, r, 0.0)
        us = np.linspace(0.0, 25.0, 101)
        hs = np.array([cradle_height(prof, r, u) for u in us])
        assert np.all(hs <= h0 + 1e-12)          # center is a maximum
        assert np.all(np.diff(hs) <= 1e-12)      # never rises moving outward
        assert hs[-1] < h0 - 1e-3                # strictly lower off the shoulder

    def test_even_function_for_symmetric_profiles(self):
        rng = np.random.default_rng(31)
        prof = profile(Concave(math.radians(25.0)))
        for u in rng.uniform(0.0, 20.0, 50):
            h_plus = cradle_height(prof, 70.0, float(u))
            h_minus = cradle_height(prof, 70.0, -float(u))
            assert abs(h_plus - h_minus) < 1e-9

    def test_falls_through(self):
        prof = profile(Flat())
        with pytest.raises(Unsupported):
            cradle_height(prof, 3.0, 100.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(InvalidParams):
            cradle_height(profile(Flat()), -1.0, 0.0)

    def test_radius_whose_square_overflows_rejected(self):
        # 1e200 is finite, but r**2 would raise OverflowError.
        with pytest.raises(InvalidParams) as exc:
            cradle_height(profile(Flat()), 1e200, 0.0)
        assert exc.value.field == "circle_radius"
        with pytest.raises(InvalidParams) as exc:
            Circle(1e200, (10.0, 1e201))
        assert exc.value.field == "radius"

    def test_non_finite_offset_rejected(self):
        with pytest.raises(InvalidParams, match="^u must be finite$") as exc:
            cradle_height(profile(Flat()), 1.0, math.nan)
        assert exc.value.field == "u"

    @pytest.mark.parametrize("prim", [Flat(), Concave(math.radians(20.0)), Convex(math.radians(-20.0))],
                             ids=["flat", "concave", "convex"])
    def test_profile_as_points_reads_as_its_array(self, prim):
        state = plan_primitive(CFG, prim)
        points = state.profile_x_points
        for r, u in [(5.0, 0.0), (20.0, 3.0), (88.0, -0.1), (70.0, 12.5)]:
            want = cradle_height(state.profile_x, r, u)
            assert cradle_height(points, r, u) == want
            assert cradle_height([list(p) for p in points], r, u) == want
            with pytest.raises(InvalidParams):
                cradle_height([points], r, u)
        with pytest.raises(Unsupported):
            cradle_height(points, 3.0, 100.0)

    @pytest.mark.parametrize("bad", MALFORMED_PROFILES)
    def test_malformed_profile_rejected(self, bad):
        with pytest.raises(InvalidParams) as exc:
            cradle_height(bad, 2.0, 0.0)
        assert exc.value.field == "profile"

    @pytest.mark.parametrize("bad", [[[0, 0], [1]], "ab", [[0, 0], [1j, 0]], {"x": 1}],
                             ids=["ragged", "letters", "complex", "dict"])
    def test_points_that_are_not_numbers_name_the_shape(self, bad):
        with pytest.raises(InvalidParams,
                           match=r"^profile must have at least 2 points of shape \(n, 2\)$") as exc:
            cradle_height(bad, 1.0, 0.0)
        assert exc.value.field == "profile"

    def test_segment_whose_square_overflows_rejected(self):
        # The circle would rest at 5.0, but the segment's squared length is inf.
        with pytest.raises(InvalidParams, match="^profile must keep each segment's squared "
                                                "length finite$") as exc:
            cradle_height([[-1e308, 0.0], [1e308, 0.0]], 5.0, 0.0)
        assert exc.value.field == "profile"
        with pytest.raises(InvalidParams):
            cradle_height([[-1e200, 0.0], [1e200, 0.0]], 5.0, 0.0)
        assert cradle_height([[-1e150, 0.0], [1e150, 0.0]], 5.0, 0.0) == 5.0

    @settings(max_examples=200)
    @given(st.one_of(planned_primitives().map(lambda plan: plan[1].profile_x_points),
                     star_polylines()),
           st.floats(0.5, 80.0), st.floats(-60.0, 60.0))
    def test_matches_bisection(self, points, r, u):
        want = oracles.cradle_by_bisection(points, r, u)
        if want is None:
            with pytest.raises(Unsupported):
                cradle_height(points, r, u)
        else:
            assert abs(cradle_height(points, r, u) - want) <= 1e-9


class TestCradleSign:
    """The cradle-landscape curvature sign, read from the left profile alone."""

    def test_flat_pinch_is_level(self):
        assert cradle_sign(flat_pinch_scene()) == 0

    def test_concave_seat_centers(self):
        assert cradle_sign(concave_seat_scene()) == 1

    def test_convex_ridge_is_unstable(self):
        ridge = [[-10.0, 0.0], [0.0, 5.0], [10.0, 0.0]]
        assert cradle_sign(scene_between(ridge, ridge, 60.0, Circle(2.0, (30.0, 0.0)), 0.0)) == -1

    @pytest.mark.parametrize("depth_deg", [1.0, 10.0, 30.0])
    @pytest.mark.parametrize("r", [0.5, 8.0, 88.0, 500.0])
    def test_convex_tips_are_level(self, depth_deg, r):
        # The circle rests on the flat 2*l_oc terrace at u = 0 and +-CRADLE_DELTA;
        # the lowered facets never carry it.
        conv = profile(Convex(math.radians(-depth_deg)))
        assert cradle_sign(scene_between(conv, conv, 2.0 * r, Circle(r, (r, 0.0)), 0.0)) == 0

    def test_polygon_has_none(self):
        assert cradle_sign(square_seat_scene()) is None

    def test_circle_that_falls_through_has_none(self):
        # The profile does not reach under its own center.
        off = [[5.0, 0.0], [10.0, 0.0]]
        assert cradle_sign(scene_between(off, off, 60.0, Circle(1.0, (30.0, 0.0)), 0.0)) is None

    @settings(max_examples=100)
    @given(st.one_of(
        circle_scenes(),
        st.builds(concave_seat_scene, st.floats(20.0, 30.0), st.floats(90.0, 150.0)),
        st.builds(lambda points, r: scene_between(points, points, 300.0, Circle(r, (150.0, 0.0)),
                                                  0.0), star_polylines(), st.floats(0.5, 80.0))))
    def test_matches_bisection(self, scene):
        local = [(y, x) for x, y in scene.left_points]
        assert np.array_equal(place_left(local), scene.left_profile)
        r, us = scene.obj.radius, (0.0, CRADLE_DELTA, -CRADLE_DELTA)
        h0, up, down = (oracles.cradle_by_bisection(local, r, u) for u in us)
        if None in (h0, up, down):
            assert cradle_sign(scene) is None
        elif abs(up + down - 2.0 * h0) >= 1e-6:
            assert cradle_sign(scene) == (1 if up + down > 2.0 * h0 else -1)
        try:  # and it is exactly the sign of three public samples
            h0, up, down = (cradle_height(local, r, u) for u in us)
        except Unsupported:
            assert cradle_sign(scene) is None
            return
        curv = up + down - 2.0 * h0
        assert cradle_sign(scene) == (1 if curv > 1e-9 else -1 if curv < -1e-9 else 0)

    def test_reads_no_profile(self, monkeypatch):
        # The scene read and checked its points once; the sign reads them as they are.
        scene, flat, calls = concave_seat_scene(), profile(Flat()), []
        read = grasp._read_points
        monkeypatch.setattr(grasp, "_read_points", lambda *args: calls.append(args) or read(*args))
        assert cradle_sign(scene) == 1
        assert calls == []
        assert cradle_height(flat, 5.0, 0.0) == 5.0
        assert len(calls) == 1  # the public call still reads its profile


class TestRecordsCheckedOnEntry:
    """A scene's object and a contact's side and segment are refused where they enter."""

    @pytest.mark.parametrize("obj", [None, (1.0, (2.5, 0.5)), "circle", Flat(), 1.0])
    def test_scene_object_that_is_no_cross_section_rejected(self, obj):
        with pytest.raises(InvalidParams, match="^obj must be a Circle or a ConvexPolygon, got ") as exc:
            GraspScene([(0, 0), (0, 1)], [(5, 0), (5, 1)], 5.0, obj, 0.0)
        assert exc.value.field == "obj"

    def test_scene_object_is_checked_after_the_other_arguments(self):
        for mu, field in ((-1.0, "mu"), (0.0, "obj")):
            with pytest.raises(InvalidParams) as exc:
                GraspScene([(0, 0), (0, 1)], [(5, 0), (5, 1)], 5.0, None, mu)
            assert exc.value.field == field

    @pytest.mark.parametrize("side", [None, "LEFT", "", "middle", 0, ("left",),
                                      np.array(["left", "right"])])
    def test_contact_side_other_than_left_or_right_rejected(self, side):
        with pytest.raises(InvalidParams, match="^side must be 'left' or 'right', got ") as exc:
            Contact((1.0, 2.0), (0.0, 1.0), side, 3)
        assert exc.value.field == "side"

    @pytest.mark.parametrize("segment", [-1, 1.0, True, False, None, "3", np.int64(3)])
    def test_contact_segment_that_is_no_non_negative_int_rejected(self, segment):
        with pytest.raises(InvalidParams, match="^segment must be a non-negative int, got ") as exc:
            Contact((1.0, 2.0), (0.0, 1.0), "right", segment)
        assert exc.value.field == "segment"

    def test_contact_checks_its_fields_in_order(self):
        for point, normal, side, field in (((math.nan, 0.0), (0.0, 1.0), None, "point"),
                                           ((0.0, 0.0), "up", None, "normal"),
                                           ((0.0, 0.0), (0.0, 1.0), None, "side"),
                                           ((0.0, 0.0), (0.0, 1.0), "left", "segment")):
            with pytest.raises(InvalidParams) as exc:
                Contact(point, normal, side, -1)
            assert exc.value.field == field


class TestSceneValidation:
    def test_self_intersecting_profile_rejected(self):
        bow = np.array([[0.0, 0.0], [10.0, 10.0], [10.0, 0.0], [0.0, 10.0]])
        flat = profile(Flat())
        with pytest.raises(InvalidParams):
            GraspScene(left_profile=bow, right_profile=flat, gap=20.0,
                       obj=Circle(5.0, (10.0, 0.0)), mu=0.0)

    @pytest.mark.parametrize("touching", [
        [[-10.0, 0.0], [10.0, 0.0], [0.0, 0.0]],
        [[-10.0, 0.0], [10.0, 0.0], [10.0, 5.0], [0.0, 0.0]],
        [[0.0, 0.0], [10.0, 0.0], [10.0, 5.0], [5.0, 5.0], [5.0, 0.0]],
        [[0.0, 0.0], [0.0, 5.0], [0.0, 2.0]],
        [[3.0, 4.0], [3.0, 4.0]],
        [[0.0, 0.0], [5.0, 0.0], [5.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]],
        [[0.0, 0.0], [1e-170, 0.0]],
    ], ids=["folds-back", "ends-on-first", "corner-on-first", "folds-back-vertical",
            "one-repeated-point", "repeated-end", "repeated-start", "squared-length-underflows"])
    def test_self_touching_profile_rejected(self, touching):
        flat = profile(Flat())
        with pytest.raises(InvalidParams, match="must not self-intersect"):
            GraspScene(left_profile=np.array(touching), right_profile=flat, gap=40.0,
                       obj=Circle(5.0, (20.0, 0.0)), mu=0.0)

    @settings(max_examples=500)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=8))
    def test_self_touch_check_matches_exact_intersection(self, grid_points):
        # On a small integer grid, collinear, touching and repeated points are common.
        points = [[float(x), float(y)] for x, y in grid_points]
        assert grasp._polyline_is_simple(points) is not oracles.polyline_touches_itself(points)

    def test_segment_whose_square_overflows_rejected(self):
        # Its coordinates are finite, but no closest-point test can measure it.
        flat = profile(Flat())
        for huge in ([[-1e308, 0.0], [1e308, 0.0]], [[-1e200, 0.0], [1e200, 0.0]]):
            with pytest.raises(InvalidParams, match="^left_profile must keep each segment's "
                                                    "squared length finite$") as exc:
                scene_between(huge, flat, 20.0, Circle(10.0, (0.0, 5.0)), 0.0)
            assert exc.value.field == "left_profile"

    def test_collinear_primitive_profiles_accepted(self):
        # Flat and tilted-planar profiles are four collinear points.
        lo, hi = attainable_tilt_range(CFG.linkage)
        prims = [Flat()] + [TiltedPlanar(float(t), 0.0) for t in np.linspace(lo, hi, 41)]
        for prim in prims:
            prof = profile(prim)
            scene = scene_between(prof, prof, 80.0, Circle(5.0, (40.0, 0.0)), 0.0)
            assert np.array_equal(scene.left_profile, place_left(prof))

    def test_negative_gap_rejected(self):
        flat = profile(Flat())
        with pytest.raises(InvalidParams):
            GraspScene(left_profile=flat, right_profile=flat, gap=-1.0,
                       obj=Circle(5.0, (10.0, 0.0)), mu=0.0)

    def test_negative_friction_rejected(self):
        flat = profile(Flat())
        with pytest.raises(InvalidParams):
            scene_between(flat, flat, 20.0, Circle(5.0, (10.0, 0.0)), -0.2)

    def test_non_finite_circle_center_rejected(self):
        with pytest.raises(InvalidParams, match="^center must be finite$") as exc:
            Circle(1.0, (math.nan, 0.0))
        assert exc.value.field == "center"

    def test_circle_center_too_large_for_a_float_rejected(self):
        with pytest.raises(InvalidParams, match="^center must be finite$") as exc:
            Circle(1.0, (10**400, 0.0))
        assert exc.value.field == "center"

    @pytest.mark.parametrize("center", [(1.0,), (1.0, 2.0, 3.0), "ab", "12", [[1.0], [2.0]], None,
                                        ["1", "2"]],
                             ids=["one", "three", "letters", "digits", "column", "none",
                                  "numeric-strings"])
    def test_circle_center_that_is_not_a_pair_rejected(self, center):
        with pytest.raises(InvalidParams, match=r"^center must be a pair of numbers \(x, y\)$") as exc:
            Circle(1.0, center)
        assert exc.value.field == "center"

    def test_circle_center_is_read_as_a_pair_of_floats(self):
        for center in ((1, 2), [1.0, 2.0], np.array([1.0, 2.0]), (np.float32(1.0), np.int64(2))):
            c = Circle(1.0, center)
            assert c.center == (1.0, 2.0) and all(type(v) is float for v in c.center)

    @pytest.mark.parametrize("bad", MALFORMED_PROFILES)
    @pytest.mark.parametrize("place, field", [
        (lambda p: scene_between(p, profile(Flat()), 20.0, Circle(5.0, (10.0, 0.0)), 0.0),
         "left_local"),
        (lambda p: scene_between(profile(Flat()), p, 20.0, Circle(5.0, (10.0, 0.0)), 0.0),
         "right_local"),
        (place_left, "profile_local"),
        (lambda p: place_right(p, 20.0), "profile_local"),
    ], ids=["scene_between-left", "scene_between-right", "place_left", "place_right"])
    def test_malformed_local_profile_rejected(self, place, field, bad):
        with pytest.raises(InvalidParams) as exc:
            place(bad)
        assert exc.value.field == field

    def test_scene_between_reads_each_profile_once_local_and_once_placed(self, monkeypatch):
        calls = []
        read = grasp._read_points

        def counted(points, name, least):
            calls.append(name)
            return read(points, name, least)

        monkeypatch.setattr(grasp, "_read_points", counted)
        flat = profile(Flat())
        scene_between(flat, flat, 20.0, Circle(5.0, (10.0, 0.0)), 0.0)
        assert calls == ["left_local", "right_local", "left_profile", "right_profile"]

    @pytest.mark.parametrize("place", [
        lambda p: place_right(p, 1e308),
        lambda p: scene_between(p, p, 1e308, Circle(1.0, (0.0, 0.0)), 0.0),
        lambda p: place_right(p, math.nan),
    ], ids=["place_right", "scene_between", "nan-gap"])
    def test_mirrored_point_out_of_float_range_names_the_gap(self, place):
        # Warnings are errors here: an overflow warning fails the test too.
        with pytest.raises(InvalidParams,
                           match="^gap must keep the mirrored profile's points finite$") as exc:
            place([[0.0, -1e308], [1.0, 0.0]])
        assert exc.value.field == "gap"

    def test_non_convex_polygon_rejected(self):
        arrow = np.array([[0.0, 0.0], [4.0, 1.0], [8.0, 0.0], [4.0, 6.0]])
        with pytest.raises(InvalidParams):
            ConvexPolygon(np.array([[0, 0], [8, 0], [2, 1], [0, 8]], dtype=float))
        with pytest.raises(InvalidParams):
            ConvexPolygon(arrow[::-1])  # clockwise

    def test_polygon_edge_whose_squared_length_underflows_rejected(self):
        # Convex by its cross products, but the edge has no direction in floats.
        with pytest.raises(InvalidParams, match="^vertices must be a strictly convex polygon"):
            ConvexPolygon(np.array([[0.0, 0.0], [1e-170, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("verts", [
        [[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]],
        [[0.0, 0.0], [1e155, 0.0], [0.0, 1e-160]],
    ], ids=["cross-product", "squared-length"])
    def test_polygon_whose_edge_products_overflow_rejected(self, verts):
        # Warnings are errors here: an overflow warning fails the test too.
        with pytest.raises(InvalidParams, match="^vertices must keep each edge's cross product "
                                                "and squared length finite$") as exc:
            ConvexPolygon(verts)
        assert exc.value.field == "vertices"

    @settings(max_examples=200)
    @given(convex_polygons())
    def test_features_and_centroid_match_the_numpy_derivation(self, verts):
        poly = ConvexPolygon(verts)
        features, centroid, reach = oracles.polygon_features_by_numpy(verts)
        assert np.array(poly.features).tobytes() == np.array(features).tobytes()
        assert np.array(poly.centroid).tobytes() == np.array(centroid).tobytes()
        assert poly.reach == reach


class TestClosure:
    def test_frictionless_antipodal_pinch_is_open(self):
        cts = find_contacts(flat_pinch_scene(mu=0.0))
        assert closure_classify(cts, 0.0) is Closure.NONE
        assert not oracle_closed(cts, 0.0)

    def test_frictional_antipodal_pinch_is_force_closure(self):
        cts = find_contacts(flat_pinch_scene())
        assert closure_classify(cts, 0.5) is Closure.FORCE_CLOSURE
        assert oracle_closed(cts, 0.5)

    def test_square_seat_is_form_closure(self):
        cts = find_contacts(square_seat_scene())
        assert closure_classify(cts, 0.0) is Closure.FORM_CLOSURE
        assert oracle_closed(cts, 0.0)

    def test_45deg_square_seat_degenerates_to_open(self):
        # all corner normals pass through the center: rotation unresisted
        cts = find_contacts(square_seat_scene(phi_deg=45.0, half_side=18.0))
        assert len(cts) == 4
        assert closure_classify(cts, 0.0) is Closure.NONE
        assert not oracle_closed(cts, 0.0)

    def test_concave_circle_seat_needs_friction(self):
        cts = find_contacts(concave_seat_scene())
        assert closure_classify(cts, 0.0) is Closure.NONE
        assert closure_classify(cts, 0.5) is Closure.FORCE_CLOSURE

    def test_friction_monotonicity(self):
        cts = find_contacts(concave_seat_scene())
        closed_at = [mu for mu in (0.1, 0.2, 0.4, 0.8, 1.5)
                     if closure_classify(cts, mu) is not Closure.NONE]
        for mu in (m + 0.05 for m in closed_at):
            assert closure_classify(cts, mu) is not Closure.NONE

    def test_form_implies_force(self):
        cts = find_contacts(square_seat_scene())
        for mu in (0.0, 0.3, 1.0):
            assert closure_classify(cts, mu) is Closure.FORM_CLOSURE

    def test_degenerate_contacts_raise(self):
        cts = find_contacts(flat_pinch_scene())
        stacked = [cts[0], cts[0]]
        with pytest.raises(DegenerateContacts):
            closure_classify(stacked, 0.5)

    def test_empty_contacts_rejected(self):
        with pytest.raises(InvalidParams):
            closure_classify([], 0.0)

    @pytest.mark.parametrize("empty, mu, field, message", [
        (True, 0.0, "contacts", "contacts must hold at least one contact"),
        (False, -0.2, "mu", "mu must be non-negative and finite"),
        (False, math.nan, "mu", "mu must be non-negative and finite"),
    ], ids=["no-contacts", "mu-negative", "mu-nan"])
    def test_rejection_names_the_argument(self, empty, mu, field, message):
        cts = [] if empty else find_contacts(flat_pinch_scene())
        with pytest.raises(InvalidParams, match=f"^{message}$") as exc:
            closure_classify(cts, mu)
        assert exc.value.field == field

    @pytest.mark.parametrize("name", INVARIANCE_SCENES)
    def test_class_survives_a_mirror_swap(self, name):
        for mu in INVARIANCE_MUS:
            scene = INVARIANCE_SCENES[name](mu)
            cts, swapped = find_contacts(scene), find_contacts(mirror_swapped(scene))
            other = {"left": "right", "right": "left"}
            assert sorted(other[c.side] for c in swapped) == sorted(c.side for c in cts)
            assert closure_classify(swapped, mu) is closure_classify(cts, mu), mu

    @pytest.mark.parametrize("name", INVARIANCE_SCENES)
    @pytest.mark.parametrize("dx", [-40.0, 2.5, 150.0])
    def test_class_survives_a_shift_along_the_pinch_line(self, name, dx):
        for mu in INVARIANCE_MUS:
            scene = INVARIANCE_SCENES[name](mu)
            cts, moved = find_contacts(scene), find_contacts(shifted(scene, dx))
            assert len(moved) == len(cts)
            assert closure_classify(moved, mu) is closure_classify(cts, mu), mu

    def test_invariance_scenes_cover_every_class(self):
        classes = {closure_classify(find_contacts(make(mu)), mu)
                   for make in INVARIANCE_SCENES.values() for mu in INVARIANCE_MUS}
        assert classes == set(Closure)


class TestPivot:
    def test_convex_pinch_pivots(self):
        cts = find_contacts(convex_pinch_scene())
        assert len(cts) == 2
        assert pivot_feasible(cts)

    def test_flat_pinch_pivots(self):
        assert pivot_feasible(find_contacts(flat_pinch_scene()))

    def test_concave_seat_does_not_pivot(self):
        assert not pivot_feasible(find_contacts(concave_seat_scene()))

    def test_no_contacts_no_pivot(self):
        assert not pivot_feasible([])

    def test_coincident_opposed_contacts_pivot(self):
        # No line joins the two points, so the normals alone decide.
        left = Contact(point=(5.0, 0.0), normal=(1.0, 0.0), side="left", segment=0)
        right = Contact(point=(5.0, 0.0), normal=(-1.0, 0.0), side="right", segment=0)
        assert pivot_feasible([left, right])


def array_bytes(arrays) -> bytes:
    """Each array's dtype, shape and data, joined."""
    return b"".join(a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes() for a in arrays)


# sha256 of array_bytes over the flat pinch, concave seat and square seat:
# each scene's placed profiles, the square's vertices and each contact's
# point and normal, as the numpy path built them before scenes and
# contacts held floats.
SEAT_ARRAYS_SHA256 = "26b0d5885760a411716d183df035f3844c9c0c6ec889e50b5d756b77efca2fb0"


class TestVerdictsOnFloats:
    """The grasp path runs with ``import numpy`` blocked: a None in sys.modules
    makes the import raise ImportError.  The seat scenes are built first, as
    their profiles are read from ``FingertipState.profile_x`` arrays."""

    def test_closure_and_pivot_make_no_numpy_call(self, monkeypatch):
        cases = [(square_seat_scene(), 0.5, Closure.FORM_CLOSURE, False),
                 (concave_seat_scene(), 0.5, Closure.FORCE_CLOSURE, False),
                 (flat_pinch_scene(), 0.0, Closure.NONE, True)]
        monkeypatch.setitem(sys.modules, "numpy", None)
        contacts = [find_contacts(scene) for scene, *_ in cases]
        for cts, (_, mu, closure, pivot) in zip(contacts, cases):
            assert closure_classify(cts, mu) is closure
            assert pivot_feasible(cts) is pivot
        with pytest.raises(DegenerateContacts):
            closure_classify([contacts[0][0]] * 2, 0.5)

    def test_grasp_path_makes_no_numpy_call(self, monkeypatch):
        flat, concave = profile(Flat()), profile(Concave(math.radians(20.0)))
        scenes = (flat_pinch_scene(), concave_seat_scene(mu=0.5), square_seat_scene(mu=0.5))
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "numpy", None)
            contacts = [find_contacts(scene) for scene in scenes]
            assert [(len(cts), closure_classify(cts, scene.mu), pivot_feasible(cts))
                    for scene, cts in zip(scenes, contacts)] == [
                (2, Closure.NONE, True), (4, Closure.FORCE_CLOSURE, False),
                (4, Closure.FORM_CLOSURE, False)]
            low, mid, high = (cradle_height(concave, 88.0, u) for u in (-0.1, 0.0, 0.1))
            assert mid < min(low, high)
            for overlapping in (Circle(10.0, (9.0, 0.0)), ConvexPolygon(
                    np.array([[-1.0, -5.0], [9.0, -5.0], [9.0, 5.0], [-1.0, 5.0]]))):
                with pytest.raises(Penetration):
                    find_contacts(scene_between(flat, flat, 18.0, overlapping, 0.0))
        arrays = []
        for scene, cts in zip(scenes, contacts):
            arrays += [scene.left_profile, scene.right_profile]
            if isinstance(scene.obj, ConvexPolygon):
                arrays.append(scene.obj.vertices)
            for c in cts:
                arrays += [c.point, c.normal]
        assert hashlib.sha256(array_bytes(arrays)).hexdigest() == SEAT_ARRAYS_SHA256


SEATS = [pytest.param(flat_pinch_scene, id="flat-pinch"),
         pytest.param(concave_seat_scene, id="concave-seat"),
         pytest.param(square_seat_scene, id="square-seat")]


class TestScenesCompareByValue:
    """Scenes, objects and contacts compare and hash by the floats they hold."""

    @pytest.mark.parametrize("build", SEATS)
    def test_contacts_found_twice_are_equal(self, build):
        scene = build()
        first, again = find_contacts(scene), find_contacts(scene)
        assert all(a is not b for a, b in zip(first, again))
        assert first == again
        assert list(map(hash, first)) == list(map(hash, again))

    @pytest.mark.parametrize("build", SEATS)
    def test_scene_rebuilt_from_its_floats_is_equal(self, build):
        scene = build()
        obj = scene.obj
        if isinstance(obj, Circle):
            twin = Circle(obj.radius, obj.center)
        else:
            twin = ConvexPolygon([list(v) for v in obj.vertex_points])
        assert twin == obj and hash(twin) == hash(obj)
        rebuilt = GraspScene(scene.left_points, scene.right_points, scene.gap, twin, scene.mu)
        assert rebuilt is not scene
        assert rebuilt == scene and hash(rebuilt) == hash(scene)
        assert build() == scene
        assert scene.replace(mu=scene.mu + 0.5) != scene


@st.composite
def contact_sets(draw):
    """(points, normals, sides, mu, pinch): 2-8 contacts, up to 16 wrench rays.

    Points lie within 30 mm of the origin and normals point anywhere; mu is
    0 or in [0.02, 1], so friction doubles the rays.  When ``pinch`` is set
    the first two contacts, one per side, sit on a line along their own
    opposed normals, as the contacts of a pivot pinch do.
    """
    n = draw(st.integers(2, 8))
    mu = draw(st.one_of(st.just(0.0), st.floats(0.02, 1.0)))
    coord = st.floats(-30.0, 30.0)
    points = [(draw(coord), draw(coord)) for _ in range(n)]
    normals = [(math.cos(a), math.sin(a)) for a in draw(
        st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n))]
    sides = draw(st.lists(st.sampled_from(("left", "right")), min_size=n, max_size=n))
    pinch = draw(st.booleans())
    if pinch:
        (x, y), (c, s), length = points[0], normals[0], draw(st.floats(1.0, 60.0))
        points[1], normals[1] = (x + length * c, y + length * s), (-c, -s)
        sides[:2] = ["left", "right"]
    return points, normals, sides, mu, pinch


class TestClosureOverRandomContactSets:
    @settings(max_examples=300)
    @given(contact_sets())
    def test_verdicts_match_wrench_sampling_for_arrays_and_tuples(self, case):
        points, normals, sides, mu, pinch = case
        assume(max(math.dist(p, points[0]) for p in points) > DEDUP_TOL)
        arrays = [Contact(point=np.array(p), normal=np.array(n), side=side, segment=0)
                  for p, n, side in zip(points, normals, sides)]
        tuples = [Contact(point=p, normal=n, side=side, segment=0)
                  for p, n, side in zip(points, normals, sides)]
        verdict = closure_classify(arrays, mu)
        assert closure_classify(tuples, mu) is verdict
        assert (verdict is not Closure.NONE) == oracles.closed_by_wrench_sampling(
            points, normals, mu)
        assert (verdict is Closure.FORM_CLOSURE) == oracles.closed_by_wrench_sampling(
            points, normals, 0.0)
        pivot = pivot_feasible(arrays)
        assert pivot_feasible(tuples) is pivot
        if pinch and len(points) == 2:
            assert pivot


# Friction coefficients at which the flat pinch of a 10 mm circle, or a
# smaller one, flips between open and force closure, and some either side.
PINCH_FLIP_MUS = (1e-12, math.sqrt(2.0) * HULL_TOL, 0.05, 2.0, 7.07e8, 1e9)


def scan_only_grade(contacts, mu: float) -> Closure:
    """closure_classify with no contact pair certifying: the facet scan decides alone."""
    with mock.patch.object(grasp, "_PAIR_TOL", math.inf):
        return closure_classify(contacts, mu)


def counting_scans(monkeypatch) -> list[int]:
    """The number of rays of each later _origin_strictly_inside call at HULL_TOL, as they happen.

    A pair certificate's scan, at the margin _PAIR_TOL, is not counted.
    """
    sizes, scan = [], grasp._origin_strictly_inside

    def counted(rays, margin=HULL_TOL):
        if margin == HULL_TOL:
            sizes.append(len(rays))
        return scan(rays, margin)

    monkeypatch.setattr(grasp, "_origin_strictly_inside", counted)
    return sizes


class TestPairCertificate:
    @settings(max_examples=300)
    @given(two_sided_contacts(), st.one_of(st.sampled_from(PINCH_FLIP_MUS), st.floats(0.0, 3.0)))
    def test_grade_equals_the_scan_only_grade(self, contacts, mu):
        first = contacts[0].point_xy
        assume(max(math.dist(c.point_xy, first) for c in contacts) > DEDUP_TOL)
        assert closure_classify(contacts, mu) is scan_only_grade(contacts, mu)

    @pytest.mark.parametrize("mu", PINCH_FLIP_MUS)
    @pytest.mark.parametrize("build", [concave_seat_scene, square_seat_scene,
                                       lopsided_square_scene, lambda mu: arc_seat_scene(8, mu)],
                             ids=["concave-seat", "square-seat", "lopsided-square", "arc-seat-8"])
    def test_seats_at_the_pinch_flips_grade_as_the_scan_does(self, build, mu):
        contacts = find_contacts(build(mu=mu))
        assert closure_classify(contacts, mu) is scan_only_grade(contacts, mu)

    def test_concave_seat_is_certified_by_a_pair(self, monkeypatch):
        contacts = find_contacts(concave_seat_scene(mu=0.5))
        sizes = counting_scans(monkeypatch)
        assert closure_classify(contacts, 0.5) is Closure.FORCE_CLOSURE
        assert sizes == [4]  # the form test's four normal rays only

    def test_many_contact_seat_skips_the_force_scan(self, monkeypatch):
        # The scan over all 256 friction rays took tens of seconds here.
        contacts = find_contacts(arc_seat_scene(64))
        assert len(contacts) == 128
        sizes = counting_scans(monkeypatch)
        assert closure_classify(contacts, 0.3) is Closure.FORCE_CLOSURE
        assert sizes == [128]  # the form test's normal rays; no friction ray is scanned

    @pytest.mark.parametrize("build, verdict", [(concave_seat_scene, Closure.FORCE_CLOSURE),
                                                (square_seat_scene, Closure.FORM_CLOSURE)],
                             ids=["concave-seat", "square-seat"])
    def test_wrench_rays_are_built_once_per_call(self, monkeypatch, build, verdict):
        contacts = find_contacts(build(mu=0.5))
        assert len(contacts) == 4
        calls, build_rays = [], grasp._wrench_rays

        def counted(*args):
            calls.append(args)
            return build_rays(*args)

        monkeypatch.setattr(grasp, "_wrench_rays", counted)
        assert closure_classify(contacts, 0.5) is verdict
        assert len(calls) == 1


class TestOracleAgreement:
    def test_classifier_agrees_with_wrench_sampling_on_100_scenes(self):
        rng = np.random.default_rng(20260809)
        checked = 0
        while checked < 100:
            kind = checked % 4
            if kind == 0:
                # random circle pinches, both frictionless and frictional
                c_y = float(rng.uniform(-10.0, 10.0))
                mu = float(rng.choice([0.0, 0.3, 0.7]))
                cts = find_contacts(flat_pinch_scene(mu=mu, c_y=c_y))
            elif kind == 1:
                phi_deg = float(rng.uniform(16.0, 28.0))
                phi = math.radians(phi_deg)
                r_min = L_OC / math.tan(phi / 2.0)
                r = float(r_min * rng.uniform(1.01, 1.05))
                mu = float(rng.choice([0.0, 0.4, 1.0]))
                cts = find_contacts(concave_seat_scene(phi_deg, r, mu))
            elif kind == 2:
                phi_deg = float(rng.uniform(25.0, 40.0))
                half = float(rng.uniform(17.0, 25.0))
                mu = float(rng.choice([0.0, 0.5]))
                cts = find_contacts(square_seat_scene(phi_deg, half, mu))
            else:
                # synthetic contact ring on a circle
                k = int(rng.integers(2, 6))
                angles = np.sort(rng.uniform(0.0, 2 * np.pi, k))
                r = 10.0
                pts = np.column_stack([r * np.cos(angles), r * np.sin(angles)])
                normals = -pts / r
                mu = float(rng.choice([0.0, 0.3, 0.8]))
                cts = [Contact(point=p, normal=n, side="left", segment=0)
                       for p, n in zip(pts, normals)]
            mu_used = mu
            verdict = closure_classify(cts, mu_used) is not Closure.NONE
            brute = oracle_closed(cts, mu_used)
            assert verdict == brute, f"scene {checked}: classifier {verdict}, oracle {brute}"
            checked += 1


_COMPONENT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_UNIT = (st.tuples(_COMPONENT, _COMPONENT, _COMPONENT)
         .filter(lambda v: math.hypot(*v) > 0.1)
         .map(lambda v: np.array(v) / math.hypot(*v)))


@st.composite
def ray_sets(draw):
    """(kind, rays): 4-16 unit rays, free or shaped so the origin is not inside.

    ``coplanar`` rays lie on one circle of the sphere, ``half_space`` rays
    in one closed half-space, and ``origin_on_facet`` puts three rays
    around the origin on a great circle with every other ray on one side.
    """
    kind = draw(st.sampled_from(("free", "coplanar", "half_space", "origin_on_facet")))
    rays = np.array(draw(st.lists(_UNIT, min_size=4, max_size=16)))
    u = draw(_UNIT)
    # e1, e2 span the plane through the origin normal to u.
    e1 = np.cross(u, [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    along = rays @ u
    if kind == "coplanar":
        c = draw(st.sampled_from((0.0, 0.3, -0.7)))
        turn = np.arctan2(rays @ e2, rays @ e1)[:, None]
        rays = math.sqrt(1.0 - c * c) * (np.cos(turn) * e1 + np.sin(turn) * e2) + c * u
    elif kind == "half_space":
        rays = np.where(along[:, None] < 0.0, -rays, rays)
    elif kind == "origin_on_facet":
        start = draw(st.floats(0.0, 2.0 * math.pi))
        jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3))
        ring = [start + 2.0 * math.pi * q / 3.0 + jitter[q] for q in range(3)]
        facet = np.array([math.cos(t) * e1 + math.sin(t) * e2 for t in ring])
        rest = rays[3:] - np.outer(along[3:], u) + np.outer(0.1 + np.abs(along[3:]), u)
        rest /= np.linalg.norm(rest, axis=1, keepdims=True)
        rays = np.vstack([facet, rest])
    return kind, rays


class TestFacetTestAgainstQhull:
    @settings(max_examples=400)
    @given(ray_sets())
    def test_matches_qhull_verdict(self, case):
        kind, rays = case
        verdict = _origin_strictly_inside([tuple(ray) for ray in rays.tolist()])
        assert verdict == oracles.closed_by_qhull(rays, HULL_TOL)
        if kind != "free":
            assert not verdict


# Small integer components: every cross product, height and sum of the
# facet test is exact, so a flat quadruple is exactly flat.
_GRID = st.tuples(*[st.integers(-4, 4).map(float)] * 3)


@st.composite
def flat_quadruples(draw):
    """Four grid rays, in any order, that are coplanar, hold a collinear triple or repeat one."""
    a, b, c = draw(_GRID), draw(_GRID), draw(_GRID)
    s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    kind = draw(st.sampled_from(("coplanar", "collinear", "equal")))
    if kind == "coplanar":
        d = tuple(ai + s * (bi - ai) + t * (ci - ai) for ai, bi, ci in zip(a, b, c))
    elif kind == "collinear":
        c, d = tuple(ai + s * (bi - ai) for ai, bi in zip(a, b)), draw(_GRID)
    else:
        b, d = a, draw(_GRID)
    return draw(st.permutations([a, b, c, d]))


@st.composite
def certifiable_quadruples(draw):
    """Four unit rays, the fourth along minus a positive sum of the others.

    The origin is then inside their hull unless the rays are flat, as
    drawn rays that repeat or lie on one great circle are.
    """
    rays = [tuple(draw(_UNIT).tolist()) for _ in range(3)]
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(3)]
    fourth = [-sum(w * ray[k] for w, ray in zip(weights, rays)) for k in range(3)]
    size = math.hypot(*fourth)
    rays.append(tuple(x / size for x in fourth) if size > 1e-3 else tuple(draw(_UNIT).tolist()))
    return rays


class TestFacetTestOnFourRays:
    @settings(max_examples=300)
    @given(flat_quadruples())
    def test_a_flat_quadruple_never_certifies(self, rays):
        assert not _origin_strictly_inside(rays, grasp._PAIR_TOL)
        assert not _origin_strictly_inside(rays)

    @settings(max_examples=300)
    @given(certifiable_quadruples(), st.lists(_UNIT, max_size=4), st.data())
    def test_a_certified_quadruple_passes_the_scan_among_more_rays(self, rays, more, data):
        together = data.draw(st.permutations(rays + [tuple(ray.tolist()) for ray in more]))
        if _origin_strictly_inside(rays, grasp._PAIR_TOL):
            assert _origin_strictly_inside(rays)
            assert _origin_strictly_inside(together)

    def test_a_pinch_whose_cone_edges_all_but_merge_is_open(self):
        # Both normals push the object down and to the left.  At this mu each
        # contact's two cone edges nearly coincide, so the planes through both
        # span none; the scan must not trust the two planes left, which
        # rounding can put on either side of the origin.
        mu = 2.864545147553637e-12
        points = [(15.578324186369365, -8.194094199248706), (12.268174440402184, -13.148876651272559)]
        normals = [(math.cos(a), math.sin(a)) for a in (4.36428009056456, 4.172150937148223)]
        contacts = [Contact(p, n, side, 0) for p, n, side in zip(points, normals, ("left", "right"))]
        assert not oracles.closed_by_wrench_sampling(points, normals, mu)
        assert closure_classify(contacts, mu) is Closure.NONE

    def test_a_pair_whose_cone_edges_all_but_merge_does_not_certify(self):
        mu = 2.6612992955986765e-12
        rows = [(-19.254216722163967, -12.269150530276002, 0.7924626367367443, 0.6099204615162921),
                (-4.978514318207441, 12.518009287607772, 0.23885078972888069, -0.971056280678875),
                (-14.00080804082804, 25.303158042358596, 0.6442513297038802, -0.7648138493612562),
                (-2.7104219367367244, 1.6265745313280742, 0.9923983887580674, 0.12306680295835984)]
        _, cones = grasp._wrench_rays(rows, False, mu)
        assert not _origin_strictly_inside(cones[2:6], grasp._PAIR_TOL)
        contacts = [Contact(row[:2], row[2:], side, 0)
                    for row, side in zip(rows, ("left", "left", "right", "left"))]
        assert closure_classify(contacts, mu) is Closure.NONE
