import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from morphtip import (
    Circle,
    Closure,
    Concave,
    Convex,
    ConvexPolygon,
    DegenerateContacts,
    FingertipConfig,
    Flat,
    GraspScene,
    InvalidParams,
    Penetration,
    Unsupported,
    closure_classify,
    cradle_height,
    find_contacts,
    pivot_feasible,
    plan_primitive,
    scene_between,
)
from morphtip.grasp import HULL_TOL, _origin_strictly_inside

CFG = FingertipConfig()
L_OC = CFG.linkage.l_oc


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

    def test_supports_profile_pair(self):
        left = profile(Concave(math.radians(20.0)))
        right = left + np.array([80.0, 0.0])
        h = cradle_height([left, right], 50.0, 40.0)
        # resting on the two inner facet tips
        assert h > 0

    def test_bad_radius_rejected(self):
        with pytest.raises(InvalidParams):
            cradle_height(profile(Flat()), -1.0, 0.0)


class TestSceneValidation:
    def test_self_intersecting_profile_rejected(self):
        bow = np.array([[0.0, 0.0], [10.0, 10.0], [10.0, 0.0], [0.0, 10.0]])
        flat = profile(Flat())
        with pytest.raises(InvalidParams):
            GraspScene(left_profile=bow, right_profile=flat, gap=20.0,
                       obj=Circle(5.0, (10.0, 0.0)), mu=0.0)

    def test_negative_gap_rejected(self):
        flat = profile(Flat())
        with pytest.raises(InvalidParams):
            GraspScene(left_profile=flat, right_profile=flat, gap=-1.0,
                       obj=Circle(5.0, (10.0, 0.0)), mu=0.0)

    def test_negative_friction_rejected(self):
        flat = profile(Flat())
        with pytest.raises(InvalidParams):
            scene_between(flat, flat, 20.0, Circle(5.0, (10.0, 0.0)), -0.2)

    def test_non_convex_polygon_rejected(self):
        arrow = np.array([[0.0, 0.0], [4.0, 1.0], [8.0, 0.0], [4.0, 6.0]])
        with pytest.raises(InvalidParams):
            ConvexPolygon(np.array([[0, 0], [8, 0], [2, 1], [0, 8]], dtype=float))
        with pytest.raises(InvalidParams):
            ConvexPolygon(arrow[::-1])  # clockwise


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
                cts = [
                    type("C", (), {"point": p, "normal": n, "side": "left", "segment": 0})()
                    for p, n in zip(pts, normals)
                ]
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
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(ray_sets())
    def test_matches_qhull_verdict(self, case):
        kind, rays = case
        verdict = _origin_strictly_inside(rays)
        assert verdict == oracles.closed_by_qhull(rays, HULL_TOL)
        if kind != "free":
            assert not verdict
