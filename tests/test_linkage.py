import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from strategies import fingertip_configs, fractions, linkage_params, zero_free_configs
from morphtip import (
    InvalidParams,
    LinkageParams,
    OutOfRange,
    Unreachable,
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

# Frozen from the high-precision vector-chain oracle (mpmath, 40 digits).
PHI_AT_9DEG = 0.5574375790948994
PHI_AT_MINUS_3DEG = -0.09257647690393736
RAY_ANGLE_AT_6DEG = 0.05235987755982989


class TestParams:
    def test_neutral_height_is_derived(self, params):
        assert params.oa_y == pytest.approx(-params.l_ab * math.cos(params.alpha0))

    @given(linkage_params())
    def test_flat_neutral_is_exact_on_random_geometries(self, p):
        assert p.oa_y == -p.l_ab * math.cos(p.alpha0)
        assert forward_facet(p, 0.0) == 0.0
        assert inverse_facet(p, 0.0) == 0.0
        assert solve_planar_pair(p, 0.0) == (0.0, 0.0)
        with pytest.raises(TypeError):
            LinkageParams(oa_y=p.oa_y)

    def test_jam_only_stroke_rejected(self):
        # The default geometry jams just above +15.5 deg.
        with pytest.raises(InvalidParams, match="entirely in the jam zone"):
            LinkageParams(theta_min=math.radians(30.0), theta_max=math.radians(35.0))

    def test_slider_must_start_outward_of_hinge(self):
        with pytest.raises(InvalidParams):
            LinkageParams(l_oc=25.0)

    @pytest.mark.parametrize("field,value", [
        ("l_oc", -1.0), ("l_ab", 0.0), ("alpha0", 0.0),
        ("alpha0", math.pi / 2), ("l_ab", float("nan")),
        ("oa_x", float("inf")), ("theta_min", math.radians(40.0)), ("oa_x", -20.0),
    ])
    def test_bad_scalars_rejected(self, field, value):
        with pytest.raises(InvalidParams) as exc:
            LinkageParams(**{field: value})
        assert exc.value.field == field
        assert str(exc.value).startswith(field + " ")

    @pytest.mark.parametrize("lengths,field", [
        ({"l_ab": 1e308}, "l_ab"),
        ({"oa_x": 1.7e308, "l_ab": 1e307}, "oa_x"),
        ({"l_oc": 1e308, "oa_x": 1e308}, "l_oc"),
        ({"oa_x": 1e308, "l_ab": 9e307}, "oa_x"),
    ])
    def test_lengths_whose_points_overflow_rejected(self, lengths, field):
        with pytest.raises(InvalidParams) as exc:
            LinkageParams(**lengths)
        assert exc.value.field == field
        assert str(exc.value) == f"{field} is too large: its points must be finite"

    @pytest.mark.parametrize("lengths", [{"l_ab": 8e307}, {"oa_x": 1.7e308}])
    def test_largest_accepted_lengths_place_finite_points(self, lengths):
        p = LinkageParams(**lengths)
        for theta in np.linspace(*operating_range(p), 101):
            assert all(map(math.isfinite, slider_point(p, theta)))
            assert math.isfinite(forward_facet(p, theta))


zero_free_linkages = zero_free_configs().map(lambda cfg: cfg.linkage)
# Geometries from the shared screen, and ones whose stroke excludes 0.
any_stroke = st.one_of(linkage_params(), zero_free_linkages)


class TestStoredOperatingRange:
    """The range is derived once from the fields, like oa_y, and is not itself one."""

    @given(any_stroke, fractions)
    def test_equals_the_closed_form_also_after_replace(self, p, f):
        assert operating_range(p) == oracles.operating_range_closed_form(p, 1e-9)
        lo, hi = operating_range(p)
        q = p.replace(theta_min=lo + 0.9 * f * (hi - lo))
        assert operating_range(q) == oracles.operating_range_closed_form(q, 1e-9)
        assert operating_range(q) == (q.theta_min, hi)

    @given(any_stroke)
    def test_is_no_argument_and_not_in_repr_or_equality(self, p):
        with pytest.raises(TypeError):
            LinkageParams(operating_range=p.operating_range)
        with pytest.raises(ValueError):
            p.replace(operating_range=p.operating_range)
        assert "operating_range" not in repr(p)
        q = p.replace()
        object.__setattr__(q, "operating_range", (0.0, 0.0))
        assert q == p and hash(q) == hash(p)


class TestForward:
    def test_neutral_is_exactly_flat(self, params):
        assert forward_facet(params, 0.0) == 0.0

    def test_positive_theta_is_concave(self, params):
        phi = forward_facet(params, math.radians(9.0))
        assert phi > 0
        assert phi == pytest.approx(PHI_AT_9DEG, abs=1e-12)

    def test_negative_theta_is_convex(self, params):
        phi = forward_facet(params, math.radians(-3.0))
        assert phi < 0
        assert phi == pytest.approx(PHI_AT_MINUS_3DEG, abs=1e-12)

    def test_stepped_sweep_is_strictly_decreasing_through_zero(self, params):
        # 13 commands stepping down 3 degrees from the concave side.
        thetas = [math.radians(15.0 - 3.0 * i) for i in range(13)]
        phis = [forward_facet(params, t) for t in thetas]
        assert all(a > b for a, b in zip(phis, phis[1:]))
        assert phis[5] == 0.0
        assert phis[0] > 0 > phis[-1]

    def test_wide_geometry_supports_symmetric_13_step_sweep(self):
        # A slightly wider servo mount allows the +18..-18 degree protocol.
        p = LinkageParams(oa_x=12.0)
        thetas = [math.radians(18.0 - 3.0 * i) for i in range(13)]
        phis = [forward_facet(p, t) for t in thetas]
        assert all(a > b for a, b in zip(phis, phis[1:]))
        assert phis[6] == 0.0

    def test_jam_raises(self, params):
        with pytest.raises(OutOfRange):
            forward_facet(params, math.radians(18.0))

    def test_crank_flip_raises(self, params):
        with pytest.raises(OutOfRange):
            forward_facet(params, math.radians(31.0))

    def test_nan_theta_rejected(self, params):
        with pytest.raises(InvalidParams):
            forward_facet(params, float("nan"))

    def test_jam_message(self, params):
        with pytest.raises(OutOfRange) as exc:
            forward_facet(params, math.radians(20.0))
        assert str(exc.value) == ("slider inside the hinge (guide x = -1.52704 mm) at "
                                  "theta=0.349066 rad: mechanism jam")

    def test_monotone_over_operating_range(self, params):
        lo, hi = operating_range(params)
        grid = np.linspace(lo, hi, 10_000)
        phis = oracles.facet_angle_grid(params, grid)
        assert np.all(np.diff(phis) > 0)

    def test_matches_direct_vector_chain_on_grid(self, params):
        lo, hi = operating_range(params)
        grid = np.linspace(lo, hi, 500)
        expected = oracles.facet_angle_grid(params, grid)
        got = np.array([forward_facet(params, t) for t in grid])
        assert np.max(np.abs(got - expected)) < 1e-14


class TestRanges:
    def test_operating_range_endpoints_valid(self, params):
        lo, hi = operating_range(params)
        forward_facet(params, lo)
        forward_facet(params, hi)
        assert lo == pytest.approx(params.theta_min)
        # Concave side is jam-limited before the commanded +36 degrees.
        assert hi < math.radians(16.0)

    def test_operating_range_matches_scan(self, params):
        lo, hi = operating_range(params)
        scan_lo, scan_hi = oracles.attainable_phi_by_scan(params)
        a_lo, a_hi = attainable_facet_range(params)
        assert a_lo == pytest.approx(scan_lo, abs=1e-4)
        assert a_hi == pytest.approx(scan_hi, abs=1e-4)
        assert lo < hi


class TestInverse:
    def test_flat_target_is_exact_zero(self, params):
        assert inverse_facet(params, 0.0) == 0.0

    def test_roundtrip_at_9deg(self, params):
        theta = math.radians(9.0)
        back = inverse_facet(params, forward_facet(params, theta))
        assert back == pytest.approx(theta, abs=1e-6)

    def test_roundtrip_1000_random(self, params):
        rng = np.random.default_rng(7)
        lo, hi = operating_range(params)
        thetas = rng.uniform(lo, hi, 1000)
        worst = max(
            abs(inverse_facet(params, forward_facet(params, t)) - t) for t in thetas
        )
        assert worst < 1e-6

    def test_unreachable_above_scanned_max(self, params):
        _, phi_max = oracles.attainable_phi_by_scan(params)
        with pytest.raises(Unreachable) as exc:
            inverse_facet(params, phi_max + 0.1)
        lo, hi = exc.value.attainable
        assert lo < 0 < hi

    def test_unreachable_message_and_interval(self, params):
        with pytest.raises(Unreachable) as exc:
            inverse_facet(params, 2.0)
        assert str(exc.value) == ("facet angle 2.000000 rad not attainable; "
                                  "reachable interval is [-0.605454, 1.570796] rad")
        assert exc.value.attainable == attainable_facet_range(params)

    def test_unreachable_below_scanned_min(self, params):
        phi_min, _ = oracles.attainable_phi_by_scan(params)
        with pytest.raises(Unreachable):
            inverse_facet(params, phi_min - 0.1)

    def test_bisect_route_agrees_with_closed_form(self, params):
        rng = np.random.default_rng(11)
        lo, hi = operating_range(params)
        phis = oracles.facet_angle_grid(params, rng.uniform(lo, hi, 1000))
        for phi in phis:
            a = inverse_facet(params, float(phi))
            b = oracles.inverse_facet_by_bisection(params, float(phi), lo, hi)
            assert abs(a - b) <= 1e-9


class TestPlanar:
    def test_neutral_ray_is_horizontal(self, params):
        assert planar_condition_angle(params, 0.0) == 0.0

    def test_positive_theta_raises_the_ray(self, params):
        angle = planar_condition_angle(params, math.radians(6.0))
        assert angle > 0
        assert angle == pytest.approx(RAY_ANGLE_AT_6DEG, abs=1e-12)

    def test_pair_at_zero_tilt(self, params):
        assert solve_planar_pair(params, 0.0) == (0.0, 0.0)

    def test_pair_at_5deg(self, params):
        tilt = math.radians(5.0)
        tp, tn = solve_planar_pair(params, tilt)
        assert tp > 0 > tn
        assert planar_condition_angle(params, tp) == pytest.approx(tilt, abs=1e-12)
        assert planar_condition_angle(params, tn) == pytest.approx(-tilt, abs=1e-12)
        assert tilt_line_residual(params, tp, tn) < 1e-9

    @pytest.mark.parametrize("thetas,error,field", [
        ((3.0, math.nan), OutOfRange, None),  # theta_pos jams before theta_neg is checked
        ((0.1, math.nan), InvalidParams, "theta"),
        ((math.nan, 3.0), InvalidParams, "theta"),
    ])
    def test_residual_errors_in_argument_order(self, params, thetas, error, field):
        with pytest.raises(error) as exc:
            tilt_line_residual(params, *thetas)
        assert type(exc.value) is error
        assert getattr(exc.value, "field", None) == field

    def test_pair_100_random_tilts(self, params):
        rng = np.random.default_rng(3)
        lo, hi = attainable_tilt_range(params)
        for tilt in rng.uniform(lo * 0.999, hi * 0.999, 100):
            tp, tn = solve_planar_pair(params, float(tilt))
            assert tilt_line_residual(params, tp, tn) < 1e-9
            if tilt > 1e-12:
                assert tp > 0 > tn
            elif tilt < -1e-12:
                assert tp < 0 < tn

    def test_unreachable_tilt(self, params):
        _, hi = attainable_tilt_range(params)
        with pytest.raises(Unreachable):
            solve_planar_pair(params, hi + 0.1)

    def test_unreachable_tilt_message_and_interval(self, params):
        with pytest.raises(Unreachable) as exc:
            solve_planar_pair(params, 0.5)
        assert str(exc.value) == ("tilt 0.500000 rad not attainable; "
                                  "reachable interval is [-0.135459, 0.135459] rad")
        assert exc.value.attainable == attainable_tilt_range(params)

    @given(zero_free_linkages, st.floats(-0.5, 0.5))
    def test_a_stroke_excluding_zero_attains_no_tilt(self, p, tilt):
        lo, hi = operating_range(p)
        message = (f"no tilt is attainable: the operating range [{lo:.6f}, {hi:.6f}] rad "
                   "excludes the flat-neutral command 0")
        for solve in (lambda: attainable_tilt_range(p), lambda: solve_planar_pair(p, tilt)):
            with pytest.raises(Unreachable) as exc:
                solve()
            assert str(exc.value) == message
            assert exc.value.attainable is None

    def test_slider_behind_the_ball_joint_raises(self):
        # The servo axis sits behind the ball joint, so a 45-degree command swings
        # the slider behind it while the crank stays inside its half-turn.
        p = LinkageParams(l_oc=5.0, l_ab=20.0, alpha0=math.radians(60.0), oa_x=-10.0)
        with pytest.raises(OutOfRange) as exc:
            planar_condition_angle(p, math.radians(45.0))
        assert str(exc.value) == "slider behind the ball joint (x = -4.82362 mm) at theta=0.785398 rad"

    def test_tilt_range_matches_scan(self, params):
        lo, hi = operating_range(params)
        grid = np.linspace(lo, hi, 100_000)
        angles = oracles.slider_ray_angle_grid(params, grid)
        t_scan = min(float(angles.max()), -float(angles.min()))
        _, t = attainable_tilt_range(params)
        assert t == pytest.approx(t_scan, abs=1e-4)


class TestRandomGeometries:
    """Properties over random valid geometries, not only the default one."""

    @given(linkage_params(), st.lists(fractions, min_size=1, max_size=8))
    def test_fk_ik_roundtrip_agrees_with_bisection(self, params, fracs):
        lo, hi = operating_range(params)
        # At an end of the range the root sits on the bracket's end, where
        # rounding gives its residual either sign; widen the bracket a little.
        wide = (lo - 1e-7, hi + 1e-7)
        for f in fracs:
            theta = min(lo + f * (hi - lo), hi)
            phi = forward_facet(params, theta)
            back = inverse_facet(params, phi)
            assert abs(back - theta) <= 1e-9
            assert abs(back - oracles.inverse_facet_by_bisection(params, phi, *wide)) <= 1e-9

    @given(linkage_params())
    def test_phi_monotone_over_operating_range(self, params):
        lo, hi = operating_range(params)
        phis = [forward_facet(params, float(t)) for t in np.linspace(lo, hi, 400)]
        assert all(a < b for a, b in zip(phis, phis[1:]))

    @given(linkage_params())
    def test_targets_past_the_attainable_ends_are_unreachable(self, params):
        lo, hi = operating_range(params)
        ends = (forward_facet(params, lo), forward_facet(params, hi))
        for target in (ends[0] - 1e-6, ends[1] + 1e-6):
            with pytest.raises(Unreachable) as exc:
                inverse_facet(params, target)
            assert exc.value.attainable == ends

    @given(linkage_params(), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
    def test_planar_pairs_match_the_ray_oracle(self, params, fracs):
        _, t = attainable_tilt_range(params)
        for f in fracs:
            tilt = f * t
            tp, tn = solve_planar_pair(params, tilt)
            rays = oracles.slider_ray_angle_grid(params, np.array([tp, tn]))
            assert abs(rays[0] - tilt) <= 1e-9
            assert abs(rays[1] + tilt) <= 1e-9
            assert tilt_line_residual(params, tp, tn) < 1e-9


def _along_and_across(params, theta: float, origin: float, angle: float) -> tuple[float, float]:
    """Slider offset from ``(origin, 0)`` along the ray at angle, and across it
    relative to its length, from the raw vector chain."""
    a = params.alpha0 - theta
    dx = params.oa_x + params.l_ab * math.sin(a) - origin
    dy = -params.l_ab * math.cos(params.alpha0) + params.l_ab * math.cos(a)
    c, s = math.cos(angle), math.sin(angle)
    return dx * c + dy * s, abs(dy * c - dx * s) / math.hypot(dx, dy)


class TestRayDirection:
    """A returned command puts the slider ahead on the requested ray, never on
    its backward extension; angles are drawn over the whole circle and over
    (a little past) the attainable interval."""

    @given(linkage_params(), st.lists(st.floats(-math.pi, math.pi), max_size=6),
           st.lists(st.floats(-0.1, 1.1), max_size=6))
    def test_inverse_facet(self, params, angles, fracs):
        lo, hi = operating_range(params)
        a_lo, a_hi = attainable_facet_range(params)
        wide = (lo - 1e-7, hi + 1e-7)
        for phi in angles + [a_lo + f * (a_hi - a_lo) for f in fracs]:
            attainable = a_lo < phi < a_hi
            try:
                theta = inverse_facet(params, phi)
            except Unreachable:
                assert not attainable, phi
                continue
            assert lo <= theta <= hi
            along, across = _along_and_across(params, theta, params.l_oc, phi)
            assert along > 0.0 and across <= 1e-9, (phi, theta)
            if attainable:
                assert abs(theta - oracles.inverse_facet_by_bisection(params, phi, *wide)) <= 1e-9

    @given(linkage_params(), st.lists(st.floats(-math.pi, math.pi), max_size=6),
           st.lists(st.floats(-1.1, 1.1), max_size=6))
    def test_solve_planar_pair(self, params, angles, fracs):
        lo, hi = operating_range(params)
        t = attainable_tilt_range(params)[1]
        for tilt in angles + [f * t for f in fracs]:
            try:
                pair = solve_planar_pair(params, tilt)
            except Unreachable:
                assert not abs(tilt) < t, tilt
                continue
            for theta, ray in zip(pair, (tilt, -tilt)):
                assert lo <= theta <= hi
                along, across = _along_and_across(params, theta, 0.0, ray)
                assert along > 0.0 and across <= 1e-9, (tilt, theta)


def _within_8_ulps(x: float) -> list[float]:
    """x and the 8 floats on either side of it."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(8):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


class TestClampAtTheEnds:
    """A target a few ulps from an attainable end gives a command inside the
    operating range, clamped there, or Unreachable; never one outside."""

    @given(fingertip_configs())
    def test_inverse_facet(self, cfg):
        p = cfg.linkage
        lo, hi = operating_range(p)
        for end in attainable_facet_range(p):
            for phi in _within_8_ulps(end):
                try:
                    theta = inverse_facet(p, phi)
                except Unreachable:
                    continue
                assert lo <= theta <= hi, (phi, theta)

    @given(fingertip_configs())
    def test_solve_planar_pair(self, cfg):
        p = cfg.linkage
        lo, hi = operating_range(p)
        for end in attainable_tilt_range(p):
            for tilt in _within_8_ulps(end):
                try:
                    pair = solve_planar_pair(p, tilt)
                except Unreachable:
                    continue
                assert all(lo <= theta <= hi for theta in pair), (tilt, pair)


def test_slider_point_neutral(params):
    bx, by = slider_point(params, 0.0)
    assert by == 0.0
    assert bx == pytest.approx(20.0)
