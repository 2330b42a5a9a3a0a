import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from strategies import fractions, linkage_params
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


def test_slider_point_neutral(params):
    bx, by = slider_point(params, 0.0)
    assert by == 0.0
    assert bx == pytest.approx(20.0)
