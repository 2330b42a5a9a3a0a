import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from morphtip import fingertip
from morphtip import (
    Concave,
    Convex,
    ExternalLoad,
    FingertipConfig,
    FingertipState,
    Flat,
    InvalidParams,
    LinkageParams,
    OutOfRange,
    TiltedPlanar,
    Unreachable,
    attainable_facet_range,
    attainable_tilt_range,
    forward_facet,
    operating_range,
    pair_tilt_residuals,
    plan_primitive,
    pointer_top,
    state_from_thetas,
    surface_profile,
    terrace_equilibrium,
    tilt_line_residual,
    transition_trajectory,
)
from strategies import (fingertip_configs, plannable_primitives, planned_primitives,
                        zero_free_configs)

# Frozen from the rotation-composition oracle at 5 degrees, 100 mm rod.
CORNER_X = 8.682408883346517
CORNER_Y = 8.715574274765817
CORNER_Z = 99.240387650610403
MIDEDGE = 8.715574274765817


def polyline_length(points: np.ndarray) -> float:
    return float(np.sum(np.hypot(*np.diff(points, axis=0).T)))


def max_line_deviation(points: np.ndarray) -> float:
    a, b = points[0], points[-1]
    d = b - a
    d = d / np.hypot(*d)
    rel = points - a
    return float(np.max(np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])))


class TestConfig:
    @pytest.mark.parametrize("field,value", [
        ("facet_len", 0.0), ("rod_len", -3.0), ("spring_k", float("nan")), ("step_deg", 0.0),
    ])
    def test_bad_scalars_rejected(self, field, value):
        with pytest.raises(InvalidParams) as exc:
            FingertipConfig(**{field: value})
        assert exc.value.field == field
        assert str(exc.value).startswith(field + " ")

    @pytest.mark.parametrize("facet_len,lengths,field", [
        (1e308, {}, "facet_len"),
        (17.5, {"l_ab": 5e307}, "l_ab"),
        (1e155, {"oa_x": 1e154}, "facet_len"),
        (1e153, {"oa_x": 1e156}, "oa_x"),
        (6.8e153, {}, "facet_len"),
        (17.5, {"l_oc": 3.4e153, "oa_x": 6.8e153}, "l_oc"),
    ])
    def test_facet_tips_that_overflow_rejected(self, facet_len, lengths, field):
        with pytest.raises(InvalidParams) as exc:
            FingertipConfig(linkage=LinkageParams(**lengths), facet_len=facet_len)
        assert exc.value.field == field
        assert str(exc.value) == f"{field} is too large: its points must be finite"

    # Twice a profile segment must square finite: a facet_len up to about 6.7e153.
    @pytest.mark.parametrize("facet_len,lengths", [(6.7e153, {}), (17.5, {"l_ab": 3e306})])
    def test_largest_accepted_lengths_give_finite_profiles(self, facet_len, lengths):
        cfg = FingertipConfig(linkage=LinkageParams(**lengths), facet_len=facet_len)
        lo, hi = operating_range(cfg.linkage)
        for prim in (Flat(), Concave(forward_facet(cfg.linkage, hi)),
                     Convex(forward_facet(cfg.linkage, lo)), TiltedPlanar(0.01, -0.01)):
            state = plan_primitive(cfg, prim)
            assert np.isfinite(state.profile_x).all() and np.isfinite(state.profile_y).all()


class TestTerraceEquilibrium:
    def test_symmetric_actuation_is_level(self):
        for phi in (0.0, 0.2, -0.35):
            assert terrace_equilibrium(phi, phi, 10.0, 0.0) == 0.0

    def test_antisymmetric_actuation_mirrors_the_tilt(self):
        for phi in (0.1, 0.4):
            assert terrace_equilibrium(phi, -phi, 10.0, 0.0) == phi

    def test_pure_load_deflection(self):
        k, tau = 10.0, 4.0
        psi = terrace_equilibrium(0.0, 0.0, k, tau)
        assert psi == tau / (2 * k)
        grid = oracles.grid_argmin(
            lambda x: oracles.spring_energy(x, 0.0, 0.0, k, tau), -2.0, 2.0
        )
        assert psi == pytest.approx(grid, abs=1e-9)

    def test_agrees_with_grid_minimization_100_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            phi_p, phi_n = rng.uniform(-0.8, 0.8, 2)
            k = rng.uniform(1.0, 50.0)
            tau = rng.uniform(-20.0, 20.0)
            psi = terrace_equilibrium(phi_p, phi_n, k, tau)
            # window covers every argmin the sampled ranges can produce
            grid = oracles.grid_argmin(
                lambda x: oracles.spring_energy(x, phi_p, phi_n, k, tau), -12.0, 12.0
            )
            assert psi == pytest.approx(grid, abs=1e-9)

    def test_bad_stiffness_rejected(self):
        with pytest.raises(InvalidParams):
            terrace_equilibrium(0.1, 0.1, 0.0)


class TestPlanPrimitive:
    def test_flat(self, cfg):
        st = plan_primitive(cfg, Flat())
        assert st.thetas == (0.0, 0.0, 0.0, 0.0)
        assert st.phis == (0.0, 0.0, 0.0, 0.0)
        assert st.terrace_tilt == (0.0, 0.0)

    @given(zero_free_configs())
    def test_flat_outside_the_stroke_is_unreachable(self, cfg):
        with pytest.raises(Unreachable) as exc:
            plan_primitive(cfg, Flat())
        assert str(exc.value).startswith("facet angle 0.000000 rad not attainable; ")
        assert exc.value.attainable == attainable_facet_range(cfg.linkage)

    def test_concave_8deg(self, cfg):
        depth = math.radians(8.0)
        st = plan_primitive(cfg, Concave(depth))
        assert len(set(st.thetas)) == 1
        assert st.thetas[0] > 0
        for phi in st.phis:
            assert phi == pytest.approx(depth, abs=1e-6)
        # V opens upward: facet tips above the hinges by facet_len*sin(depth)
        rise = cfg.facet_len * math.sin(depth)
        assert st.profile_x[0, 1] == pytest.approx(rise, abs=1e-9)
        assert st.profile_x[3, 1] == pytest.approx(rise, abs=1e-9)

    def test_convex_8deg(self, cfg):
        depth = math.radians(-8.0)
        st = plan_primitive(cfg, Convex(depth))
        assert st.thetas[0] < 0
        for phi in st.phis:
            assert phi == pytest.approx(depth, abs=1e-6)
        assert st.profile_x[0, 1] < 0

    def test_readback_reproduces_degree_random(self, cfg):
        rng = np.random.default_rng(23)
        for depth in rng.uniform(-0.3, 0.7, 50):
            if abs(depth) < 1e-3:
                continue
            prim = Concave(depth) if depth > 0 else Convex(depth)
            st = plan_primitive(cfg, prim)
            for theta in st.thetas:
                assert forward_facet(cfg.linkage, theta) == pytest.approx(
                    depth, abs=1e-6
                )

    def test_tilted_planar(self, cfg):
        tilt = math.radians(5.0)
        st = plan_primitive(cfg, TiltedPlanar(tilt, 0.0))
        assert st.thetas[0] > 0 > st.thetas[1]
        assert st.thetas[2] == st.thetas[3] == 0.0
        assert st.terrace_tilt == (tilt, 0.0)
        res = pair_tilt_residuals(cfg, [st])
        assert res[0, 0] < 1e-9
        assert res[0, 1] < 1e-9

    def test_planes_are_decoupled(self, cfg):
        a = plan_primitive(cfg, TiltedPlanar(math.radians(5.0), 0.0))
        b = plan_primitive(cfg, TiltedPlanar(math.radians(5.0), math.radians(2.0)))
        assert a.thetas[:2] == b.thetas[:2]
        assert a.thetas[2:] != b.thetas[2:]

    def test_zero_tilts_keep_their_sign(self, cfg):
        # A tilt of -0.0 puts the hinges' zero coordinates at -0.0.
        for tilt_x, tilt_y in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)):
            st = plan_primitive(cfg, TiltedPlanar(tilt_x, tilt_y))
            for points, psi in ((st.profile_x_points, tilt_x), (st.profile_y_points, tilt_y)):
                assert np.array(points).tobytes() == surface_profile(cfg, 0.0, 0.0, psi).tobytes()

    def test_unreachable_depth_propagates(self, cfg):
        with pytest.raises(Unreachable):
            plan_primitive(cfg, Concave(1.6))

    def test_wrong_sign_rejected(self):
        with pytest.raises(InvalidParams):
            Concave(-0.1)
        with pytest.raises(InvalidParams):
            Convex(0.1)

    @pytest.mark.parametrize("make,field", [
        (lambda: Concave(-0.1), "depth"),
        (lambda: Convex(0.1), "depth"),
        (lambda: Convex(math.nan), "depth"),
        (lambda: TiltedPlanar(math.nan), "tilt_x"),
        (lambda: TiltedPlanar(0.1, -math.inf), "tilt_y"),
        (lambda: ExternalLoad(math.inf), "tau_x"),
        (lambda: ExternalLoad(0.0, math.nan), "tau_y"),
        (lambda: terrace_equilibrium(0.0, math.nan, 10.0), "phi_neg"),
        (lambda: terrace_equilibrium(0.0, 0.0, 10.0, math.inf), "load_torque"),
        (lambda: terrace_equilibrium(0.0, 0.0, 1e-300, -1e10), "load_torque"),
        (lambda: state_from_thetas(FingertipConfig(spring_k=1e-300), (0.0,) * 4,
                                   ExternalLoad(0.0, 1e10)), "load"),
        (lambda: FingertipConfig(linkage=None), "linkage"),
        (lambda: FingertipConfig(linkage=(1, 2)), "linkage"),
        (lambda: plan_primitive(FingertipConfig(), "concave"), "prim"),
        (lambda: pointer_top(FingertipConfig(), math.nan, 0.0), "psi_x"),
        (lambda: pointer_top(FingertipConfig(), 0.0, math.inf), "psi_y"),
        (lambda: pointer_top(FingertipConfig(), -0.8, 0.0), "psi_x"),
        (lambda: pointer_top(FingertipConfig(), 0.0, math.pi / 4), "psi_y"),
        (lambda: surface_profile(FingertipConfig(), 0.0, 0.0, math.nan), "psi"),
    ])
    def test_rejection_names_the_argument(self, make, field):
        with pytest.raises(InvalidParams) as exc:
            make()
        assert exc.value.field == field
        assert str(exc.value).startswith(field + " ")
        assert "rad" not in str(exc.value).split()


class TestSurfaceProfile:
    def test_flat_profile_on_axis(self, cfg):
        prof = surface_profile(cfg, 0.0, 0.0, 0.0)
        assert np.all(prof[:, 1] == 0.0)
        half = cfg.linkage.l_oc + cfg.facet_len
        assert prof[0, 0] == pytest.approx(-half)
        assert prof[3, 0] == pytest.approx(half)

    def test_planar_profile_is_one_line(self, cfg):
        tilt = math.radians(5.0)
        st = plan_primitive(cfg, TiltedPlanar(tilt, 0.0))
        assert max_line_deviation(st.profile_x) < 1e-9
        slope = math.atan2(
            st.profile_x[3, 1] - st.profile_x[0, 1],
            st.profile_x[3, 0] - st.profile_x[0, 0],
        )
        assert slope == pytest.approx(tilt, abs=1e-12)

    def test_length_preserved_across_modes(self, cfg):
        expected = 2.0 * (cfg.linkage.l_oc + cfg.facet_len)
        prims = [
            Flat(),
            Concave(math.radians(8.0)),
            Concave(math.radians(30.0)),
            Convex(math.radians(-12.0)),
            TiltedPlanar(math.radians(5.0), math.radians(-3.0)),
        ]
        for prim in prims:
            st = plan_primitive(cfg, prim)
            for prof in (st.profile_x, st.profile_y):
                assert polyline_length(prof) == pytest.approx(expected, abs=1e-9)

    def test_profile_is_simple_across_operating_range(self, cfg):
        rng = np.random.default_rng(5)
        lo, hi = -0.6, 0.25
        for _ in range(200):
            t1, t2 = rng.uniform(lo, hi, 2)
            prof = surface_profile(cfg, t1, t2, 0.0)
            # outer points stay outward of the hinges: no self-crossing
            assert prof[0, 0] < prof[1, 0] < prof[2, 0] < prof[3, 0]


    @pytest.mark.parametrize("thetas,error,field", [
        ((0.5, 0.0, math.nan), OutOfRange, None),  # the jam before psi
        ((0.1, 0.0, math.nan), InvalidParams, "psi"),
        ((math.nan, 0.5, 0.0), InvalidParams, "theta"),
    ])
    def test_errors_in_argument_order(self, thetas, error, field):
        with pytest.raises(error) as exc:
            surface_profile(FingertipConfig(), *thetas)
        assert type(exc.value) is error
        assert getattr(exc.value, "field", None) == field


class TestPointer:
    def test_upright(self, cfg):
        assert pointer_top(cfg, 0.0, 0.0) == pytest.approx([0.0, 0.0, cfg.rod_len])

    def test_single_axis_tilt(self, cfg):
        psi = math.radians(5.0)
        tip = pointer_top(cfg, psi, 0.0)
        assert tip == pytest.approx(
            [0.0, -cfg.rod_len * math.sin(psi), cfg.rod_len * math.cos(psi)]
        )

    def test_mirror_symmetry_exact(self, cfg):
        psi = math.radians(4.0)
        a = pointer_top(cfg, psi, 0.0)
        b = pointer_top(cfg, -psi, 0.0)
        assert a[0] == b[0]
        assert a[1] == -b[1]
        assert a[2] == b[2]

    def test_eight_poses_match_composition(self, cfg):
        psi = math.radians(5.0)
        corner = pointer_top(cfg, psi, psi)
        assert abs(corner[0]) == pytest.approx(CORNER_X, abs=1e-9)
        assert abs(corner[1]) == pytest.approx(CORNER_Y, abs=1e-9)
        assert corner[2] == pytest.approx(CORNER_Z, abs=1e-9)
        for sx in (-1, 1):
            for sy in (-1, 1):
                tip = pointer_top(cfg, sx * psi, sy * psi)
                assert abs(tip[0]) == pytest.approx(CORNER_X, abs=1e-9)
                assert abs(tip[1]) == pytest.approx(CORNER_Y, abs=1e-9)
        assert abs(pointer_top(cfg, psi, 0.0)[1]) == pytest.approx(MIDEDGE, abs=1e-9)
        assert abs(pointer_top(cfg, 0.0, psi)[0]) == pytest.approx(MIDEDGE, abs=1e-9)

    def test_large_tilt_rejected(self, cfg):
        with pytest.raises(InvalidParams):
            pointer_top(cfg, 0.9, 0.0)


class TestTrajectory:
    def test_no_motion_is_single_state(self, cfg):
        states = transition_trajectory(cfg, Flat(), Flat())
        assert len(states) == 1
        assert states[0].thetas == (0.0, 0.0, 0.0, 0.0)

    def test_full_stroke_is_13_states_monotone(self, cfg):
        phi_hi = forward_facet(cfg.linkage, math.radians(15.0))
        phi_lo = forward_facet(cfg.linkage, math.radians(-21.0))
        states = transition_trajectory(cfg, Concave(phi_hi), Convex(phi_lo))
        assert len(states) == 13
        phis = [st.phis[0] for st in states]
        assert all(a > b for a, b in zip(phis, phis[1:]))
        # symmetric actuation: the terrace stays level the whole way
        for st in states:
            assert st.terrace_tilt == (0.0, 0.0)

    def test_step_bound_respected(self, cfg):
        states = transition_trajectory(cfg, Flat(), Concave(math.radians(20.0)))
        step = math.radians(cfg.step_deg)
        thetas = np.array([st.thetas for st in states])
        assert np.max(np.abs(np.diff(thetas, axis=0))) <= step + 1e-12

    def test_planar_transition_residuals(self, cfg):
        states = transition_trajectory(cfg, Flat(), TiltedPlanar(math.radians(5.0)))
        res = pair_tilt_residuals(cfg, states)
        # endpoints satisfy the straight-line condition; the path need not
        assert res[0, 0] < 1e-9
        assert res[-1, 0] < 1e-9
        assert np.all(np.isfinite(res))

    def test_residuals_are_one_float_row_per_state(self, cfg):
        states = transition_trajectory(cfg, Flat(), TiltedPlanar(math.radians(5.0)))
        res = pair_tilt_residuals(cfg, states)
        assert (res.dtype, res.shape) == (np.float64, (len(states), 2))
        assert res.tolist() == [[tilt_line_residual(cfg.linkage, *st.thetas[:2]),
                                 tilt_line_residual(cfg.linkage, *st.thetas[2:])] for st in states]
        empty = pair_tilt_residuals(cfg, [])
        assert (empty.dtype, empty.shape) == (np.float64, (0, 2))

    def test_unreachable_endpoint_propagates(self, cfg):
        with pytest.raises(Unreachable):
            transition_trajectory(cfg, Flat(), Concave(1.6))

    def test_tiny_step_raises_before_building_a_state(self):
        cfg = FingertipConfig(step_deg=1e-9)
        start = time.perf_counter()
        with pytest.raises(InvalidParams) as exc:
            transition_trajectory(cfg, Flat(), Concave(math.radians(20.0)))
        assert time.perf_counter() - start < 1.0
        assert exc.value.field == "step_deg"
        assert str(exc.value) == "step_deg 1e-09 makes a ramp of more than 100000 states"

    def test_state_bound_is_inclusive(self, cfg, monkeypatch):
        phi_hi = forward_facet(cfg.linkage, math.radians(15.0))
        phi_lo = forward_facet(cfg.linkage, math.radians(-21.0))
        monkeypatch.setattr(fingertip, "MAX_STATES", 13)
        assert len(transition_trajectory(cfg, Concave(phi_hi), Convex(phi_lo))) == 13
        monkeypatch.setattr(fingertip, "MAX_STATES", 12)
        with pytest.raises(InvalidParams, match="more than 12 states"):
            transition_trajectory(cfg, Concave(phi_hi), Convex(phi_lo))


class TestStateFromThetas:
    def test_equilibrium_tilt_from_asymmetric_actuation(self, cfg):
        thetas = (math.radians(6.0), math.radians(-6.0), 0.0, 0.0)
        st = state_from_thetas(cfg, thetas)
        expected = terrace_equilibrium(st.phis[0], st.phis[1], cfg.spring_k)
        assert st.terrace_tilt[0] == expected
        assert st.terrace_tilt[1] == 0.0

    def test_external_load_shifts_the_terrace(self, cfg):
        st0 = state_from_thetas(cfg, (0.0, 0.0, 0.0, 0.0))
        st1 = state_from_thetas(
            cfg, (0.0, 0.0, 0.0, 0.0), ExternalLoad(tau_x=2.0 * cfg.spring_k)
        )
        assert st0.terrace_tilt == (0.0, 0.0)
        assert st1.terrace_tilt[0] == pytest.approx(1.0)
        assert st1.terrace_tilt[1] == 0.0

    @pytest.mark.parametrize("sequence", [list, np.array, lambda t: tuple(map(np.float64, t))])
    def test_any_sequence_is_stored_as_a_tuple_of_floats(self, cfg, sequence):
        thetas = (0.1, -0.05, 0.2, 0.0)
        st = state_from_thetas(cfg, sequence(thetas))
        assert type(st.thetas) is tuple and all(type(t) is float for t in st.thetas)
        assert st == state_from_thetas(cfg, thetas)
        assert hash(st) == hash(state_from_thetas(cfg, thetas))

    @pytest.mark.parametrize("thetas", [(0.0, 0.0), (0.0,) * 5, (), 0.0, None, "abcd",
                                        (0.0, 0.0, math.nan, 0.0), (0.0, -math.inf, 0.0, 0.0)])
    def test_other_than_four_finite_commands_rejected(self, cfg, thetas):
        with pytest.raises(InvalidParams) as exc:
            state_from_thetas(cfg, thetas)
        assert exc.value.field == "thetas"
        assert str(exc.value) == "thetas must be four finite servo commands"

    @pytest.mark.parametrize("load", [None, (1.0, 2.0)])
    def test_load_that_is_not_an_external_load_rejected(self, cfg, load):
        with pytest.raises(InvalidParams) as exc:
            state_from_thetas(cfg, (0.0, 0.0, 0.0, 0.0), load)
        assert exc.value.field == "load"
        assert str(exc.value) == f"load must be an ExternalLoad, got {load!r}"

    def test_largest_loads_give_finite_tilts(self):
        # A load is refused only where torque / (2*spring_k) overflows.
        cfg = FingertipConfig(spring_k=1e-300)
        assert terrace_equilibrium(0.0, 0.0, cfg.spring_k, 1e8) == 5e307
        state = state_from_thetas(cfg, (0.0, 0.0, 0.0, 0.0), ExternalLoad(1e8, -1e8))
        assert state.terrace_tilt == (5e307, -5e307)


class TestStatesOverRandomGeometries:
    """Every built state against the vector-chain oracle, on random geometries."""

    @given(fingertip_configs(), st.floats(0.05, 1.0), st.floats(0.05, 1.0),
           st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
    def test_plans_and_transitions(self, cfg, concave_frac, convex_frac, fx, fy):
        p = cfg.linkage
        lo, hi = operating_range(p)
        _, t = attainable_tilt_range(p)
        concave = Concave(concave_frac * forward_facet(p, hi))
        convex = Convex(convex_frac * forward_facet(p, lo))
        planar = TiltedPlanar(fx * t, fy * t)
        plans = [plan_primitive(cfg, prim) for prim in (Flat(), concave, convex, planar)]
        ramp = transition_trajectory(cfg, convex, concave)
        tilt_ramp = transition_trajectory(cfg, Flat(), planar)
        for states, start, end in ((ramp, plans[2], plans[1]), (tilt_ramp, plans[0], plans[3])):
            assert states[0].thetas == start.thetas
            assert np.max(np.abs(np.subtract(states[-1].thetas, end.thetas))) <= 1e-12
        ramps = ramp + tilt_ramp
        for state in plans + ramps:
            th = state.thetas
            assert state.phis == tuple(forward_facet(p, theta) for theta in th)
            planes = ((state.profile_x, th[0], th[1], state.terrace_tilt[0]),
                      (state.profile_y, th[2], th[3], state.terrace_tilt[1]))
            for profile, pos, neg, psi in planes:
                expected = oracles.profile_by_vector_chain(cfg, pos, neg, psi)
                assert np.max(np.abs(profile - np.array(expected))) <= 1e-12
        # TiltedPlanar carries its prescribed tilt; every other state settles.
        assert plans[3].terrace_tilt == (planar.tilt_x, planar.tilt_y)
        for state in plans[:3] + ramps:
            ph = state.phis
            assert state.terrace_tilt == (terrace_equilibrium(ph[0], ph[1], cfg.spring_k),
                                        terrace_equilibrium(ph[2], ph[3], cfg.spring_k))


@st.composite
def transition_ends(draw):
    """A geometry, its stroke sometimes excluding 0, and two primitives it can plan."""
    cfg = draw(st.one_of(fingertip_configs(), zero_free_configs()))
    return cfg, draw(plannable_primitives(cfg)), draw(plannable_primitives(cfg))


class TestTransitionsOverRandomGeometries:
    """No ramp between two plannable primitives jams, overshoots or strides."""

    @settings(max_examples=300)
    @given(transition_ends())
    def test_ramp_joins_its_plans_in_bounded_steps(self, ends):
        cfg, start, end = ends
        t0, t1 = plan_primitive(cfg, start).thetas, plan_primitive(cfg, end).thetas
        states = transition_trajectory(cfg, start, end)
        assert states[0].thetas == t0
        assert max(abs(a - b) for a, b in zip(states[-1].thetas, t1)) <= 1e-12
        step = math.radians(cfg.step_deg)
        for before, after in zip(states, states[1:]):
            assert max(abs(a - b) for a, b in zip(before.thetas, after.thetas)) <= step + 1e-12
        span = max(abs(a - b) for a, b in zip(t0, t1))
        assert len(states) == math.ceil(span / step - 1e-12) + 1


class TestRampArithmetic:
    """Each ramp state's commands are the written-out interpolation, bit for bit."""

    @given(fingertip_configs(), st.data())
    def test_states_interpolate_the_end_plans(self, cfg, data):
        start, end = data.draw(plannable_primitives(cfg)), data.draw(plannable_primitives(cfg))
        t0, t1 = plan_primitive(cfg, start).thetas, plan_primitive(cfg, end).thetas
        states = transition_trajectory(cfg, start, end)
        n = len(states) - 1
        for i, state in enumerate(states):
            assert state.thetas == tuple(a + (b - a) * (i / max(n, 1)) for a, b in zip(t0, t1))


def assert_posed_once(cfg, state):
    """Each facet readout is its own command's and each plane draws its own profile."""
    th, tilt = state.thetas, state.terrace_tilt
    assert state.phis == tuple(forward_facet(cfg.linkage, theta) for theta in th)
    for points, pos, neg, psi in ((state.profile_x_points, th[0], th[1], tilt[0]),
                                  (state.profile_y_points, th[2], th[3], tilt[1])):
        assert np.array(points).tobytes() == surface_profile(cfg, pos, neg, psi).tobytes()


class TestPosedOnce:
    """A state posing each distinct command once matches posing every plane apart."""

    @given(planned_primitives())
    def test_plans(self, planned):
        assert_posed_once(*planned)

    @given(transition_ends())
    def test_ramp_states(self, ends):
        cfg, start, end = ends
        for state in transition_trajectory(cfg, start, end):
            assert_posed_once(cfg, state)


def posed_apart(cfg, thetas, tilt=None, load=ExternalLoad()):
    """The state of four commands with every plane posed on its own, through the public calls."""
    phis = tuple(forward_facet(cfg.linkage, theta) for theta in thetas)
    if tilt is None:
        tilt = (terrace_equilibrium(phis[0], phis[1], cfg.spring_k, load.tau_x),
                terrace_equilibrium(phis[2], phis[3], cfg.spring_k, load.tau_y))
    px, py = (tuple(map(tuple, surface_profile(cfg, *thetas[i:i + 2], tilt[i // 2]).tolist()))
              for i in (0, 2))
    return FingertipState(tuple(thetas), phis, tuple(tilt), px, py)


# The 15 ways four commands fall into groups of equal ones, each group named
# by the letter of its first command.
REPEATS = ["aaaa", "aaab", "aaba", "aabb", "aabc", "abaa", "abab", "abac", "abba", "abbb", "abbc",
           "abca", "abcb", "abcc", "abcd"]


class TestRepeatedCommands:
    """A state posing each distinct command once matches posing every plane apart, bit for bit."""

    @staticmethod
    def commands(cfg, pattern):
        lo, hi = operating_range(cfg.linkage)
        value = dict(zip("abcd", (lo + f * (hi - lo) for f in (0.8, 0.15, 0.55, 0.35))))
        return tuple(value[letter] for letter in pattern)

    def check(self, cfg, state, *apart):
        assert_posed_once(cfg, state)
        # repr prints every float exactly, the sign of a zero included.
        assert repr(state) == repr(posed_apart(cfg, *apart))

    def check_poses(self, monkeypatch, cfg, thetas, load=ExternalLoad()):
        """state_from_thetas poses each distinct command once, in first-seen order."""
        posed, pose = [], fingertip._slider_ray

        def counted(params, theta, *rest):
            posed.append(theta)
            return pose(params, theta, *rest)

        monkeypatch.setattr(fingertip, "_slider_ray", counted)
        state = state_from_thetas(cfg, thetas, load)
        monkeypatch.undo()
        assert posed == list(dict.fromkeys(thetas))  # a dict key treats -0.0 as 0.0
        self.check(cfg, state, thetas, None, load)

    # A torque of 1e18 N*mm settles both planes to the same tilt whatever
    # their facets, so a y plane whose commands differ must still draw its own.
    @pytest.mark.parametrize("load", [ExternalLoad(), ExternalLoad(0.5, 0.5),
                                      ExternalLoad(1e18, 1e18)])
    @pytest.mark.parametrize("pattern", REPEATS)
    def test_every_pattern(self, cfg, pattern, load, monkeypatch):
        self.check_poses(monkeypatch, cfg, self.commands(cfg, pattern), load)

    @given(fingertip_configs(), st.sampled_from(REPEATS))
    def test_every_pattern_over_random_geometries(self, cfg, pattern):
        thetas = self.commands(cfg, pattern)
        self.check(cfg, state_from_thetas(cfg, thetas), thetas)

    @pytest.mark.parametrize("thetas", [(0.0, 0.1, -0.0, 0.1), (-0.0, 0.0, 0.0, -0.0),
                                        (0.1, -0.0, 0.0, 0.0)])
    def test_zero_and_minus_zero_share_a_pose(self, cfg, thetas, monkeypatch):
        self.check_poses(monkeypatch, cfg, thetas)

    @pytest.mark.parametrize("tilt_x", [0.0, -0.0, 0.05, -0.05])
    @pytest.mark.parametrize("tilt_y", [0.0, -0.0, 0.05, -0.05])
    def test_tilted_planar_plans(self, cfg, tilt_x, tilt_y):
        state = plan_primitive(cfg, TiltedPlanar(tilt_x, tilt_y))
        self.check(cfg, state, state.thetas, (tilt_x, tilt_y))

    @pytest.mark.parametrize("thetas", [(0.0, 3.0, 2.5, 0.0), (0.0, 0.0, 3.0, 2.5)])
    def test_first_command_that_jams_is_reported(self, cfg, thetas):
        with pytest.raises(OutOfRange, match=r"theta=3\.000000 rad"):
            state_from_thetas(cfg, thetas)


class TestStatesCompareByValue:
    """A state built twice from the same geometry and commands is equal, and hashes equal."""

    @given(fingertip_configs(), st.data())
    def test_plans_and_ramps_built_twice(self, cfg, data):
        start, end = data.draw(plannable_primitives(cfg)), data.draw(plannable_primitives(cfg))
        for build in (lambda: [plan_primitive(cfg, start), plan_primitive(cfg, end)],
                      lambda: transition_trajectory(cfg, start, end)):
            first, again = build(), build()
            assert all(a is not b for a, b in zip(first, again))
            assert first == again
            assert list(map(hash, first)) == list(map(hash, again))
