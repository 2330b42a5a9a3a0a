"""Every number a public entry point is given passes the one check, errors.check_number.

One argument at a time, with the others valid: a value that is not a
finite number (NaN, an infinity, an integer too large for a float, text,
None or a sequence) raises InvalidParams whose field names the argument,
and a Python int or a numpy float of a valid value gives the result the
float gives, bit for bit.  Pairs and the four servo commands are read as
a whole and refused the same way.
"""

import dataclasses
import enum
import math
from functools import partial

import numpy as np
import pytest

from morphtip import (
    Circle,
    Concave,
    Contact,
    Convex,
    ExternalLoad,
    FingertipConfig,
    Flat,
    GraspScene,
    InvalidParams,
    LinkageParams,
    TiltedPlanar,
    closure_classify,
    cradle_height,
    find_contacts,
    forward_facet,
    inverse_facet,
    place_right,
    planar_condition_angle,
    plan_primitive,
    pointer_top,
    scene_between,
    slider_point,
    solve_planar_pair,
    state_from_thetas,
    surface_profile,
    terrace_equilibrium,
    tilt_line_residual,
)

CFG = FingertipConfig()
PARAMS = CFG.linkage
FLAT = plan_primitive(CFG, Flat()).profile_x_points
# A circle seated between two flat fingertips: one contact on each side.
SEAT = scene_between(FLAT, FLAT, 80.0, Circle(40.0, (40.0, 0.0)), 0.3)
CONTACTS = find_contacts(SEAT)

# (entry point with every argument valid, argument, a valid integer value
# of it, the field its check names).  slider_point checks every servo
# command, so its field is "theta" for the commands of a pair too.
ARGUMENTS = [
    *((LinkageParams, name, value, name) for name, value in
      (("l_oc", 15), ("l_ab", 20), ("alpha0", 1), ("oa_x", 10), ("theta_min", -1),
       ("theta_max", 1))),
    (partial(slider_point, PARAMS, theta=0.2), "theta", 0, "theta"),
    (partial(forward_facet, PARAMS, theta=0.2), "theta", 0, "theta"),
    (partial(inverse_facet, PARAMS, phi=0.3), "phi", 0, "phi"),
    (partial(planar_condition_angle, PARAMS, theta=0.2), "theta", 0, "theta"),
    (partial(solve_planar_pair, PARAMS, phi_tilt=0.1), "phi_tilt", 0, "phi_tilt"),
    *((partial(tilt_line_residual, PARAMS, theta_pos=0.2, theta_neg=-0.1), name, 0, "theta")
      for name in ("theta_pos", "theta_neg")),
    *((FingertipConfig, name, value, name) for name, value in
      (("facet_len", 17), ("spring_k", 10), ("rod_len", 100), ("step_deg", 3))),
    (Concave, "depth", 1, "depth"),
    (Convex, "depth", -1, "depth"),
    *((partial(TiltedPlanar, tilt_x=0.1, tilt_y=-0.1), name, 0, name)
      for name in ("tilt_x", "tilt_y")),
    *((partial(ExternalLoad, tau_x=0.5, tau_y=-0.5), name, 3, name) for name in ("tau_x", "tau_y")),
    *((partial(terrace_equilibrium, phi_pos=0.2, phi_neg=-0.1, spring_k=10.0, load_torque=0.5),
       name, value, name) for name, value in
      (("phi_pos", 1), ("phi_neg", 0), ("spring_k", 10), ("load_torque", 2))),
    *((partial(surface_profile, CFG, theta_pos=0.2, theta_neg=-0.1, psi=0.1), name, 0, field)
      for name, field in (("theta_pos", "theta"), ("theta_neg", "theta"), ("psi", "psi"))),
    *((partial(pointer_top, CFG, psi_x=0.1, psi_y=-0.2), name, 0, name)
      for name in ("psi_x", "psi_y")),
    (partial(Circle, radius=40.0, center=(40.0, 0.0)), "radius", 40, "radius"),
    *((partial(GraspScene, left_profile=SEAT.left_points, right_profile=SEAT.right_points,
               gap=80.0, obj=SEAT.obj, mu=0.3), name, value, name)
      for name, value in (("gap", 80), ("mu", 1))),
    (partial(place_right, FLAT, gap=80.0), "gap", 80, "gap"),
    *((partial(scene_between, FLAT, FLAT, gap=80.0, obj=SEAT.obj, mu=0.3), name, value, name)
      for name, value in (("gap", 80), ("mu", 1))),
    *((partial(cradle_height, FLAT, circle_radius=5.0, u=1.0), name, value, name)
      for name, value in (("circle_radius", 5), ("u", 1))),
    (partial(closure_classify, CONTACTS, mu=0.3), "mu", 1, "mu"),
]
ARGUMENT_IDS = [f"{getattr(call, 'func', call).__name__}-{arg}" for call, arg, _, _ in ARGUMENTS]

NOT_NUMBERS = [
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
    pytest.param(-math.inf, id="-inf"),
    pytest.param(10**400, id="huge-int"),
    pytest.param("1", id="text"),
    pytest.param(None, id="none"),
    pytest.param([1.0], id="list"),
]


def plain(value):
    """value with every number as the hex of its float, arrays as their bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, plain(vars(value))
    if isinstance(value, dict):
        return tuple((key, plain(v)) for key, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(map(plain, value))
    if isinstance(value, (str, enum.Enum)):
        return value
    return float(value).hex()


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("call, arg, valid, field", ARGUMENTS, ids=ARGUMENT_IDS)
def test_not_a_finite_number_is_invalid_params_naming_it(call, arg, valid, field, bad):
    with pytest.raises(InvalidParams) as exc:
        call(**{arg: bad})
    assert exc.value.field == field


@pytest.mark.parametrize("call, arg, valid, field", ARGUMENTS, ids=ARGUMENT_IDS)
def test_int_and_numpy_float_give_the_float_result(call, arg, valid, field):
    expected = plain(call(**{arg: float(valid)}))
    assert plain(call(**{arg: valid})) == expected
    assert plain(call(**{arg: np.float64(valid)})) == expected


# (entry point with every argument valid, argument, a valid value of it).
SEQUENCES = [
    (partial(Circle, radius=40.0, center=(40.0, 0.0)), "center", (40, 0)),
    (partial(Contact, point=(0.0, 0.0), normal=(1.0, 0.0), side="left", segment=0), "point",
     (1, 2)),
    (partial(Contact, point=(0.0, 0.0), normal=(1.0, 0.0), side="left", segment=0), "normal",
     (0, 1)),
    (partial(state_from_thetas, CFG, thetas=(0.1, 0.0, -0.1, 0.2)), "thetas", (0, 0, 0, 0)),
]
SEQUENCE_IDS = [f"{call.func.__name__}-{arg}" for call, arg, _ in SEQUENCES]


@pytest.mark.parametrize("bad", [
    *NOT_NUMBERS,
    pytest.param("12", id="digits"),
    pytest.param([[1.0], [2.0]], id="column"),
    pytest.param(lambda n: ("1",) * n, id="numeric-strings"),
    *(pytest.param(lambda n, v=v: (v,) + (0.0,) * (n - 1), id=f"holding-{name}")
      for v, name in ((math.nan, "nan"), (math.inf, "inf"), (10**400, "huge-int"), (None, "none"),
                      ([1.0], "list"))),
])
@pytest.mark.parametrize("call, arg, valid", SEQUENCES, ids=SEQUENCE_IDS)
def test_sequence_that_is_not_finite_numbers_is_invalid_params_naming_it(call, arg, valid, bad):
    with pytest.raises(InvalidParams) as exc:
        call(**{arg: bad(len(valid)) if callable(bad) else bad})
    assert exc.value.field == arg


@pytest.mark.parametrize("call, arg, valid", SEQUENCES, ids=SEQUENCE_IDS)
def test_sequence_of_ints_or_numpy_floats_gives_the_float_result(call, arg, valid):
    expected = plain(call(**{arg: tuple(map(float, valid))}))
    assert plain(call(**{arg: valid})) == expected
    assert plain(call(**{arg: tuple(map(np.float64, valid))})) == expected
