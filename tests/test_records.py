"""The frozen records: repr, equality, hashing, immutability and replace.

Each record prints the repr it had as a frozen dataclass (the strings
below), and every record compares and hashes by value.
"""

import math

import numpy as np
import pytest

from morphtip import (
    Circle,
    Concave,
    Contact,
    Convex,
    ConvexPolygon,
    ExternalLoad,
    FingertipConfig,
    FingertipState,
    Flat,
    GraspScene,
    InvalidParams,
    LinkageParams,
    TiltedPlanar,
    plan_primitive,
)
from morphtip.cli import RunConfig, SweepSpec

LINKAGE = ("LinkageParams(l_oc=15.0, l_ab=20.0, alpha0=0.5235987755982988, oa_x=10.0, "
           "theta_min=-0.6283185307179586, theta_max=0.6283185307179586, oa_y=-17.320508075688775)")
CONFIG = (f"FingertipConfig(linkage={LINKAGE}, facet_len=17.5, spring_k=10.0, rod_len=100.0, "
          "step_deg=3.0)")
SWEEP = "SweepSpec(start_deg=15.0, step_deg=-3.0, count=13)"
FLAT_POINTS = "((-32.5, 0.0), (-15.0, -0.0), (15.0, 0.0), (32.5, 0.0))"


def scene() -> GraspScene:
    return GraspScene([(0, 0), (0, 1)], [(5, 0), (5, 1)], 5.0, Circle(1.0, (2.5, 0.5)), 0.3)


# Every record compares by value: a builder of a fresh instance, and its repr.
RECORDS = [
    pytest.param(LinkageParams, LINKAGE, id="LinkageParams"),
    pytest.param(lambda: LinkageParams(l_oc=12.0, theta_min=-0.5),
                 "LinkageParams(l_oc=12.0, l_ab=20.0, alpha0=0.5235987755982988, oa_x=10.0, "
                 "theta_min=-0.5, theta_max=0.6283185307179586, oa_y=-17.320508075688775)",
                 id="LinkageParams-given"),
    pytest.param(FingertipConfig, CONFIG, id="FingertipConfig"),
    pytest.param(Flat, "Flat()", id="Flat"),
    pytest.param(lambda: Concave(0.25), "Concave(depth=0.25)", id="Concave"),
    pytest.param(lambda: Convex(-0.25), "Convex(depth=-0.25)", id="Convex"),
    pytest.param(lambda: TiltedPlanar(0.1), "TiltedPlanar(tilt_x=0.1, tilt_y=0.0)",
                 id="TiltedPlanar"),
    pytest.param(lambda: TiltedPlanar(0.1, -0.2), "TiltedPlanar(tilt_x=0.1, tilt_y=-0.2)",
                 id="TiltedPlanar-given"),
    pytest.param(ExternalLoad, "ExternalLoad(tau_x=0.0, tau_y=0.0)", id="ExternalLoad"),
    pytest.param(lambda: ExternalLoad(1.5, -2.0), "ExternalLoad(tau_x=1.5, tau_y=-2.0)",
                 id="ExternalLoad-given"),
    pytest.param(SweepSpec, SWEEP, id="SweepSpec"),
    pytest.param(lambda: SweepSpec(1.0, 2.0, 3), "SweepSpec(start_deg=1.0, step_deg=2.0, count=3)",
                 id="SweepSpec-given"),
    pytest.param(lambda: RunConfig(FingertipConfig(), SweepSpec()),
                 f"RunConfig(tip={CONFIG}, sweep={SWEEP}, out_path=None)", id="RunConfig"),
    pytest.param(lambda: RunConfig(FingertipConfig(), SweepSpec(), "out.csv"),
                 f"RunConfig(tip={CONFIG}, sweep={SWEEP}, out_path='out.csv')",
                 id="RunConfig-given"),
    pytest.param(lambda: Circle(2.0, (1.0, 3.0)), "Circle(radius=2.0, center=(1.0, 3.0))",
                 id="Circle"),
    pytest.param(lambda: plan_primitive(FingertipConfig(), Flat()),
                 "FingertipState(thetas=(0.0, 0.0, 0.0, 0.0), phis=(0.0, 0.0, 0.0, 0.0), "
                 f"terrace_tilt=(0.0, 0.0), profile_x_points={FLAT_POINTS}, "
                 f"profile_y_points={FLAT_POINTS})", id="FingertipState"),
    pytest.param(lambda: ConvexPolygon([(0, 0), (1, 0), (0, 1)]),
                 "ConvexPolygon(vertex_points=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))",
                 id="ConvexPolygon"),
    pytest.param(lambda: Contact((1.0, 2.0), (0.0, 1.0), "left", 3),
                 "Contact(point_xy=(1.0, 2.0), normal_xy=(0.0, 1.0), side='left', segment=3)",
                 id="Contact"),
    pytest.param(scene, "GraspScene(left_points=((0.0, 0.0), (0.0, 1.0)), right_points=((5.0, 0.0), "
                 "(5.0, 1.0)), gap=5.0, obj=Circle(radius=1.0, center=(2.5, 0.5)), mu=0.3)",
                 id="GraspScene"),
]


@pytest.mark.parametrize("build, text", RECORDS)
def test_repr_is_the_dataclass_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", RECORDS)
def test_equal_values_are_equal_and_hash_equal(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("build, text", RECORDS)
def test_a_tuple_of_the_same_values_is_unequal(build, text):
    a = build()
    assert a != tuple(getattr(a, name) for name in a._fields)


def test_records_of_other_classes_are_unequal():
    assert Flat() != ()
    assert TiltedPlanar(0.1) != ExternalLoad(0.1)
    assert Concave(0.25) != (0.25,)
    assert LinkageParams(l_oc=12.0) != LinkageParams()
    assert hash(LinkageParams(l_oc=12.0)) != hash(LinkageParams())
    assert Contact((1.0, 2.0), (0.0, 1.0), "left", 3) != Contact((1.0, 2.0), (0.0, 1.0), "left", 4)


@pytest.mark.parametrize("build, text", RECORDS)
def test_setting_or_deleting_an_attribute_raises(build, text):
    a = build()
    name = a._fields[0] if a._fields else "depth"
    before = repr(a)
    with pytest.raises(AttributeError):
        setattr(a, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.new_attribute = 1.0
    assert repr(a) == before


# A record with an ndarray view, and the name of the view and of the floats it is built from.
VIEWS = [
    pytest.param(lambda: plan_primitive(FingertipConfig(), Flat()), "profile_x", "profile_x_points",
                 id="FingertipState.profile_x"),
    pytest.param(lambda: plan_primitive(FingertipConfig(), Flat()), "profile_y", "profile_y_points",
                 id="FingertipState.profile_y"),
    pytest.param(lambda: Contact((1.0, 2.0), (0.0, 1.0), "left", 3), "point", "point_xy",
                 id="Contact.point"),
    pytest.param(lambda: Contact((1.0, 2.0), (0.0, 1.0), "left", 3), "normal", "normal_xy",
                 id="Contact.normal"),
    pytest.param(scene, "left_profile", "left_points", id="GraspScene.left_profile"),
    pytest.param(scene, "right_profile", "right_points", id="GraspScene.right_profile"),
    pytest.param(lambda: ConvexPolygon([(0, 0), (1, 0), (0, 1)]), "vertices", "vertex_points",
                 id="ConvexPolygon.vertices"),
]


@pytest.mark.parametrize("build, view, floats", VIEWS)
def test_writing_into_an_array_view_leaves_the_record_unchanged(build, view, floats):
    record, fresh = build(), build()
    stored, text = getattr(record, floats), repr(record)
    array = getattr(record, view)
    array[...] = 99.0
    assert getattr(record, floats) is stored and repr(record) == text
    assert getattr(record, view).tolist() == getattr(fresh, view).tolist()
    assert record == fresh and hash(record) == hash(fresh)


def test_arrays_are_built_fresh_on_each_access():
    state = plan_primitive(FingertipConfig(), Flat())
    assert state.profile_x is not state.profile_x
    assert state == plan_primitive(FingertipConfig(), Flat())  # a view is no field
    assert state.profile_y.tolist() == [list(p) for p in state.profile_y_points]
    assert "profile_x" not in vars(state)  # nothing is stored on access
    contact = Contact((1.0, 2.0), (0.0, 1.0), "left", 3)
    assert contact.point is not contact.point and contact.normal.tolist() == [0.0, 1.0]
    assert scene().right_profile.tolist() == [[5.0, 0.0], [5.0, 1.0]]
    assert ConvexPolygon([(0, 0), (1, 0), (0, 1)]).vertices.shape == (3, 2)


@pytest.mark.parametrize("build, text", RECORDS)
def test_replace_without_changes_rebuilds_an_equal_record(build, text):
    a = build()
    b = a.replace()
    assert b is not a and type(b) is type(a) and repr(b) == repr(a)


def test_replace_changes_only_the_named_arguments():
    assert LinkageParams().replace(l_oc=12.0, theta_min=-0.5) == LinkageParams(12.0, theta_min=-0.5)
    assert FingertipConfig().replace(rod_len=50.0) == FingertipConfig(rod_len=50.0)
    assert SweepSpec().replace(count=3).count == 3
    contact = Contact((1.0, 2.0), (0.0, 1.0), "left", 3).replace(side="right")
    assert (contact.point_xy, contact.side, contact.segment) == ((1.0, 2.0), "right", 3)
    assert scene().replace(mu=0.5).mu == 0.5


# A record, an argument change its constructor refuses, and the field it names.
REFUSED = [
    pytest.param(LinkageParams, {"l_oc": -1.0}, "l_oc", id="LinkageParams"),
    pytest.param(LinkageParams, {"theta_min": 1.0}, "theta_min", id="LinkageParams-stroke"),
    pytest.param(FingertipConfig, {"facet_len": -1.0}, "facet_len", id="FingertipConfig"),
    pytest.param(lambda: Concave(0.25), {"depth": -0.25}, "depth", id="Concave"),
    pytest.param(lambda: Convex(-0.25), {"depth": 0.25}, "depth", id="Convex"),
    pytest.param(lambda: TiltedPlanar(0.1), {"tilt_y": math.nan}, "tilt_y", id="TiltedPlanar"),
    pytest.param(ExternalLoad, {"tau_x": math.inf}, "tau_x", id="ExternalLoad"),
    pytest.param(SweepSpec, {"step_deg": 0.0}, "step_deg", id="SweepSpec"),
    pytest.param(lambda: Circle(2.0, (1.0, 3.0)), {"radius": 0.0}, "radius", id="Circle"),
    pytest.param(lambda: ConvexPolygon([(0, 0), (1, 0), (0, 1)]),
                 {"vertex_points": [(0, 0), (0, 1), (1, 0)]}, "vertices", id="ConvexPolygon"),
    pytest.param(lambda: Contact((1.0, 2.0), (0.0, 1.0), "left", 3),
                 {"normal_xy": (math.nan, 1.0)}, "normal", id="Contact"),
    pytest.param(scene, {"mu": -1.0}, "mu", id="GraspScene"),
    pytest.param(lambda: plan_primitive(FingertipConfig(), Flat()),
                 {"phis": (0.0, math.nan, 0.0, 0.0)}, "phis", id="FingertipState"),
]


@pytest.mark.parametrize("build, changes, field", REFUSED)
def test_replace_runs_the_constructor_checks_again(build, changes, field):
    with pytest.raises(InvalidParams) as exc:
        build().replace(**changes)
    assert exc.value.field == field


@pytest.mark.parametrize("build, name", [
    pytest.param(LinkageParams, "oa_y", id="LinkageParams-oa_y"),
    pytest.param(LinkageParams, "operating_range", id="LinkageParams-operating_range"),
    pytest.param(lambda: ConvexPolygon([(0, 0), (1, 0), (0, 1)]), "centroid", id="ConvexPolygon"),
    pytest.param(lambda: Contact((1.0, 2.0), (0.0, 1.0), "left", 3), "point", id="Contact"),
    pytest.param(Flat, "depth", id="Flat"),
    pytest.param(SweepSpec, "no_such_field", id="SweepSpec"),
])
def test_replace_refuses_a_name_that_is_no_argument(build, name):
    with pytest.raises(ValueError, match=name):
        build().replace(**{name: 0.0})


# The fields of a valid FingertipState, as plain sequences of ints.
STATE = {"thetas": [0, 0, 0, 0], "phis": [0, 0, 0, 0], "terrace_tilt": [0, 0],
         "profile_x_points": [[-2, 0], [-1, 0], [1, 0], [2, 0]],
         "profile_y_points": [[-2, 0], [-1, 0], [1, 0], [2, 0]]}
# Values no field of a FingertipState takes, whatever its length.
NOT_FOUR_NUMBERS = [
    pytest.param(None, id="none"),
    pytest.param("text", id="text"),
    pytest.param(1.0, id="number"),
    pytest.param([1.0, 2.0, 3.0], id="three"),
    pytest.param([0.0, math.nan, 0.0, 0.0], id="nan"),
    pytest.param([0.0, math.inf, 0.0, 0.0], id="inf"),
    pytest.param([10**400, 0, 0, 0], id="huge-int"),
    pytest.param(["1", "2", "3", "4"], id="numeric-strings"),
    pytest.param(b"\x00" * 4, id="bytes"),
]
NOT_A_PROFILE = [
    pytest.param(None, id="none"),
    pytest.param("abcd", id="text"),
    pytest.param([[0, 0]] * 3, id="three-points"),
    pytest.param([[0, 0]] * 5, id="five-points"),
    pytest.param([[0, 0], [0, 0], [0, 0], [0, math.nan]], id="nan"),
    pytest.param([[0, 0], [0, 0], [0, 0], [0, 0, 0]], id="three-coordinates"),
    pytest.param([[0, 0], [0, 0], [0, 0], "12"], id="digits"),
    pytest.param([[0, 0], [0, 0], [0, 0], [10**400, 0]], id="huge-int"),
]
NOT_TWO_NUMBERS = [
    pytest.param(None, id="none"),
    pytest.param([0.0], id="one"),
    pytest.param([0.0, 0.0, 0.0], id="three"),
    pytest.param([math.nan, 0.0], id="nan"),
    pytest.param("ab", id="text"),
    pytest.param(b"\x00" * 2, id="bytes"),
]


@pytest.mark.parametrize("field, bad", [
    *(pytest.param(field, *bad.values, id=f"{field}-{bad.id}")
      for field in ("thetas", "phis") for bad in NOT_FOUR_NUMBERS),
    *(pytest.param("terrace_tilt", *bad.values, id=f"terrace_tilt-{bad.id}")
      for bad in NOT_TWO_NUMBERS),
    *(pytest.param(field, *bad.values, id=f"{field}-{bad.id}")
      for field in ("profile_x_points", "profile_y_points") for bad in NOT_A_PROFILE),
])
def test_fingertip_state_refuses_a_field_that_is_not_finite_numbers(field, bad):
    with pytest.raises(InvalidParams) as exc:
        FingertipState(**{**STATE, field: bad})
    assert exc.value.field == field and str(exc.value).startswith(f"{field} must ")


def test_fingertip_state_stores_every_field_as_tuples_of_floats():
    state = FingertipState(np.zeros(4), [np.float64(0.0), 0, False, 0.0], (0, -0.0),
                           np.array(STATE["profile_x_points"]), STATE["profile_y_points"])
    for name in state._fields:
        value = getattr(state, name)
        assert type(value) is tuple
        assert all(type(v) is float for v in (value if name in ("thetas", "phis", "terrace_tilt")
                                               else sum(value, ())))
    assert state.profile_x_points == ((-2.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    assert math.copysign(1.0, state.terrace_tilt[1]) == -1.0
    assert all(type(point) is tuple for point in state.profile_y_points)


@pytest.mark.parametrize("prim", [
    pytest.param(TiltedPlanar(np.float64(0.05), 0), id="TiltedPlanar"),
    pytest.param(Concave(np.float64(0.2)), id="Concave"),
    pytest.param(Convex(np.float32(-0.25)), id="Convex"),
])
def test_a_plan_from_numpy_floats_holds_the_floats_its_replace_holds(prim):
    # Each primitive stores its angles as Python floats, so a plan's state
    # is what its checking constructor, run again by replace, stores.
    assert all(type(value) is float for value in prim._values())
    state = plan_primitive(FingertipConfig(), prim)
    assert repr(state) == repr(state.replace()) and state == state.replace()
