"""Command-line harness: config loading, experiment commands, stable output.

Angles in config files, command options and emitted records are degrees
(the human-facing unit); everything internal is radians.  All numeric
output is formatted to 9 significant digits with a '.' decimal separator,
so re-running a command on identical inputs is byte-identical.

Exit codes: 0 success, 2 configuration or input parse error, 3 model or
geometry error (jam, unreachable target, penetration).

:data:`_FIELDS` is the one place a field of a config or scene file is
declared: its path in the file, its kind, the library argument it gives,
its unit and its least length.  One walker, :func:`_walk`, reads both
files by it, and a library error is restated by it in the file's paths.

The command line is read by :mod:`argparse` (see :func:`_parser`); a
usage error exits 2 with its message on stderr and nothing on stdout.
:func:`main` loads the config file, once, and passes the
:class:`RunConfig` to the command.  The grasp command reaches
:mod:`morphtip.grasp` through the package's own lazy names
(``mt.find_contacts``), so only it loads that module.  No command loads
numpy: every command runs on the standard library and morphtip's own
modules alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections import defaultdict, namedtuple

import morphtip as mt

from . import fingertip as ft
from . import linkage as lk
from .errors import InvalidParams, MorphtipError, Penetration, Record, Unreachable, Unsupported

SWEEP_HEADER = "step,theta_deg,phi_deg,B_x_mm,B_y_mm"
POINTER_HEADER = "index,psi_x_deg,psi_y_deg,x_mm,y_mm,z_mm"
# Offset (mm) of the two cradle samples either side of the profile center.
CRADLE_DELTA = 0.1
# Largest sweep count and trace-pointer points per leg: a CSV is built in
# memory before it is written, so its length is bounded before any row.
MAX_COUNT = 100_000
# Most [x, y] points a scene's polyline_mm or vertices_mm may list: the
# check that a polyline does not cross itself costs O(n^2), and a grasp
# makes it once per placed profile.
MAX_POINTS = 256


class ConfigError(Exception):
    """Bad configuration file or command input."""


# ---------------------------------------------------------------------------
# deterministic formatting

def fnum(x: float) -> str:
    """Format a finite float to 9 significant digits, locale-independent.

    A non-finite number is refused with ValueError: it has no JSON form.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot format the non-finite number {x!r}")
    return format(float(x) + 0.0, ".9g")  # adding 0.0 turns -0.0 into 0.0


def dumps(obj) -> str:
    """JSON text with fnum-formatted floats and stable key order."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fnum(obj)
    return json.dumps(obj)


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"output path not writable: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration

class SweepSpec(Record):
    _fields = ("start_deg", "step_deg", "count")

    def __init__(self, start_deg: float = 15.0, step_deg: float = -3.0, count: int = 13) -> None:
        if count < 2:
            raise InvalidParams("count must be at least 2", field="count")
        if count > MAX_COUNT:
            raise InvalidParams(f"count must be at most {MAX_COUNT}", field="count")
        if step_deg == 0.0:
            raise InvalidParams("step_deg must be nonzero", field="step_deg")
        vars(self).update(start_deg=start_deg, step_deg=step_deg, count=count)


class RunConfig(Record):
    _fields = ("tip", "sweep", "out_path")

    def __init__(self, tip: ft.FingertipConfig, sweep: SweepSpec,
                 out_path: str | None = None) -> None:
        vars(self).update(tip=tip, sweep=sweep, out_path=out_path)


class _Field(namedtuple("_Field", "kind call arg deg least only default",
                        defaults=("", "", False, 0, (), None))):
    """How :func:`_walk` reads one field of a config or scene file.

    ``kind`` is a key of :data:`_READERS`; or "object", a JSON object of
    further fields; or "spec", an object that may also be given as the
    name of its variant.  The value goes, read, to the argument ``arg``
    of the library call ``call``; ``deg`` converts it from the file's
    degrees to the library's radians.  ``least`` is the fewest [x, y]
    points a points field takes.  ``only`` names the variants of its
    object that take the field, all when empty; an enum field names its
    object's variant, and its ``only`` lists the values it takes.
    ``default`` is read in place of an absent field: None leaves the
    argument to the library, and every reader refuses _REQUIRED.
    """

    __slots__ = ()


_REQUIRED = object()
_PRIMITIVES = ("flat", "concave", "convex", "tilted-planar")


def _profile_fields(side: str, default: str | None) -> dict[str, _Field]:
    """A scene profile spec: a primitive, by name or as an object, or a polyline_mm alone."""
    return {
        side: _Field("spec", default=default),
        f"{side}.primitive": _Field("enum", side, "kind", only=_PRIMITIVES, default="flat"),
        f"{side}.degree_deg": _Field("number", side, "depth", deg=True, only=("concave", "convex"),
                                     default=_REQUIRED),
        f"{side}.tilt_deg": _Field("pair", side, "tilt", deg=True, only=("tilted-planar",)),
        f"{side}.polyline_mm": _Field("points", side, f"{side}_profile", least=2, only=("polyline",)),
    }


# Every field of a config file and of a scene file, by its path in the file.
# The fields of an object that are objects are read in this order.
_FIELDS = {
    "config": {
        "output": _Field("object"),
        "output.path": _Field("string-or-null", "run", "out_path"),
        "sweep": _Field("object"),
        "sweep.start_deg": _Field("number", "sweep", "start_deg"),
        "sweep.step_deg": _Field("number", "sweep", "step_deg"),
        "sweep.count": _Field("integer", "sweep", "count"),
        "fingertip": _Field("object"),
        "fingertip.l_oc_mm": _Field("number", "linkage", "l_oc"),
        "fingertip.l_ab_mm": _Field("number", "linkage", "l_ab"),
        "fingertip.alpha0_deg": _Field("number", "linkage", "alpha0", deg=True),
        "fingertip.oa_x_mm": _Field("number", "linkage", "oa_x"),
        "fingertip.theta_min_deg": _Field("number", "linkage", "theta_min", deg=True),
        "fingertip.theta_max_deg": _Field("number", "linkage", "theta_max", deg=True),
        "fingertip.facet_len_mm": _Field("number", "tip", "facet_len"),
        "fingertip.rod_len_mm": _Field("number", "tip", "rod_len"),
    },
    "scene": {
        "gap_mm": _Field("number", "scene", "gap", default=_REQUIRED),
        "mu": _Field("number", "scene", "mu", default=0.0),
        **_profile_fields("left", "flat"),
        **_profile_fields("right", None),  # absent, it mirrors left
        "object": _Field("object", default=_REQUIRED),
        "object.type": _Field("enum", "object", "type", only=("circle", "polygon")),
        "object.radius_mm": _Field("number", "object", "radius", only=("circle",), default=_REQUIRED),
        "object.center_mm": _Field("pair", "object", "center", only=("circle",)),
        "object.vertices_mm": _Field("points", "object", "vertices", least=3, only=("polygon",),
                                     default=_REQUIRED),
    },
}


def _is_finite(value) -> bool:
    """value is a JSON number that converts to a finite float.

    An integer too large for a float is not one.  JSON numbers read as
    int or float, and true and false as bool, which is not one either.
    """
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


# The reader of each kind of value: it returns the value as the library takes
# it, or raises a ConfigError saying what the value must be.

def _number(value, f: _Field) -> float:
    if not _is_finite(value):
        raise ConfigError("is required" if value is _REQUIRED else "must be a finite number"
                          if type(value) in (int, float) else "must be a number")
    return (math.radians if f.deg else float)(value)


def _integer(value, f: _Field) -> int:
    if not (_is_finite(value) and float(value).is_integer()):
        raise ConfigError("must be an integer")
    return int(value)


def _string_or_null(value, f: _Field) -> str | None:
    if not (value is None or isinstance(value, str)):
        raise ConfigError("must be a string or null")
    return value


def _pair(value, f: _Field) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_finite, value))):
        raise ConfigError("must be a pair of numbers [x, y]")
    return tuple(map(math.radians if f.deg else float, value))


def _points(value, f: _Field) -> ft.Profile:
    shape = ConfigError(f"must be a list of at least {f.least} [x, y] points")
    if not (isinstance(value, list) and len(value) >= f.least):
        raise shape
    if len(value) > MAX_POINTS:  # before the points are read: a long list is refused at once
        raise ConfigError(f"must have at most {MAX_POINTS} points")
    try:
        return tuple(_pair(point, f) for point in value)
    except ConfigError:
        raise shape from None


def _enum(value, f: _Field) -> str:
    if value not in f.only:
        names = " or ".join(map(repr, f.only)) if len(f.only) == 2 else "one of " + ", ".join(f.only)
        raise ConfigError(f"must be {names}")
    return value


_READERS = {"number": _number, "integer": _integer, "string-or-null": _string_or_null,
            "pair": _pair, "points": _points, "enum": _enum}


def _walk(node, path: str, what: str, args: dict[str, dict]) -> None:
    """Read ``node``, the JSON object at ``path`` of a ``what`` file, into ``args``.

    JSON objects arrive as tuples of (key, value) pairs, so a key given
    twice is seen.  An object's enum field names its variant, and the
    variant says which keys the object takes; a field of a variant the
    enum does not offer (a profile's polyline_mm) names that variant by
    being there.  Unknown keys are refused before any value is read;
    then values are read in file order, then absent fields and objects
    in table order.  Each value goes to ``args[call][arg]``.
    """
    table = _FIELDS[what]
    spec = path in table and table[path].kind == "spec"
    rows = {p.rpartition(".")[2]: f for p, f in table.items() if p.rpartition(".")[0] == path}
    enum = next((key for key, f in rows.items() if f.kind == "enum"), None)
    if spec and isinstance(node, str):
        node = ((enum, node),)
    if not isinstance(node, tuple):
        where = f"field {path!r}" if path else "root"
        raise ConfigError(f"{what} {where} must be a {'string or object' if spec else 'JSON object'}")
    prefix = f"{path}." if path else ""
    given: dict = {}
    for key, value in node:
        if key in given:
            raise ConfigError(f"duplicate {what} field {prefix + key!r}")
        given[key] = value

    def read(key: str):
        f = rows[key]
        value = given.get(key, f.default)
        if f.kind in ("object", "spec"):
            return _walk(value, prefix + key, what, args)
        try:
            args[f.call][f.arg] = value = _READERS[f.kind](value, f)
        except ConfigError as exc:
            raise ConfigError(f"{what} field {prefix + key!r} {exc}") from None
        return value

    offered = rows[enum].only if enum else ()
    named = [f.only[0] for key, f in rows.items() if key in given and set(f.only) - set(offered)]
    variant = named[0] if named else enum and read(enum)
    known = [key for key, f in rows.items() if not f.only or variant in f.only]
    for key in given:
        if key not in known:
            raise ConfigError(f"unknown {what} field {prefix + key!r}")
    values = [key for key in given if rows[key].kind not in ("object", "spec")]
    for key in (*values, *(key for key in known if key not in values)):
        if key != enum and (key in given or rows[key].default is not None):
            read(key)


def _read(path: str | None, what: str) -> dict[str, dict]:
    """The library arguments a ``what`` file gives, by call; no file is an empty object."""
    raw = ()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=tuple)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
            raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    args: dict[str, dict] = defaultdict(dict)
    _walk(raw, "", what, args)
    return args


def _restated(exc: InvalidParams, names: dict[str, str]) -> str:
    """exc's message with each library argument name in it replaced by ``names[name]``.

    The message starts with ``exc.field``; a condition over several
    arguments names the others after it, and they are replaced too.
    """
    return re.sub(r"\w+", lambda m: names.get(m[0], m[0]), str(exc))


def _file_error(exc: InvalidParams, what: str, *calls: str) -> ConfigError:
    """exc, raised by one of ``calls``, with each argument named by the ``what`` field giving it."""
    if exc.field is None:  # the jam-only stroke, a condition on the whole geometry
        return ConfigError(f"invalid {what}: {exc}")
    names = {f.arg: repr(path) for path, f in _FIELDS[what].items() if f.call in calls}
    return ConfigError(f"{what} field {_restated(exc, names)}")


def load_config(path: str | None) -> RunConfig:
    """The run configuration a config file gives; None gives the defaults.

    The library's classes supply the default of every field the file
    leaves out, and check every value the file gives.
    """
    args = _read(path, "config")
    try:
        tip = ft.FingertipConfig(linkage=lk.LinkageParams(**args["linkage"]), **args["tip"])
        return RunConfig(tip=tip, sweep=SweepSpec(**args["sweep"]), **args["run"])
    except InvalidParams as exc:
        raise _file_error(exc, "config", "linkage", "tip", "sweep") from exc


def _finite(value: float | None, option: str) -> float | None:
    """A float command option, which must be finite when it is given."""
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{option} must be finite")
    return value


# ---------------------------------------------------------------------------
# primitives and scenes

def _primitive(kind: str, depth: float | None = None, tilt: tuple[float, float] = (0.0, 0.0), *,
               names: dict[str, str]) -> ft.MorphPrimitive:
    """The morphing primitive of a plan command or a scene profile spec.

    ``depth`` and ``tilt`` are in radians.  ``names`` says how the input
    calls each argument of the primitive (``depth``, ``tilt_x``,
    ``tilt_y``); a value the primitive's constructor rejects is an input
    error naming it.
    """
    if kind == "flat":
        return ft.Flat()
    if kind != "tilted-planar" and depth is None:
        raise ConfigError(f"{names['depth']} is required for concave/convex")
    try:
        if kind == "tilted-planar":
            return ft.TiltedPlanar(*tilt)
        return (ft.Concave if kind == "concave" else ft.Convex)(depth)
    except InvalidParams as exc:
        unit = f" in degrees for {kind}" if exc.field == "depth" else ""
        raise ConfigError(_restated(exc, names) + unit) from exc


def _profile(spec: dict, side: str, tip: ft.FingertipConfig) -> ft.Profile:
    """The profile a scene's left or right spec gives, in its fingertip's own frame.

    That is its polyline_mm as read, or else its primitive's planned profile.
    """
    if f"{side}_profile" in spec:
        return spec[f"{side}_profile"]
    names = {f.arg: f"scene field {path!r}" for path, f in _FIELDS["scene"].items() if f.call == side}
    return ft.plan_primitive(tip, _primitive(**spec, names=names)).profile_x_points


def load_scene(path: str, tip: ft.FingertipConfig) -> mt.GraspScene:
    """Parse a scene JSON file into the scene it describes.

    The library checks the values once the file is read, and its errors
    are restated in the file's field paths.  An error in a placed profile
    names its side's polyline_mm, the one kind of profile that can touch
    itself (a planned primitive's points only advance along x); as
    ``GraspScene`` makes that check, it comes after the object's checks.
    A mirrored profile whose points the gap would put out of float range
    names gap_mm.
    """
    args = _read(path, "scene")
    left = _profile(args["left"], "left", tip)
    right = _profile(args["right"], "right", tip) if args["right"] else left
    obj, scene = args["object"], args["scene"]
    circle = obj.pop("type") == "circle"
    try:
        shape = (mt.Circle(**{"center": (scene["gap"] / 2.0, 0.0), **obj}) if circle
                 else mt.ConvexPolygon(**obj))
        return mt.scene_between(left, right, obj=shape, **scene)
    except InvalidParams as exc:
        raise _file_error(exc, "scene", "scene", "object", "left", "right") from exc


# ---------------------------------------------------------------------------
# commands

def _fk_record(params: lk.LinkageParams, theta: float) -> dict:
    phi, bx, by = lk.facet_pose(params, theta)
    return {
        "theta_deg": math.degrees(theta),
        "phi_deg": math.degrees(phi),
        "B": [bx, by],
        "C": [params.l_oc, 0.0],
        "CB": [bx - params.l_oc, by],
    }


def fk(cfg: RunConfig, theta_deg: float) -> None:
    """Facet angle and linkage points for a servo command."""
    theta = math.radians(_finite(theta_deg, "--theta"))
    print(dumps(_fk_record(cfg.tip.linkage, theta)))


def ik(cfg: RunConfig, phi_deg: float) -> None:
    """Servo command that realizes a facet angle."""
    theta = lk.inverse_facet(cfg.tip.linkage, math.radians(_finite(phi_deg, "--phi")))
    print(dumps(_fk_record(cfg.tip.linkage, theta)))


def plan(cfg: RunConfig, primitive, degree_deg, tilt_x_deg, tilt_y_deg) -> None:
    """Plan servo commands for a morphing primitive."""
    depth = None if degree_deg is None else math.radians(degree_deg)
    tilt = "--tilt-x/--tilt-y"
    prim = _primitive(primitive, depth, (math.radians(tilt_x_deg), math.radians(tilt_y_deg)),
                      names={"depth": "--degree", "tilt_x": tilt, "tilt_y": tilt})
    state = ft.plan_primitive(cfg.tip, prim)
    record = {
        "primitive": primitive,
        "theta_deg": [math.degrees(t) for t in state.thetas],
        "phi_deg": [math.degrees(p) for p in state.phis],
        "terrace_tilt_deg": [math.degrees(t) for t in state.terrace_tilt],
        "profile_x_mm": state.profile_x_points,
        "profile_y_mm": state.profile_y_points,
    }
    print(dumps(record))


def sweep(cfg: RunConfig, output, start_deg, step_deg, count) -> None:
    """Angular-stroke protocol: stepped servo sweep emitted as CSV."""
    given = {"start_deg": _finite(start_deg, "--start"), "step_deg": _finite(step_deg, "--step"),
             "count": count}
    try:
        spec = cfg.sweep.replace(**{k: v for k, v in given.items() if v is not None})
    except InvalidParams as exc:
        raise ConfigError(_restated(exc, {"step_deg": "--step", "count": "--count"})) from exc
    rows = [SWEEP_HEADER]
    phis = []  # as printed: the CSV itself must be strictly monotone
    for i in range(spec.count):
        theta = math.radians(spec.start_deg + i * spec.step_deg)
        try:
            phi, bx, by = lk.facet_pose(cfg.tip.linkage, theta)
        except MorphtipError as exc:
            raise type(exc)(f"sweep aborts at step {i}: {exc}") from exc
        cells = [fnum(math.degrees(theta)), fnum(math.degrees(phi)), fnum(bx), fnum(by)]
        phis.append(float(cells[1]))
        rows.append(",".join([str(i), *cells]))
    diffs = [b - a for a, b in zip(phis, phis[1:])]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ConfigError("sweep output is not strictly monotone in phi")
    _emit("\n".join(rows) + "\n", output if output is not None else cfg.out_path)


def _pointer_poses(psi_max: float, points_per_leg: int) -> list[tuple[float, float]]:
    """Closed loop over the eight extreme tilt poses, corners and mid-edges."""
    anchors = [
        (psi_max, 0.0), (psi_max, psi_max), (0.0, psi_max), (-psi_max, psi_max),
        (-psi_max, 0.0), (-psi_max, -psi_max), (0.0, -psi_max), (psi_max, -psi_max),
    ]
    poses = []
    for i, (ax, ay) in enumerate(anchors):
        bx, by = anchors[(i + 1) % len(anchors)]
        for j in range(points_per_leg):
            t = j / points_per_leg
            poses.append((ax + (bx - ax) * t, ay + (by - ay) * t))
    poses.append(anchors[0])
    return poses


def trace_pointer(cfg: RunConfig, output, psi_max_deg, points_per_leg) -> None:
    """Pointer-top trajectory over the tilt configuration square."""
    if points_per_leg < 1:
        raise ConfigError("points-per-leg must be at least 1")
    if points_per_leg > MAX_COUNT:
        raise ConfigError(f"points-per-leg must be at most {MAX_COUNT}")
    psi_max = math.radians(_finite(psi_max_deg, "--psi-max"))
    if psi_max != 0.0:
        lo, hi = lk.attainable_tilt_range(cfg.tip.linkage)
        if not lo <= -abs(psi_max) <= abs(psi_max) <= hi:
            raise Unreachable(
                f"tilt amplitude {psi_max_deg} deg outside the attainable range",
                attainable=(lo, hi),
            )
    rows = [POINTER_HEADER]
    for i, (px, py) in enumerate(_pointer_poses(psi_max, points_per_leg)):
        try:
            x, y, z = ft.pointer_top(cfg.tip, px, py)
        except InvalidParams as exc:  # an attainable tilt the pointer model refuses
            raise ConfigError(_restated(exc, {"psi_x": "--psi-max", "psi_y": "--psi-max"})) from exc
        rows.append(",".join([
            str(i), fnum(math.degrees(px)), fnum(math.degrees(py)),
            fnum(x), fnum(y), fnum(z),
        ]))
    _emit("\n".join(rows) + "\n", output if output is not None else cfg.out_path)


def grasp(cfg: RunConfig, output, scene_path) -> None:
    """Contact, pivot, closure and cradle report for a two-finger scene."""
    scene = load_scene(scene_path, cfg.tip)
    contacts = mt.find_contacts(scene)
    closure = (mt.closure_classify(contacts, scene.mu) if contacts else mt.Closure.NONE).value
    record = {
        "contacts": [{"point_mm": c.point_xy, "normal": c.normal_xy, "side": c.side,
                      "segment": c.segment} for c in contacts],
        "pivot_feasible": mt.pivot_feasible(contacts),
        "closure_class": closure,
        "cradle_curvature_sign": (_cradle_sign([(y, x) for x, y in scene.left_points],
                                               scene.obj.radius)
                                  if isinstance(scene.obj, mt.Circle) else None),
    }
    _emit(dumps(record) + "\n", output)


def _cradle_sign(profile_local: ft.Profile, radius: float) -> int | None:
    """Sign of the cradle-landscape curvature at the profile center.

    Only the profile passed in is used, and the grasp report passes the
    left one, read back into its own frame from the scene (swapping each
    (x, y) pair of ``scene.left_points`` exactly undoes ``place_left``): with
    a right profile that differs from the left, the sign describes the
    left fingertip alone.
    """
    height = mt.cradle_height
    try:
        h0 = height(profile_local, radius, 0.0)
        curv = (height(profile_local, radius, CRADLE_DELTA)
                + height(profile_local, radius, -CRADLE_DELTA) - 2.0 * h0)
    except Unsupported:
        return None
    if curv > 1e-9:
        return 1
    if curv < -1e-9:
        return -1
    return 0


# ---------------------------------------------------------------------------
# command line

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line: one subcommand per command function above.

    A subcommand is named after its function, with '-' for '_', and each
    option's ``dest`` is the name of the function's parameter; --config's
    is ``config_path``, which :func:`main` loads into the first one.  The
    parser is built once per process: building it takes several times as
    long as a command's own work.
    """
    parser = argparse.ArgumentParser(
        prog="morphtip", description="Shape-morphing fingertip kinematics and grasp analysis.",
        allow_abbrev=False, add_help=False)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(run, output: bool = False) -> argparse.ArgumentParser:
        sub = commands.add_parser(run.__name__.replace("_", "-"), help=run.__doc__,
                                  description=run.__doc__, allow_abbrev=False, add_help=False)
        sub.set_defaults(run=run)
        sub.add_argument("--config", dest="config_path", help="JSON config file.")
        if output:
            sub.add_argument("--output", help="Write to file instead of stdout.")
        return sub

    sub = command(fk)
    sub.add_argument("--theta", dest="theta_deg", type=float, required=True,
                     help="Servo command in degrees.")
    sub = command(ik)
    sub.add_argument("--phi", dest="phi_deg", type=float, required=True,
                     help="Facet angle in degrees.")
    sub = command(plan)
    sub.add_argument("--primitive", choices=_PRIMITIVES, required=True,
                     help="Morphing primitive to plan.")
    sub.add_argument("--degree", dest="degree_deg", type=float, default=None,
                     help="Facet angle in degrees (concave/convex).")
    sub.add_argument("--tilt-x", dest="tilt_x_deg", type=float, default=0.0,
                     help="Tilt driven by the x facet pair in degrees (tilted-planar).")
    sub.add_argument("--tilt-y", dest="tilt_y_deg", type=float, default=0.0,
                     help="Tilt driven by the y facet pair in degrees (tilted-planar).")
    sub = command(sweep, output=True)
    sub.add_argument("--start", dest="start_deg", type=float, default=None,
                     help="First servo command in degrees.")
    sub.add_argument("--step", dest="step_deg", type=float, default=None,
                     help="Servo increment per row in degrees.")
    sub.add_argument("--count", type=int, default=None, help="Number of rows.")
    sub = command(trace_pointer, output=True)
    sub.add_argument("--psi-max", dest="psi_max_deg", type=float, default=5.0,
                     help="Tilt amplitude in degrees.")
    sub.add_argument("--points-per-leg", type=int, default=4,
                     help="Samples per segment between the eight anchor poses.")
    sub = command(grasp, output=True)
    sub.add_argument("--scene", dest="scene_path", required=True, help="Scene JSON file.")
    for p in (parser, *commands.choices.values()):
        p.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each ``--option value`` pair written as ``--option=value``.

    Every option but --help takes a value, and the token after it is that
    value even when it starts with '-', such as ``--theta -inf`` or
    ``--step -1e-3``; argparse alone would read those as unknown options.
    After ``--`` every token is a positional argument, which no command
    takes; a ``--`` with nothing after it is dropped.
    """
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            rest = list(tokens)
            out += [token, *rest] if rest else []
        elif token.startswith("--") and "=" not in token and token != "--help":
            value = next(tokens, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> None:
    """Run one command line (``sys.argv[1:]`` by default).

    The one place known failures become an error JSON line on stdout and
    an exit code; a usage error exits 2 through argparse, with nothing on
    stdout.  The config file is loaded here, once, before the command
    checks any of its options, and the command gets the RunConfig.
    """
    args = vars(_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    run = args.pop("run")
    try:
        run(load_config(args.pop("config_path")), **args)
    except ConfigError as exc:
        code, error = 2, {"code": "config", "message": str(exc)}
    except MorphtipError as exc:
        code, error = 3, {"code": type(exc).__name__.lower(), "message": str(exc)}
        if isinstance(exc, Penetration) and exc.witness is not None:
            error["witness_mm"] = list(exc.witness)
        if isinstance(exc, Unreachable) and exc.attainable is not None:
            error["attainable_deg"] = [math.degrees(v) for v in exc.attainable]
    else:
        return
    print(dumps({"error": error}))
    sys.exit(code)


# The in-process benchmark probe calls main.main(args=..., prog_name=..., standalone_mode=False).
main.main = lambda args, **_: main(args)


if __name__ == "__main__":
    main()
