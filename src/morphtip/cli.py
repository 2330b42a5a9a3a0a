"""Command-line harness: config loading, experiment commands, stable output.

Angles in config files, command options and emitted records are degrees
(the human-facing unit); everything internal is radians.  All numeric
output is formatted to 9 significant digits with a '.' decimal separator,
so re-running a command on identical inputs is byte-identical.

Exit codes: 0 success, 2 configuration or input parse error, 3 model or
geometry error (jam, unreachable target, penetration).

:data:`_FIELDS` is the one table of the CLI's inputs: a row set for the
config file, one for the scene file and one for each command's options.
A row declares a field's path in its file, or an option's name, with its
kind, the library argument it gives, its unit, its bounds and the
variants that take it.  One walker, :func:`_walk`, reads a file by its
rows and a command's options by theirs, and one set of readers,
:data:`_READERS`, checks the values of both.  One restater,
:func:`_restated`, names a file's fields or a command's options in a
library error.

:mod:`argparse` parses the command line, with a parser built from the
rows (see :func:`_parser`); a usage error, such as a value that does not
parse as its kind, exits 2 with its message on stderr and nothing on
stdout.  :func:`main` reads the options, then loads the config file,
once, and passes the :class:`RunConfig` and the library arguments the
options give to the command.  The grasp command reaches
:mod:`morphtip.grasp` through the package's own lazy names
(``mt.find_contacts``), so only it loads that module.  No command loads
numpy: every command runs on the standard library and morphtip's own
modules alone.

The CLI decides no model rule: the grasp report's cradle sign is
``mt.cradle_sign``, and trace-pointer asks the planar solver
(``linkage.solve_planar_pair``) whether its tilt amplitude is
attainable, so an unreachable tilt gets the error ``plan`` prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from collections import defaultdict, namedtuple

import morphtip as mt

from . import fingertip as ft
from . import linkage as lk
from .errors import InvalidParams, MorphtipError, Penetration, Record, Unreachable

SWEEP_HEADER = "step,theta_deg,phi_deg,B_x_mm,B_y_mm"
POINTER_HEADER = "index,psi_x_deg,psi_y_deg,x_mm,y_mm,z_mm"
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
        if step_deg == 0.0:
            raise InvalidParams("step_deg must be nonzero", field="step_deg")
        vars(self).update(start_deg=start_deg, step_deg=step_deg, count=count)


class RunConfig(Record):
    _fields = ("tip", "sweep", "out_path")

    def __init__(self, tip: ft.FingertipConfig, sweep: SweepSpec,
                 out_path: str | None = None) -> None:
        vars(self).update(tip=tip, sweep=sweep, out_path=out_path)


class _Field(namedtuple("_Field", "kind call arg deg least only default help",
                        defaults=("", "", False, 0, (), None, ""))):
    """How one field of a config or scene file, or one command option, is read.

    ``kind`` is a key of :data:`_READERS`; or, in a file, "object", a
    JSON object of further fields, or "spec", an object that may also be
    given as the name of its variant.  The value goes, read, to the
    argument ``arg`` of the library call ``call``; ``deg`` converts it
    from the input's degrees to the library's radians.  ``least`` is the
    least value an integer takes, or the fewest [x, y] points a points
    field takes.  ``only`` names the variants that take the field, all
    when empty: in a file the variants of its object, for an option those
    of its command's enum option.  An enum row names the variant, and its
    ``only`` lists the values it takes.  ``default`` is read in place of
    an absent input: None leaves the argument to the library, and every
    reader refuses _REQUIRED, which argparse enforces for an option.
    ``help`` is the help text of an option.
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


# The sweep command's options, which are the config file's sweep.<arg> fields too.
_SWEEP = {
    "--start": _Field("number", "sweep", "start_deg", help="First servo command in degrees."),
    "--step": _Field("number", "sweep", "step_deg", help="Servo increment per row in degrees."),
    "--count": _Field("integer", "sweep", "count", least=2, help="Number of rows."),
}
# The option every command takes, and the one every command that writes a file takes.
_CONFIG = {"--config": _Field("string-or-null", "load_config", "config_path", help="JSON config file.")}
_OUTPUT = {"--output": _Field("string-or-null", "emit", "output", help="Write to file instead of stdout.")}

# Every field of a config file and of a scene file, by its path in the file,
# and every option of each command, by its name.  The fields of an object that
# are objects are read in this order, and a command's options in theirs.
_FIELDS = {
    "config": {
        "output": _Field("object"),
        "output.path": _Field("string-or-null", "run", "out_path"),
        "sweep": _Field("object"),
        **{f"sweep.{f.arg}": f for f in _SWEEP.values()},
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
    "fk": {**_CONFIG, "--theta": _Field("number", "facet_pose", "theta", deg=True, default=_REQUIRED,
                                        help="Servo command in degrees.")},
    "ik": {**_CONFIG, "--phi": _Field("number", "inverse_facet", "phi", deg=True, default=_REQUIRED,
                                      help="Facet angle in degrees.")},
    "plan": {
        **_CONFIG,
        "--primitive": _Field("enum", "primitive", "kind", only=_PRIMITIVES, default=_REQUIRED,
                              help="Morphing primitive to plan."),
        "--degree": _Field("number", "primitive", "depth", deg=True, only=("concave", "convex"),
                           help="Facet angle in degrees (concave/convex)."),
        "--tilt-x": _Field("number", "primitive", "tilt_x", deg=True, only=("tilted-planar",),
                           help="Tilt driven by the x facet pair in degrees (tilted-planar)."),
        "--tilt-y": _Field("number", "primitive", "tilt_y", deg=True, only=("tilted-planar",),
                           help="Tilt driven by the y facet pair in degrees (tilted-planar)."),
    },
    "sweep": {**_CONFIG, **_OUTPUT, **_SWEEP},
    "trace-pointer": {
        **_CONFIG, **_OUTPUT,
        "--psi-max": _Field("number", "pointer_top", "psi_max", deg=True, default=5.0,
                            help="Tilt amplitude in degrees."),
        "--points-per-leg": _Field("integer", "pointer_poses", "points_per_leg", least=1, default=4,
                                   help="Samples per segment between the eight anchor poses."),
    },
    "grasp": {**_CONFIG, **_OUTPUT, "--scene": _Field("string-or-null", "load_scene", "scene_path",
                                                      default=_REQUIRED, help="Scene JSON file.")},
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
# it, or raises a ConfigError saying what the value must be.  ``option`` says
# the value is a command option's as argparse parsed it: a number option's
# float can only be non-finite, and an integer option's int may be of any size.

def _number(value, f: _Field, option: bool = False) -> float:
    if not _is_finite(value):
        raise ConfigError("is required" if value is _REQUIRED else "must be a number"
                          if type(value) not in (int, float) else "must be finite" if option
                          else "must be a finite number")
    return (math.radians if f.deg else float)(value)


def _integer(value, f: _Field, option: bool = False) -> int:
    if not (type(value) is int if option else _is_finite(value) and float(value).is_integer()):
        raise ConfigError("must be an integer")
    if value < f.least:
        raise ConfigError(f"must be at least {f.least}")
    if value > MAX_COUNT:
        raise ConfigError(f"must be at most {MAX_COUNT}")
    return int(value)


def _string_or_null(value, f: _Field, option: bool = False) -> str | None:
    if not (value is None or isinstance(value, str)):
        raise ConfigError("must be a string or null")
    return value


def _pair(value, f: _Field, option: bool = False) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_finite, value))):
        raise ConfigError("must be a pair of numbers [x, y]")
    return tuple(map(math.radians if f.deg else float, value))


def _points(value, f: _Field, option: bool = False) -> ft.Profile:
    shape = ConfigError(f"must be a list of at least {f.least} [x, y] points")
    if not (isinstance(value, list) and len(value) >= f.least):
        raise shape
    if len(value) > MAX_POINTS:  # before the points are read: a long list is refused at once
        raise ConfigError(f"must have at most {MAX_POINTS} points")
    try:
        return tuple(_pair(point, f) for point in value)
    except ConfigError:
        raise shape from None


def _enum(value, f: _Field, option: bool = False) -> str:
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

    The options of the command ``what`` are read the same way, as one
    object of the (option, value) pairs given: an option that the
    variant named by the command's enum option does not take is refused.
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
    option = what not in ("config", "scene")
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
            args[f.call][f.arg] = value = _READERS[f.kind](value, f, option)
        except ConfigError as exc:
            name = key if option else f"{what} field {prefix + key!r}"
            raise ConfigError(f"{name} {exc}") from None
        return value

    offered = rows[enum].only if enum else ()
    named = [f.only[0] for key, f in rows.items() if key in given and set(f.only) - set(offered)]
    variant = named[0] if named else enum and read(enum)
    known = [key for key, f in rows.items() if not f.only or variant in f.only]
    for key in given:
        if key not in known:
            raise ConfigError(f"{key} does not apply to {enum} {variant}" if option
                              else f"unknown {what} field {prefix + key!r}")
    values = [key for key in given if rows[key].kind not in ("object", "spec")]
    for key in (*values, *(key for key in known if key not in values)):
        if key != enum and (key in given or rows[key].default is not None):
            read(key)


def _read(path: str | None, what: str, raw: tuple = ()) -> dict[str, dict]:
    """The library arguments, by call, that a ``what`` file gives.

    With no file they are those of the object ``raw``: an empty one for a
    file that is not given, or the given options when ``what`` is a
    command.
    """
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=tuple)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
            raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    args: dict[str, dict] = defaultdict(dict)
    _walk(raw, "", what, args)
    return args


@contextlib.contextmanager
def _restated(what: str, *calls: str):
    """Restate an InvalidParams that one of ``calls`` raises in the body as a ConfigError.

    The message starts with the error's ``field``; a condition over
    several arguments names the others after it.  Each argument is
    renamed by the ``what`` input that gives it: a file names a field by
    its quoted path, the first after "<what> field", and a command names
    an option by itself.  An argument that no row gives comes from the
    one input of its call, when there is one: the tilts pointer_top is
    given all come from --psi-max.
    """
    try:
        yield
    except InvalidParams as exc:
        if exc.field is None:  # the jam-only stroke, a condition on the whole geometry
            raise ConfigError(f"invalid {what}: {exc}") from exc
        file = what in ("config", "scene")
        names = {f.arg: repr(path) if file else path
                 for path, f in _FIELDS[what].items() if f.call in calls}
        if len(names) == 1:
            names.setdefault(exc.field, next(iter(names.values())))
        message = re.sub(r"\w+", lambda m: names.get(m[0], m[0]), str(exc))
        raise ConfigError(f"{what} field {message}" if file else message) from exc


def load_config(path: str | None) -> RunConfig:
    """The run configuration a config file gives; None gives the defaults.

    The library's classes supply the default of every field the file
    leaves out, and check every value the file gives.
    """
    args = _read(path, "config")
    with _restated("config", "linkage", "tip", "sweep"):
        tip = ft.FingertipConfig(linkage=lk.LinkageParams(**args["linkage"]), **args["tip"])
        return RunConfig(tip=tip, sweep=SweepSpec(**args["sweep"]), **args["run"])


# ---------------------------------------------------------------------------
# primitives and scenes

def _primitive(kind: str, depth: float | None = None,
               tilt: tuple[float, float] = (0.0, 0.0)) -> ft.MorphPrimitive:
    """The morphing primitive of a plan command or a scene profile spec.

    ``depth`` and ``tilt`` are in radians.  A value the primitive's
    constructor rejects is InvalidParams naming its argument, for the
    caller to restate in its input's names.
    """
    if kind == "flat":
        return ft.Flat()
    if kind == "tilted-planar":
        return ft.TiltedPlanar(*tilt)
    if depth is None:
        raise InvalidParams("depth is required for concave/convex", field="depth")
    try:
        return (ft.Concave if kind == "concave" else ft.Convex)(depth)
    except InvalidParams as exc:
        raise InvalidParams(f"{exc} in degrees for {kind}", field=exc.field) from exc


def _profile(spec: dict, side: str, tip: ft.FingertipConfig) -> ft.Profile:
    """The profile a scene's left or right spec gives, in its fingertip's own frame.

    That is its polyline_mm as read, or else its primitive's planned profile.
    """
    if f"{side}_profile" in spec:
        return spec[f"{side}_profile"]
    with _restated("scene", side):
        prim = _primitive(**spec)
    return ft.plan_primitive(tip, prim).profile_x_points


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
    with _restated("scene", "scene", "object", "left", "right"):
        shape = (mt.Circle(**{"center": (scene["gap"] / 2.0, 0.0), **obj}) if circle
                 else mt.ConvexPolygon(**obj))
        return mt.scene_between(left, right, obj=shape, **scene)


# ---------------------------------------------------------------------------
# commands

def fk(cfg: RunConfig, theta: float) -> None:
    """Facet angle and linkage points for a servo command."""
    params = cfg.tip.linkage
    phi, bx, by = lk.facet_pose(params, theta)
    print(dumps({
        "theta_deg": math.degrees(theta),
        "phi_deg": math.degrees(phi),
        "B": [bx, by],
        "C": [params.l_oc, 0.0],
        "CB": [bx - params.l_oc, by],
    }))


def ik(cfg: RunConfig, phi: float) -> None:
    """Servo command that realizes a facet angle, printed as :func:`fk` prints it."""
    fk(cfg, lk.inverse_facet(cfg.tip.linkage, phi))


def plan(cfg: RunConfig, kind: str, depth: float | None = None, tilt_x: float = 0.0,
         tilt_y: float = 0.0) -> None:
    """Plan servo commands for a morphing primitive."""
    with _restated("plan", "primitive"):
        prim = _primitive(kind, depth, (tilt_x, tilt_y))
    state = ft.plan_primitive(cfg.tip, prim)
    record = {
        "primitive": kind,
        "theta_deg": [math.degrees(t) for t in state.thetas],
        "phi_deg": [math.degrees(p) for p in state.phis],
        "terrace_tilt_deg": [math.degrees(t) for t in state.terrace_tilt],
        "profile_x_mm": state.profile_x_points,
        "profile_y_mm": state.profile_y_points,
    }
    print(dumps(record))


def sweep(cfg: RunConfig, output: str | None = None, **given) -> None:
    """Angular-stroke protocol: stepped servo sweep emitted as CSV."""
    with _restated("sweep", "sweep"):
        spec = cfg.sweep.replace(**given)
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


def trace_pointer(cfg: RunConfig, psi_max: float, points_per_leg: int, output: str | None = None) -> None:
    """Pointer-top trajectory over the tilt configuration square."""
    if psi_max != 0.0:  # the origin is traced even by a stroke that attains no tilt
        lk.solve_planar_pair(cfg.tip.linkage, abs(psi_max))
    rows = [POINTER_HEADER]
    with _restated("trace-pointer", "pointer_top"):  # an attainable tilt the pointer model refuses
        for i, (px, py) in enumerate(_pointer_poses(psi_max, points_per_leg)):
            x, y, z = ft.pointer_top(cfg.tip, px, py)
            rows.append(",".join([
                str(i), fnum(math.degrees(px)), fnum(math.degrees(py)),
                fnum(x), fnum(y), fnum(z),
            ]))
    _emit("\n".join(rows) + "\n", output if output is not None else cfg.out_path)


def grasp(cfg: RunConfig, scene_path: str, output: str | None = None) -> None:
    """Contact, pivot, closure and cradle report for a two-finger scene."""
    scene = load_scene(scene_path, cfg.tip)
    contacts = mt.find_contacts(scene)
    closure = (mt.closure_classify(contacts, scene.mu) if contacts else mt.Closure.NONE).value
    record = {
        "contacts": [{"point_mm": c.point_xy, "normal": c.normal_xy, "side": c.side,
                      "segment": c.segment} for c in contacts],
        "pivot_feasible": mt.pivot_feasible(contacts),
        "closure_class": closure,
        "cradle_curvature_sign": mt.cradle_sign(scene),
    }
    _emit(dumps(record) + "\n", output)


# ---------------------------------------------------------------------------
# command line

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line: one subcommand per command function above.

    A subcommand is named after its function, with '-' for '_', and takes
    the options of its rows in :data:`_FIELDS`, each with its row's help
    text.  argparse converts a number option to float and an integer
    option to int, takes an enum option's values only and requires an
    option whose default is _REQUIRED.  Each option's ``dest`` is its
    row's ``arg``, and an absent option is left out of the namespace.
    The parser is built once per process: building it takes several
    times as long as a command's own work.
    """
    parser = argparse.ArgumentParser(
        prog="morphtip", description="Shape-morphing fingertip kinematics and grasp analysis.",
        allow_abbrev=False, add_help=False)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for run in (fk, ik, plan, sweep, trace_pointer, grasp):
        name = run.__name__.replace("_", "-")
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False, add_help=False, argument_default=argparse.SUPPRESS)
        sub.set_defaults(run=run, command=name)
        for option, f in _FIELDS[name].items():
            sub.add_argument(option, dest=f.arg, type={"number": float, "integer": int}.get(f.kind),
                             choices=f.only if f.kind == "enum" else None,
                             required=f.default is _REQUIRED, help=f.help)
    for p in (parser, *commands.choices.values()):
        p.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each ``--option value`` pair written as ``--option=value``.

    Every option but --help takes a value, and the token after it is that
    value even when it starts with '-', such as ``--theta -inf`` or
    ``--step -1e-3``; argparse alone would read those as unknown options.
    After the first ``--`` every token is a positional argument, which no
    command takes, so an option just before it has no value; a ``--``
    with nothing after it is dropped.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    out: list[str] = []
    tokens = iter(argv[:end])
    for token in tokens:
        if token.startswith("--") and "=" not in token and token != "--help":
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        out.append(token)
    rest = argv[end:]
    return out + rest if rest[1:] else out


def main(argv: list[str] | None = None) -> None:
    """Run one command line (``sys.argv[1:]`` by default).

    The one place known failures become an error JSON line on stdout and
    an exit code; a usage error exits 2 through argparse, with nothing on
    stdout.  The options are read first, then the config file is loaded,
    once, and the command gets the RunConfig and the options' library
    arguments.
    """
    given = vars(_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    command = given["command"]
    options = tuple((option, given[f.arg]) for option, f in _FIELDS[command].items() if f.arg in given)
    try:
        args = {arg: value for call in _read(None, command, options).values() for arg, value in call.items()}
        given["run"](load_config(args.pop("config_path", None)), **args)
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
