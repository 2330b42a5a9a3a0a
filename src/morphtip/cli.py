"""Command-line harness: config loading, experiment commands, stable output.

Angles in config files, command options and emitted records are degrees
(the human-facing unit); everything internal is radians.  All numeric
output is formatted to 9 significant digits with a '.' decimal separator,
so re-running a command on identical inputs is byte-identical.

Exit codes: 0 success, 2 configuration or input parse error, 3 model or
geometry error (jam, unreachable target, penetration).

The command line is read by :mod:`argparse` (see :func:`_parser`); a
usage error exits 2 with its message on stderr and nothing on stdout.
Only the grasp command loads :mod:`morphtip.grasp`, and numpy with it;
every other command starts on the standard library and morphtip's own
modules alone (see :func:`_grasp`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from . import fingertip as ft
from . import linkage as lk
from .errors import InvalidParams, MorphtipError, Penetration, Unreachable, Unsupported

if TYPE_CHECKING:
    from . import grasp as gr

SWEEP_HEADER = "step,theta_deg,phi_deg,B_x_mm,B_y_mm"
POINTER_HEADER = "index,psi_x_deg,psi_y_deg,x_mm,y_mm,z_mm"
# Offset (mm) of the two cradle samples either side of the profile center.
CRADLE_DELTA = 0.1
# Largest sweep count and trace-pointer points per leg: a CSV is built in
# memory before it is written, so its length is bounded before any row.
MAX_COUNT = 100_000


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
    except OSError as exc:
        raise ConfigError(f"output path not writable: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class SweepSpec:
    start_deg: float = 15.0
    step_deg: float = -3.0
    count: int = 13

    def __post_init__(self) -> None:
        if self.count < 2:
            raise InvalidParams("count must be at least 2", field="count")
        if self.count > MAX_COUNT:
            raise InvalidParams(f"count must be at most {MAX_COUNT}", field="count")
        if self.step_deg == 0.0:
            raise InvalidParams("step_deg must be nonzero", field="step_deg")


@dataclass(frozen=True)
class RunConfig:
    tip: ft.FingertipConfig
    sweep: SweepSpec
    out_path: str | None = None


_CONFIG_SECTIONS = {
    "fingertip": ("l_oc_mm", "l_ab_mm", "alpha0_deg", "oa_x_mm", "theta_min_deg",
                  "theta_max_deg", "facet_len_mm", "rod_len_mm"),
    "sweep": ("start_deg", "step_deg", "count"),
    "output": ("path",),
}
# The library argument of each fingertip field is the field's name less its
# unit suffix (see _arg); the linkage takes those it has, the fingertip the rest.
_LINKAGE_ARGS = {f.name for f in fields(lk.LinkageParams)}
_SCENE_FIELDS = ("gap_mm", "mu", "left", "right", "object")
# The scene field that gives each argument of the scene's library classes.
_SCENE_PATHS = {"gap": "gap_mm", "mu": "mu", "radius": "object.radius_mm",
                "center": "object.center_mm", "vertices": "object.vertices_mm",
                "left_profile": "left", "right_profile": "right"}
# A profile spec is a polyline_mm alone, or a primitive with its own fields.
_PRIMITIVE_FIELDS = {"flat": (), "concave": ("degree_deg",), "convex": ("degree_deg",),
                     "tilted-planar": ("tilt_deg",)}
_PRIMITIVES = tuple(_PRIMITIVE_FIELDS)
_OBJECT_FIELDS = {"circle": ("type", "radius_mm", "center_mm"),
                  "polygon": ("type", "vertices_mm")}


def _fields(d, path: str, known, what: str = "config") -> dict:
    """d itself, once it is a JSON object whose keys are all in ``known``.

    ``path`` names d in error messages (``fingertip``, ``object``; empty
    for the root).
    """
    if not isinstance(d, dict):
        where = f"field {path!r}" if path else "root"
        raise ConfigError(f"{what} {where} must be a JSON object")
    for key in d:
        if key not in known:
            raise ConfigError(f"unknown {what} field {(path + '.' if path else '') + key!r}")
    return d


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """value is a JSON number that converts to a finite float.

    An integer too large for a float is not one.
    """
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_finite, value))


def _number(d: dict, key: str, path: str, what: str = "config") -> float:
    """d[key] as a float.

    ``path`` names d as in :func:`_fields`.  A missing key, or a value
    that is not a finite JSON number, is an error naming the field.
    """
    name = (path + "." if path else "") + key
    if key not in d:
        raise ConfigError(f"{what} field {name!r} is required")
    if not _is_number(d[key]):
        raise ConfigError(f"{what} field {name!r} must be a number")
    if not _is_finite(d[key]):
        raise ConfigError(f"{what} field {name!r} must be a finite number")
    return float(d[key])


def _pair(value, name: str) -> tuple[float, float]:
    """A scene's [x, y] number pair."""
    if not _is_pair(value):
        raise ConfigError(f"scene field {name!r} must be a pair of numbers [x, y]")
    return float(value[0]), float(value[1])


def _points(value, name: str, least: int) -> ft.Profile:
    """A scene's list of at least ``least`` [x, y] points."""
    if not (isinstance(value, list) and len(value) >= least and all(map(_is_pair, value))):
        raise ConfigError(f"scene field {name!r} must be a list of at least {least} [x, y] points")
    return tuple((float(x), float(y)) for x, y in value)


def _arg(key: str) -> str:
    """The library argument a fingertip field gives: its name less the unit suffix."""
    return key.rpartition("_")[0]


def _restated(exc: InvalidParams, names: dict[str, str]) -> str:
    """exc's message with each library argument name in it replaced by ``names[name]``.

    The message starts with ``exc.field``; a condition over several
    arguments names the others after it, and they are replaced too.
    """
    return re.sub(r"\w+", lambda m: names.get(m[0], m[0]), str(exc))


def _read_root(path: str, what: str, known) -> dict:
    """The JSON object of a ``what`` file, once its keys are all in ``known``."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    return _fields(raw, "", known, what)


def load_config(path: str | None) -> RunConfig:
    """The run configuration a config file gives; None gives the defaults.

    The library's classes supply the default of every field the file
    leaves out, and check every value the file gives.
    """
    raw = {} if path is None else _read_root(path, "config", _CONFIG_SECTIONS)
    f, s, o = (_fields(raw.get(name, {}), name, known) for name, known in _CONFIG_SECTIONS.items())
    out_path = o.get("path")
    if not (out_path is None or isinstance(out_path, str)):
        raise ConfigError("config field 'output.path' must be a string or null")
    if "count" in s and not (_is_finite(s["count"]) and float(s["count"]).is_integer()):
        raise ConfigError("config field 'sweep.count' must be an integer")
    linkage: dict = {}
    tip: dict = {}
    for key in f:
        value = _number(f, key, "fingertip")
        args = linkage if _arg(key) in _LINKAGE_ARGS else tip
        args[_arg(key)] = math.radians(value) if key.endswith("_deg") else value
    sweep = {key: int(value) if key == "count" else _number(s, key, "sweep")
             for key, value in s.items()}
    try:
        return RunConfig(tip=ft.FingertipConfig(linkage=lk.LinkageParams(**linkage), **tip),
                         sweep=SweepSpec(**sweep), out_path=out_path)
    except InvalidParams as exc:
        if exc.field is None:  # the jam-only stroke, a condition on the whole geometry
            raise ConfigError(f"invalid config: {exc}") from exc
        names = {_arg(key): repr(f"fingertip.{key}") for key in _CONFIG_SECTIONS["fingertip"]}
        names.update((key, repr(f"sweep.{key}")) for key in _CONFIG_SECTIONS["sweep"])
        raise ConfigError(f"config field {_restated(exc, names)}") from exc


def _finite(value: float | None, option: str) -> float | None:
    """A float command option, which must be finite when it is given."""
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{option} must be finite")
    return value


# ---------------------------------------------------------------------------
# primitives and scenes

def _grasp():
    """The grasp module, imported on the first call.

    grasp loads numpy, which only the scene path needs, so this module
    imports it here rather than at the top.
    """
    from . import grasp

    return grasp


def _primitive(kind: str, degree_deg: float | None, tilt_deg: tuple[float, float],
               name: tuple[str, str]) -> ft.MorphPrimitive:
    """The morphing primitive of a plan command or a scene profile spec.

    ``name`` says how the input calls the degree and the tilt; a value
    the primitive's constructor rejects is an input error naming it.
    """
    degree_name, tilt_name = name
    if kind == "flat":
        return ft.Flat()
    if kind != "tilted-planar" and degree_deg is None:
        raise ConfigError(f"{degree_name} is required for concave/convex")
    try:
        if kind == "tilted-planar":
            return ft.TiltedPlanar(math.radians(tilt_deg[0]), math.radians(tilt_deg[1]))
        return (ft.Concave if kind == "concave" else ft.Convex)(math.radians(degree_deg))
    except InvalidParams as exc:
        names = {"depth": degree_name, "tilt_x": tilt_name, "tilt_y": tilt_name}
        unit = f" in degrees for {kind}" if exc.field == "depth" else ""
        raise ConfigError(_restated(exc, names) + unit) from exc


def _profile_from_spec(spec, side: str, tip: ft.FingertipConfig) -> ft.Profile:
    if isinstance(spec, str):
        spec = {"primitive": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"scene field {side!r} must be a string or object")
    if "polyline_mm" in spec:
        _fields(spec, side, ("polyline_mm",), "scene")
        points = _points(spec["polyline_mm"], f"{side}.polyline_mm", 2)
        if not _grasp()._polyline_is_simple(points):
            raise ConfigError(f"scene field '{side}.polyline_mm' must not self-intersect")
        return points
    kind = spec.get("primitive", "flat")
    if kind not in _PRIMITIVES:
        raise ConfigError(f"scene field '{side}.primitive' must be one of {', '.join(_PRIMITIVES)}")
    _fields(spec, side, ("primitive", *_PRIMITIVE_FIELDS[kind]), "scene")
    degree = (_number(spec, "degree_deg", side, what="scene")
              if kind in ("concave", "convex") else None)
    tilt = _pair(spec.get("tilt_deg", [0.0, 0.0]), f"{side}.tilt_deg")
    prim = _primitive(kind, degree, tilt,
                      (f"scene field '{side}.degree_deg'", f"scene field '{side}.tilt_deg'"))
    return ft.plan_primitive(tip, prim).profile_x_points


def load_scene(path: str, tip: ft.FingertipConfig) -> tuple[gr.GraspScene, ft.Profile]:
    """Parse a scene JSON file; also returns the left profile in its own frame."""
    gr = _grasp()
    raw = _read_root(path, "scene", _SCENE_FIELDS)
    gap = _number(raw, "gap_mm", "", what="scene")
    mu = _number(raw, "mu", "", "scene") if "mu" in raw else 0.0
    left_local = _profile_from_spec(raw.get("left", "flat"), "left", tip)
    right_local = _profile_from_spec(raw["right"], "right", tip) if "right" in raw else left_local
    ospec = raw.get("object")
    if not isinstance(ospec, dict):
        raise ConfigError("scene field 'object' must be a JSON object")
    kind = ospec.get("type")
    if not isinstance(kind, str) or kind not in _OBJECT_FIELDS:
        raise ConfigError("scene field 'object.type' must be 'circle' or 'polygon'")
    _fields(ospec, "object", _OBJECT_FIELDS[kind], "scene")
    if kind == "circle":
        center = _pair(ospec.get("center_mm", [gap / 2.0, 0.0]), "object.center_mm")
        shape, args = gr.Circle, (_number(ospec, "radius_mm", "object", what="scene"), center)
    else:
        vertices = _points(ospec.get("vertices_mm"), "object.vertices_mm", 3)
        shape, args = gr.ConvexPolygon, (vertices,)
    try:
        scene = gr.scene_between(left_local, right_local, gap, shape(*args), mu)
    except InvalidParams as exc:
        names = {arg: repr(path) for arg, path in _SCENE_PATHS.items()}
        raise ConfigError(f"scene field {_restated(exc, names)}") from exc
    return scene, left_local


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


def fk(config_path: str | None, theta_deg: float) -> None:
    """Facet angle and linkage points for a servo command."""
    cfg = load_config(config_path)
    theta = math.radians(_finite(theta_deg, "--theta"))
    print(dumps(_fk_record(cfg.tip.linkage, theta)))


def ik(config_path: str | None, phi_deg: float) -> None:
    """Servo command that realizes a facet angle."""
    cfg = load_config(config_path)
    theta = lk.inverse_facet(cfg.tip.linkage, math.radians(_finite(phi_deg, "--phi")))
    print(dumps(_fk_record(cfg.tip.linkage, theta)))


def plan(config_path, primitive, degree_deg, tilt_x_deg, tilt_y_deg) -> None:
    """Plan servo commands for a morphing primitive."""
    cfg = load_config(config_path)
    prim = _primitive(primitive, degree_deg, (tilt_x_deg, tilt_y_deg),
                      ("--degree", "--tilt-x/--tilt-y"))
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


def sweep(config_path, output, start_deg, step_deg, count) -> None:
    """Angular-stroke protocol: stepped servo sweep emitted as CSV."""
    cfg = load_config(config_path)
    given = {"start_deg": _finite(start_deg, "--start"), "step_deg": _finite(step_deg, "--step"),
             "count": count}
    try:
        spec = replace(cfg.sweep, **{k: v for k, v in given.items() if v is not None})
    except InvalidParams as exc:
        raise ConfigError(_restated(exc, {"step_deg": "--step", "count": "--count"})) from exc
    rows = [SWEEP_HEADER]
    phis = []
    for i in range(spec.count):
        t_deg = spec.start_deg + i * spec.step_deg
        try:
            rec = _fk_record(cfg.tip.linkage, math.radians(t_deg))
        except MorphtipError as exc:
            raise type(exc)(f"sweep aborts at step {i}: {exc}") from exc
        phis.append(rec["phi_deg"])
        rows.append(",".join([
            str(i), fnum(rec["theta_deg"]), fnum(rec["phi_deg"]),
            fnum(rec["B"][0]), fnum(rec["B"][1]),
        ]))
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


def trace_pointer(config_path, output, psi_max_deg, points_per_leg) -> None:
    """Pointer-top trajectory over the tilt configuration square."""
    cfg = load_config(config_path)
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
        x, y, z = ft.pointer_top(cfg.tip, px, py)
        rows.append(",".join([
            str(i), fnum(math.degrees(px)), fnum(math.degrees(py)),
            fnum(x), fnum(y), fnum(z),
        ]))
    _emit("\n".join(rows) + "\n", output if output is not None else cfg.out_path)


def grasp(config_path, output, scene_path) -> None:
    """Contact, pivot, closure and cradle report for a two-finger scene."""
    cfg = load_config(config_path)
    scene, left_local = load_scene(scene_path, cfg.tip)
    gr = _grasp()
    contacts = gr.find_contacts(scene)
    closure = (gr.closure_classify(contacts, scene.mu) if contacts else gr.Closure.NONE).value
    cradle_sign = None
    if isinstance(scene.obj, gr.Circle):
        cradle_sign = _cradle_sign(left_local, scene.obj.radius)
    record = {
        "contacts": [{"point_mm": [px, py], "normal": [nx, ny], "side": c.side, "segment": c.segment}
                     for c, (px, py, nx, ny) in zip(contacts, gr._contact_floats(contacts))],
        "pivot_feasible": gr.pivot_feasible(contacts),
        "closure_class": closure,
        "cradle_curvature_sign": cradle_sign,
    }
    _emit(dumps(record) + "\n", output)


def _cradle_sign(profile_local: ft.Profile, radius: float) -> int | None:
    """Sign of the cradle-landscape curvature at the profile center.

    Only the profile passed in is used, and the grasp report passes the
    left one: with a right profile that differs from the left, the sign
    describes the left fingertip alone.
    """
    height = _grasp().cradle_height
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
    option's ``dest`` is the name of the function's parameter.  The
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
    stdout.
    """
    args = vars(_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    run = args.pop("run")
    try:
        run(**args)
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
