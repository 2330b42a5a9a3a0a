"""Full fingertip model: four facets in two decoupled vertical planes.

A fingertip carries a central terrace on a ball joint and four leaf facets
(+x, -x, +y, -y), each driven by its own slider-crank half-plane.  Ball
sleeves decouple the two planes, so the x pair and the y pair are modeled
independently with the same :class:`~morphtip.linkage.LinkageParams`.

The terrace itself is under-actuated: leaf springs at the creases pull it
toward the pose that mirrors the two opposing facets.  Facet angles are
always recorded as the horizontal-terrace forward-kinematics readout; the
small hinge displacement caused by terrace tilt is neglected, except that
surface profiles hinge the facets on the tilted terrace so a planar pose
draws as one straight line.

Each public function checks its numbers once, as it is called; the
helpers below it (``_state``, ``_profile``, ``_settle`` and linkage's
``_slider_ray`` and ``_tilt_residual``) trust the floats they are given,
which a public call or a plan already checked.

The library computes and stores Python floats.  Every ndarray it returns
is built by :func:`morphtip.errors._array`, the one place numpy is
imported, and only when an array is asked for: the CLI's commands start
without it.
"""

from __future__ import annotations

import math

from . import linkage
from .errors import InvalidParams, Record, _array, _array_of, check_number, positive
from .linkage import _JAM, LinkageParams, _require_finite_points, _slider_ray

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

# A cross-section polyline as (x, y) points; a fingertip plane has four.
Profile = tuple[tuple[float, float], ...]
# Most states one transition ramp may hold: every state is built in memory,
# and a step that rounds to 0 rad would make an endless ramp.
MAX_STATES = 100_000


def _negative(value: float) -> bool:
    return value < 0


def _below_45_degrees(value: float) -> bool:
    return abs(value) < math.pi / 4


class FingertipConfig(Record):
    """Dimensions and actuation defaults of one fingertip.

    facet_len is the hinge-to-tip facet extent, so the plate diameter is
    2 * (l_oc + facet_len).  spring_k is the leaf-spring stiffness per
    crease in N*mm/rad; rod_len the pointer rod used for tilt tracing.
    A facet_len so large that a facet tip could overflow is rejected, and
    so is a facet_len or an l_oc whose profile segment (a facet, or the
    2*l_oc terrace) would square to infinity where a grasp scene squares
    it: twice the segment's length must square finite, slack for the
    rounding of placing and mirroring the profile.  A linkage that is not
    a LinkageParams is refused naming it.
    """

    _fields = ("linkage", "facet_len", "spring_k", "rod_len", "step_deg")

    def __init__(self, linkage: LinkageParams = LinkageParams(), facet_len: float = 17.5,
                 spring_k: float = 10.0, rod_len: float = 100.0, step_deg: float = 3.0) -> None:
        for name, value in (("facet_len", facet_len), ("spring_k", spring_k), ("rod_len", rod_len),
                            ("step_deg", step_deg)):
            check_number(name, value, "be positive and finite", positive)
        if not isinstance(linkage, LinkageParams):
            raise InvalidParams(f"linkage must be a LinkageParams, got {linkage!r}", field="linkage")
        _require_finite_points(linkage, facet_len)
        for name, length in (("facet_len", facet_len), ("l_oc", 2.0 * linkage.l_oc)):
            if math.isinf(4.0 * length * length):
                raise InvalidParams(f"{name} is too large: its points must be finite", field=name)
        vars(self).update(linkage=linkage, facet_len=facet_len, spring_k=spring_k, rod_len=rod_len,
                          step_deg=step_deg)


class Flat(Record):
    """All facets level with the terrace."""

    depth = 0.0  # the facet angle, as for Concave/Convex; not a field


class Concave(Record):
    """All facets raised by the same angle (cradle / power-grasp surface)."""

    _fields = ("depth",)

    def __init__(self, depth: float) -> None:
        check_number("depth", depth, "be a positive angle", positive)
        vars(self).update(depth=depth)


class Convex(Record):
    """All facets lowered by the same angle (small-patch pinch surface)."""

    _fields = ("depth",)

    def __init__(self, depth: float) -> None:
        check_number("depth", depth, "be a negative angle", _negative)
        vars(self).update(depth=depth)


class TiltedPlanar(Record):
    """Facets and terrace collinear in a tilted plane (reorientation)."""

    _fields = ("tilt_x", "tilt_y")

    def __init__(self, tilt_x: float, tilt_y: float = 0.0) -> None:
        check_number("tilt_x", tilt_x)
        check_number("tilt_y", tilt_y)
        vars(self).update(tilt_x=tilt_x, tilt_y=tilt_y)


MorphPrimitive = Flat | Concave | Convex | TiltedPlanar


class ExternalLoad(Record):
    """Torque exerted by a grasped object about the ball joint (N*mm)."""

    _fields = ("tau_x", "tau_y")

    def __init__(self, tau_x: float = 0.0, tau_y: float = 0.0) -> None:
        check_number("tau_x", tau_x)
        check_number("tau_y", tau_y)
        vars(self).update(tau_x=tau_x, tau_y=tau_y)


class FingertipState(Record):
    """One quasi-static pose of the fingertip.

    thetas / phis are ordered (+x, -x, +y, -y); phis are the
    horizontal-terrace forward-kinematics readouts of the thetas.
    terrace_tilt is (tilt driven by the x pair, tilt driven by the y pair).
    profile_x_points / profile_y_points are the cross-section polylines of
    each plane, stored as tuples of four (x, y) floats ordered from the
    negative facet tip to the positive one.  profile_x / profile_y are the
    same points as (4, 2) ndarrays, built on first access and cached.
    """

    _fields = ("thetas", "phis", "terrace_tilt", "profile_x_points", "profile_y_points")
    profile_x = _array_of("profile_x_points")
    profile_y = _array_of("profile_y_points")

    def __init__(self, thetas: tuple[float, float, float, float],
                 phis: tuple[float, float, float, float], terrace_tilt: tuple[float, float],
                 profile_x_points: Profile, profile_y_points: Profile) -> None:
        vars(self).update(thetas=thetas, phis=phis, terrace_tilt=terrace_tilt,
                          profile_x_points=profile_x_points, profile_y_points=profile_y_points)


def terrace_equilibrium(
    phi_pos: float,
    phi_neg: float,
    spring_k: float,
    load_torque: float = 0.0,
) -> float:
    """Terrace tilt minimizing the crease spring energy of one pair.

    The energy is E(psi) = k/2 * ((phi_pos - psi)^2 + (phi_neg + psi)^2)
    - tau * psi, with both facet angles taken outward-positive in their
    own half-frames; the exact argmin is
    (phi_pos - phi_neg) / 2 + tau / (2 k).  A load_torque whose
    tau / (2 k) overflows is InvalidParams naming it.
    """
    for name, value in (("phi_pos", phi_pos), ("phi_neg", phi_neg), ("load_torque", load_torque)):
        check_number(name, value)
    check_number("spring_k", spring_k, "be positive and finite", positive)
    if not math.isfinite(load_torque / (2.0 * spring_k)):
        raise InvalidParams("load_torque is too large for spring_k: "
                            "load_torque / (2*spring_k) must be finite", field="load_torque")
    return _settle(phi_pos, phi_neg, spring_k, load_torque)


def _settle(phi_pos: float, phi_neg: float, spring_k: float, load_torque: float) -> float:
    """:func:`terrace_equilibrium` of checked numbers: the bare formula."""
    return (phi_pos - phi_neg) / 2.0 + load_torque / (2.0 * spring_k)


def surface_profile(
    cfg: FingertipConfig,
    theta_pos: float,
    theta_neg: float,
    psi: float = 0.0,
) -> np.ndarray:
    """Cross-section polyline of one plane: [tip-, hinge-, hinge+, tip+].

    The terrace segment (hinge- to hinge+) has length 2*l_oc and is tilted
    by psi about the ball joint; each facet segment has length facet_len
    and points from its hinge toward its slider, so the polyline is one
    straight line when the pair satisfies the tilted-plane condition.
    """
    pose = linkage.facet_pose  # raises OutOfRange on a jammed command
    pos, neg = pose(cfg.linkage, theta_pos), pose(cfg.linkage, theta_neg)
    check_number("psi", psi)  # after both poses: a jam is reported first
    return _array(_profile(cfg, pos, neg, psi))


def _profile(cfg: FingertipConfig, pos: tuple, neg: tuple, psi: float) -> Profile:
    """surface_profile from the two facet poses ``(phi, bx, by)`` and a checked psi."""
    f = cfg.facet_len
    cx = cfg.linkage.l_oc * math.cos(psi)
    cy = cfg.linkage.l_oc * math.sin(psi)
    # Each facet runs from its hinge toward its slider; the mirrored half's
    # slider is reflected into the common frame.
    px, py = pos[1] - cx, pos[2] - cy
    nx, ny = cx - neg[1], neg[2] + cy
    # abs() of a complex is the C library's hypot, the same function that
    # np.hypot calls; math.hypot rounds differently in the last bit.  No norm
    # is zero: the pose keeps each slider's x beyond l_oc, and
    # l_oc*cos(psi) <= l_oc, so px and nx are nonzero at any terrace tilt.
    p_norm, n_norm = abs(complex(px, py)), abs(complex(nx, ny))
    return ((-cx + f * nx / n_norm, -cy + f * ny / n_norm), (-cx, -cy), (cx, cy),
            (cx + f * px / p_norm, cy + f * py / p_norm))


def pointer_top(cfg: FingertipConfig, psi_x: float, psi_y: float) -> tuple[float, float, float]:
    """Tip of the terrace-normal pointer rod, (x, y, z) relative to the joint.

    The terrace normal starts at +z and is rotated first about the x axis
    by psi_x, then about the y axis by psi_y (fixed composition order).
    """
    for name, value in (("psi_x", psi_x), ("psi_y", psi_y)):
        check_number(name, value)
        check_number(name, value, "stay below 45 degrees", _below_45_degrees)
    sx, cx = math.sin(psi_x), math.cos(psi_x)
    sy, cy = math.sin(psi_y), math.cos(psi_y)
    rod = cfg.rod_len
    # Ry(psi_y) @ Rx(psi_x) @ (0, 0, rod), term for term as the matrix product
    # rounds it; adding 0.0 turns the product's -0.0 into its +0.0.
    return (sy * cx * rod + 0.0, 0.0 - sx * rod, cy * cx * rod)


def _state(cfg: FingertipConfig, thetas: tuple[float, float, float, float],
           tilt: tuple[float, float] | None, load: ExternalLoad = ExternalLoad()) -> FingertipState:
    """State of four checked servo commands; a tilt of None settles the terrace under load.

    Each distinct command is posed once, in first-seen order, so the first
    command that jams is the one reported: a command equal (``==``) to an
    earlier one reuses that pose, and only the others are posed.  ``0.0``
    and ``-0.0`` share a pose, as the crank angle ``alpha0 - theta`` of
    either is the same float.  A y plane that repeats the x plane's
    commands and tilt repeats its profile; the sign of a zero tilt is
    compared too, as it is the sign of the hinges' zero coordinates.
    """
    params = cfg.linkage
    t0, t1, t2, t3 = thetas
    p0 = _slider_ray(params, t0, params.l_oc, _JAM)
    p1 = p0 if t1 == t0 else _slider_ray(params, t1, params.l_oc, _JAM)
    p2 = p0 if t2 == t0 else p1 if t2 == t1 else _slider_ray(params, t2, params.l_oc, _JAM)
    p3 = (p0 if t3 == t0 else p1 if t3 == t1 else p2 if t3 == t2 else
          _slider_ray(params, t3, params.l_oc, _JAM))
    if tilt is None:
        tilt = (_settle(p0[0], p1[0], cfg.spring_k, load.tau_x),
                _settle(p2[0], p3[0], cfg.spring_k, load.tau_y))
    tx, ty = tilt
    profile_x = _profile(cfg, p0, p1, tx)
    same = (t2 == t0 and t3 == t1 and ty == tx
            and math.copysign(1.0, ty) == math.copysign(1.0, tx))
    return FingertipState(thetas, (p0[0], p1[0], p2[0], p3[0]), tilt, profile_x,
                          profile_x if same else _profile(cfg, p2, p3, ty))


def state_from_thetas(
    cfg: FingertipConfig,
    thetas: tuple[float, float, float, float],
    load: ExternalLoad = ExternalLoad(),
) -> FingertipState:
    """Pose reached for raw servo commands, terrace settling by itself.

    The terrace tilt of each pair comes from the spring-energy argmin of
    the pair's facet readouts plus the external torque on that axis.
    ``thetas`` must be four finite commands (+x, -x, +y, -y), else
    InvalidParams names it; any sequence of four numbers is stored as a
    tuple of four Python floats.  ``load`` must be an ExternalLoad whose
    torques over ``2*cfg.spring_k`` stay finite, else InvalidParams names
    it; so the terrace tilt of every state is finite.
    """
    try:
        ok = len(thetas) == 4 and all(math.isfinite(t) for t in thetas)
    except (TypeError, OverflowError):  # not numbers, or an integer too large for a float
        ok = False
    if not ok:
        raise InvalidParams("thetas must be four finite servo commands", field="thetas")
    if not isinstance(load, ExternalLoad):
        raise InvalidParams(f"load must be an ExternalLoad, got {load!r}", field="load")
    if not math.isfinite(max(abs(load.tau_x), abs(load.tau_y)) / (2.0 * cfg.spring_k)):
        raise InvalidParams("load is too large for cfg.spring_k: each torque / (2*spring_k) "
                            "must be finite", field="load")
    return _state(cfg, tuple(map(float, thetas)), None, load)


def _commands(params: LinkageParams, prim: MorphPrimitive) -> tuple[tuple[float, ...], tuple[float, float]]:
    """Servo commands and terrace tilt ``(thetas, tilt)`` that realize a primitive.

    Flat/Concave/Convex actuate all four servos identically; TiltedPlanar
    solves each pair for the anti-collinear slider condition and carries
    the terrace with the prescribed tilt.
    """
    if isinstance(prim, (Flat, Concave, Convex)):
        theta = linkage.inverse_facet(params, prim.depth)
        return (theta, theta, theta, theta), (0.0, 0.0)
    if isinstance(prim, TiltedPlanar):
        xp, xn = linkage.solve_planar_pair(params, prim.tilt_x)
        yp, yn = linkage.solve_planar_pair(params, prim.tilt_y)
        return (xp, xn, yp, yn), (prim.tilt_x, prim.tilt_y)
    raise InvalidParams(f"prim must be a morphing primitive, got {prim!r}", field="prim")


def plan_primitive(cfg: FingertipConfig, prim: MorphPrimitive) -> FingertipState:
    """Servo plan realizing a morphing primitive (see :func:`_commands`)."""
    return _state(cfg, *_commands(cfg.linkage, prim))


def transition_trajectory(
    cfg: FingertipConfig,
    start: MorphPrimitive,
    end: MorphPrimitive,
) -> list[FingertipState]:
    """Quasi-static servo ramp between two primitives.

    Servo commands are interpolated linearly with at most step_deg of
    motion per servo per step; the terrace settles to the zero-load
    spring equilibrium at every step.  Returns the full state sequence
    including both endpoints (a single state if there is no motion).

    No step can jam.  Both end commands are plans, which lie in the
    operating range ``[lo, hi]``, and so does every command between
    them; the pose of every state, linkage's ``_slider_ray`` from the
    hinge, accepts all of ``[lo, hi]``, with ``JAM_MARGIN`` of slack at
    each end that the jam limits, far above the rounding of the
    interpolation.  A ramp of more than MAX_STATES states is
    InvalidParams naming step_deg, raised before any state is built.
    """
    t0 = _commands(cfg.linkage, start)[0]
    t1 = _commands(cfg.linkage, end)[0]
    d = [b - a for a, b in zip(t0, t1)]
    span = max(map(abs, d))
    step = math.radians(cfg.step_deg)
    # n steps make n + 1 states; a step that rounds to 0 rad makes endlessly many.
    steps = span / step - 1e-12 if step > 0.0 else math.inf
    if steps > MAX_STATES - 1:
        raise InvalidParams(f"step_deg {cfg.step_deg!r} makes a ramp of more than "
                            f"{MAX_STATES} states", field="step_deg")
    n = math.ceil(steps)  # 0 when nothing moves
    m = max(n, 1)
    (a0, a1, a2, a3), (d0, d1, d2, d3) = t0, d
    return [_state(cfg, (a0 + d0 * f, a1 + d1 * f, a2 + d2 * f, a3 + d3 * f), None)
            for f in [i / m for i in range(n + 1)]]


def pair_tilt_residuals(cfg: FingertipConfig, states: list[FingertipState]) -> np.ndarray:
    """Per-state anti-collinearity residual of each pair, shape (n, 2).

    Zero residual means that pair momentarily satisfies the tilted-plane
    condition; mid-trajectory values are generally nonzero.  The commands
    are not checked again: a state's ``thetas`` are floats its public call
    checked, so each residual is linkage's unchecked ``_tilt_residual``,
    bit for bit what :func:`~morphtip.linkage.tilt_line_residual` returns.
    """
    params = cfg.linkage
    residual = linkage._tilt_residual
    return _array([(residual(params, *st.thetas[:2]), residual(params, *st.thetas[2:]))
                   for st in states]).reshape(len(states), 2)
