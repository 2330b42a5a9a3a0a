"""Planar slider-crank transmission of one fingertip half-plane.

Frame convention: origin at the central ball joint, x horizontal pointing
outward along the modeled half, y vertical up.  The terrace edge hinge sits
at ``(l_oc, 0)``; the servo axis sits at ``(oa_x, oa_y)`` below the surface
and swings a crank of length ``l_ab``.  The crank tip carries the slider
that rides on the facet guide, so the guide direction (hinge -> slider)
is the facet direction.

Angles:
  * crank angle ``a`` is measured from the plumb line (downward servo
    vertical), ``a = alpha0`` at neutral;
  * servo command ``theta`` is the signed offset from neutral,
    ``a = alpha0 - theta``; positive theta swings the crank toward the
    plumb line and raises the facet (concave direction);
  * facet angle ``phi`` is the guide angle from the horizontal, positive
    above (concave), negative below (convex).

All lengths mm, all angles radians.  Every function here is pure; params
objects are frozen, so concurrent use needs no locking.

Each public function checks its numbers once, as it is called;
``forward_facet``, ``facet_pose``, ``inverse_facet`` and
``solve_planar_pair`` pass a finite float with one inline test and hand
any other value to ``check_number``.  The helpers below them trust the
floats they are given: ``_slider_ray``, the one evaluation of the crank,
which every slider point, facet angle and slider ray angle comes from,
and ``_ray_command``, the one closed-form inverse.
"""

from __future__ import annotations

import math

from .errors import InvalidParams, OutOfRange, Record, Unreachable, check_number, positive

# Margin kept from a jam endpoint when clipping the operating range (rad).
JAM_MARGIN = 1e-9


def _acute(value: float) -> bool:
    return 0.0 < value < math.pi / 2


class LinkageParams(Record):
    """Geometry of one slider-crank half-plane.

    The servo mount height ``oa_y`` is not a parameter: it is derived from
    the flat-neutral condition ``oa_y = -l_ab * cos(alpha0)``, which makes
    the facet exactly horizontal at theta = 0.

    ``theta_min``/``theta_max`` bound the commanded servo stroke; the
    usable interval ``operating_range`` is additionally clipped by the jam
    limit and derived here too, see :func:`operating_range`.  So is the
    facet interval it attains, see :func:`attainable_facet_range`, from
    the slider rays at the ends of the operating range.  ``repr``,
    equality and ``replace`` leave both out, as the fields fix them.  A
    stroke that lies entirely in the jam zone is rejected here, as are
    lengths so large that a point of the mechanism could overflow (see
    :func:`_require_finite_points`).

    The slider rays at the ends of the operating range raise nothing for
    params accepted here: as :func:`_ray_command` argues, ``JAM_MARGIN``
    keeps each end's crank inside its half-turn and its slider outward of
    the hinge, and so outward of the ball joint too, which
    :func:`attainable_tilt_range` relies on.  Only within about 1e-10 of a
    tangent crank circle, where ``(l_oc - oa_x) / l_ab`` is that close to
    1, can the margin's effect on the slider round away; a stroke whose
    end then jams is rejected too.
    """

    _fields = ("l_oc", "l_ab", "alpha0", "oa_x", "theta_min", "theta_max", "oa_y")
    _args = _fields[:-1]

    def __init__(self, l_oc: float = 15.0, l_ab: float = 20.0, alpha0: float = math.radians(30.0),
                 oa_x: float = 10.0, theta_min: float = math.radians(-36.0),
                 theta_max: float = math.radians(36.0)) -> None:
        for name, value in (("l_oc", l_oc), ("l_ab", l_ab), ("alpha0", alpha0), ("oa_x", oa_x),
                            ("theta_min", theta_min), ("theta_max", theta_max)):
            check_number(name, value)
        check_number("l_oc", l_oc, "be positive", positive)
        check_number("l_ab", l_ab, "be positive", positive)
        check_number("alpha0", alpha0, "lie strictly between 0 and a right angle", _acute)
        if theta_min >= theta_max:
            raise InvalidParams("theta_min must be below theta_max", field="theta_min")
        vars(self).update(l_oc=l_oc, l_ab=l_ab, alpha0=alpha0, oa_x=oa_x, theta_min=theta_min,
                          theta_max=theta_max, oa_y=-l_ab * math.cos(alpha0))
        _require_finite_points(self)
        if oa_x + l_ab * math.sin(alpha0) - l_oc <= 0:
            raise InvalidParams("oa_x must exceed l_oc - l_ab*sin(alpha0): the slider must "
                                "sit outward of the hinge at neutral", field="oa_x")
        lo, hi = _clip_to_jam_free(self)
        try:
            facet = (_slider_ray(self, lo, l_oc, _JAM)[0], _slider_ray(self, hi, l_oc, _JAM)[0])
        except OutOfRange:
            raise InvalidParams("jam-free stroke is too narrow: a command at an end of the "
                                "operating range jams") from None
        vars(self).update(operating_range=(lo, hi), _facet_range=facet)


def _require_finite_points(params: LinkageParams, facet_len: float = 1.0) -> None:
    """Reject lengths so large that a point placed from them may overflow.

    Over the whole stroke, every coordinate of the slider, and of the
    vector to it from either hinge, is at most ``|oa_x| + 2*l_ab + l_oc``;
    a fingertip scales that vector by ``facet_len``.  The error names
    ``facet_len`` when it exceeds that bound, else the largest length.
    """
    reach = abs(params.oa_x) + 2.0 * params.l_ab + params.l_oc
    if not math.isfinite(facet_len * reach):
        name = ("facet_len" if facet_len > reach else
                max(("l_oc", "l_ab", "oa_x"), key=lambda n: abs(getattr(params, n))))
        raise InvalidParams(f"{name} is too large: its points must be finite", field=name)


def _rad(angle: float) -> str:
    """An angle in rad as every error message here prints it.

    Six decimals below 1e6 rad; from there on six digits after the point
    of an exponent form, so a huge angle does not print hundreds of digits.
    The angle is printed as its float, so every number that
    :func:`~morphtip.errors.check_number` accepts prints, a ``Fraction``
    included, which has no ``f`` format of its own on Python 3.11.
    """
    return format(float(angle), ".6f" if abs(angle) < 1e6 else ".6e")


def slider_point(params: LinkageParams, theta: float) -> tuple[float, float]:
    """Position of the slider pivot for a servo command theta.

    Raises OutOfRange when the crank leaves the modeled half-turn
    (alpha0 - theta outside (0, pi)).  It is :func:`_slider_ray` from
    x = -inf, where no slider lies behind its origin.
    """
    check_number("theta", theta)
    return _slider_ray(params, theta, -math.inf, _JAM)[1:]


# The OutOfRange messages of a slider not outward of the hinge, and of the
# ball joint; see _slider_ray.
_JAM = "slider inside the hinge (guide x = {x:.6g} mm) at theta={theta} rad: mechanism jam"
_BEHIND_JOINT = "slider behind the ball joint (x = {x:.6g} mm) at theta={theta} rad"


def forward_facet(params: LinkageParams, theta: float) -> float:
    """Facet angle produced by a servo command (forward kinematics).

    Raises OutOfRange if the slider would pass inside the hinge
    (mechanism jam).
    """
    if not (type(theta) is float and theta - theta == 0.0):
        check_number("theta", theta)
    return _slider_ray(params, theta, params.l_oc, _JAM)[0]


def facet_pose(params: LinkageParams, theta: float) -> tuple[float, float, float]:
    """Facet angle and slider point ``(phi, bx, by)`` of one servo command.

    One slider evaluation serves both; raises what :func:`forward_facet`
    raises.
    """
    if not (type(theta) is float and theta - theta == 0.0):
        check_number("theta", theta)
    return _slider_ray(params, theta, params.l_oc, _JAM)


def _slider_ray(params: LinkageParams, theta: float, origin: float,
                behind: str) -> tuple[float, float, float]:
    """Angle of the ray from ``(origin, 0)`` through the slider, and the slider.

    Returns ``(angle, bx, by)``; this is the one evaluation of the crank.
    A crank outside its half-turn (``alpha0 - theta`` outside (0, pi))
    raises OutOfRange naming its angle, and a slider not outward of the
    origin raises OutOfRange with ``behind`` formatted on its x offset
    ``x`` and ``theta`` as :func:`_rad` prints it.  ``theta`` is not
    checked here: every public caller checks it first, and the
    fingertip's states pass commands that their public call already
    checked.
    """
    a = params.alpha0 - theta
    if not 0.0 < a < math.pi:
        raise OutOfRange(f"crank angle {_rad(a)} rad outside (0, pi) for theta={_rad(theta)} rad")
    bx = params.oa_x + params.l_ab * math.sin(a)
    by = params.oa_y + params.l_ab * math.cos(a)
    dx = bx - origin
    if dx <= 0.0:
        raise OutOfRange(behind.format(x=dx, theta=_rad(theta)))
    return math.atan2(by, dx), bx, by


def operating_range(params: LinkageParams) -> tuple[float, float]:
    """Usable closed servo interval: commanded stroke clipped to jam-free.

    Jam-free means the slider stays outward of the hinge
    (``sin(alpha0 - theta) > (l_oc - oa_x) / l_ab``) and the crank stays in
    the modeled half-turn.  Jam-limited endpoints are pulled in by
    ``JAM_MARGIN`` so every theta in the returned interval is valid.  The
    interval is derived once, when the params are built.
    """
    return params.operating_range


def _clip_to_jam_free(params: LinkageParams) -> tuple[float, float]:
    """:func:`operating_range` from the fields; a stroke wholly in the jam zone raises."""
    s0 = (params.l_oc - params.oa_x) / params.l_ab
    if s0 > 0.0:
        edge = math.asin(min(1.0, s0))
    else:
        edge = 0.0
    lo_jam = params.alpha0 - math.pi + edge + JAM_MARGIN
    hi_jam = params.alpha0 - edge - JAM_MARGIN
    lo = max(params.theta_min, lo_jam)
    hi = min(params.theta_max, hi_jam)
    if lo >= hi:
        raise InvalidParams("commanded servo stroke lies entirely in the jam zone")
    return lo, hi


def attainable_facet_range(params: LinkageParams) -> tuple[float, float]:
    """Facet angles reachable over the operating range (phi is monotone).

    The :func:`forward_facet` of each end of the operating range, derived
    once, when the params are built.
    """
    return params._facet_range


def _ray_command(params: LinkageParams, angle: float, origin: float) -> float | None:
    """Servo command in the operating range that puts the slider on a ray, or None.

    The ray leaves ``(origin, 0)`` at ``angle`` from the horizontal.  The
    direction condition ``B_y*cos(angle) - (B_x - origin)*sin(angle) = 0``
    reduces to ``l_ab*cos(alpha0 - theta + angle) = (oa_x - origin)*sin(angle)
    - oa_y*cos(angle)``; the closed form takes the root farther along the
    ray.  That root always puts the slider on the ray, not on its backward
    extension, so no direction check is needed:

    * every root the operating range ``[lo, hi]`` admits has a crank
      angle strictly inside (0, pi), on the outward half of the crank
      circle (``JAM_MARGIN`` against 1e-12 of slack);
    * an origin inside the crank circle has only that root ahead of it;
    * an origin outside it (both origins sit on y = 0 at x <= l_oc) lies
      left of the servo axis, since ``oa_x + l_ab*sin(alpha0) > l_oc``,
      and above it by ``l_ab*cos(alpha0) < l_ab``; so both tangent points
      from it fall on the inward half, and every line through it leaves
      the circle on the outward half.
    """
    lo, hi = params.operating_range
    if angle == 0.0:
        # Flat-neutral construction puts the slider on the horizontal at theta = 0.
        return 0.0 if lo <= 0.0 <= hi else None
    s, c = math.sin(angle), math.cos(angle)
    k = ((params.oa_x - origin) * s - params.oa_y * c) / params.l_ab
    # k is never NaN, as every input is checked, so this is abs(k) > 1.0.
    if not -1.0 <= k <= 1.0:
        return None
    theta = params.alpha0 + angle - math.acos(k)
    # Float slack at the clipped endpoints, well below any stated tolerance.
    slack = 1e-12
    if theta < lo:
        return lo if theta >= lo - slack else None
    if theta > hi:
        return hi if theta <= hi + slack else None
    return theta


def _unreachable(what: str, angle: float, attainable: tuple[float, float]) -> Unreachable:
    """The error for a ray angle outside its attainable interval."""
    lo, hi = attainable
    return Unreachable(f"{what} {_rad(angle)} rad not attainable; "
                       f"reachable interval is [{_rad(lo)}, {_rad(hi)}] rad", attainable=attainable)


def inverse_facet(params: LinkageParams, phi: float) -> float:
    """Servo command that produces the requested facet angle.

    The facet is the ray from the hinge ``(l_oc, 0)`` through the slider;
    see :func:`_ray_command` for the closed form.

    Raises Unreachable (with the attainable facet interval attached) when
    phi lies outside the image of the operating range.
    """
    if not (type(phi) is float and phi - phi == 0.0):
        check_number("phi", phi)
    theta = _ray_command(params, phi, params.l_oc)
    if theta is None:
        raise _unreachable("facet angle", phi, attainable_facet_range(params))
    return theta


def planar_condition_angle(params: LinkageParams, theta: float) -> float:
    """Polar angle of the slider about the ball joint.

    The tilted-plane condition for an opposing pair is stated on this
    angle: the surface is a straight line exactly when the two slider rays
    are anti-collinear through the ball joint.
    """
    check_number("theta", theta)
    return _slider_ray(params, theta, 0.0, _BEHIND_JOINT)[0]


def attainable_tilt_range(params: LinkageParams) -> tuple[float, float]:
    """Symmetric tilt interval solvable by an opposing pair.

    A planar pair drives its two slider rays to opposite angles, and the
    ray angle rises with theta through 0 at theta = 0; so an operating
    range that excludes 0 attains no tilt, and raises Unreachable with no
    interval attached.  A stroke that starts or ends at 0 attains only
    ``(0.0, 0.0)``: adding ``0.0`` turns either end's ``-0.0`` into ``0.0``.
    The interval is ``t = min(up, -down)`` with ``up`` and ``down`` the
    :func:`planar_condition_angle` of the ends of the operating range,
    whose slider rays :class:`LinkageParams` checked when it was built.
    """
    lo, hi = params.operating_range
    if not lo <= 0.0 <= hi:
        raise Unreachable("no tilt is attainable: the operating range "
                          f"[{_rad(lo)}, {_rad(hi)}] rad excludes the flat-neutral command 0")
    t = min(_slider_ray(params, hi, 0.0, _BEHIND_JOINT)[0],
            -_slider_ray(params, lo, 0.0, _BEHIND_JOINT)[0])
    return 0.0 - t, t + 0.0


def solve_planar_pair(params: LinkageParams, phi_tilt: float) -> tuple[float, float]:
    """Servo pair (outward half, mirrored half) for a tilted-plane pose.

    The returned pair puts the outward slider ray at +phi_tilt and the
    mirrored side's ray at -phi_tilt in its own frame, which makes the two
    rays anti-collinear through the ball joint (straight tilted surface).
    The two commands have opposite signs for a nonzero tilt.

    Raises Unreachable, naming ``phi_tilt`` as given and attaching
    :func:`attainable_tilt_range`, when either half has no command.
    """
    if not (type(phi_tilt) is float and phi_tilt - phi_tilt == 0.0):
        check_number("phi_tilt", phi_tilt)
    pos, neg = _ray_command(params, phi_tilt, 0.0), _ray_command(params, -phi_tilt, 0.0)
    if pos is None or neg is None:
        raise _unreachable("tilt", phi_tilt, attainable_tilt_range(params))
    return pos, neg


def tilt_line_residual(params: LinkageParams, theta_pos: float, theta_neg: float) -> float:
    """Normalized cross product of the two slider rays of an opposing pair.

    Zero means the sliders and the ball joint are collinear (planar pose).
    The mirrored half is reflected into the common frame before the check.
    Each command is checked just before it is posed, so a jammed
    ``theta_pos`` is reported before a non-finite ``theta_neg``.  This is
    the one residual formula: fingertip's ``pair_tilt_residuals`` calls it
    too.
    """
    b1x, b1y = slider_point(params, theta_pos)
    nx, ny = slider_point(params, theta_neg)
    b2x, b2y = -nx, ny
    cross = b1x * b2y - b1y * b2x
    return abs(cross) / (math.hypot(b1x, b1y) * math.hypot(b2x, b2y))
