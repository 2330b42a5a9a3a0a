"""The in-process workloads: one operation each, its checks, the timed loop.

An operation calls the library only through an ``Api`` (see tracing.py)
and returns what the library returned.  Checks run outside the timed
region: each distinct input's first result is checked against the
oracles in ``tests/oracles.py`` and the bounds the acceptance suite
states, and every later result for the same input must equal the first.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import morphtip as mt
import oracles
from inputs import DesignInput, GraspInput, unreachable_target

# Bounds stated by tests/test_acceptance.py.
ROUNDTRIP_TOL = 1e-6
TILT_RESIDUAL_TOL = 1e-9
# The FK oracle evaluates the same vector chain, so only rounding differs.
FK_ORACLE_TOL = 1e-12
# Facet angle reached by an IK answer, and planar ray angle (rad).
ANGLE_TOL = 1e-9
# Contact on the object boundary and on the profile (mm).
ON_BOUNDARY_TOL = 1e-6
CRADLE_TOL = 1e-9
CRADLE_OFFSETS = (0.0, 0.1, -0.1)


# ---------------------------------------------------------------------------
# design-sweep


@dataclass(eq=False)
class DesignResult:
    lo: float
    hi: float
    thetas: list
    phis: list
    back: list
    targets: list
    ik: list  # theta, or None where Unreachable was raised as planned
    tilts: list
    pairs: list
    prims: list
    plans: list
    trajectory: list


def design_op(api, d: DesignInput) -> DesignResult:
    """Full evaluation of one geometry."""
    cfg = d.cfg
    p = cfg.linkage
    lo, hi = api.operating_range(p)
    span = hi - lo
    thetas = [lo + f * span for f in d.fk_fracs]
    phis = [api.forward_facet(p, t) for t in thetas]
    back = [api.inverse_facet(p, phi) for phi in phis]
    a_lo, a_hi = api.forward_facet(p, lo), api.forward_facet(p, hi)
    targets, ik = [], []
    for i, f in enumerate(d.ik_fracs):
        if i == d.unreachable_at:
            target = unreachable_target(a_lo, a_hi, f)
            try:
                theta = api.inverse_facet(p, target)
            except mt.Unreachable:
                theta = None
        else:
            target = a_lo + f * (a_hi - a_lo)
            theta = api.inverse_facet(p, target)
        targets.append(target)
        ik.append(theta)
    _, t_hi = api.attainable_tilt_range(p)
    tilts = [f * t_hi for f in d.tilt_fracs]
    pairs = [api.solve_planar_pair(p, t) for t in tilts]
    concave = mt.Concave(d.concave_frac * a_hi)
    convex = mt.Convex(d.convex_frac * a_lo)
    prims = [mt.Flat(), concave, convex,
             mt.TiltedPlanar(d.planar_fracs[0] * t_hi, d.planar_fracs[1] * t_hi)]
    plans = [api.plan_primitive(cfg, prim) for prim in prims]
    trajectory = api.transition_trajectory(cfg, convex, concave)
    return DesignResult(lo, hi, thetas, phis, back, targets, ik, tilts,
                        pairs, prims, plans, trajectory)


def _state_digest(states) -> tuple:
    return tuple((s.thetas, s.phis, s.terrace_tilt, s.profile_x.tobytes(),
                  s.profile_y.tobytes()) for s in states)


def design_digest(r: DesignResult) -> tuple:
    """Comparable summary; ``ik`` is at index 4 and the trajectory last."""
    return (r.lo, r.hi, tuple(r.phis), tuple(r.back), tuple(r.ik), tuple(r.pairs),
            _state_digest(r.plans), _state_digest(r.trajectory))


def design_check(d: DesignInput, r: DesignResult) -> list[str]:
    """Problems found in one geometry's result (empty when correct)."""
    p, cfg = d.cfg.linkage, d.cfg
    errs = []
    if not p.theta_min <= r.lo < r.hi <= p.theta_max:
        errs.append(f"operating range [{r.lo}, {r.hi}] outside the commanded stroke")
    fk = oracles.facet_angle_grid(p, np.array(r.thetas))
    if np.max(np.abs(fk - np.array(r.phis))) > FK_ORACLE_TOL:
        errs.append("forward_facet disagrees with facet_angle_grid")
    if np.max(np.abs(np.array(r.back) - np.array(r.thetas))) >= ROUNDTRIP_TOL:
        errs.append("FK/IK roundtrip error above 1e-6 rad")
    for i, (target, theta) in enumerate(zip(r.targets, r.ik)):
        if i == d.unreachable_at:
            if theta is not None:
                errs.append(f"target {target} outside the attainable range was solved")
        elif not r.lo - 1e-12 <= theta <= r.hi + 1e-12:
            errs.append(f"IK answer {theta} outside the operating range")
        elif abs(float(oracles.facet_angle_grid(p, np.array(theta))) - target) > ANGLE_TOL:
            errs.append(f"IK answer for {target} misses the target")
    for tilt, (tp, tn) in zip(r.tilts, r.pairs):
        if mt.tilt_line_residual(p, tp, tn) >= TILT_RESIDUAL_TOL:
            errs.append(f"planar pair for tilt {tilt} is not collinear")
        if abs(float(oracles.slider_ray_angle_grid(p, np.array(tp))) - tilt) > ANGLE_TOL:
            errs.append(f"slider ray misses tilt {tilt}")
        if abs(tilt) > 1e-12 and tp * tn >= 0:
            errs.append(f"planar pair for tilt {tilt} has equal signs")
    flat, concave, convex, planar = r.plans
    if flat.thetas != (0.0, 0.0, 0.0, 0.0):
        errs.append("Flat plan moves a servo")
    for prim, plan in ((r.prims[1], concave), (r.prims[2], convex)):
        phis = oracles.facet_angle_grid(p, np.array(plan.thetas))
        if np.max(np.abs(phis - prim.depth)) > ANGLE_TOL:
            errs.append(f"{type(prim).__name__} plan misses depth {prim.depth}")
    t = planar.thetas
    if max(mt.tilt_line_residual(p, t[0], t[1]),
           mt.tilt_line_residual(p, t[2], t[3])) >= TILT_RESIDUAL_TOL:
        errs.append("TiltedPlanar plan is not planar")
    if planar.terrace_tilt != (r.prims[3].tilt_x, r.prims[3].tilt_y):
        errs.append("TiltedPlanar plan carries the wrong terrace tilt")
    traj = np.array([s.thetas for s in r.trajectory])
    step = math.radians(cfg.step_deg)
    span = float(np.max(np.abs(np.array(concave.thetas) - np.array(convex.thetas))))
    if len(traj) != math.ceil(span / step - 1e-12) + 1:
        errs.append(f"trajectory has {len(traj)} states for a {span} rad move")
    if (np.max(np.abs(traj[0] - convex.thetas)) > 1e-12
            or np.max(np.abs(traj[-1] - concave.thetas)) > 1e-12):
        errs.append("trajectory does not join the two plans")
    if len(traj) > 1 and np.max(np.abs(np.diff(traj, axis=0))) > step + 1e-12:
        errs.append("trajectory moves a servo more than step_deg per step")
    return errs


# ---------------------------------------------------------------------------
# grasp-batch


@dataclass(eq=False)
class GraspResult:
    contacts: list | None  # None when Penetration was raised
    closure: mt.Closure | None = None
    pivot: bool | None = None
    cradle: tuple | None = None


def grasp_op(api, g: GraspInput) -> GraspResult:
    """The body of ``morphtip grasp`` on one pre-built scene."""
    try:
        contacts = api.find_contacts(g.scene)
    except mt.Penetration:
        if g.penetrating:
            return GraspResult(None)
        raise
    if contacts:
        closure = api.closure_classify(contacts, g.scene.mu)
        pivot = api.pivot_feasible(contacts)
    else:
        closure, pivot = mt.Closure.NONE, False
    cradle = None
    if isinstance(g.scene.obj, mt.Circle):
        r = g.scene.obj.radius
        cradle = tuple(api.cradle_height(g.left_local, r, u) for u in CRADLE_OFFSETS)
    return GraspResult(contacts, closure, pivot, cradle)


def grasp_digest(r: GraspResult) -> tuple:
    if r.contacts is None:
        return ("penetration",)
    cts = tuple((c.point.tobytes(), c.normal.tobytes(), c.side, c.segment)
                for c in r.contacts)
    return (cts, r.closure, r.pivot, r.cradle)


def _dist_to_polyline(q: np.ndarray, poly: np.ndarray) -> float:
    a, b = poly[:-1], poly[1:]
    d = b - a
    t = np.clip(np.einsum("ij,ij->i", q - a, d) / np.einsum("ij,ij->i", d, d), 0.0, 1.0)
    return float(np.min(np.hypot(*(a + t[:, None] * d - q).T)))


# Expected contact count and pivot verdict of each circle family.
_CIRCLE_EXPECT = {"circle-flat": (2, True), "circle-convex": (2, True),
                  "circle-concave": (4, False)}


def grasp_check(g: GraspInput, r: GraspResult) -> list[str]:
    if g.penetrating or r.contacts is None:
        return [] if g.penetrating and r.contacts is None else ["planned Penetration not raised"]
    obj, scene = g.scene.obj, g.scene
    errs = []
    sides = {c.side for c in r.contacts}
    if sides != {"left", "right"}:
        errs.append(f"touching object has contacts on sides {sorted(sides)}")
    for c in r.contacts:
        if isinstance(obj, mt.Circle):
            off = abs(math.hypot(*(c.point - np.array(obj.center))) - obj.radius)
        else:
            ring = np.vstack([obj.vertices, obj.vertices[:1]])
            off = _dist_to_polyline(c.point, ring)
        profile = scene.left_profile if c.side == "left" else scene.right_profile
        if off > ON_BOUNDARY_TOL or _dist_to_polyline(c.point, profile) > ON_BOUNDARY_TOL:
            errs.append(f"contact {c.point} is off the object or the {c.side} profile")
        if abs(math.hypot(*c.normal) - 1.0) > 1e-9:
            errs.append("contact normal is not unit length")
    pts = [c.point for c in r.contacts]
    nrm = [c.normal for c in r.contacts]
    closed = oracles.closed_by_wrench_sampling(pts, nrm, scene.mu)
    form = oracles.closed_by_wrench_sampling(pts, nrm, 0.0)
    is_closed = r.closure is not mt.Closure.NONE
    if is_closed != closed or (r.closure is mt.Closure.FORM_CLOSURE) != form:
        errs.append(f"closure {r.closure.value} disagrees with wrench sampling "
                    f"(closed={closed}, frictionless={form})")
    if g.kind in _CIRCLE_EXPECT:
        count, pivot = _CIRCLE_EXPECT[g.kind]
        if len(r.contacts) != count:
            errs.append(f"{g.kind} has {len(r.contacts)} contacts, expected {count}")
        if r.pivot != pivot:
            errs.append(f"{g.kind} pivot_feasible is {r.pivot}, expected {pivot}")
        if max(abs(a - b) for a, b in zip(r.cradle, g.cradle_expected)) > CRADLE_TOL:
            errs.append(f"cradle heights {r.cradle} differ from {g.cradle_expected}")
    return errs


WORKLOADS = {
    "design-sweep": (design_op, design_digest, design_check),
    "grasp-batch": (grasp_op, grasp_digest, grasp_check),
}


# ---------------------------------------------------------------------------
# the timed loop


@dataclass
class LoopResult:
    latencies: list  # seconds, one per attempted operation
    failed: int
    errors: list  # first few failure messages
    first: dict  # pool index -> digest of its first result
    attempted_ids: list  # pool index of every attempted operation

    @property
    def distinct(self) -> int:
        return len(self.first)


def run_loop(workload: str, api, pool, stream, seconds: float, tracer=None) -> LoopResult:
    """Closed loop, one client: the next operation starts when one ends.

    Runs until ``seconds`` have passed; per-operation latency covers the
    library calls only.  Results are compared and checked between
    operations, outside the latencies.  An operation fails when it raises
    an exception the generator did not plan, when its input's first
    result failed the checks and it repeats that result, or when it
    differs from that first result.
    """
    op, digest, check = WORKLOADS[workload]
    first: dict[int, tuple] = {}
    wrong: dict[int, str] = {}  # inputs whose first result failed its check
    latencies, ids, errors = [], [], []
    failed = 0

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        if len(errors) < 5:
            errors.append(f"op {n} input {idx}: {message}")

    clock = time.perf_counter
    deadline = clock() + seconds
    root = f"{workload}.op"
    n = 0
    while True:
        idx = int(stream[n % len(stream)])
        inp = pool[idx]
        span = tracer.begin(root, getattr(inp, "kind", None), n) if tracer else 0
        t0 = clock()
        try:
            out = op(api, inp)
        except Exception as exc:  # an exception the generator did not plan
            t1 = clock()
            out = None
            fail(f"{type(exc).__name__}: {exc}")
        else:
            t1 = clock()
        if tracer:
            tracer.end(span)
        latencies.append(t1 - t0)
        ids.append(idx)
        if out is not None:
            d = digest(out)
            if idx not in first:
                first[idx] = d
                problems = check(inp, out)
                if problems:
                    wrong[idx] = "; ".join(problems)
            if d != first[idx]:
                fail("result differs from its first run")
            elif idx in wrong:
                fail(wrong[idx])
        n += 1
        if t1 >= deadline:
            break
    return LoopResult(latencies, failed, errors, first, ids)
