"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's solution paths: facet
angles and surface profiles are re-derived from the raw vector chain, inverse kinematics comes
from bisection on that chain, minima come from grid refinement, cradle
heights from bisecting an exact point-to-segment distance test, and
closure is decided by sampling external wrenches against dual-cone
certificates, or by Qhull, instead of the library's facet test.  A
polyline touches itself by exact parametric segment intersection in
rational arithmetic, instead of the library's orientation tests.
"""

from __future__ import annotations

import math

import numpy as np


def facet_angle_grid(params, thetas: np.ndarray) -> np.ndarray:
    """Direct vectorized evaluation of the facet angle over servo commands."""
    a = params.alpha0 - thetas
    bx = params.oa_x + params.l_ab * np.sin(a)
    by = params.oa_y + params.l_ab * np.cos(a)
    return np.arctan2(by, bx - params.l_oc)


def slider_ray_angle_grid(params, thetas: np.ndarray) -> np.ndarray:
    """Direct evaluation of the slider polar angle about the ball joint."""
    a = params.alpha0 - thetas
    bx = params.oa_x + params.l_ab * np.sin(a)
    by = params.oa_y + params.l_ab * np.cos(a)
    return np.arctan2(by, bx)


def tilt_residual_by_ray_angles(params, theta_pos: float, theta_neg: float) -> float:
    """|sin| of the angle between an opposing pair's slider rays from the ball joint.

    Each slider comes from the raw vector chain, the mirrored half's
    reflected in x; the angle is the difference of the two rays' polar
    angles, so no cross product or norm is taken.
    """
    def slider(theta: float) -> tuple[float, float]:
        a = params.alpha0 - theta
        return params.oa_x + params.l_ab * math.sin(a), params.oa_y + params.l_ab * math.cos(a)

    (px, py), (nx, ny) = slider(theta_pos), slider(theta_neg)
    return abs(math.sin(math.atan2(py, px) - math.atan2(ny, -nx)))


def inverse_facet_by_bisection(params, phi: float, lo: float, hi: float) -> float:
    """Servo command in [lo, hi] whose facet angle is phi, by bisection.

    Bisects the sign of the direction residual ``g_y*cos(phi) -
    g_x*sin(phi)`` of the hinge-to-slider vector g, rebuilt from the raw
    vector chain; the residual rises through zero once over a jam-free
    bracket.  Stops when the midpoint no longer splits the bracket.
    """
    def residual(theta: float) -> float:
        a = params.alpha0 - theta
        gx = params.oa_x + params.l_ab * math.sin(a) - params.l_oc
        gy = params.oa_y + params.l_ab * math.cos(a)
        return gy * math.cos(phi) - gx * math.sin(phi)

    if residual(lo) > 0.0 or residual(hi) < 0.0:
        raise ValueError(f"facet angle {phi!r} is not bracketed by [{lo!r}, {hi!r}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def profile_by_vector_chain(cfg, theta_pos: float, theta_neg: float, psi: float) -> list:
    """Cross-section [tip-, hinge-, hinge+, tip+] of one plane, from the raw chain.

    The hinges are (-l_oc, 0) and (l_oc, 0) rotated by psi about the ball
    joint; each tip is its hinge plus facet_len along the unit vector from
    the hinge to its slider, the mirrored half's slider reflected in x.
    """
    p = cfg.linkage
    c, s = math.cos(psi), math.sin(psi)

    def slider(theta: float) -> tuple[float, float]:
        a = p.alpha0 - theta
        return p.oa_x + p.l_ab * math.sin(a), p.oa_y + p.l_ab * math.cos(a)

    def tip(hinge, slider_xy):
        dx, dy = slider_xy[0] - hinge[0], slider_xy[1] - hinge[1]
        length = math.hypot(dx, dy)
        return (hinge[0] + cfg.facet_len * dx / length, hinge[1] + cfg.facet_len * dy / length)

    h_neg = (-p.l_oc * c, -p.l_oc * s)
    h_pos = (p.l_oc * c, p.l_oc * s)
    nx, ny = slider(theta_neg)
    return [tip(h_neg, (-nx, ny)), h_neg, h_pos, tip(h_pos, slider(theta_pos))]


def grid_argmin(f, lo: float, hi: float, n: int = 4001) -> float:
    """Argmin by grid bracketing plus one parabolic-vertex refinement.

    The parabola through the bracketing triplet makes the estimate exact
    for quadratic objectives, where pure grid refinement stalls on the
    float plateau around the minimum.
    """
    xs = np.linspace(lo, hi, n)
    ys = np.array([f(x) for x in xs])
    i = int(np.argmin(ys))
    if i == 0 or i == n - 1:
        return float(xs[i])
    xl, xm, xr = xs[i - 1], xs[i], xs[i + 1]
    fl, fm, fr = ys[i - 1], ys[i], ys[i + 1]
    num = (xm - xl) ** 2 * (fm - fr) - (xm - xr) ** 2 * (fm - fl)
    den = (xm - xl) * (fm - fr) - (xm - xr) * (fm - fl)
    if den == 0.0:
        return float(xm)
    return float(xm - 0.5 * num / den)


def spring_energy(psi: float, phi_pos: float, phi_neg: float, k: float, tau: float) -> float:
    return 0.5 * k * ((phi_pos - psi) ** 2 + (phi_neg + psi) ** 2) - tau * psi


def operating_range_closed_form(params, margin: float) -> tuple[float, float]:
    """Commanded stroke clipped to where the slider stays outward of the hinge.

    The slider's x is ``oa_x + l_ab*sin(a)`` at crank angle ``a = alpha0 -
    theta``, beyond ``l_oc`` for ``a`` in ``(edge, pi - edge)`` with ``edge =
    asin((l_oc - oa_x)/l_ab)`` (0 when that ratio is not positive: then
    only the half-turn bounds ``a``).  Each end that this limit sets is
    pulled in by ``margin``.
    """
    s0 = (params.l_oc - params.oa_x) / params.l_ab
    edge = math.asin(s0) if s0 > 0.0 else 0.0
    return (max(params.theta_min, params.alpha0 - math.pi + edge + margin),
            min(params.theta_max, params.alpha0 - edge - margin))


def attainable_phi_by_scan(params, n: int = 200_001) -> tuple[float, float]:
    """Brute-force attainable facet interval over the commanded stroke."""
    thetas = np.linspace(params.theta_min, params.theta_max, n)
    a = params.alpha0 - thetas
    bx = params.oa_x + params.l_ab * np.sin(a)
    valid = ((a > 0) & (a < np.pi) & (bx - params.l_oc > 0))
    phis = np.arctan2(params.oa_y + params.l_ab * np.cos(a), bx - params.l_oc)
    return float(phis[valid].min()), float(phis[valid].max())


# ---------------------------------------------------------------------------
# closure oracle

def contact_wrenches(points, normals, mu: float, ref) -> np.ndarray:
    """Wrench rays (fx, fy, tau) of a contact set about a reference point."""
    rays = []
    for p, n in zip(points, normals):
        if mu > 0:
            t = np.array([-n[1], n[0]])
            forces = [n + mu * t, n - mu * t]
        else:
            forces = [np.asarray(n, dtype=float)]
        r = np.asarray(p, dtype=float) - ref
        for f in forces:
            rays.append([f[0], f[1], r[0] * f[1] - r[1] * f[0]])
    W = np.array(rays)
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _dual_certificates(W: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Unit vectors u with W @ u <= tol: each proves cone(W) avoids u's open halfspace."""
    cands = []
    m = len(W)
    for i in range(m):
        for j in range(i + 1, m):
            c = np.cross(W[i], W[j])
            norm = np.linalg.norm(c)
            if norm > 1e-12:
                cands.append(c / norm)
                cands.append(-c / norm)
    _, _, vt = np.linalg.svd(W)
    for row in vt:
        cands.append(row)
        cands.append(-row)
        for w in W:
            c = np.cross(row, w)
            norm = np.linalg.norm(c)
            if norm > 1e-12:
                cands.append(c / norm)
                cands.append(-c / norm)
    if not cands:
        return np.empty((0, 3))
    cands = np.array(cands)
    keep = np.max(W @ cands.T, axis=0) <= tol
    return cands[keep]


def closed_by_qhull(rays: np.ndarray, hull_tol: float) -> bool:
    """True when Qhull puts the origin at least hull_tol inside conv(rays).

    A ray set Qhull cannot build a full-dimensional hull from is not
    closed.
    """
    # Imported here: the benchmark imports this module, and must not pay
    # for SciPy when it never calls this oracle.
    from scipy.spatial import ConvexHull, QhullError

    if len(rays) < 4:
        return False
    try:
        hull = ConvexHull(rays)
    except QhullError:
        return False
    return bool(np.all(hull.equations[:, -1] <= -hull_tol))


def closed_by_wrench_sampling(
    points,
    normals,
    mu: float,
    n_samples: int = 10_000,
    seed: int = 20260809,
) -> bool:
    """True when every sampled unit external wrench is resistible.

    A wrench g is resistible when -g lies in the positive cone of the
    contact wrench rays; membership is decided against dual-cone
    certificates, so the whole sample reduces to one matrix product.
    """
    pts = np.asarray(points, dtype=float)
    ref = pts.mean(axis=0)
    W = contact_wrenches(pts, normals, mu, ref)
    certs = _dual_certificates(W)
    if len(certs) == 0:
        return True
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n_samples, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    violations = (-g) @ certs.T > 1e-9
    return not bool(np.any(violations))


# ---------------------------------------------------------------------------
# self-touching polyline oracle

def _shared_span(a, b, c, d):
    """Where segment cd meets segment ab, as ``(lo, hi)`` along ab, or None.

    Points of ab are ``a + s*(b - a)``, s in [0, 1]; the meet is the
    interval of s it covers (a point when lo == hi).  Points are
    Fractions, and ab has nonzero length.
    """
    rx, ry, qx, qy = b[0] - a[0], b[1] - a[1], d[0] - c[0], d[1] - c[1]
    wx, wy = c[0] - a[0], c[1] - a[1]
    denom = rx * qy - ry * qx
    if denom != 0:  # the lines cross at one point: is it on both segments?
        s, t = (wx * qy - wy * qx) / denom, (wx * ry - wy * rx) / denom
        return (s, s) if 0 <= s <= 1 and 0 <= t <= 1 else None
    if wx * ry - wy * rx != 0:  # parallel lines apart
        return None
    rr = rx * rx + ry * ry
    t0 = (wx * rx + wy * ry) / rr
    t1 = ((d[0] - a[0]) * rx + (d[1] - a[1]) * ry) / rr
    lo, hi = max(0, min(t0, t1)), min(1, max(t0, t1))
    return (lo, hi) if lo <= hi else None


def polyline_touches_itself(points) -> bool:
    """True when the polyline through ``points`` touches itself, decided exactly.

    In rational arithmetic, every pair of segments is met by a parametric
    line intersection: segments that are not neighbours may share no
    point, neighbours only their joint (the end of the first, s = 1), and
    a segment of zero length touches itself.
    """
    # Imported here, as in _within: the benchmark imports this module and
    # never calls this oracle.
    from fractions import Fraction

    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    segs = list(zip(pts, pts[1:]))
    if any(a == b for a, b in segs):
        return True
    for i, (a, b) in enumerate(segs):
        for j in range(i + 1, len(segs)):
            span = _shared_span(a, b, *segs[j])
            if span is not None and (j > i + 1 or span != (1, 1)):
                return True
    return False


# ---------------------------------------------------------------------------
# strict convexity oracle

def polygon_is_strictly_convex(vertices) -> bool:
    """True when ``vertices`` are a strictly convex polygon in counter-clockwise order.

    Decided exactly, on the vertices as given: in rational arithmetic each
    turn, the cross product of an edge and the next, is positive, and the
    edge directions go around once.  With every turn left and below a half
    turn, the direction crosses from below the x axis to above it once per
    time around, so it must do so exactly once.
    """
    # Imported here, as in polyline_touches_itself.
    from fractions import Fraction

    pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    edges = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])]
    pairs = list(zip(edges, edges[1:] + edges[:1]))
    if len(pts) < 3 or any(ex * fy - ey * fx <= 0 for (ex, ey), (fx, fy) in pairs):
        return False

    def upper(e) -> bool:  # the direction's angle from +x lies in [0, pi)
        return e[1] > 0 or (e[1] == 0 and e[0] > 0)

    return sum(not upper(e) and upper(f) for e, f in pairs) == 1


# ---------------------------------------------------------------------------
# contact oracle

def _closest_on_segment(p, a, b):
    """(distance, closest point) from point p to segment ab."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    t = 0.0 if dd == 0.0 else min(1.0, max(0.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / dd))
    q = (a[0] + t * dx, a[1] + t * dy)
    return math.hypot(p[0] - q[0], p[1] - q[1]), q


def distance_to_segment(p, a, b) -> float:
    return _closest_on_segment(p, a, b)[0]


def _within(p, a, b, r: float) -> bool:
    """True when point p lies within r of segment ab, decided exactly.

    The test runs in rational arithmetic: where a circle only grazes a
    vertex, the distance grows with the square of the height, and a
    rounded distance would hold the test true for about sqrt(eps) * r
    above the true top end.
    """
    # Imported here, like SciPy below: the benchmark imports this module
    # and never calls this oracle.
    from fractions import Fraction

    (px, py), (ax, ay), (bx, by) = ((Fraction(x), Fraction(y)) for x, y in (p, a, b))
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    t = min(1, max(0, ((px - ax) * dx + (py - ay) * dy) / dd)) if dd else 0
    ex, ey = px - ax - t * dx, py - ay - t * dy
    return ex * ex + ey * ey <= Fraction(r) ** 2


def cradle_by_bisection(profile, r: float, u: float) -> float | None:
    """Resting height of a circle of radius r held at x = u over a polyline.

    Each segment carries the circle up to the top end of the heights h at
    which (u, h) lies within r of it.  That end is found by bisecting the
    distance test upward from the segment point nearest to the line
    x = u, where the test holds if it holds anywhere.  Returns the
    highest end over all segments, or None when no segment comes within r.
    """
    best = None
    for a, b in zip(profile[:-1], profile[1:]):
        (ax, ay), (bx, by) = a, b
        if ax != bx and min(ax, bx) <= u <= max(ax, bx):
            lo = ay + (u - ax) / (bx - ax) * (by - ay)
        else:
            near = min(abs(u - ax), abs(u - bx))
            lo = max(y for x, y in (a, b) if abs(u - x) == near)
        if not _within((u, lo), a, b, r):
            continue
        hi = lo + r + abs(by - ay) + 1.0  # farther than r from every point of ab
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if _within((u, mid), a, b, r):
                lo = mid
            else:
                hi = mid
        best = lo if best is None else max(best, lo)
    return best


def polygon_features_by_numpy(vertices) -> tuple[list, list, float]:
    """A convex polygon's edge features, centroid and reach, derived on numpy arrays.

    This is the derivation ``ConvexPolygon`` made before it held floats:
    rows ``(vx, vy, ex, ey, nx, ny)`` of each vertex, the edge to the next
    vertex and the edge's unit inward normal, and the mean of the vertices;
    the reach is the largest distance of a vertex from that mean.
    """
    verts = np.asarray(vertices, dtype=float)
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([-edges[:, 1], edges[:, 0]])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    centroid = verts.mean(axis=0)
    reach = float(np.max(np.hypot(*(verts - centroid).T)))
    return np.column_stack([verts, edges, normals]).tolist(), centroid.tolist(), reach


def _edge_lines(verts):
    """(unit inward normal, start) of each edge of a CCW polygon."""
    lines = []
    for j, v0 in enumerate(verts):
        v1 = verts[(j + 1) % len(verts)]
        ex, ey = v1[0] - v0[0], v1[1] - v0[1]
        norm = math.hypot(ex, ey)
        lines.append(((-ey / norm, ex / norm), v0))
    return lines


def _inward(p, line) -> float:
    (nx, ny), v = line
    return nx * (p[0] - v[0]) + ny * (p[1] - v[1])


def depth_at(obj, p) -> float:
    """How far point p lies inside the object (negative outside).

    A circle's depth is radius minus centre distance; a polygon's is the
    smallest inward distance to its edge lines.
    """
    if hasattr(obj, "radius"):
        return obj.radius - math.hypot(p[0] - obj.center[0], p[1] - obj.center[1])
    return min(_inward(p, line) for line in _edge_lines(obj.vertices.tolist()))


def _segment_depth(a, b, lines) -> float:
    """Deepest intrusion of segment ab into a polygon given by its edge lines.

    Along the segment the depth is the lower envelope of one line per edge,
    c + t*s for t in [0, 1]; its maximum sits at an endpoint or where two
    lines cross, and every such candidate is evaluated.
    """
    c = [_inward(a, line) for line in lines]
    s = [n[0] * (b[0] - a[0]) + n[1] * (b[1] - a[1]) for n, _ in lines]
    ts = [0.0, 1.0]
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            ds = s[i] - s[j]
            if ds != 0.0:
                t = (c[j] - c[i]) / ds
                if 0.0 < t < 1.0:
                    ts.append(t)
    best = -math.inf
    for t in ts:
        depth = math.inf
        for cj, sj in zip(c, s):
            depth = min(depth, cj + t * sj)
            if depth <= best:
                break  # this candidate cannot beat the best one
        else:
            best = depth
    return best


def _side_by_enumeration(profile, side, obj, contact_tol, penetration_tol):
    """(penetration or None, raw contacts) of one profile, segment by segment."""
    out = []
    circle = hasattr(obj, "radius")
    if not circle:
        verts = obj.vertices.tolist()
        lines = _edge_lines(verts)
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
    for i in range(len(profile) - 1):
        a, b = profile[i], profile[i + 1]
        if circle:
            center = obj.center
            dist, q = _closest_on_segment(center, a, b)
            if dist < obj.radius - penetration_tol:
                return (side, i, obj.radius - dist), out
            if abs(dist - obj.radius) <= contact_tol and dist > 0:
                out.append((side, i, q, ((center[0] - q[0]) / dist, (center[1] - q[1]) / dist)))
            continue
        depth = _segment_depth(a, b, lines)
        if depth > penetration_tol:
            return (side, i, depth), out
        sx, sy = b[0] - a[0], b[1] - a[1]
        seg_len = math.hypot(sx, sy)
        if seg_len == 0.0:
            continue
        # Object vertex resting on this profile segment.
        for v in verts:
            dist, q = _closest_on_segment(v, a, b)
            if dist <= contact_tol:
                n = (-sy / seg_len, sx / seg_len)
                if n[0] * (cx - q[0]) + n[1] * (cy - q[1]) < 0:
                    n = (-n[0], -n[1])
                out.append((side, i, q, n))
        # Profile corner resting on an object edge, unless it is inside.
        for p in (a, b):
            if min(_inward(p, line) for line in lines) > contact_tol:
                continue
            for j, (n, v0) in enumerate(lines):
                if distance_to_segment(p, v0, verts[(j + 1) % len(verts)]) <= contact_tol:
                    out.append((side, i, tuple(p), n))
                    break
    return None, out


def contacts_by_enumeration(scene, contact_tol, penetration_tol, dedup_tol):
    """Contacts of a grasp scene by scalar enumeration, in plain floats.

    Returns ``(penetration, contacts)``.  ``penetration`` is ``(side,
    segment, depth)`` of the first segment, left profile before right,
    that overlaps the object by more than penetration_tol, and then
    ``contacts`` is None.  Otherwise it is None and ``contacts`` lists
    ``(side, segment, point, normal)``, deduplicated in scan order and
    sorted by side, segment and point.
    """
    raw = []
    for side, profile in (("left", scene.left_profile), ("right", scene.right_profile)):
        hit, found = _side_by_enumeration(
            profile.tolist(), side, scene.obj, contact_tol, penetration_tol)
        if hit is not None:
            return hit, None
        raw.extend(found)
    kept = []
    for c in raw:
        if all(math.hypot(c[2][0] - k[2][0], c[2][1] - k[2][1]) > dedup_tol for k in kept):
            kept.append(c)
    kept.sort(key=lambda c: (c[0], c[1], c[2][0], c[2][1]))
    return None, kept
