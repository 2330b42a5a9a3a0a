"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's solution paths: facet
angles are re-derived from the raw vector chain, inverse kinematics comes
from bisection on that chain, minima come from grid refinement, and
closure is decided by sampling external wrenches against dual-cone
certificates, or by Qhull, instead of the library's facet test.
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
