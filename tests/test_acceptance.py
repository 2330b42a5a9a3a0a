"""Acceptance suite: one test per shipped guarantee, with a PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import oracles
import test_grasp as scenes
from conftest import run_cli
from morphtip import (
    Closure,
    Concave,
    Contact,
    ConvexPolygon,
    FingertipConfig,
    LinkageParams,
    closure_classify,
    cradle_height,
    find_contacts,
    forward_facet,
    inverse_facet,
    operating_range,
    pivot_feasible,
    place_left,
    place_right,
    planar_condition_angle,
    pointer_top,
    scene_between,
    solve_planar_pair,
    terrace_equilibrium,
    tilt_line_residual,
)

_SUITE_T0 = time.perf_counter()


def _cli(args):
    code, out = run_cli(args)
    assert code == 0, out
    return out


def _report(n, title):
    print(f"ACCEPTANCE {n} {title}: PASS")


def test_criterion_1_fk_ik_roundtrip():
    params = LinkageParams()
    lo, hi = operating_range(params)
    rng = np.random.default_rng(101)
    thetas = rng.uniform(lo, hi, 1000)
    t0 = time.perf_counter()
    worst = 0.0
    for theta in thetas:
        err = abs(inverse_facet(params, forward_facet(params, theta)) - theta)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6, f"worst roundtrip error {worst:.3g} rad"
    assert elapsed < 1.0, f"roundtrip run took {elapsed:.3f} s"
    _report(1, f"FK/IK roundtrip (max err {worst:.2e} rad, {elapsed*1e3:.0f} ms)")


def test_criterion_2_sweep_model_curve_shape():
    out = _cli(["sweep"])
    lines = out.strip().split("\n")
    assert lines[0] == "step,theta_deg,phi_deg,B_x_mm,B_y_mm"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 13, "sweep must emit 13 rows"
    thetas = [float(r[1]) for r in rows]
    phis = [float(r[2]) for r in rows]
    steps = np.diff(thetas)
    assert np.allclose(steps, -3.0), "protocol is 3-degree servo steps"
    assert all(a > b for a, b in zip(phis, phis[1:])), "phi must be strictly monotone"
    zero_rows = [r for r in rows if float(r[1]) == 0.0]
    assert len(zero_rows) == 1 and float(zero_rows[0][2]) == 0.0, "zero crossing at theta=0"
    assert phis[0] > 0 > phis[-1], "sweep must span concave and convex regimes"
    _report(2, f"sweep curve shape (13 rows, phi {phis[0]:.1f}..{phis[-1]:.1f} deg)")


def test_criterion_3_planar_collinearity():
    params = LinkageParams()
    from morphtip import attainable_tilt_range

    lo, hi = attainable_tilt_range(params)
    rng = np.random.default_rng(103)
    worst = 0.0
    for tilt in rng.uniform(lo * 0.999, hi * 0.999, 100):
        tp, tn = solve_planar_pair(params, float(tilt))
        residual = tilt_line_residual(params, tp, tn)
        worst = max(worst, residual)
        assert residual < 1e-9
        if abs(tilt) > 1e-12:
            assert tp * tn < 0, "pair must have opposite signs for nonzero tilt"
        assert planar_condition_angle(params, tp) == pytest.approx(
            float(tilt), abs=1e-9
        )
    _report(3, f"planar collinearity (worst residual {worst:.2e})")


def test_criterion_4_terrace_equilibrium():
    rng = np.random.default_rng(104)
    for phi in (0.0, 0.15, -0.3, 0.6):
        assert terrace_equilibrium(phi, phi, 10.0, 0.0) == 0.0
    for phi in (0.1, 0.35, 0.6):
        assert terrace_equilibrium(phi, -phi, 10.0, 0.0) == phi
    worst = 0.0
    for _ in range(100):
        phi_p, phi_n = rng.uniform(-0.8, 0.8, 2)
        k = rng.uniform(1.0, 50.0)
        tau = rng.uniform(-20.0, 20.0)
        psi = terrace_equilibrium(phi_p, phi_n, k, tau)
        grid = oracles.grid_argmin(
            lambda x: oracles.spring_energy(x, phi_p, phi_n, k, tau), -12.0, 12.0
        )
        err = abs(psi - grid)
        worst = max(worst, err)
        assert err < 1e-9
    _report(4, f"terrace equilibrium (worst oracle gap {worst:.2e} rad)")


def test_criterion_5_pointer_square():
    cfg = FingertipConfig(rod_len=100.0)
    psi = math.radians(5.0)

    out = _cli(["trace-pointer", "--psi-max", "5", "--points-per-leg", "4"])
    lines = out.strip().split("\n")[1:]
    first = np.array([float(v) for v in lines[0].split(",")[3:]])
    last = np.array([float(v) for v in lines[-1].split(",")[3:]])
    assert float(np.max(np.abs(first - last))) < 1e-9, "loop must close"

    want_x = 100.0 * math.cos(psi) * math.sin(psi)
    want_y = 100.0 * math.sin(psi)
    corners = 0
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            tip = pointer_top(cfg, sx * psi, sy * psi)
            assert abs(abs(tip[0]) - want_x) < 1e-9
            assert abs(abs(tip[1]) - want_y) < 1e-9
            corners += 1
    assert corners == 4
    _report(5, f"pointer square (corner |x|={want_x:.4f}, |y|={want_y:.4f} mm)")


def test_criterion_6_grasp_proxies():
    # (a) concave circle seat: 4 contacts and a strict cradle minimum
    seat = scenes.concave_seat_scene(20.0, 88.0)
    cts = find_contacts(seat)
    assert len(cts) == 4
    prof = scenes.profile(scenes.Concave(math.radians(20.0)))
    h0 = cradle_height(prof, 88.0, 0.0)
    assert cradle_height(prof, 88.0, 0.1) > h0
    assert cradle_height(prof, 88.0, -0.1) > h0

    # (b) flat frictionless pinch: open grasp but a valid pivot line
    pinch = find_contacts(scenes.flat_pinch_scene())
    assert closure_classify(pinch, 0.0) is Closure.NONE
    assert pivot_feasible(pinch)

    # (c) square seated in concave profiles: form closure
    square = find_contacts(scenes.square_seat_scene())
    assert closure_classify(square, 0.0) is Closure.FORM_CLOSURE

    # classifier vs brute-force wrench sampling on 100 randomized scenes
    rng = np.random.default_rng(20260809)
    agreements = 0
    while agreements < 100:
        kind = agreements % 4
        if kind == 0:
            mu = float(rng.choice([0.0, 0.3, 0.7]))
            cts = find_contacts(
                scenes.flat_pinch_scene(mu=mu, c_y=float(rng.uniform(-10, 10)))
            )
        elif kind == 1:
            phi_deg = float(rng.uniform(16.0, 28.0))
            phi = math.radians(phi_deg)
            r = float(15.0 / math.tan(phi / 2.0) * rng.uniform(1.01, 1.05))
            mu = float(rng.choice([0.0, 0.4, 1.0]))
            cts = find_contacts(scenes.concave_seat_scene(phi_deg, r, mu))
        elif kind == 2:
            mu = float(rng.choice([0.0, 0.5]))
            cts = find_contacts(scenes.square_seat_scene(
                float(rng.uniform(25.0, 40.0)), float(rng.uniform(17.0, 25.0)), mu
            ))
        else:
            k = int(rng.integers(2, 6))
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, k))
            pts = np.column_stack([10 * np.cos(angles), 10 * np.sin(angles)])
            mu = float(rng.choice([0.0, 0.3, 0.8]))
            cts = [Contact(point=p, normal=-p / 10.0, side="left", segment=0) for p in pts]
        got = closure_classify(cts, mu) is not Closure.NONE
        brute = oracles.closed_by_wrench_sampling(
            [c.point for c in cts], [c.normal for c in cts], mu
        )
        assert got == brute, f"scene {agreements} disagrees"
        agreements += 1
    _report(6, "grasp proxies (seat, pinch, form closure, 100-scene oracle agreement)")


def test_contacts_of_a_256_gon_match_enumeration():
    # A 256-gon seated on both concave tips, then pushed 0.05 mm into the
    # right one.  Contact finding holds no array of 256**3 entries (one
    # would take over 100 MB); the scalar oracle checks both verdicts.
    k = 256
    ang = 2.0 * math.pi * np.arange(k) / k
    verts = 88.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    prof = scenes.profile(Concave(math.radians(20.0)))
    verts = verts - [scenes.touch_shift(place_left(prof), verts, min), 0.0]
    gap = scenes.touch_shift(place_right(prof, 0.0), verts, max)
    seated = scene_between(prof, prof, gap, ConvexPolygon(verts), 0.0)
    tracemalloc.start()
    try:
        contacts = find_contacts(seated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"find_contacts peaked at {peak / 1e6:.0f} MB on a 256-gon"
    assert len(contacts) == 4
    scenes.assert_matches_enumeration(seated)
    scenes.assert_matches_enumeration(
        scene_between(prof, prof, gap - 0.05, ConvexPolygon(verts), 0.0))


def test_criterion_7_cli_determinism(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "gap_mm": 20.0, "mu": 0.5, "left": "flat",
        "object": {"type": "circle", "radius_mm": 10.0},
    }))
    commands = [
        ["fk", "--theta", "7.5"],
        ["ik", "--phi", "12.25"],
        ["plan", "--primitive", "concave", "--degree", "8"],
        ["plan", "--primitive", "tilted-planar", "--tilt-x", "4"],
        ["sweep"],
        ["trace-pointer"],
        ["grasp", "--scene", str(scene)],
    ]
    for args in commands:
        assert _cli(args) == _cli(args), f"output differs across runs: {args}"
    elapsed = time.perf_counter() - _SUITE_T0
    assert elapsed < 30.0, f"acceptance suite took {elapsed:.1f} s"
    _report(7, f"CLI determinism (suite total {elapsed:.1f} s)")
