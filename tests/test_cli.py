import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_cli
from morphtip import FingertipConfig, forward_facet, inverse_facet, slider_point
from morphtip import grasp
from morphtip.cli import (_FIELDS, MAX_COUNT, MAX_POINTS, RunConfig, SweepSpec, _parser, dumps, fnum,
                          load_config)

CFG = FingertipConfig()
# The (section, field) pairs of a config file, in the order of its field table.
CONFIG_FIELDS = [tuple(path.split(".")) for path in _FIELDS["config"] if "." in path]


def run_ok(args):
    code, out = run_cli(args)
    assert code == 0, out
    return out


def scene_file(tmp_path, payload, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFkIk:
    def test_fk_neutral(self):
        rec = json.loads(run_ok(["fk", "--theta", "0"]))
        assert rec["phi_deg"] == 0
        assert rec["B"] == [20, 0]
        assert rec["C"] == [15, 0]
        assert rec["CB"] == [5, 0]

    def test_ik_neutral(self):
        rec = json.loads(run_ok(["ik", "--phi", "0"]))
        assert rec["theta_deg"] == 0

    def test_fk_matches_library(self):
        rec = json.loads(run_ok(["fk", "--theta", "9"]))
        theta = math.radians(9.0)
        phi = forward_facet(CFG.linkage, theta)
        bx, by = slider_point(CFG.linkage, theta)
        fmt = lambda x: float(format(x, ".9g"))
        assert rec["phi_deg"] == fmt(math.degrees(phi))
        assert rec["B"] == [fmt(bx), fmt(by)]
        assert rec["CB"] == [fmt(bx - 15.0), fmt(by)]

    def test_ik_roundtrips_through_fk(self):
        fk_rec = json.loads(run_ok(["fk", "--theta", "9"]))
        ik_rec = json.loads(run_ok(["ik", "--phi", str(fk_rec["phi_deg"])]))
        assert ik_rec["theta_deg"] == pytest.approx(9.0, abs=1e-6)

    def test_fk_jam_exits_3(self):
        code, out = run_cli(["fk", "--theta", "18"])
        assert code == 3
        err = json.loads(out)["error"]
        assert err["code"] == "outofrange"

    def test_fk_jam_output(self):
        assert run_cli(["fk", "--theta", "20"]) == (3, (
            '{"error": {"code": "outofrange", "message": "slider inside the hinge '
            '(guide x = -1.52704 mm) at theta=0.349066 rad: mechanism jam"}}\n'))

    def test_fk_huge_theta_error_is_one_short_line(self):
        # Angles from 1e6 rad up print in exponent form, not as 300 digits.
        code, out = run_cli(["fk", "--theta", "1e300"])
        assert (code, out) == (3, (
            '{"error": {"code": "outofrange", "message": "crank angle -1.745329e+298 rad '
            'outside (0, pi) for theta=1.745329e+298 rad"}}\n'))
        assert len(out.encode()) < 300

    def test_ik_unreachable_exits_3(self):
        code, out = run_cli(["ik", "--phi", "120"])
        assert code == 3
        err = json.loads(out)["error"]
        assert err["code"] == "unreachable"
        lo, hi = err["attainable_deg"]
        assert lo < 0 < hi


class TestSweep:
    def test_default_13_rows(self):
        out = run_ok(["sweep"])
        lines = out.strip().split("\n")
        assert lines[0] == "step,theta_deg,phi_deg,B_x_mm,B_y_mm"
        assert len(lines) == 14
        rows = [line.split(",") for line in lines[1:]]
        thetas = [float(r[1]) for r in rows]
        phis = [float(r[2]) for r in rows]
        assert thetas[0] == 15.0 and thetas[-1] == -21.0
        assert all(a > b for a, b in zip(phis, phis[1:]))
        zero = [r for r in rows if float(r[1]) == 0.0]
        assert len(zero) == 1 and float(zero[0][2]) == 0.0
        assert phis[0] > 0 > phis[-1]

    def test_two_row_sweep(self):
        out = run_ok(["sweep", "--start", "-3", "--step", "-3", "--count", "2"])
        assert len(out.strip().split("\n")) == 3

    def test_jam_reports_step_index(self):
        code, out = run_cli(["sweep", "--start", "15", "--step", "3", "--count", "3"])
        assert code == 3
        err = json.loads(out)["error"]
        assert "step 1" in err["message"]

    def test_bad_count_exits_2(self):
        code, out = run_cli(["sweep", "--count", "1"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "config"

    @pytest.mark.parametrize("args, message", [
        (["--count", "1"], "--count must be at least 2"),
        (["--step", "0"], "--step must be nonzero"),
    ], ids=["count", "step"])
    def test_bad_option_names_it(self, args, message):
        code, out = run_cli(["sweep", *args])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config", "message": message}

    @pytest.mark.parametrize("args", [
        ["--count", str(MAX_COUNT + 1)],
        ["--step", "1e-9", "--count", "100000000000000000000"],
        ["--count", "9" * 400],
    ], ids=["one-past", "huge", "beyond-float"])
    def test_count_above_the_maximum_exits_2(self, args):
        assert run_cli(["sweep", *args]) == (2, (
            '{"error": {"code": "config", "message": "--count must be at most 100000"}}\n'))

    @pytest.mark.parametrize("source", ["options", "config"])
    def test_rows_equal_as_printed_exit_2(self, tmp_path, source):
        # A 1e-12 degree step moves phi below the 9 printed digits.
        args = (["--step", "-1e-12", "--count", "3"] if source == "options" else
                ["--config", scene_file(tmp_path, {"sweep": {"step_deg": -1e-12, "count": 3}},
                                       "config.json")])
        code, out = run_cli(["sweep", *args])
        assert code == 2
        assert json.loads(out)["error"] == {
            "code": "config", "message": "sweep output is not strictly monotone in phi"}

    def test_unwritable_output_exits_2(self, tmp_path):
        code, out = run_cli(["sweep", "--output", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("output path not writable: ")

    def test_nul_in_output_path_exits_2(self, tmp_path):
        config = scene_file(tmp_path, {"output": {"path": "\u0000x"}}, "cfg.json")
        assert run_cli(["sweep", "--config", config]) == (2, (
            '{"error": {"code": "config", "message": "output path not writable: embedded null byte"}}\n'))

    def test_spec_accepts_counts_up_to_the_maximum(self):
        assert SweepSpec(count=MAX_COUNT).count == MAX_COUNT

    def test_output_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        run_ok(["sweep", "--output", str(path)])
        text = path.read_text()
        assert text.startswith("step,theta_deg")
        assert len(text.strip().split("\n")) == 14

    def test_config_file_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "fingertip": {"oa_x_mm": 12.0},
            "sweep": {"start_deg": 18.0, "step_deg": -3.0, "count": 13},
        }))
        out = run_ok(["sweep", "--config", str(cfg_path)])
        lines = out.strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) == 18.0 and float(rows[-1][1]) == -18.0
        phis = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(phis, phis[1:]))

    def test_broken_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        code, out = run_cli(["sweep", "--config", str(cfg_path)])
        assert code == 2

    def test_invalid_geometry_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "geom.json"
        cfg_path.write_text(json.dumps({"fingertip": {"l_oc_mm": -5.0}}))
        code, out = run_cli(["sweep", "--config", str(cfg_path)])
        assert code == 2


class TestTracePointer:
    def test_zero_amplitude_stays_at_origin(self):
        out = run_ok(["trace-pointer", "--psi-max", "0", "--points-per-leg", "1"])
        lines = out.strip().split("\n")
        assert lines[0] == "index,psi_x_deg,psi_y_deg,x_mm,y_mm,z_mm"
        for line in lines[1:]:
            _, px, py, x, y, z = line.split(",")
            assert float(x) == 0.0 and float(y) == 0.0
            assert float(z) == 100.0

    def test_corners_at_5deg(self):
        out = run_ok(["trace-pointer", "--psi-max", "5", "--points-per-leg", "1"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        corner = math.radians(5.0)
        want_x = 100.0 * math.cos(corner) * math.sin(corner)
        want_y = 100.0 * math.sin(corner)
        corners = [r for r in rows if float(r[1]) != 0 and float(r[2]) != 0]
        assert len(corners) == 4
        for r in corners:
            assert abs(float(r[3])) == pytest.approx(want_x, abs=1e-7)
            assert abs(float(r[4])) == pytest.approx(want_y, abs=1e-7)

    def test_loop_closes_byte_identically(self):
        out = run_ok(["trace-pointer", "--points-per-leg", "3"])
        lines = out.strip().split("\n")
        first = lines[1].split(",", 1)[1]
        last = lines[-1].split(",", 1)[1]
        assert first == last

    def test_unreachable_amplitude_exits_3(self):
        code, out = run_cli(["trace-pointer", "--psi-max", "30"])
        assert code == 3

    @pytest.mark.parametrize("psi_max", ["30", "50"])
    def test_unreachable_amplitude_reports_the_attainable_range(self, psi_max):
        code, out = run_cli(["trace-pointer", "--psi-max", psi_max])
        assert code == 3
        err = json.loads(out)["error"]
        assert err["code"] == "unreachable"
        assert err["attainable_deg"] == [-7.76124388, 7.76124388]

    @pytest.mark.parametrize("psi_max", ["9", "-9"])
    def test_unreachable_amplitude_is_the_planar_solvers_error(self, psi_max):
        # One solver decides and words every unreachable tilt, for plan and trace-pointer.
        plan = run_cli(["plan", "--primitive", "tilted-planar", "--tilt-x", "9"])
        assert plan[0] == 3
        assert run_cli(["trace-pointer", "--psi-max", psi_max]) == plan

    def test_attainable_amplitude_past_the_pointer_limit_names_the_option(self, tmp_path):
        # This geometry attains tilts of +-88.8 degrees; the pointer model stops at 45.
        config = {"fingertip": {"l_oc_mm": 1, "l_ab_mm": 58, "alpha0_deg": 84, "oa_x_mm": -15,
                                "theta_min_deg": -100, "theta_max_deg": 160}}
        path = scene_file(tmp_path, config, "config.json")
        code, out = run_cli(["trace-pointer", "--config", path, "--psi-max", "50"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "code": "config", "message": "--psi-max must stay below 45 degrees"}
        run_ok(["trace-pointer", "--config", path, "--psi-max", "44"])

    @pytest.mark.parametrize("points, message", [
        ("0", "--points-per-leg must be at least 1"),
        ("-3", "--points-per-leg must be at least 1"),
        (str(MAX_COUNT + 1), "--points-per-leg must be at most 100000"),
        ("100000000000000000000", "--points-per-leg must be at most 100000"),
        ("9" * 400, "--points-per-leg must be at most 100000"),
    ], ids=["zero", "negative", "one-past", "huge", "beyond-float"])
    def test_points_per_leg_out_of_range_exits_2(self, points, message):
        code, out = run_cli(["trace-pointer", "--points-per-leg", points])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config", "message": message}


class TestGrasp:
    def test_flat_pinch_report(self, tmp_path):
        scene = scene_file(tmp_path, {
            "gap_mm": 20.0, "mu": 0.0, "left": "flat",
            "object": {"type": "circle", "radius_mm": 10.0},
        })
        rec = json.loads(run_ok(["grasp", "--scene", scene]))
        assert len(rec["contacts"]) == 2
        assert rec["pivot_feasible"] is True
        assert rec["closure_class"] == "none"
        assert rec["cradle_curvature_sign"] == 0

    def test_concave_seat_report(self, tmp_path):
        phi = math.radians(20.0)
        r = 88.0
        gap = 2.0 * (r - 15.0 * math.sin(phi)) / math.cos(phi)
        scene = scene_file(tmp_path, {
            "gap_mm": gap, "mu": 0.0,
            "left": {"primitive": "concave", "degree_deg": 20.0},
            "object": {"type": "circle", "radius_mm": r},
        })
        rec = json.loads(run_ok(["grasp", "--scene", scene]))
        assert len(rec["contacts"]) == 4
        assert rec["pivot_feasible"] is False
        assert rec["cradle_curvature_sign"] == 1

    def test_empty_scene_all_false(self, tmp_path):
        scene = scene_file(tmp_path, {
            "gap_mm": 60.0, "mu": 0.0, "left": "flat",
            "object": {"type": "circle", "radius_mm": 10.0},
        })
        rec = json.loads(run_ok(["grasp", "--scene", scene]))
        assert rec["contacts"] == []
        assert rec["pivot_feasible"] is False
        assert rec["closure_class"] == "none"

    def test_penetration_exits_3_with_witness(self, tmp_path):
        scene = scene_file(tmp_path, {
            "gap_mm": 18.0, "mu": 0.0, "left": "flat",
            "object": {"type": "circle", "radius_mm": 10.0, "center_mm": [9.0, 0.0]},
        })
        code, out = run_cli(["grasp", "--scene", scene])
        assert code == 3
        err = json.loads(out)["error"]
        assert err["code"] == "penetration"
        assert len(err["witness_mm"]) == 2

    def test_polygon_scene(self, tmp_path):
        phi = math.radians(30.0)
        a = 20.0
        half_gap = a + (a - 15.0) * math.tan(phi)
        sq = [[half_gap - a, -a], [half_gap + a, -a], [half_gap + a, a], [half_gap - a, a]]
        scene = scene_file(tmp_path, {
            "gap_mm": 2 * half_gap, "mu": 0.0,
            "left": {"primitive": "concave", "degree_deg": 30.0},
            "object": {"type": "polygon", "vertices_mm": sq},
        })
        rec = json.loads(run_ok(["grasp", "--scene", scene]))
        assert rec["closure_class"] == "form_closure"
        assert rec["cradle_curvature_sign"] is None

    @pytest.mark.parametrize("spec, plan_args", [
        ({"primitive": "concave", "degree_deg": 95.0}, ["--primitive", "concave", "--degree", "95"]),
        ({"primitive": "tilted-planar", "tilt_deg": [40.0, 0.0]},
         ["--primitive", "tilted-planar", "--tilt-x", "40", "--tilt-y", "0"]),
    ], ids=["concave", "tilted-planar"])
    def test_unreachable_primitive_exits_3_as_plan_does(self, tmp_path, spec, plan_args):
        scene = scene_file(tmp_path, {"gap_mm": 20.0, "left": spec, "object": _CIRCLE})
        scene_code, scene_out = run_cli(["grasp", "--scene", scene])
        plan_code, plan_out = run_cli(["plan", *plan_args])
        assert scene_code == plan_code == 3
        assert scene_out == plan_out
        err = json.loads(scene_out)["error"]
        assert err["code"] == "unreachable"
        assert len(err["attainable_deg"]) == 2

    def test_unstable_cradle_report(self, tmp_path):
        # A ridge under a small circle: the cradle landscape curves down.
        scene = scene_file(tmp_path, {
            "gap_mm": 60.0, "left": {"polyline_mm": [[-10.0, 0.0], [0.0, 5.0], [10.0, 0.0]]},
            "object": {"type": "circle", "radius_mm": 2.0, "center_mm": [30.0, 0.0]},
        })
        assert run_ok(["grasp", "--scene", scene]) == (
            '{"contacts": [], "pivot_feasible": false, "closure_class": "none", '
            '"cradle_curvature_sign": -1}\n')

    def test_cradle_off_the_profile_is_null(self, tmp_path):
        # The profile does not reach under the profile center.
        scene = scene_file(tmp_path, {
            "gap_mm": 60.0, "left": {"polyline_mm": [[5.0, 0.0], [10.0, 0.0]]},
            "object": {"type": "circle", "radius_mm": 1.0},
        })
        assert json.loads(run_ok(["grasp", "--scene", scene]))["cradle_curvature_sign"] is None

    def test_polyline_of_the_flat_profile_reports_as_flat(self, tmp_path):
        circle = {"type": "circle", "radius_mm": 10.0}
        # The default flat profile: hinges at l_oc = 15, facets 17.5 long.
        flat = [[-32.5, 0.0], [-15.0, 0.0], [15.0, 0.0], [32.5, 0.0]]
        by_points = scene_file(tmp_path, {"gap_mm": 20.0, "mu": 0.5, "left": {"polyline_mm": flat},
                                          "object": circle}, "points.json")
        by_name = scene_file(tmp_path, {"gap_mm": 20.0, "mu": 0.5, "left": "flat", "object": circle},
                             "flat.json")
        out = run_ok(["grasp", "--scene", by_points])
        assert out == run_ok(["grasp", "--scene", by_name])
        assert json.loads(out)["closure_class"] == "force_closure"

    def test_mirrored_profile_out_of_float_range_names_the_gap(self, tmp_path, capsys):
        # right mirrors left, and gap - y overflows for the first point.
        path = scene_file(tmp_path, {
            "gap_mm": 1e308, "left": {"polyline_mm": [[0.0, -1e308], [1.0, 0.0]]},
            "object": {"type": "circle", "radius_mm": 1.0, "center_mm": [0.0, 0.0]}})
        assert run_cli(["grasp", "--scene", path]) == (2, (
            '{"error": {"code": "config", "message": "scene field \'gap_mm\' must keep the '
            'mirrored profile\'s points finite"}}\n'))
        assert capsys.readouterr().err == ""

    def test_polygon_whose_edge_products_overflow_names_the_vertices(self, tmp_path, capsys):
        path = scene_file(tmp_path, {"gap_mm": 20.0, "object": {
            "type": "polygon", "vertices_mm": [[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]]}})
        assert run_cli(["grasp", "--scene", path]) == (2, (
            '{"error": {"code": "config", "message": "scene field \'object.vertices_mm\' must '
            'keep each edge\'s cross product and squared length finite"}}\n'))
        assert capsys.readouterr().err == ""

    def test_bad_scene_exits_2(self, tmp_path):
        scene = scene_file(tmp_path, {"gap_mm": -1.0, "object": {"type": "circle", "radius_mm": 1.0}})
        code, out = run_cli(["grasp", "--scene", scene])
        assert code == 2


_CIRCLE = {"type": "circle", "radius_mm": 10.0}
# A JSON integer with 401 digits: a number, but too large for a float.
HUGE_INT = 10**400


def _arc(n):
    """n points, 1 mm apart in x, of a shallow arc whose apex is the origin.

    Its points are not collinear: on a straight polyline the self-crossing
    check tests every pair of segments in full, several times slower.
    """
    return [[i - n // 2, -((i - n // 2) ** 2) / 1e4] for i in range(n)]


def _round(n):
    """n vertices, counter-clockwise, of a polygon seated between flat tips 20 mm apart."""
    return [[10.0 + 10.0 * math.cos(2 * math.pi * i / n), 10.0 * math.sin(2 * math.pi * i / n)]
            for i in range(n)]


class TestPointCap:
    """A polyline_mm or vertices_mm lists at most MAX_POINTS points, and a longer
    list is refused before any point is read or any polyline checked."""

    @pytest.mark.parametrize("scene", [
        {"gap_mm": 20.0, "left": {"polyline_mm": _arc(MAX_POINTS)}, "object": _CIRCLE},
        {"gap_mm": 20.0, "object": {"type": "polygon", "vertices_mm": _round(MAX_POINTS)}},
    ], ids=["polyline_mm", "vertices_mm"])
    def test_at_the_cap_runs(self, tmp_path, scene):
        assert json.loads(run_ok(["grasp", "--scene", scene_file(tmp_path, scene)]))["contacts"]

    def test_a_polyline_is_checked_once_per_placed_profile(self, tmp_path, monkeypatch):
        # Straight, the costliest case for the check; right mirrors left.
        straight = [[float(x), 0.0] for x in range(MAX_POINTS)]
        path = scene_file(tmp_path, {"gap_mm": 20.0, "left": {"polyline_mm": straight},
                                     "object": _CIRCLE})
        calls = []
        simple = grasp._polyline_is_simple

        def counted(points):
            calls.append(len(points))
            return simple(points)

        monkeypatch.setattr(grasp, "_polyline_is_simple", counted)
        assert len(json.loads(run_ok(["grasp", "--scene", path]))["contacts"]) == 2
        assert calls == [MAX_POINTS, MAX_POINTS]

    @pytest.mark.parametrize("scene, field", [
        ({"gap_mm": 20.0, "left": {"polyline_mm": _arc(MAX_POINTS + 1)}, "object": _CIRCLE},
         "left.polyline_mm"),
        ({"gap_mm": 20.0, "right": {"polyline_mm": _arc(MAX_POINTS + 1)}, "object": _CIRCLE},
         "right.polyline_mm"),
        ({"gap_mm": 20.0, "object": {"type": "polygon", "vertices_mm": _round(MAX_POINTS + 1)}},
         "object.vertices_mm"),
    ], ids=["left", "right", "vertices_mm"])
    def test_one_past_the_cap_exits_2_at_once(self, tmp_path, scene, field):
        path = scene_file(tmp_path, scene)
        start = time.perf_counter()
        code, out = run_cli(["grasp", "--scene", path])
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out)["error"]) == (2, {
            "code": "config", "message": f"scene field {field!r} must have at most 256 points"})


class TestUnknownKeys:
    @pytest.mark.parametrize("config, field", [
        ({"fingertips": {}}, "fingertips"),
        ({"fingertip": {"l_ab": 5.0}}, "fingertip.l_ab"),
        ({"sweep": {"count": 3, "stop_deg": 0.0}}, "sweep.stop_deg"),
        ({"output": {"fmt": "json"}}, "output.fmt"),
        ({"output": {"format": "json"}}, "output.format"),
        ({"fingertip": {"oa_mm": [10.0, None]}}, "fingertip.oa_mm"),
        ({"fingertip": {"spring_k": 10.0}}, "fingertip.spring_k"),
        ({"fingertip": {"step_deg": 3.0}}, "fingertip.step_deg"),
    ], ids=["config-root", "fingertip", "sweep", "output", "output-format",
            "oa_mm", "spring_k", "step_deg"])
    def test_config_key_exits_2(self, tmp_path, config, field):
        code, out = run_cli(["sweep", "--config", scene_file(tmp_path, config, "cfg.json")])
        assert code == 2
        err = json.loads(out)["error"]
        assert err == {"code": "config", "message": f"unknown config field {field!r}"}

    @pytest.mark.parametrize("scene, field", [
        ({"gap_mm": 20.0, "gap": 20.0, "object": _CIRCLE}, "gap"),
        ({"gap_mm": 20.0, "left": {"primitive": "concave", "degree": 8.0}, "object": _CIRCLE},
         "left.degree"),
        ({"gap_mm": 20.0, "object": {**_CIRCLE, "radius": 10.0}}, "object.radius"),
        ({"gap_mm": 20.0, "left": {"primitive": "flat", "degree_deg": 5.0}, "object": _CIRCLE},
         "left.degree_deg"),
        ({"gap_mm": 20.0, "left": {"polyline_mm": [[0.0, 0.0], [1.0, 0.0]], "primitive": "flat"},
          "object": _CIRCLE}, "left.primitive"),
    ], ids=["scene-root", "profile-spec", "object", "flat-degree", "polyline-primitive"])
    def test_scene_key_exits_2(self, tmp_path, scene, field):
        code, out = run_cli(["grasp", "--scene", scene_file(tmp_path, scene)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err == {"code": "config", "message": f"unknown scene field {field!r}"}


class TestDuplicateKeys:
    """A key given twice in one JSON object exits 2 naming it, wherever the object is."""

    @pytest.mark.parametrize("text, field", [
        ('{"fingertip": {"l_oc_mm": "x"}, "fingertip": {}}', "fingertip"),
        ('{"sweep": {"count": 3, "count": 4}}', "sweep.count"),
        ('{"output": {"path": null, "path": "x.csv"}}', "output.path"),
    ], ids=["section", "sweep", "output"])
    def test_config_key_exits_2(self, tmp_path, text, field):
        (tmp_path / "cfg.json").write_text(text)
        code, out = run_cli(["sweep", "--config", str(tmp_path / "cfg.json")])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config",
                                            "message": f"duplicate config field {field!r}"}

    @pytest.mark.parametrize("text, field", [
        ('{"gap_mm": 20, "gap_mm": -5, "object": {"type": "circle", "radius_mm": 10}}', "gap_mm"),
        ('{"gap_mm": 20, "object": {"type": "circle", "radius_mm": 10, "radius_mm": 11}}',
         "object.radius_mm"),
        ('{"gap_mm": 20, "left": {"primitive": "concave", "primitive": "flat"}, '
         '"object": {"type": "circle", "radius_mm": 10}}', "left.primitive"),
    ], ids=["scene-root", "object", "profile-spec"])
    def test_scene_key_exits_2(self, tmp_path, text, field):
        (tmp_path / "scene.json").write_text(text)
        code, out = run_cli(["grasp", "--scene", str(tmp_path / "scene.json")])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config",
                                            "message": f"duplicate scene field {field!r}"}


class TestFirstFault:
    """Of two faults in one file, the one reported is fixed: values before the
    library's checks, a section's values in file order, unknown keys before
    values, and a scene's left before its right and its object.  A polyline
    that touches itself is a library check on the placed profiles, made
    after the object is built, so a bad object is reported first."""

    @pytest.mark.parametrize("config, message", [
        ({"sweep": {"count": 2.5}, "fingertip": {"l_oc_mm": "x"}},
         "config field 'sweep.count' must be an integer"),
        ({"fingertip": {"l_ab_mm": "x", "l_oc_mm": "y"}},
         "config field 'fingertip.l_ab_mm' must be a number"),
        ({"fingertip": {"l_oc_mm": -1, "bogus": 1}}, "unknown config field 'fingertip.bogus'"),
    ], ids=["count-before-fingertip", "file-order", "unknown-first"])
    def test_config(self, tmp_path, config, message):
        code, out = run_cli(["sweep", "--config", scene_file(tmp_path, config, "cfg.json")])
        assert (code, json.loads(out)["error"]) == (2, {"code": "config", "message": message})

    @pytest.mark.parametrize("scene, message", [
        ({"object": _CIRCLE, "gap_mm": "x", "mu": "y"}, "scene field 'gap_mm' must be a number"),
        ({"gap_mm": 20, "right": 5, "left": 6, "object": 7},
         "scene field 'left' must be a string or object"),
        ({"gap_mm": -20, "left": {"primitive": "convex", "degree_deg": 5}, "object": _CIRCLE},
         "scene field 'left.degree_deg' must be a negative angle in degrees for convex"),
        ({"gap_mm": 20, "left": {"polyline_mm": [[-10.0, 0.0], [10.0, 0.0], [0.0, 0.0]]},
          "object": {**_CIRCLE, "radius_mm": -5.0}},
         "scene field 'object.radius_mm' must be positive and its square finite"),
        ({"gap_mm": 1e308, "left": {"polyline_mm": [[-1e308, 0.0], [1e308, 0.0]]},
          "right": {"polyline_mm": [[-5.0, -1e308], [5.0, -1e308]]}, "object": _CIRCLE},
         "scene field 'gap_mm' must keep the mirrored profile's points finite"),
    ], ids=["gap-before-mu", "left-before-right", "profile-before-gap-range",
            "object-before-self-touching-polyline", "gap-before-overflowing-segment"])
    def test_scene(self, tmp_path, scene, message):
        code, out = run_cli(["grasp", "--scene", scene_file(tmp_path, scene)])
        assert (code, json.loads(out)["error"]) == (2, {"code": "config", "message": message})


class TestWrongTypes:
    """A value of the wrong JSON type exits 2 naming its field."""

    @pytest.mark.parametrize("config, message", [
        ({"fingertip": {"oa_x_mm": [10.0, None]}},
         "config field 'fingertip.oa_x_mm' must be a number"),
        ({"fingertip": {"l_oc_mm": "15"}}, "config field 'fingertip.l_oc_mm' must be a number"),
        ({"sweep": {"count": 2.5}}, "config field 'sweep.count' must be an integer"),
        ({"output": {"path": 1}}, "config field 'output.path' must be a string or null"),
        ({"fingertip": {"l_oc_mm": math.nan}},
         "config field 'fingertip.l_oc_mm' must be a finite number"),
        ({"sweep": {"start_deg": math.inf}}, "config field 'sweep.start_deg' must be a finite number"),
        ({"fingertip": {"l_oc_mm": HUGE_INT}},
         "config field 'fingertip.l_oc_mm' must be a finite number"),
        ({"sweep": {"count": HUGE_INT}}, "config field 'sweep.count' must be an integer"),
        ({"fingertip": {"l_oc_mm": -1.0}}, "config field 'fingertip.l_oc_mm' must be positive"),
        ({"fingertip": {"l_ab_mm": 0.0}}, "config field 'fingertip.l_ab_mm' must be positive"),
        ({"fingertip": {"alpha0_deg": 95.0}},
         "config field 'fingertip.alpha0_deg' must lie strictly between 0 and a right angle"),
        ({"fingertip": {"theta_min_deg": 40.0}},
         "config field 'fingertip.theta_min_deg' must be below 'fingertip.theta_max_deg'"),
        ({"fingertip": {"oa_x_mm": -20.0}},
         "config field 'fingertip.oa_x_mm' must exceed 'fingertip.l_oc_mm' - "
         "'fingertip.l_ab_mm'*sin('fingertip.alpha0_deg'): "
         "the slider must sit outward of the hinge at neutral"),
        ({"fingertip": {"facet_len_mm": 0.0}},
         "config field 'fingertip.facet_len_mm' must be positive and finite"),
        ({"fingertip": {"rod_len_mm": -3.0}},
         "config field 'fingertip.rod_len_mm' must be positive and finite"),
        ({"sweep": {"count": 1}}, "config field 'sweep.count' must be at least 2"),
        ({"sweep": {"step_deg": 0.0}}, "config field 'sweep.step_deg' must be nonzero"),
    ], ids=["oa_mm", "l_oc_mm", "count", "path", "l_oc_mm-nan", "start_deg-inf",
            "l_oc_mm-huge", "count-huge", "l_oc_mm-negative", "l_ab_mm-zero",
            "alpha0_deg-obtuse", "theta_min_deg-above-max", "oa_x_mm-inside-hinge",
            "facet_len_mm-zero", "rod_len_mm-negative", "count-one", "step_deg-zero"])
    def test_config_value_exits_2(self, tmp_path, config, message):
        code, out = run_cli(["sweep", "--config", scene_file(tmp_path, config, "cfg.json")])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config", "message": message}

    @pytest.mark.parametrize("scene, message", [
        ({"gap_mm": 20.0, "object": "circle"}, "scene field 'object' must be a JSON object"),
        ({"gap_mm": 20.0, "left": {"polyline_mm": [[0.0, 0.0]]}, "object": _CIRCLE},
         "scene field 'left.polyline_mm' must be a list of at least 2 [x, y] points"),
        ({"gap_mm": 20.0, "left": {"primitive": "concave"}, "object": _CIRCLE},
         "scene field 'left.degree_deg' is required"),
        ({"object": _CIRCLE}, "scene field 'gap_mm' is required"),
        ({"gap_mm": 20.0, "object": {"radius_mm": 10.0}},
         "scene field 'object.type' must be 'circle' or 'polygon'"),
        ({"gap_mm": 20.0, "object": {**_CIRCLE, "center_mm": [10.0]}},
         "scene field 'object.center_mm' must be a pair of numbers [x, y]"),
        ({"gap_mm": 20.0, "left": {"primitive": "convex", "degree_deg": 5.0}, "object": _CIRCLE},
         "scene field 'left.degree_deg' must be a negative angle in degrees for convex"),
        ({"gap_mm": math.nan, "object": _CIRCLE}, "scene field 'gap_mm' must be a finite number"),
        ({"gap_mm": 20.0, "object": {**_CIRCLE, "center_mm": [math.nan, 0.0]}},
         "scene field 'object.center_mm' must be a pair of numbers [x, y]"),
        ({"gap_mm": 20.0, "left": {"primitive": "tilted-planar", "tilt_deg": [math.inf, 0.0]},
          "object": _CIRCLE},
         "scene field 'left.tilt_deg' must be a pair of numbers [x, y]"),
        ({"gap_mm": 20.0, "left": {"polyline_mm": [[0.0, 0.0], [math.nan, 1.0]]},
          "object": _CIRCLE},
         "scene field 'left.polyline_mm' must be a list of at least 2 [x, y] points"),
        ({"gap_mm": 20.0, "object": {"type": "polygon",
                                     "vertices_mm": [[0.0, 0.0], [1.0, 0.0], [0.0, -math.inf]]}},
         "scene field 'object.vertices_mm' must be a list of at least 3 [x, y] points"),
        ({"gap_mm": 20.0, "left": {"polyline_mm": [[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]]},
          "object": _CIRCLE},
         "scene field 'left.polyline_mm' must not self-intersect"),
        ({"gap_mm": 20.0, "object": {**_CIRCLE, "center_mm": [HUGE_INT, 0.0]}},
         "scene field 'object.center_mm' must be a pair of numbers [x, y]"),
        ({"gap_mm": HUGE_INT, "object": _CIRCLE}, "scene field 'gap_mm' must be a finite number"),
        ({"gap_mm": 20.0, "left": {"polyline_mm": [[-10.0, 0.0], [10.0, 0.0], [0.0, 0.0]]},
          "object": _CIRCLE},
         "scene field 'left.polyline_mm' must not self-intersect"),
        ({"gap_mm": 20.0,
          "left": {"polyline_mm": [[-10.0, 0.0], [10.0, 0.0], [10.0, 5.0], [0.0, 0.0]]},
          "object": _CIRCLE},
         "scene field 'left.polyline_mm' must not self-intersect"),
        ({"gap_mm": 20.0, "left": {"polyline_mm": [[-10.0, 0.0], [-10.0, 0.0]]}, "object": _CIRCLE},
         "scene field 'left.polyline_mm' must not self-intersect"),
        ({"gap_mm": -40.0, "object": _CIRCLE}, "scene field 'gap_mm' must be positive and finite"),
        ({"gap_mm": 20.0, "mu": -1.0, "object": _CIRCLE}, "scene field 'mu' must be non-negative and finite"),
        ({"gap_mm": 20.0, "object": {**_CIRCLE, "radius_mm": -5.0}},
         "scene field 'object.radius_mm' must be positive and its square finite"),
        ({"gap_mm": 20.0, "object": {"type": "polygon",  # clockwise
                                     "vertices_mm": [[0, 0], [0, 5], [5, 5], [5, 0]]}},
         "scene field 'object.vertices_mm' must be a strictly convex polygon "
         "in counter-clockwise order"),
        ({"gap_mm": 20.0, "object": {**_CIRCLE, "radius_mm": 1e200, "center_mm": [10.0, 1e201]}},
         "scene field 'object.radius_mm' must be positive and its square finite"),
        ({"gap_mm": 20.0, "left": 5, "object": _CIRCLE},
         "scene field 'left' must be a string or object"),
        ({"gap_mm": 20.0, "left": {"primitive": "bogus"}, "object": _CIRCLE},
         "scene field 'left.primitive' must be one of flat, concave, convex, tilted-planar"),
        ({"gap_mm": 20.0, "left": {"polyline_mm": [[-1e308, 0.0], [1e308, 0.0]]},
          "right": {"polyline_mm": [[-5.0, 0.0], [5.0, 0.0]]},
          "object": {**_CIRCLE, "center_mm": [0.0, 5.0]}},
         "scene field 'left.polyline_mm' must keep each segment's squared length finite"),
    ], ids=["object", "polyline_mm", "degree_deg", "gap_mm", "type", "center_mm",
            "degree_deg-sign", "gap_mm-nan", "center_mm-nan", "tilt_deg-inf",
            "polyline_mm-nan", "vertices_mm-inf", "polyline_mm-crossing",
            "center_mm-huge", "gap_mm-huge", "polyline_mm-folds-back",
            "polyline_mm-ends-on-first", "polyline_mm-repeated-point", "gap_mm-negative",
            "mu-negative", "radius_mm-negative", "vertices_mm-clockwise",
            "radius_mm-square-overflows", "left-number", "primitive-unknown",
            "polyline_mm-segment-square-overflows"])
    def test_scene_value_exits_2(self, tmp_path, scene, message):
        code, out = run_cli(["grasp", "--scene", scene_file(tmp_path, scene)])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config", "message": message}


class TestUnreadableFile:
    """A config or scene file that cannot be read, or whose root is not a JSON
    object, exits 2 naming what it is."""

    @pytest.mark.parametrize("args, what", [
        (["fk", "--theta", "1", "--config"], "config"),
        (["grasp", "--scene"], "scene"),
    ], ids=["config", "scene"])
    def test_missing_file(self, tmp_path, args, what):
        path = str(tmp_path / "missing.json")
        assert run_cli([*args, path]) == (2, dumps({"error": {
            "code": "config",
            "message": f"cannot read {what} {path}: [Errno 2] No such file or directory: {path!r}",
        }}) + "\n")

    @pytest.mark.parametrize("args, what", [
        (["fk", "--theta", "1", "--config"], "config"),
        (["grasp", "--scene"], "scene"),
    ], ids=["config", "scene"])
    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"a": ' * 100_000 + b"1" + b"}" * 100_000,
    ], ids=["not-utf-8", "deep-array", "deep-object"])
    def test_unparsable_file(self, tmp_path, args, what, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out = run_cli([*args, str(path)])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "config"
        assert error["message"].startswith(f"cannot read {what} {path}: ")

    @pytest.mark.parametrize("args, what", [
        (["fk", "--theta", "1", "--config"], "config"),
        (["grasp", "--scene"], "scene"),
    ], ids=["config", "scene"])
    def test_root_not_an_object(self, tmp_path, args, what):
        code, out = run_cli([*args, scene_file(tmp_path, [1, 2])])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config",
                                            "message": f"{what} root must be a JSON object"}


class TestNonFiniteOption:
    """A NaN or infinite number option exits 2 naming the option."""

    @pytest.mark.parametrize("args", [
        ["fk", "--theta", "nan"],
        ["fk", "--theta", "-inf"],
        ["ik", "--phi", "inf"],
        ["sweep", "--start", "nan"],
        ["sweep", "--step", "inf"],
        ["trace-pointer", "--psi-max", "nan"],
        ["trace-pointer", "--psi-max", "inf"],
        ["plan", "--degree", "nan", "--primitive", "concave"],
        ["plan", "--degree", "-inf", "--primitive", "convex"],
        ["plan", "--tilt-x", "nan", "--primitive", "tilted-planar"],
        ["plan", "--tilt-y", "inf", "--primitive", "tilted-planar"],
    ], ids=" ".join)
    def test_exits_2(self, args):
        code, out = run_cli(args)
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config",
                                                      "message": f"{args[1]} must be finite"}


class TestOverflowingGeometry:
    """Lengths whose points would overflow exit 2 naming the field, not print inf."""

    @pytest.mark.parametrize("key", ["facet_len_mm", "l_ab_mm"])
    def test_exits_2_naming_the_field(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fingertip": {key: 1e308}}))
        code, out = run_cli(["plan", "--primitive", "concave", "--degree", "8", "--config", str(cfg)])
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            f"config field 'fingertip.{key}' is too large: its points must be finite")

    @pytest.mark.parametrize("fingertip, key", [
        ({"facet_len_mm": 1e200}, "facet_len_mm"),
        ({"l_oc_mm": 1e200, "oa_x_mm": 2e200}, "l_oc_mm"),
    ], ids=["facet_len_mm", "l_oc_mm"])
    def test_profile_segment_whose_square_overflows_names_the_field(self, tmp_path, fingertip,
                                                                    key):
        # A scene would square the facet (terrace) segment to inf; the file has no polyline_mm.
        cfg = scene_file(tmp_path, {"fingertip": fingertip}, "cfg.json")
        scene = scene_file(tmp_path, {"gap_mm": 20, "left": "flat",
                                      "object": {**_CIRCLE, "center_mm": [10, 30]}})
        code, out = run_cli(["grasp", "--scene", scene, "--config", cfg])
        assert (code, json.loads(out)["error"]) == (2, {
            "code": "config",
            "message": f"config field 'fingertip.{key}' is too large: its points must be finite"})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_formatting_refuses_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            fnum(value)
        with pytest.raises(ValueError):
            dumps({"x": [1.0, value]})


class TestJamOnlyStroke:
    """A servo stroke wholly past the jam limit is a config error for every command."""

    @pytest.mark.parametrize("args", [
        ["fk", "--theta", "0"],
        ["ik", "--phi", "0"],
        ["plan", "--primitive", "concave", "--degree", "8"],
        ["sweep"],
        ["trace-pointer"],
        ["grasp", "--scene", "scene.json"],
    ], ids=lambda args: args[0])
    def test_exits_2(self, tmp_path, monkeypatch, args):
        # The default geometry jams just above +15.5 deg.
        cfg = scene_file(tmp_path, {"fingertip": {"theta_min_deg": 30.0, "theta_max_deg": 35.0}},
                         "cfg.json")
        scene_file(tmp_path, {"gap_mm": 20.0, "left": "concave", "object": _CIRCLE})
        monkeypatch.chdir(tmp_path)
        code, out = run_cli([*args, "--config", cfg])
        assert code == 2
        assert json.loads(out)["error"] == {
            "code": "config",
            "message": "invalid config: commanded servo stroke lies entirely in the jam zone",
        }


# The default geometry with a stroke from +5 deg: it excludes the flat-neutral command 0.
_NO_FLAT = ('{"error": {"code": "unreachable", "message": "facet angle 0.000000 rad not attainable; '
            'reachable interval is [0.229258, 1.570796] rad", '
            '"attainable_deg": [13.1355297, 89.9999995]}}\n')
_NO_TILT = ('{"error": {"code": "unreachable", "message": "no tilt is attainable: the operating '
            'range [0.087266, 0.270919] rad excludes the flat-neutral command 0"}}\n')


class TestStrokeExcludingZero:
    """A stroke without 0 plans no Flat and no tilt, and says so without an inverted interval."""

    @pytest.mark.parametrize("args, out", [
        (["plan", "--primitive", "flat"], _NO_FLAT),
        (["grasp", "--scene", "scene.json"], _NO_FLAT),
        (["plan", "--primitive", "tilted-planar", "--tilt-x", "0"], _NO_TILT),
        (["trace-pointer", "--psi-max", "1"], _NO_TILT),
    ], ids=["plan-flat", "grasp-flat", "plan-tilted-planar", "trace-pointer"])
    def test_exits_3(self, tmp_path, monkeypatch, args, out):
        cfg = scene_file(tmp_path, {"fingertip": {"theta_min_deg": 5.0}}, "cfg.json")
        scene_file(tmp_path, {"gap_mm": 20.0, "left": "flat", "right": "flat", "object": _CIRCLE})
        monkeypatch.chdir(tmp_path)
        assert run_cli([*args, "--config", cfg]) == (3, out)


JAM_MESSAGE = "invalid config: commanded servo stroke lies entirely in the jam zone"
# A library argument name or a radian bound: no config error may show one.
_LIBRARY_TEXT = re.compile(
    r"\b(l_oc|l_ab|alpha0|oa_x|theta_min|theta_max|facet_len|rod_len)\b|pi/2| rad")
_EDGE_VALUES = st.sampled_from([1e308, -1e308, 0.0, 1e-9, -1e-9, 90.0, -90.0])


def assert_finite_output(out: str) -> None:
    """out is one strict JSON record, or CSV, with every number finite."""
    if out.startswith("{"):
        def refuse(name):
            raise AssertionError(f"{name} in {out}")

        json.loads(out, parse_constant=refuse)
        numbers = [float(x) for x in re.findall(r"-?\d[\d.e+-]*", out)]
    else:
        numbers = [float(cell) for line in out.splitlines()[1:] for cell in line.split(",")]
    assert all(map(math.isfinite, numbers)), out


class TestFingertipFieldRange:
    """Any finite value of one fingertip field runs, or is an error naming the field,
    and a run prints finite numbers only."""

    @settings(max_examples=200)
    @given(key=st.sampled_from([name for section, name in CONFIG_FIELDS if section == "fingertip"]),
           value=st.one_of(_EDGE_VALUES, st.floats(allow_nan=False, allow_infinity=False)))
    def test_exit_2_names_the_field(self, tmp_path_factory, key, value):
        cfg = tmp_path_factory.getbasetemp() / "range-cfg.json"
        cfg.write_text(json.dumps({"fingertip": {key: value}}))
        for args in (["fk", "--theta", "5"], ["plan", "--primitive", "concave", "--degree", "8"],
                     ["trace-pointer"]):
            code, out = run_cli([*args, "--config", str(cfg)])
            assert code in (0, 2, 3), (args, out)
            if code == 0:
                assert_finite_output(out)
                continue
            assert out.count("\n") == 1
            error = json.loads(out)["error"]
            if code == 2:
                message = error["message"]
                assert message == JAM_MESSAGE or repr(f"fingertip.{key}") in message, message
                assert not _LIBRARY_TEXT.search(message), message


# One valid non-default value per config field, and a command whose output it changes.
_FIELD_EFFECTS = {
    ("fingertip", "l_oc_mm"): (14.0, ["fk", "--theta", "5"]),
    ("fingertip", "l_ab_mm"): (21.0, ["fk", "--theta", "5"]),
    ("fingertip", "alpha0_deg"): (32.0, ["fk", "--theta", "5"]),
    ("fingertip", "oa_x_mm"): (11.0, ["fk", "--theta", "5"]),
    ("fingertip", "theta_min_deg"): (-20.0, ["ik", "--phi", "-80"]),
    ("fingertip", "theta_max_deg"): (10.0, ["ik", "--phi", "95"]),
    ("fingertip", "facet_len_mm"): (20.0, ["plan", "--primitive", "concave", "--degree", "8"]),
    ("fingertip", "rod_len_mm"): (90.0, ["trace-pointer"]),
    ("sweep", "start_deg"): (12.0, ["sweep"]),
    ("sweep", "step_deg"): (-2.0, ["sweep"]),
    ("sweep", "count"): (5, ["sweep"]),
    ("output", "path"): ("out.csv", ["sweep"]),
}


class TestNoDeadConfigField:
    def test_every_field_changes_some_output(self, tmp_path, monkeypatch):
        assert set(CONFIG_FIELDS) == set(_FIELD_EFFECTS)
        monkeypatch.chdir(tmp_path)
        written = Path("out.csv")

        def run(args):
            code, out = run_cli(args)
            text = written.read_text() if written.exists() else None
            written.unlink(missing_ok=True)
            return code, out, text

        for (section, name), (value, args) in _FIELD_EFFECTS.items():
            cfg = scene_file(tmp_path, {section: {name: value}}, "cfg.json")
            default = run(args)
            changed = run([*args, "--config", cfg])
            # A rejected value would change the output trivially.
            assert changed[0] == default[0], (name, changed[1])
            assert changed != default, name


README = (Path(__file__).parents[1] / "README.md").read_text()


def readme_json(heading: str) -> str:
    """The first JSON block after a heading of README.md."""
    return re.search(re.escape(heading) + r".*?```json\n(.*?)```", README, re.S).group(1)


def readme_cli_lines() -> list[list[str]]:
    """Arguments of each command line in the README's CLI block, optional parts included."""
    block = re.search(r"## CLI\n\n```\n(.*?)```", README, re.S).group(1)
    lines = [re.sub(r"#.*|[\[\]]", "", line).split() for line in block.splitlines()]
    return [line[1:] for line in lines if line]


class TestReadmeExamples:
    def test_config_file_example_runs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(readme_json("### Config file"))
        run_ok(["fk", "--config", str(path), "--theta", "9"])

    def test_config_file_example_gives_the_library_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(readme_json("### Config file"))
        defaults = RunConfig(tip=FingertipConfig(), sweep=SweepSpec())
        assert load_config(str(path)) == load_config(None) == defaults

    def test_scene_file_example_seats_the_circle(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(readme_json("### Scene file"))
        rec = json.loads(run_ok(["grasp", "--scene", str(path)]))
        assert len(rec["contacts"]) == 4

    @pytest.mark.parametrize("args", readme_cli_lines(), ids=" ".join)
    def test_cli_line_runs(self, tmp_path, monkeypatch, args):
        # Run where the README's own scene file is, and where sweep.csv may go.
        (tmp_path / "scene.json").write_text(readme_json("### Scene file"))
        monkeypatch.chdir(tmp_path)
        run_ok(args)


# ---------------------------------------------------------------------------
# A fuzzer of README's config and scene files.  It knows the files only by
# README's two trees and the values below, not by the CLI's field table.

_README_TREES = {"config": json.loads(readme_json("### Config file")),
                 "scene": json.loads(readme_json("### Scene file"))}
_SCALARS = [None, True, False, "text", "", "-", "out.csv", "missing/out.csv", 0, -1, 2, 1.5, -0.0,
            1e-300, math.nan, math.inf, -math.inf, 1e308, -1e308, HUGE_INT, -HUGE_INT]
_CLOCKWISE = [[60.0, -20.0], [60.0, 20.0], [110.0, 20.0], [110.0, -20.0]]
_NON_CONVEX = [[60.0, -20.0], [110.0, -20.0], [85.0, 0.0], [110.0, 20.0], [60.0, 20.0]]
_SQUARE = [[68.0, -20.0], [108.0, -20.0], [108.0, 20.0], [68.0, 20.0]]
_SELF_TOUCHING = [[[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]],
                  [[-10.0, 0.0], [10.0, 0.0], [0.0, 0.0]],
                  [[-10.0, 0.0], [10.0, 0.0], [10.0, 5.0], [0.0, 0.0]],
                  [[-10.0, 0.0], [-10.0, 0.0]]]
_LISTS = [[], [[0.0, 0.0]], [[float(i), 0.0] for i in range(MAX_POINTS + 1)], [1.0, 2.0]]
# Whole subtrees, each put at its key of README's tree, or anywhere in that tree.
_SUBTREES = [
    ("fingertip", {"theta_min_deg": 30.0, "theta_max_deg": 35.0}),  # a jam-only stroke
    ("fingertip", {"theta_min_deg": 5.0}),  # a stroke that excludes 0
    ("fingertip", {"l_oc_mm": 1e200, "oa_x_mm": 2e200}),
    ("object", {"type": "polygon", "vertices_mm": _CLOCKWISE}),
    ("object", {"type": "polygon", "vertices_mm": _NON_CONVEX}),
    ("object", {"type": "polygon", "vertices_mm": _SQUARE}),
    ("object", {"type": "circle", "radius_mm": 10.0, "center_mm": [88.0, 0.0]}),
    *(("left", {"polyline_mm": points}) for points in _SELF_TOUCHING),
    ("right", {"polyline_mm": [[-20.0, 0.0], [20.0, 0.0]]}),
    ("left", "flat"),
    ("right", {"primitive": "convex", "degree_deg": -10.0}),
    ("left", {"primitive": "tilted-planar", "tilt_deg": [5.0, 0.0]}),
]


def _paths(node, path=()):
    """Every path into a JSON tree, each after its children's: the root's () comes last."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))
    yield path


# Key names to rename a key to: every key of README's trees, and some unknown.
_KEYS = sorted({path[-1] for tree in _README_TREES.values() for path in _paths(tree) if path}
               | {"bogus", "", "gap", "radius", "degree", "l_oc"})


def _is_points(node) -> bool:
    return isinstance(node, list) and bool(node) and all(isinstance(p, list) for p in node)


def _at(tree, path):
    """The node at path."""
    for key in path:
        tree = tree[key]
    return tree


def _put(tree, path, value):
    """tree with the node at path replaced by value."""
    if not path:
        return value
    _at(tree, path[:-1])[path[-1]] = value
    return tree


@st.composite
def _mutated_tree(draw, what: str):
    """README's ``what`` tree after one to three mutations, each at a random node.

    A mutation drops or renames a key, puts a value of any JSON type at a
    node (NaN, the infinities, 1e308 and integers too large for a float
    included), puts an empty, one-point or over-long list there, or puts
    a subtree there: a jam-only stroke, a clockwise or non-convex polygon,
    a self-touching polyline, at its own key or at a random node.
    """
    tree = copy.deepcopy(_README_TREES[what])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "drop", "rename", "list", "subtree"]))
        paths = list(_paths(tree))
        if kind == "list":  # a list of points, such as a polyline, if the tree has one
            paths = [path for path in paths if _is_points(_at(tree, path))] or paths
        path = draw(st.sampled_from(paths))
        parent = _at(tree, path[:-1])
        if kind in ("drop", "rename") and path and isinstance(parent, dict):
            value = parent.pop(path[-1])
            if kind == "rename":
                parent[draw(st.sampled_from(_KEYS))] = value
        elif kind == "list":
            tree = _put(tree, path, copy.deepcopy(draw(st.sampled_from(_LISTS))))
        elif kind == "subtree":
            key, subtree = draw(st.sampled_from([s for s in _SUBTREES if s[0] in _README_TREES[what]]))
            if isinstance(tree, dict) and draw(st.booleans()):
                path = (key,)
            tree = _put(tree, path, copy.deepcopy(subtree))
        else:
            tree = _put(tree, path, draw(st.sampled_from(_SCALARS)))
    return tree


# Exit-2 messages about a file as a whole, which name no field.
_FILE_MESSAGES = ("cannot read ", "config root must be a JSON object",
                  "scene root must be a JSON object", "invalid config: ",
                  "sweep output is not strictly monotone in phi", "output path not writable")
_COMMANDS = [["fk", "--theta", "5"], ["ik", "--phi", "5"],
             ["plan", "--primitive", "concave", "--degree", "8"], ["sweep"], ["trace-pointer"],
             ["grasp", "--scene", "scene.json"]]


# Each command's options, each with a value it takes, and values an option may be
# given in place of its own.
_ARGV_OPTIONS = {
    "fk": [["--config", "config.json"], ["--theta", "5"]],
    "ik": [["--config", "config.json"], ["--phi", "5"]],
    "plan": [["--config", "config.json"], ["--primitive", "tilted-planar"], ["--degree", "-8"],
             ["--tilt-x", "1"], ["--tilt-y", "-1"]],
    "sweep": [["--config", "config.json"], ["--output", "out.csv"], ["--start", "3"],
              ["--step", "-2"], ["--count", "3"]],
    "trace-pointer": [["--config", "config.json"], ["--output", "out.csv"], ["--psi-max", "2"],
                      ["--points-per-leg", "2"]],
    "grasp": [["--config", "config.json"], ["--output", "out.csv"], ["--scene", "scene.json"]],
}
_ARGV_VALUES = ["nan", "inf", "-inf", "1e400", "-1e400", "-0", "1" * 30, "-" + "1" * 30, "9" * 400,
                "text", "", "--"]


@st.composite
def _mutated_argv(draw):
    """The argv of one of _COMMANDS after one to three mutations.

    A mutation drops an option and its value, gives an option twice, puts
    one of _ARGV_VALUES in place of an option's value, or adds an option
    of the command or of another command, with its own value or one of
    _ARGV_VALUES.
    """
    name, *rest = draw(st.sampled_from(_COMMANDS))
    pairs = [rest[i:i + 2] for i in range(0, len(rest), 2)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "twice", "value", "add", "other"]))
        if kind in ("add", "other") or not pairs:
            others = [o for command, options in _ARGV_OPTIONS.items() if command != name for o in options]
            option, value = draw(st.sampled_from(others if kind == "other" else _ARGV_OPTIONS[name]))
            pairs.insert(draw(st.integers(0, len(pairs))),
                         [option, draw(st.sampled_from([value, *_ARGV_VALUES]))])
            continue
        i = draw(st.integers(0, len(pairs) - 1))
        if kind == "drop":
            del pairs[i]
        elif kind == "twice":
            pairs.append([pairs[i][0], draw(st.sampled_from([pairs[i][1], *_ARGV_VALUES]))])
        else:
            pairs[i] = [pairs[i][0], draw(st.sampled_from(_ARGV_VALUES))]
    return [name, *(token for pair in pairs for token in pair)]


class TestFuzzedFiles:
    """Every command, given a mutated README config or scene file, or a mutated
    command line, exits 0, 2 or 3.

    An error is one JSON object on stdout and nothing on stderr, and an
    exit-2 message names a quoted file field or an option, or is about
    the file as a whole; a run prints or writes finite numbers only.  A
    mutated command line may also be a usage error: exit 2, its message
    on stderr and nothing on stdout.
    """

    @settings(max_examples=200)
    @given(what=st.sampled_from(["config", "scene"]), data=st.data())
    def test_exit_codes_and_messages(self, tmp_path_factory, what, data):
        workdir = tmp_path_factory.getbasetemp() / "fuzzed-files"
        workdir.mkdir(exist_ok=True)
        trees = {**_README_TREES, what: data.draw(_mutated_tree(what), label=what)}
        for name, tree in trees.items():
            (workdir / f"{name}.json").write_text(json.dumps(tree))
        home = os.getcwd()
        os.chdir(workdir)  # where an output.path of the file is written
        try:
            for args in _COMMANDS if what == "config" else _COMMANDS[-1:]:
                self.check(workdir, [*args, "--config", "config.json"])
        finally:
            os.chdir(home)

    @settings(max_examples=200)
    @given(args=_mutated_argv())
    def test_mutated_command_lines(self, tmp_path_factory, args):
        workdir = tmp_path_factory.getbasetemp() / "fuzzed-argv"
        workdir.mkdir(exist_ok=True)
        for name, tree in _README_TREES.items():
            (workdir / f"{name}.json").write_text(json.dumps(tree))
        home = os.getcwd()
        os.chdir(workdir)  # where an --output of the command line is written
        try:
            self.check(workdir, args, usage=True)
        finally:
            os.chdir(home)

    @staticmethod
    def check(workdir, args, usage=False) -> None:
        """args runs as the class says; with ``usage``, it may also be a usage error."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(args)
        written = [p for p in workdir.iterdir() if p.name not in ("config.json", "scene.json")]
        texts = [p.read_text() for p in written]
        for p in written:
            p.unlink()
        assert code in (0, 2, 3), (args, out)
        if usage and (code, out, texts) == (2, "", []):  # argparse's usage error, on stderr
            assert err.getvalue().startswith("usage: "), (args, err.getvalue())
            return
        assert err.getvalue() == "", (args, err.getvalue())
        if code == 0:
            for text in [out, *texts]:
                if text:
                    assert_finite_output(text)
            return
        assert not texts and out.endswith("\n") and out.count("\n") == 1, (args, out)
        record = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
        assert list(record) == ["error"], out
        if code == 2:
            message = record["error"]["message"]
            assert (re.search(r"\b(config|scene) field '[^']*'", message)
                    or re.search(r"(^|\s)--[a-z][a-z-]+\b", message)
                    or message.startswith(_FILE_MESSAGES)), (args, message)


class TestPlan:
    def test_concave_plan(self):
        rec = json.loads(run_ok(["plan", "--primitive", "concave", "--degree", "8"]))
        assert len(set(rec["theta_deg"])) == 1
        assert rec["theta_deg"][0] > 0
        for phi in rec["phi_deg"]:
            assert phi == pytest.approx(8.0, abs=1e-6)
        assert rec["terrace_tilt_deg"] == [0, 0]

    def test_tilted_planar_plan(self):
        rec = json.loads(run_ok([
            "plan", "--primitive", "tilted-planar", "--tilt-x", "5",
        ]))
        assert rec["theta_deg"][0] > 0 > rec["theta_deg"][1]
        assert rec["terrace_tilt_deg"] == [5, 0]
        prof = np.array(rec["profile_x_mm"])
        d = prof[-1] - prof[0]
        d = d / np.hypot(*d)
        rel = prof - prof[0]
        assert np.max(np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])) < 1e-6

    @pytest.mark.parametrize("option,degrees,printed", [
        ("--tilt-x", "9", "0.157080"), ("--tilt-x", "-9", "-0.157080"),
        ("--tilt-y", "-9", "-0.157080"),
    ])
    def test_unreachable_tilt_output(self, option, degrees, printed):
        assert run_cli(["plan", "--primitive", "tilted-planar", option, degrees]) == (3, (
            f'{{"error": {{"code": "unreachable", "message": "tilt {printed} rad not attainable; '
            'reachable interval is [-0.135459, 0.135459] rad", '
            '"attainable_deg": [-7.76124388, 7.76124388]}}\n'))

    def test_huge_degree_error_is_one_short_line(self):
        code, out = run_cli(["plan", "--primitive", "concave", "--degree", "1e308"])
        assert (code, out) == (3, (
            '{"error": {"code": "unreachable", "message": "facet angle 1.745329e+306 rad not '
            'attainable; reachable interval is [-0.605454, 1.570796] rad", '
            '"attainable_deg": [-34.6899661, 89.9999995]}}\n'))
        assert len(out.encode()) < 300
        # The interval is the one an unreachable angle of ordinary size reports.
        assert json.loads(out)["error"]["attainable_deg"] == json.loads(
            run_cli(["plan", "--primitive", "concave", "--degree", "95"])[1])["error"]["attainable_deg"]

    @pytest.mark.parametrize("args, option", [
        (["--primitive", "flat", "--degree", "5"], "--degree"),
        (["--primitive", "tilted-planar", "--tilt-x", "1", "--degree", "5"], "--degree"),
        (["--primitive", "flat", "--tilt-x", "0"], "--tilt-x"),
        (["--primitive", "flat", "--tilt-y", "2"], "--tilt-y"),
        (["--primitive", "concave", "--degree", "8", "--tilt-x", "1"], "--tilt-x"),
        (["--primitive", "convex", "--degree", "-8", "--tilt-y", "1"], "--tilt-y"),
    ], ids=["flat-degree", "tilted-planar-degree", "flat-tilt-x", "flat-tilt-y",
            "concave-tilt-x", "convex-tilt-y"])
    def test_option_the_primitive_does_not_take_exits_2(self, args, option):
        # As a scene file refuses {"primitive": "flat", "degree_deg": 5}.
        assert run_cli(["plan", *args]) == (2, dumps({"error": {
            "code": "config", "message": f"{option} does not apply to --primitive {args[1]}"}}) + "\n")

    def test_missing_degree_exits_2(self):
        code, out = run_cli(["plan", "--primitive", "concave"])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config",
                                            "message": "--degree is required for concave/convex"}

    @pytest.mark.parametrize("args, message", [
        (["--primitive", "convex", "--degree", "5"],
         "--degree must be a negative angle in degrees for convex"),
        (["--primitive", "concave", "--degree", "-5"],
         "--degree must be a positive angle in degrees for concave"),
    ], ids=["convex-sign", "concave-sign"])
    def test_bad_primitive_value_names_the_option(self, args, message):
        code, out = run_cli(["plan", *args])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "config", "message": message}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each command, by name."""
    (action,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestHelp:
    @pytest.mark.parametrize("name", [None, *subcommands()], ids=lambda n: n or "morphtip")
    def test_help_lists_every_option(self, name):
        command = _parser() if name is None else subcommands()[name]
        out = run_ok(([] if name is None else [name]) + ["--help"])
        options = [a for a in command._actions if a.option_strings]
        for option in options:
            assert option.help, option.option_strings
            for opt in option.option_strings:
                assert opt in out, opt
        assert "--help" in out
        if name is None:
            for sub in subcommands():
                assert sub in out


class TestUsage:
    """How the command line itself is read, before any command runs."""

    @pytest.mark.parametrize("args", [
        [],
        ["bogus"],
        ["fk"],
        ["fk", "--the", "9"],
        ["fk", "--theta", "abc"],
        ["fk", "--theta", "9", "extra"],
        ["sweep", "--count", "2.5"],
        ["plan", "--primitive", "bogus"],
        ["fk", "--theta", "9", "-h"],
        ["fk", "--", "--theta", "9"],
        ["fk", "--theta"],
    ], ids=lambda args: " ".join(args) or "no-command")
    def test_error_exits_2_with_empty_stdout(self, args):
        assert run_cli(args) == (2, "")

    @pytest.mark.parametrize("args, theta_deg", [
        (["fk", "--theta=9"], 9),
        (["fk", "--theta", "9", "--theta", "10"], 10),
        (["fk", "--theta", "-1e-3"], -0.001),
        (["fk", "--theta", "-5."], -5),
        (["fk", "--theta", "9", "--"], 9),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_option_value_forms(self, args, theta_deg):
        code, out = run_cli(args)
        assert code == 0, out
        assert json.loads(out)["theta_deg"] == theta_deg

    @pytest.mark.parametrize("args", [["--help"], *([name, "--help"] for name in subcommands())],
                             ids=" ".join)
    def test_help_exits_0_on_stdout(self, args):
        code, out = run_cli(args)
        assert code == 0
        assert "--help" in out


class TestDoubleDash:
    """``--`` ends the options, so an option just before it has no value."""

    @pytest.mark.parametrize("args", [
        ["fk", "--theta", "--"],
        ["sweep", "--step", "--"],
        ["grasp", "--scene", "--", "scene.json"],
    ], ids=" ".join)
    def test_option_before_it_is_a_usage_error(self, args):
        assert run_cli(args) == (2, "")


class TestDeterminism:
    def test_every_command_is_byte_identical_across_runs(self, tmp_path):
        scene = scene_file(tmp_path, {
            "gap_mm": 20.0, "mu": 0.5, "left": "flat",
            "object": {"type": "circle", "radius_mm": 10.0},
        })
        commands = [
            ["fk", "--theta", "7.5"],
            ["ik", "--phi", "12.25"],
            ["plan", "--primitive", "concave", "--degree", "8"],
            ["plan", "--primitive", "tilted-planar", "--tilt-x", "4", "--tilt-y", "-2"],
            ["sweep"],
            ["trace-pointer"],
            ["grasp", "--scene", scene],
        ]
        for args in commands:
            first = run_ok(args)
            second = run_ok(args)
            assert first == second, args

    def test_file_output_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(["sweep", "--output", str(p1)])
        run_ok(["sweep", "--output", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trips_the_schema(self):
        out = run_ok(["sweep"])
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["step", "theta_deg", "phi_deg", "B_x_mm", "B_y_mm"]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == i
            for cell in cells[1:]:
                float(cell)

    def test_json_round_trips_the_schema(self):
        rec = json.loads(run_ok(["fk", "--theta", "3"]))
        assert list(rec.keys()) == ["theta_deg", "phi_deg", "B", "C", "CB"]


GOLDEN = json.loads((Path(__file__).parents[1] / "bench" / "golden" / "cli_cold.json").read_text())


class TestGolden:
    """Each recorded command prints its recorded bytes and exit code."""

    @pytest.mark.parametrize("cmd", GOLDEN["commands"], ids=lambda cmd: cmd["id"])
    def test_command(self, tmp_path, monkeypatch, cmd):
        for name, text in GOLDEN["files"].items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(cmd["args"])
        assert (code, out) == (cmd["exit"], cmd["stdout"])
