import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from morphtip import FingertipConfig, forward_facet, inverse_facet, slider_point
from morphtip.cli import main

CFG = FingertipConfig()


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


def scene_file(tmp_path, payload, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFkIk:
    def test_fk_neutral(self, runner):
        rec = json.loads(run_ok(runner, ["fk", "--theta", "0"]))
        assert rec["phi_deg"] == 0
        assert rec["B"] == [20, 0]
        assert rec["C"] == [15, 0]
        assert rec["CB"] == [5, 0]

    def test_ik_neutral(self, runner):
        rec = json.loads(run_ok(runner, ["ik", "--phi", "0"]))
        assert rec["theta_deg"] == 0

    def test_fk_matches_library(self, runner):
        rec = json.loads(run_ok(runner, ["fk", "--theta", "9"]))
        theta = math.radians(9.0)
        phi = forward_facet(CFG.linkage, theta)
        bx, by = slider_point(CFG.linkage, theta)
        fmt = lambda x: float(format(x, ".9g"))
        assert rec["phi_deg"] == fmt(math.degrees(phi))
        assert rec["B"] == [fmt(bx), fmt(by)]
        assert rec["CB"] == [fmt(bx - 15.0), fmt(by)]

    def test_ik_roundtrips_through_fk(self, runner):
        fk_rec = json.loads(run_ok(runner, ["fk", "--theta", "9"]))
        ik_rec = json.loads(run_ok(runner, ["ik", "--phi", str(fk_rec["phi_deg"])]))
        assert ik_rec["theta_deg"] == pytest.approx(9.0, abs=1e-6)

    def test_fk_jam_exits_3(self, runner):
        result = runner.invoke(main, ["fk", "--theta", "18"])
        assert result.exit_code == 3
        err = json.loads(result.output)["error"]
        assert err["code"] == "outofrange"

    def test_ik_unreachable_exits_3(self, runner):
        result = runner.invoke(main, ["ik", "--phi", "120"])
        assert result.exit_code == 3
        err = json.loads(result.output)["error"]
        assert err["code"] == "unreachable"
        lo, hi = err["attainable_deg"]
        assert lo < 0 < hi


class TestSweep:
    def test_default_13_rows(self, runner):
        out = run_ok(runner, ["sweep"])
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

    def test_two_row_sweep(self, runner):
        out = run_ok(runner, ["sweep", "--start", "-3", "--step", "-3", "--count", "2"])
        assert len(out.strip().split("\n")) == 3

    def test_jam_reports_step_index(self, runner):
        result = runner.invoke(main, ["sweep", "--start", "15", "--step", "3", "--count", "3"])
        assert result.exit_code == 3
        err = json.loads(result.output)["error"]
        assert "step 1" in err["message"]

    def test_bad_count_exits_2(self, runner):
        result = runner.invoke(main, ["sweep", "--count", "1"])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"]["code"] == "config"

    def test_output_file(self, runner, tmp_path):
        path = tmp_path / "sweep.csv"
        run_ok(runner, ["sweep", "--output", str(path)])
        text = path.read_text()
        assert text.startswith("step,theta_deg")
        assert len(text.strip().split("\n")) == 14

    def test_config_file_overrides(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "fingertip": {"oa_mm": [12.0, None]},
            "sweep": {"start_deg": 18.0, "step_deg": -3.0, "count": 13},
        }))
        out = run_ok(runner, ["sweep", "--config", str(cfg_path)])
        lines = out.strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) == 18.0 and float(rows[-1][1]) == -18.0
        phis = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(phis, phis[1:]))

    def test_broken_config_exits_2(self, runner, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 2

    def test_invalid_geometry_config_exits_2(self, runner, tmp_path):
        cfg_path = tmp_path / "geom.json"
        cfg_path.write_text(json.dumps({"fingertip": {"l_oc_mm": -5.0}}))
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 2


class TestTracePointer:
    def test_zero_amplitude_stays_at_origin(self, runner):
        out = run_ok(runner, ["trace-pointer", "--psi-max", "0", "--points-per-leg", "1"])
        lines = out.strip().split("\n")
        assert lines[0] == "index,psi_x_deg,psi_y_deg,x_mm,y_mm,z_mm"
        for line in lines[1:]:
            _, px, py, x, y, z = line.split(",")
            assert float(x) == 0.0 and float(y) == 0.0
            assert float(z) == 100.0

    def test_corners_at_5deg(self, runner):
        out = run_ok(runner, ["trace-pointer", "--psi-max", "5", "--points-per-leg", "1"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        corner = math.radians(5.0)
        want_x = 100.0 * math.cos(corner) * math.sin(corner)
        want_y = 100.0 * math.sin(corner)
        corners = [r for r in rows if float(r[1]) != 0 and float(r[2]) != 0]
        assert len(corners) == 4
        for r in corners:
            assert abs(float(r[3])) == pytest.approx(want_x, abs=1e-7)
            assert abs(float(r[4])) == pytest.approx(want_y, abs=1e-7)

    def test_loop_closes_byte_identically(self, runner):
        out = run_ok(runner, ["trace-pointer", "--points-per-leg", "3"])
        lines = out.strip().split("\n")
        first = lines[1].split(",", 1)[1]
        last = lines[-1].split(",", 1)[1]
        assert first == last

    def test_unreachable_amplitude_exits_3(self, runner):
        result = runner.invoke(main, ["trace-pointer", "--psi-max", "30"])
        assert result.exit_code == 3


class TestGrasp:
    def test_flat_pinch_report(self, runner, tmp_path):
        scene = scene_file(tmp_path, {
            "gap_mm": 20.0, "mu": 0.0, "left": "flat",
            "object": {"type": "circle", "radius_mm": 10.0},
        })
        rec = json.loads(run_ok(runner, ["grasp", "--scene", scene]))
        assert len(rec["contacts"]) == 2
        assert rec["pivot_feasible"] is True
        assert rec["closure_class"] == "none"
        assert rec["cradle_curvature_sign"] == 0

    def test_concave_seat_report(self, runner, tmp_path):
        phi = math.radians(20.0)
        r = 88.0
        gap = 2.0 * (r - 15.0 * math.sin(phi)) / math.cos(phi)
        scene = scene_file(tmp_path, {
            "gap_mm": gap, "mu": 0.0,
            "left": {"primitive": "concave", "degree_deg": 20.0},
            "object": {"type": "circle", "radius_mm": r},
        })
        rec = json.loads(run_ok(runner, ["grasp", "--scene", scene]))
        assert len(rec["contacts"]) == 4
        assert rec["pivot_feasible"] is False
        assert rec["cradle_curvature_sign"] == 1

    def test_empty_scene_all_false(self, runner, tmp_path):
        scene = scene_file(tmp_path, {
            "gap_mm": 60.0, "mu": 0.0, "left": "flat",
            "object": {"type": "circle", "radius_mm": 10.0},
        })
        rec = json.loads(run_ok(runner, ["grasp", "--scene", scene]))
        assert rec["contacts"] == []
        assert rec["pivot_feasible"] is False
        assert rec["closure_class"] == "none"

    def test_penetration_exits_3_with_witness(self, runner, tmp_path):
        scene = scene_file(tmp_path, {
            "gap_mm": 18.0, "mu": 0.0, "left": "flat",
            "object": {"type": "circle", "radius_mm": 10.0, "center_mm": [9.0, 0.0]},
        })
        result = runner.invoke(main, ["grasp", "--scene", scene])
        assert result.exit_code == 3
        err = json.loads(result.output)["error"]
        assert err["code"] == "penetration"
        assert len(err["witness_mm"]) == 2

    def test_polygon_scene(self, runner, tmp_path):
        phi = math.radians(30.0)
        a = 20.0
        half_gap = a + (a - 15.0) * math.tan(phi)
        sq = [[half_gap - a, -a], [half_gap + a, -a], [half_gap + a, a], [half_gap - a, a]]
        scene = scene_file(tmp_path, {
            "gap_mm": 2 * half_gap, "mu": 0.0,
            "left": {"primitive": "concave", "degree_deg": 30.0},
            "object": {"type": "polygon", "vertices_mm": sq},
        })
        rec = json.loads(run_ok(runner, ["grasp", "--scene", scene]))
        assert rec["closure_class"] == "form_closure"
        assert rec["cradle_curvature_sign"] is None

    def test_bad_scene_exits_2(self, runner, tmp_path):
        scene = scene_file(tmp_path, {"gap_mm": -1.0, "object": {"type": "circle", "radius_mm": 1.0}})
        result = runner.invoke(main, ["grasp", "--scene", scene])
        assert result.exit_code == 2


_CIRCLE = {"type": "circle", "radius_mm": 10.0}


class TestUnknownKeys:
    @pytest.mark.parametrize("config, field", [
        ({"fingertips": {}}, "fingertips"),
        ({"fingertip": {"l_ab": 5.0}}, "fingertip.l_ab"),
        ({"sweep": {"count": 3, "stop_deg": 0.0}}, "sweep.stop_deg"),
        ({"output": {"fmt": "json"}}, "output.fmt"),
    ], ids=["config-root", "fingertip", "sweep", "output"])
    def test_config_key_exits_2(self, runner, tmp_path, config, field):
        result = runner.invoke(main, ["sweep", "--config", scene_file(tmp_path, config, "cfg.json")])
        assert result.exit_code == 2
        err = json.loads(result.output)["error"]
        assert err == {"code": "config", "message": f"unknown config field {field!r}"}

    @pytest.mark.parametrize("scene, field", [
        ({"gap_mm": 20.0, "gap": 20.0, "object": _CIRCLE}, "gap"),
        ({"gap_mm": 20.0, "left": {"primitive": "concave", "degree": 8.0}, "object": _CIRCLE},
         "left.degree"),
        ({"gap_mm": 20.0, "object": {**_CIRCLE, "radius": 10.0}}, "object.radius"),
    ], ids=["scene-root", "profile-spec", "object"])
    def test_scene_key_exits_2(self, runner, tmp_path, scene, field):
        result = runner.invoke(main, ["grasp", "--scene", scene_file(tmp_path, scene)])
        assert result.exit_code == 2
        err = json.loads(result.output)["error"]
        assert err == {"code": "config", "message": f"unknown scene field {field!r}"}


class TestWrongTypes:
    """A value of the wrong JSON type exits 2 naming its field."""

    @pytest.mark.parametrize("config, message", [
        ({"fingertip": {"oa_mm": 5}},
         "config field 'fingertip.oa_mm' must be [x, y] numbers, y may be null"),
        ({"fingertip": {"l_oc_mm": "15"}}, "config field 'fingertip.l_oc_mm' must be a number"),
        ({"sweep": {"count": 2.5}}, "config field 'sweep.count' must be an integer"),
        ({"output": {"path": 1}}, "config field 'output.path' must be a string or null"),
    ], ids=["oa_mm", "l_oc_mm", "count", "path"])
    def test_config_value_exits_2(self, runner, tmp_path, config, message):
        result = runner.invoke(main, ["sweep", "--config", scene_file(tmp_path, config, "cfg.json")])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == {"code": "config", "message": message}

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
    ], ids=["object", "polyline_mm", "degree_deg", "gap_mm", "type", "center_mm"])
    def test_scene_value_exits_2(self, runner, tmp_path, scene, message):
        result = runner.invoke(main, ["grasp", "--scene", scene_file(tmp_path, scene)])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == {"code": "config", "message": message}


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
    def test_config_file_example_runs(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(readme_json("### Config file"))
        run_ok(runner, ["fk", "--config", str(path), "--theta", "9"])

    def test_scene_file_example_seats_the_circle(self, runner, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(readme_json("### Scene file"))
        rec = json.loads(run_ok(runner, ["grasp", "--scene", str(path)]))
        assert len(rec["contacts"]) == 4

    @pytest.mark.parametrize("args", readme_cli_lines(), ids=" ".join)
    def test_cli_line_runs(self, runner, tmp_path, monkeypatch, args):
        # Run where the README's own scene file is, and where sweep.csv may go.
        (tmp_path / "scene.json").write_text(readme_json("### Scene file"))
        monkeypatch.chdir(tmp_path)
        run_ok(runner, args)


class TestPlan:
    def test_concave_plan(self, runner):
        rec = json.loads(run_ok(runner, ["plan", "--primitive", "concave", "--degree", "8"]))
        assert len(set(rec["theta_deg"])) == 1
        assert rec["theta_deg"][0] > 0
        for phi in rec["phi_deg"]:
            assert phi == pytest.approx(8.0, abs=1e-6)
        assert rec["terrace_tilt_deg"] == [0, 0]

    def test_tilted_planar_plan(self, runner):
        rec = json.loads(run_ok(runner, [
            "plan", "--primitive", "tilted-planar", "--tilt-x", "5",
        ]))
        assert rec["theta_deg"][0] > 0 > rec["theta_deg"][1]
        assert rec["terrace_tilt_deg"] == [5, 0]
        prof = np.array(rec["profile_x_mm"])
        d = prof[-1] - prof[0]
        d = d / np.hypot(*d)
        rel = prof - prof[0]
        assert np.max(np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])) < 1e-6

    def test_missing_degree_exits_2(self, runner):
        result = runner.invoke(main, ["plan", "--primitive", "concave"])
        assert result.exit_code == 2


class TestDeterminism:
    def test_every_command_is_byte_identical_across_runs(self, runner, tmp_path):
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
            first = run_ok(runner, args)
            second = run_ok(runner, args)
            assert first == second, args

    def test_file_output_is_byte_identical(self, runner, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(runner, ["sweep", "--output", str(p1)])
        run_ok(runner, ["sweep", "--output", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trips_the_schema(self, runner):
        out = run_ok(runner, ["sweep"])
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["step", "theta_deg", "phi_deg", "B_x_mm", "B_y_mm"]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == i
            for cell in cells[1:]:
                float(cell)

    def test_json_round_trips_the_schema(self, runner):
        rec = json.loads(run_ok(runner, ["fk", "--theta", "3"]))
        assert list(rec.keys()) == ["theta_deg", "phi_deg", "B", "C", "CB"]


GOLDEN = json.loads((Path(__file__).parents[1] / "bench" / "golden" / "cli_cold.json").read_text())


class TestGolden:
    """Each recorded command prints its recorded bytes and exit code."""

    @pytest.mark.parametrize("cmd", GOLDEN["commands"], ids=lambda cmd: cmd["id"])
    def test_command(self, runner, tmp_path, monkeypatch, cmd):
        for name, text in GOLDEN["files"].items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, cmd["args"])
        assert (result.exit_code, result.stdout) == (cmd["exit"], cmd["stdout"])
