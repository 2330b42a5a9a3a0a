"""Checks that need a fresh interpreter: what the CLI import loads, and the
demos running end to end; and the benchmark's in-process run of the CLI."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morphtip

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = json.loads((ROOT / "bench" / "golden" / "cli_cold.json").read_text())
GRASP_COMMANDS = [cmd for cmd in GOLDEN["commands"] if cmd["args"][0] == "grasp"]
NUMPY_FREE_COMMANDS = [cmd for cmd in GOLDEN["commands"] if cmd["args"][0] != "grasp"]

# ``python -m morphtip ARGS`` that also writes, as the last stderr line,
# which of the modules its first argument lists, as JSON, the process loaded.
CLI_PROBE = """
import json, runpy, sys
watched = json.loads(sys.argv[1])
sys.argv = ["morphtip", *sys.argv[2:]]
try:
    runpy.run_module("morphtip", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(set(watched) & set(sys.modules))), file=sys.stderr)
"""
# dataclasses, with the inspect, ast, dis and tokenize it loads, takes 10-15 ms
# to import and typing about 3 ms, against about 100 ms for a cold command.
SLOW_IMPORTS = ["dataclasses", "inspect", "typing"]

EXPORTS_PROBE = """
import morphtip
import morphtip.grasp as gr
missing = [name for name in morphtip.__all__ if getattr(morphtip, name, None) is None]
assert not missing, missing
assert morphtip.find_contacts is gr.find_contacts
assert "find_contacts" in vars(morphtip)  # stored on first use
from morphtip import *
assert Circle is gr.Circle and closure_classify is gr.closure_classify
assert not hasattr(morphtip, "no_such_name")
"""


def run_python(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the interpreter with the morphtip this suite imports on its path."""
    package_root = str(Path(morphtip.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def run_golden(cmd: dict, tmp_path: Path, watched=("click", "numpy", "morphtip.grasp"),
               flags=()) -> list[str]:
    """Run one golden command fresh; check its output and return which ``watched`` it loaded.

    ``flags`` go to the interpreter.  The probe's own line is all the
    command may write to stderr: no warning or traceback.
    """
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    proc = run_python([*flags, "-c", CLI_PROBE, json.dumps(watched), *cmd["args"]], cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (cmd["exit"], cmd["stdout"]), proc.stderr
    *rest, loaded = proc.stderr.splitlines()
    assert rest == []
    return json.loads(loaded)


def test_cli_import_loads_no_scipy():
    proc = run_python(["-c", (
        "import morphtip.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_click():
    proc = run_python(["-c", "import morphtip.cli, sys; print('click' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_golden_commands_split_into_eight_and_two():
    assert len(NUMPY_FREE_COMMANDS) == 8
    assert len(GRASP_COMMANDS) == 2


@pytest.mark.parametrize("cmd", NUMPY_FREE_COMMANDS, ids=lambda cmd: cmd["id"])
def test_command_without_a_scene_loads_no_numpy(tmp_path, cmd):
    assert run_golden(cmd, tmp_path) == []


@pytest.mark.parametrize("cmd", GRASP_COMMANDS, ids=lambda cmd: cmd["id"])
def test_grasp_command_loads_grasp(tmp_path, cmd):
    assert run_golden(cmd, tmp_path) == ["morphtip.grasp"]


@pytest.mark.parametrize("cmd", GOLDEN["commands"], ids=lambda cmd: cmd["id"])
def test_command_loads_no_dataclasses_inspect_or_typing(tmp_path, cmd):
    # -S: site's .pth files may import typing before the command starts.
    assert run_golden(cmd, tmp_path, SLOW_IMPORTS, flags=["-S"]) == []


def test_package_import_loads_no_numpy():
    proc = run_python(["-c", "import morphtip, sys; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_grasp_import_loads_neither_the_fingertip_model_nor_numpy():
    proc = run_python(["-c", (
        "import morphtip.grasp, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('morphtip', 'numpy')))"
    )])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['morphtip', 'morphtip.errors', 'morphtip.grasp']"


def test_every_export_resolves():
    proc = run_python(["-c", EXPORTS_PROBE])
    assert proc.returncode == 0, proc.stderr


def test_benchmark_runs_every_golden_command_in_process(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_cold", ROOT / "bench" / "cold.py")
    cold = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, cold)  # dataclasses look their module up
    spec.loader.exec_module(cold)
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    failed, records = cold.in_process_commands(GOLDEN, tmp_path, 1)
    assert failed == 0
    assert len(records) == sum(cmd["stdout"].startswith("{") for cmd in GOLDEN["commands"])


def test_benchmark_checks_pass_on_every_seed_1_input(monkeypatch):
    # The benchmark's own correctness checks, on the pools its run would build.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # restores sys.path, which worker.py extends
    bench_modules = {"bench_worker", "inputs", "tracing", "workloads", "report"} - set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", ROOT / "bench" / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = worker  # dataclasses look their module up
        spec.loader.exec_module(worker)
        api = worker.tracing.Api()
        checked = 0
        for workload in worker.IN_PROCESS:
            op, _, check = worker.workloads.WORKLOADS[workload]
            pool, _ = worker.build(workload, 1)
            for i, inp in enumerate(pool):
                assert check(inp, op(api, inp)) == [], (workload, i)
            checked += len(pool)
        assert checked == 800
    finally:
        for name in bench_modules:
            sys.modules.pop(name, None)


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    # Warnings are errors here, as in the suite itself.
    proc = run_python(["-W", "error", str(demo)])
    assert proc.returncode == 0, proc.stderr
