"""Checks that need a fresh interpreter: what the CLI import loads, and the
demos running end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import morphtip

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter with the morphtip this suite imports on its path."""
    package_root = str(Path(morphtip.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy():
    proc = run_python(["-c", (
        "import morphtip.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
