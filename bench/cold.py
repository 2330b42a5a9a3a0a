"""The cli-cold workload and the probes of the cli layer.

cli-cold starts one fresh ``python -m morphtip`` process at a time and
cycles through the fixed command list in ``golden/cli_cold.json``.  That
file holds, for every command, its arguments, the input files it reads,
and the exact stdout and exit code recorded at the commit that defined
the benchmark; every process is compared against it.

Commands run with their input files in a work directory under
``.bench_out/`` and name them by relative path, so that no output depends
on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden" / "cli_cold.json"
# Each process must end well inside the benchmark's own time limit.
PROCESS_TIMEOUT_S = 60.0


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def prepare_workdir(root: Path, golden: dict, name: str) -> Path:
    """Fresh directory holding the input files the commands read."""
    workdir = root / ".bench_out" / name
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for fname, text in golden["files"].items():
        (workdir / fname).write_text(text, encoding="utf-8")
    return workdir


def run_cold(args: list[str], workdir: Path, env: dict) -> tuple[float, int, bytes]:
    """Wall time, exit code and stdout of one fresh CLI process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "morphtip", *args], cwd=workdir, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=PROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def matches(cmd: dict, code: int, stdout: bytes) -> bool:
    return code == cmd["exit"] and stdout == cmd["stdout"].encode("utf-8")


@dataclass
class ColdLoop:
    latencies: list
    ids: list
    traced: list  # whether a span was recorded around each process
    failed: int
    errors: list


def cold_loop(golden: dict, workdir: Path, env: dict, seconds: float,
              start: int, spans: list | None = None) -> ColdLoop:
    """Closed loop over the command cycle, starting at index ``start``.

    With ``spans``, every second process is traced, so that traced and
    untraced processes share the machine's load as it drifts.
    """
    cmds = golden["commands"]
    latencies, ids, flags, errors = [], [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    n = start
    while True:
        cmd = cmds[n % len(cmds)]
        traced = spans is not None and (n - start) % 2 == 1
        t_start = time.perf_counter_ns()
        wall, code, out = run_cold(cmd["args"], workdir, env)
        if traced:
            spans.append(("cli-cold.op", cmd["id"], t_start, time.perf_counter_ns(), -1, n))
        latencies.append(wall)
        ids.append(cmd["id"])
        flags.append(traced)
        if not matches(cmd, code, out):
            failed += 1
            if len(errors) < 5:
                errors.append(f"{cmd['id']}: exit {code}, stdout {out[:120]!r}")
        n += 1
        if time.perf_counter() >= deadline and (spans is None or n - start >= 2):
            break
    return ColdLoop(latencies, ids, flags, failed, errors)


# ---------------------------------------------------------------------------
# cli layer probes


def _wall(argv: list[str], env: dict, cwd: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=PROCESS_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")
IMPORT_GROUPS = ("scipy", "numpy", "click", "morphtip")


def import_breakdown(stderr: str) -> dict:
    """Self import time (ms) summed over each package's own modules."""
    out = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for self_us, _, module in _IMPORTTIME.findall(stderr):
        top = module.split(".", 1)[0]
        if top in out:
            out[top] += int(self_us) / 1e3
    return out


def cli_probes(golden: dict, workdir: Path, env: dict, start: int,
               rounds: int = 8) -> tuple[dict, ColdLoop]:
    """Interpreter start, import of morphtip.cli, its per-package split, and
    cold commands of the cycle.

    Each round runs one process of each kind back to back, so that all of
    them see the same load on the machine and their ratios hold while it
    drifts.  Returns the metrics and the cold commands as a loop.
    """
    cmds = golden["commands"]
    interp, imp, splits = [], [], []
    loop = ColdLoop([], [], [], 0, [])
    for n in range(start, start + rounds):
        interp.append(_wall([sys.executable, "-c", "pass"], env, workdir))
        imp.append(_wall([sys.executable, "-c", "import morphtip.cli"], env, workdir))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import morphtip.cli"],
            env=env, cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=PROCESS_TIMEOUT_S, check=True)
        splits.append(import_breakdown(proc.stderr))
        cmd = cmds[n % len(cmds)]
        wall, code, out = run_cold(cmd["args"], workdir, env)
        loop.latencies.append(wall)
        loop.ids.append(cmd["id"])
        loop.traced.append(False)
        if not matches(cmd, code, out):
            loop.failed += 1
            loop.errors.append(f"{cmd['id']}: exit {code}, stdout {out[:120]!r}")
    interp_ms = statistics.median(interp) * 1e3
    import_ms = statistics.median(imp) * 1e3 - interp_ms
    cold_ms = statistics.median(loop.latencies) * 1e3
    metrics = {
        "cli.interp_start_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.cold.p50_ms": cold_ms,
        "cli.import_share": import_ms / cold_ms,
    }
    for group in IMPORT_GROUPS:
        key = "morphtip_self" if group == "morphtip" else group
        metrics[f"cli.import.{key}_ms"] = statistics.median(s[group] for s in splits)
    return metrics, loop


def in_process_commands(golden: dict, workdir: Path, reps: int,
                        tracer=None) -> tuple[int, list]:
    """Each command through ``morphtip.cli.main`` in this process.

    Returns the number of mismatches against the golden stdout and exit
    code, and the parsed JSON records of the commands that print JSON
    (the input of the ``cli.format`` probe).
    """
    from morphtip.cli import main

    failed, records = 0, []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for n in range(reps):
            for cmd in golden["commands"]:
                buf = io.StringIO()
                span = tracer.begin(f"cli.command.{cmd['id']}", None, n) if tracer else 0
                with contextlib.redirect_stdout(buf):
                    try:
                        main.main(args=cmd["args"], prog_name="morphtip",
                                  standalone_mode=False)
                        code = 0
                    except SystemExit as exc:
                        code = exc.code
                if tracer:
                    tracer.end(span)
                out = buf.getvalue()
                if not matches(cmd, code, out.encode("utf-8")):
                    failed += 1
                if n == 0 and out.startswith("{"):
                    records.append(json.loads(out))
    finally:
        os.chdir(cwd)
    return failed, records
