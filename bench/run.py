"""morphtip benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
and the oracles from ``tests/oracles.py``.  Workloads (why each is there
is in BENCHMARK.json):

* ``cli-cold``     fresh ``python -m morphtip`` processes, one at a time;
* ``design-sweep`` full evaluation of random slider-crank geometries;
* ``grasp-batch``  the ``grasp`` command's body on pre-built scenes.

Load is one client in a closed loop.  ``--trace 0`` prints the
end-to-end metrics of W; ``--trace 1`` prints the per-layer metrics from
spans, probes of the cli layer and ``trace.overhead_ratio`` of W.  Names
and units of both sets come from BENCHMARK.json.  Human-readable lines
(environment, input properties, every metric with its base) come first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import cold
import report
from report import latency_summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "design-sweep", "grasp-batch")
REQUIRED = ("src/morphtip/__init__.py", "tests/oracles.py", "BENCHMARK.json")
# Set-ups measured per run, before and after the measured loop so that
# they sample the machine's load at both ends of it; setup_s is their median.
SETUPS_BEFORE, SETUPS_AFTER = 2, 2
# Every child is killed once a run has lasted this long.
TIME_LIMIT_S = 170.0
# In a traced run each measured loop lasts this share of --seconds.
TRACE_PART = 1.0 / 6.0
# One client means one busy core: idle BLAS threads, woken by the oracles'
# small matrix products, would otherwise spin on the second core.
WORKER_ENV = {**os.environ, **dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Children:
    """Worker processes of this run; all are killed by the watchdog or at exit."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []
        self.timer = threading.Timer(TIME_LIMIT_S, self.kill_all)
        self.timer.daemon = True
        self.timer.start()

    def worker(self, workload: str, seed: int, seconds: float, mode: str,
               workdir: Path | None = None) -> tuple[subprocess.Popen, float]:
        """Start a worker; returns it and its set-up time (start to READY)."""
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
        if workdir is not None:
            argv += ["--workdir", str(workdir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                env=WORKER_ENV)
        self.procs.append(proc)
        if proc.stdout.readline().strip() != "READY":
            raise BenchError(f"{mode} worker for {workload} did not get ready")
        return proc, time.perf_counter() - t0

    def result(self, proc: subprocess.Popen) -> dict:
        line = proc.stdout.readline()
        if proc.wait() != 0 or not line:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads(line)

    def kill_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()

    def close(self) -> None:
        self.timer.cancel()
        self.kill_all()
        for proc in self.procs:
            proc.wait()
            if proc.stdout:
                proc.stdout.close()


def end_to_end(summary: dict, setups: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_ms": summary["p50_ms"],
        "latency_tail_ms": summary["tail_ms"],
        "peak_rss_mb": peak_rss_mb,
    }
    n, ops = summary["n"], summary["ops"]
    if n == ops:
        samples, latency = f"{ops} ops", "latency"
    else:
        samples = f"{n} inputs' best of {ops / n:.1f} repeats"
        latency = (f"best latency of each op's input (median of all ops: "
                   f"{summary['raw_p50_ms']:.6g} ms)")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{ops} ops over the summed {latency}",
        "latency_p50_ms": f"median of {samples}",
        "latency_tail_ms": f"p{summary['tail_pct']:.1f} of {samples}, "
                           f"{summary['tail_beyond']} samples beyond",
    }
    return values, notes


def run_cli_cold(seed: int, seconds: float) -> dict:
    golden = cold.load_golden()
    env = cold.child_env(ROOT)
    warm = golden["commands"][0]
    setups, errors = [], []

    def set_up(name: str) -> Path:
        """Write the command inputs and run one warm-up process."""
        t0 = time.perf_counter()
        workdir = cold.prepare_workdir(ROOT, golden, name)
        _, code, out = cold.run_cold(warm["args"], workdir, env)
        setups.append(time.perf_counter() - t0)
        if not cold.matches(warm, code, out):
            errors.append(f"warm-up {warm['id']}: exit {code}")
        return workdir

    for _ in range(SETUPS_BEFORE + 1):
        workdir = set_up("cli-cold")
    cmds = golden["commands"]
    loop = cold.cold_loop(golden, workdir, env, seconds, start=seed % len(cmds))
    for _ in range(SETUPS_AFTER):
        set_up("cli-cold-setup")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    # Each process is its own sample: a run starts each command only about
    # three times, too few for a steady best of repeats.
    summary = latency_summary(loop.latencies, list(range(len(loop.latencies))))
    values, notes = end_to_end(summary, setups, peak)
    notes["peak_rss_mb"] = "largest child process"
    n = len(loop.ids)
    props = {"repeated_share": 1.0 - len(set(loop.ids)) / n}
    for cmd in cmds:
        props[f"command_share.{cmd['id']}"] = loop.ids.count(cmd["id"]) / n
    # Warm-up processes are checked too, so they count as attempts.
    return {"values": values, "notes": notes, "attempted": n + len(setups),
            "failed": loop.failed + len(errors), "errors": errors + loop.errors,
            "properties": props}


def run_in_process(children: Children, workload: str, seed: int, seconds: float) -> dict:
    setups = []

    def set_up() -> None:
        proc, setup = children.worker(workload, seed, seconds, "setup")
        setups.append(setup)
        if proc.wait() != 0:
            raise BenchError(f"setup worker exited with code {proc.returncode}")

    for _ in range(SETUPS_BEFORE):
        set_up()
    proc, setup = children.worker(workload, seed, seconds, "run")
    setups.append(setup)
    res = children.result(proc)
    for _ in range(SETUPS_AFTER):
        set_up()
    values, notes = end_to_end(res["summary"], setups, res["peak_rss_mb"])
    notes["peak_rss_mb"] = "measuring process"
    return {"values": values, "notes": notes, "attempted": res["attempted"],
            "failed": res["failed"], "errors": res["errors"],
            "properties": res["properties"]}


def run_traced(children: Children, workload: str, seed: int, seconds: float) -> dict:
    part = seconds * TRACE_PART
    golden = cold.load_golden()
    env = cold.child_env(ROOT)
    workdir = cold.prepare_workdir(ROOT, golden, "trace")
    start = seed % len(golden["commands"])
    values, probes = cold.cli_probes(golden, workdir, env, start)
    loops = [probes]
    if workload == "cli-cold":
        spans: list = []
        loop = cold.cold_loop(golden, workdir, env, 2 * part, start, spans)
        loops.append(loop)
        plain = [t for t, flag in zip(loop.latencies, loop.traced) if not flag]
        traced = [t for t, flag in zip(loop.latencies, loop.traced) if flag]
        overhead = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        out = ROOT / ".bench_out" / "spans-cli-cold-processes.jsonl"
        out.write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="ascii")
    proc, _ = children.worker(workload, seed, part, "trace", workdir)
    res = children.result(proc)
    values.update(res["metrics"])
    if workload != "cli-cold":
        overhead = res["traced_ops_per_s"] / res["untraced_ops_per_s"]
    values["trace.overhead_ratio"] = overhead
    notes = {
        "cli.import_share": f"cli.import_ms over cli.cold.p50_ms, "
                            f"{len(probes.latencies)} processes of each kind",
        "trace.overhead_ratio": f"{workload}: traced ops_per_s over untraced ops_per_s; "
                                f"{res['span_count']} in-process spans",
    }
    return {"values": values, "notes": notes,
            "attempted": sum(len(lp.latencies) for lp in loops) + res["attempted"],
            "failed": sum(lp.failed for lp in loops) + res["failed"],
            "errors": [e for lp in loops for e in lp.errors] + res["errors"],
            "properties": {}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a morphtip checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"# morphtip benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; one client, closed loop")
    for line in report.env_header(ROOT):
        print(line)
    children = Children()
    try:
        if args.trace:
            res = run_traced(children, args.workload, args.seed, args.seconds)
        elif args.workload == "cli-cold":
            res = run_cli_cold(args.seed, args.seconds)
        else:
            res = run_in_process(children, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()

    missing = [m["name"] for m in wanted if m["name"] not in res["values"]]
    if missing:
        print(f"benchmark produced no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": res["values"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    for key, value in res["properties"].items():
        print(f"# inputs: {key} = {value:.6g}")
    print(*report.metric_lines(metrics, res["notes"]), sep="\n")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{'failed_ratio':<42} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} operations")
    for err in res["errors"]:
        print(f"# failure: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
