"""Latency summaries, the environment header and the printed report."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
from importlib import metadata
from pathlib import Path

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def latency_summary(latencies: list[float], keys: list) -> dict:
    """Median, tail and throughput of one closed loop (latencies in s).

    ``keys[i]`` names the input of operation i.  Where inputs recur, each
    input's latency is the best of its repeats: on a shared machine,
    other tenants only ever slow an operation down, and their load changes
    from second to second, so the fastest repeat is the steadiest estimate
    of what the code costs.  Distinct keys make every operation its own
    sample.

    The median and tail are taken over the inputs' best latencies.  The
    tail is the 11th largest, the highest order statistic with at least
    ten samples beyond it (the largest, with fewer beyond, when a run has
    no more than ten inputs); its percentile is rank / (n - 1).
    Throughput is operations over the summed best latency of each
    operation's input: the rate of a client with no think time.  The
    benchmark's own checks between operations are not in it.
    """
    best: dict = {}
    for key, t in zip(keys, latencies):
        if t < best.get(key, math.inf):
            best[key] = t
    ordered = sorted(best.values())
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "n": n,
        "ops": len(latencies),
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[rank] * 1e3,
        "tail_pct": 100.0 * rank / (n - 1) if n > 1 else 100.0,
        "tail_beyond": n - 1 - rank,
        "ops_per_s": len(keys) / sum(best[k] for k in keys),
        "raw_p50_ms": statistics.median(latencies) * 1e3,
    }


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (checkout is not a git repository)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not runnable)"
    return proc.stdout.strip() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def env_header(root: Path) -> list[str]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load1 = fh.read().split()[0]
    except OSError:
        load1 = "unknown"
    versions = ", ".join(f"{d} {_version(d)}" for d in ("numpy", "scipy", "click"))
    return [
        f"# env: python {platform.python_version()}, {versions}",
        f"# env: nproc {len(os.sched_getaffinity(0))}, loadavg-1min {load1}, "
        f"commit {_git_commit(root)}",
        "# env: shared machine; not pinned, not retuned, page cache warm",
    ]


def metric_lines(metrics: dict, notes: dict) -> list[str]:
    lines = []
    for name, m in metrics.items():
        note = notes.get(name, "")
        lines.append(f"{name:<42} {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())
    return lines
