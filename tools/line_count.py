"""Count the library lines each benchmark operation executes, over the pools of the given seeds.

Usage: ``python tools/line_count.py WORKLOAD SEED [SEED ...]``, where
WORKLOAD is ``grasp-batch`` or ``design-sweep``.  Each seed's pool is
built as ``bench/worker.py`` builds it, from this checkout's ``src/``,
and every input in it runs once through the workload's operation under
``sys.settrace``, which counts each line event in a file of the
``morphtip`` package.  Prints the total, and the median and p97.5 (the
nearest-rank percentile) per operation.  Unlike wall time, the count is
the same on every run with the same Python; it is blind to work done in
C.  The ``bench/`` modules are imported and left as they are.
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "bench"))

import tracing  # noqa: E402
import worker  # noqa: E402  (puts this checkout's src/ and tests/ on the path)
import workloads  # noqa: E402

import morphtip  # noqa: E402

LIBRARY = str(Path(morphtip.__file__).parent) + "/"


def line_counts(workload: str, seeds: list[int]) -> list[int]:
    """Library lines each operation executed, in pool order, seed by seed.

    The operations catch the errors their pools plan, so any other error
    is raised here.  A trace function already installed, such as a
    debugger's or a coverage tool's, is put back after each operation.
    """
    op = workloads.WORKLOADS[workload][0]
    api = tracing.Api()
    count = 0

    def line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return line

    def call(frame, event, arg):  # traces a frame only when its code is the library's
        return line if frame.f_code.co_filename.startswith(LIBRARY) else None

    counts = []
    for seed in seeds:
        pool, _ = worker.build(workload, seed)
        for inp in pool:
            count = 0
            previous = sys.gettrace()
            sys.settrace(call)
            try:
                op(api, inp)
            finally:
                sys.settrace(previous)
            counts.append(count)
    return counts


def summary(counts: list[int]) -> tuple[int, float, int]:
    """The total, the median and the nearest-rank p97.5 of the counts."""
    ranked = sorted(counts)
    return sum(ranked), statistics.median(ranked), ranked[math.ceil(0.975 * len(ranked)) - 1]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in workloads.WORKLOADS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    counts = line_counts(argv[0], [int(seed) for seed in argv[1:]])
    total, median, p97_5 = summary(counts)
    print(f"operations {len(counts)}  total {total}  median {median:g}  p97.5 {p97_5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
